"""Two stored isomorphism statements that exact witnesses contradict.

The record of A_40 says "Members with distinct parameter values are
pairwise non-isomorphic", yet e2, e4, e5 -> t e, e3 -> sqrt(t) e3 takes
A_40(alpha) to A_40(t alpha), so A_40(1) is isomorphic to A_40(4) and,
over Q(i)(sqrt 2), to A_40(2).  The record of A_173 says two members are
isomorphic iff they share (alpha+beta)^2 + 2(alpha-beta), yet A_173(1, 2)
and A_173(3, 0), where it is 7 and 15, are isomorphic.  Each witness is
checked exactly; the catalogue is left as the paper prints it.
"""

from leibkit import exprs
from leibkit.catalogue import instantiate
from leibkit.iso import verify_witness
from leibkit.linalg import Matrix
from leibkit.scalars import GaussianRational


def _matrix(rows):
    return Matrix([[exprs.parse_scalar(t) for t in row] for row in rows])


def _diag(*texts):
    return _matrix([[t if r == c else "0" for c, t in enumerate(texts)]
                    for r in range(len(texts))])


def _point(catalogue, name, **values):
    return instantiate(catalogue.entry(name), values)


def test_a40_members_are_isomorphic(catalogue):
    one = _point(catalogue, "A_40", alpha=1)
    assert "pairwise non-isomorphic" in catalogue.entry("A_40").iso.statement
    four = _point(catalogue, "A_40", alpha=4)
    assert verify_witness(one, four,
                          _diag("1", "1/4", "-1/2", "1/4", "1/4")) is None
    two = _point(catalogue, "A_40", alpha=2)
    assert verify_witness(one, two,
                          _diag("1", "1/2", "sqrt(2)/2", "1/2", "1/2")) is None


def test_a173_invariant_separates_isomorphic_members(catalogue):
    entry = catalogue.entry("A_173")
    source = _point(catalogue, "A_173", alpha=1, beta=2)
    target = _point(catalogue, "A_173", alpha=3, beta=0)
    witness = _matrix([["-1/2", "-1/3", "0", "0", "0"],
                       ["0", "-1/2", "0", "0", "0"],
                       ["0", "0", "-1/2", "0", "0"],
                       ["0", "0", "0", "1/4", "0"],
                       ["0", "0", "0", "1/2", "1/4"]])
    assert verify_witness(source, target, witness) is None
    invariant = exprs.parse_expr(entry.iso.invariant, entry.params)
    assert [exprs.evaluate(invariant, {"alpha": GaussianRational(a),
                                       "beta": GaussianRational(b)})
            for a, b in ((1, 2), (3, 0))] == [7, 15]
