"""Congruence canonical forms for 2x2 forms over Q(i) and extensions."""

import hashlib
import random
from fractions import Fraction

import pytest

from leibkit.catalogue import instantiate, sample_params
from leibkit.forms import (
    BilinearForm2,
    CanonicalKind,
    HypothesisViolation,
    congruence_canonical,
    congruent,
    extract_v_form,
    section_two_eligible,
)
from leibkit.linalg import Matrix, SingularMatrix
from leibkit.scalars import (ZERO, ExtensionTowerNeeded, GaussianRational,
                             QuadExtElem, QuadExtField)


def _apply(matrix, vec):
    """The matrix times a dense vector of scalars."""
    return tuple(sum((a * b for a, b in zip(row, vec)), ZERO)
                 for row in matrix.rows)


def canon(rows):
    return congruence_canonical(BilinearForm2(Matrix(rows)))


def verify_congruence(m, res):
    q = res.q
    rep = res.kind.rep_matrix()
    if res.extension_d is not None:
        field = QuadExtField(res.extension_d)
        m = Matrix([[field.embed(x) for x in row] for row in m.rows])
        rep = Matrix([[field.embed(x) for x in row] for row in rep.rows])
    assert q.transpose() @ m @ q == rep
    q.inv()  # invertible


def test_representatives_are_fixed_points():
    kinds = [CanonicalKind("zero"), CanonicalKind("skew_i"),
             CanonicalKind("sym_rank1_ii"), CanonicalKind("sym_rank2_iii"),
             CanonicalKind("mixed_iv"),
             CanonicalKind("mixed_v", GaussianRational(Fraction(1, 2)))]
    for kind in kinds:
        rep = kind.rep_matrix()
        res = congruence_canonical(BilinearForm2(rep))
        assert res.kind == kind
        assert res.q == Matrix.identity(2)
        assert res.extension_d is None


def test_kind_validation():
    with pytest.raises(ValueError):
        CanonicalKind("diag")
    with pytest.raises(ValueError):
        CanonicalKind("mixed_v")  # needs c
    with pytest.raises(ValueError):
        CanonicalKind("mixed_v", GaussianRational(1))
    with pytest.raises(ValueError):
        CanonicalKind("skew_i", GaussianRational(2))
    assert str(CanonicalKind("skew_i")) == "(i)"


def test_concrete_classifications():
    assert canon([[0, 0], [0, 0]]).kind.tag == "zero"
    assert canon([[0, 3], [-3, 0]]).kind.tag == "skew_i"
    assert canon([[1, 0], [0, 0]]).kind.tag == "sym_rank1_ii"
    assert canon([[1, 2], [2, 4]]).kind.tag == "sym_rank1_ii"
    assert canon([[1, 0], [0, 1]]).kind.tag == "sym_rank2_iii"
    assert canon([[-1, 0], [0, 1]]).kind.tag == "sym_rank2_iii"
    assert canon([[0, 1], [-1, 1]]).kind.tag == "mixed_iv"
    res = canon([[0, 2], [4, 0]])
    assert res.kind.tag == "mixed_v"
    assert res.kind.c == GaussianRational(Fraction(1, 2))


def test_witnesses_verify_exactly():
    cases = [[[0, 3], [-3, 0]], [[1, 2], [2, 4]], [[2, 1], [1, 1]],
             [[0, 2], [4, 0]], [[0, 1], [-1, 1]], [[1, 1], [-1, 0]],
             [[0, 0], [0, 0]], [[GaussianRational(0, 1), 0], [0, 1]]]
    for rows in cases:
        m = Matrix(rows)
        verify_congruence(m, congruence_canonical(BilinearForm2(m)))


def test_extension_witness():
    res = canon([[2, 0], [0, 0]])
    assert res.kind.tag == "sym_rank1_ii"
    assert res.extension_d is not None
    verify_congruence(Matrix([[2, 0], [0, 0]]), res)


def test_single_extension_covers_rational_input():
    # adjoining sqrt(det) is always enough over Q(i)
    res = canon([[2, 0], [0, 3]])
    assert res.kind.tag == "sym_rank2_iii"
    assert res.extension_d is not None
    verify_congruence(Matrix([[2, 0], [0, 3]]), res)


def test_extension_tower_refused():
    f = QuadExtField(2)
    nested = Matrix([[f.sqrt_d, f.embed(0)], [f.embed(0), f.embed(1)]])
    with pytest.raises(ExtensionTowerNeeded):
        congruence_canonical(BilinearForm2(nested))


def test_random_congruence_invariance():
    rng = random.Random(900)
    reps = [[[0, 1], [-1, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 1]],
            [[0, 1], [-1, 1]], [[0, 1], [Fraction(1, 2), 0]]]
    for rows in reps:
        base = BilinearForm2(Matrix(rows))
        for _ in range(6):
            while True:
                p = Matrix([[rng.randint(-3, 3) for _ in range(2)]
                            for _ in range(2)])
                try:
                    p.inv()
                    break
                except SingularMatrix:
                    continue
            moved = BilinearForm2(p.transpose() @ base.matrix @ p)
            try:
                assert congruent(base, moved)
            except ExtensionTowerNeeded:
                continue  # some transports need a second radical; fine


def test_congruent_distinguishes_kinds():
    f1 = BilinearForm2(Matrix([[1, 0], [0, 1]]))
    f2 = BilinearForm2(Matrix([[0, 1], [-1, 0]]))
    f3 = BilinearForm2(Matrix([[1, 0], [0, 0]]))
    assert not congruent(f1, f2)
    assert not congruent(f1, f3)
    assert congruent(f1, f1)


def test_mixed_v_pairing():
    # c and 1/c give congruent forms; unrelated c values do not
    a = BilinearForm2(Matrix([[0, 1], [2, 0]]))
    b = BilinearForm2(Matrix([[0, 1], [Fraction(1, 2), 0]]))
    c = BilinearForm2(Matrix([[0, 1], [3, 0]]))
    assert congruent(a, b)
    assert not congruent(a, c)


def test_section_two_eligibility(catalogue):
    assert section_two_eligible(instantiate(catalogue.entry("A_1")))
    assert not section_two_eligible(instantiate(catalogue.entry("A_16")))


def test_extract_v_form(catalogue):
    alg = instantiate(catalogue.entry("A_1"))
    form, basis = extract_v_form(alg)
    res = congruence_canonical(form)
    assert res.kind.tag != "skew_i"
    assert basis.matrix.nrows == 5
    basis.matrix.inv()  # the adapted basis really is a basis
    with pytest.raises(HypothesisViolation):
        extract_v_form(instantiate(catalogue.entry("A_16")))
    # [u, v] lies in A^2, so in the adapted basis its complement
    # coordinates vanish, and its last one, on the Leib generator, is f(u, v)
    rng = random.Random(5)
    extracted = 0
    for entry in catalogue:
        first = instantiate(entry, sample_params(entry, 1)[0])
        if not section_two_eligible(first):
            continue
        moved = []
        while len(moved) < 3:
            p = Matrix([[rng.randint(-3, 3) for _ in range(5)]
                        for _ in range(5)])
            try:
                p.inv()
            except SingularMatrix:
                continue
            moved.append(first.base_change(p))
        for alg in [first] + moved:
            form, record = extract_v_form(alg)
            to_adapted = record.matrix.inv()
            for a, u in enumerate(record.complement):
                for b, v in enumerate(record.complement):
                    coords = _apply(to_adapted, alg.bracket(u, v))
                    assert all(x.is_zero() for x in coords[:2])
                    assert coords[-1] == form.matrix[a, b]
            extracted += 1
    assert extracted == 4 * 15


def _witness_corpus():
    """1,500 seeded forms.  In each ten, six are lambda * P^T R P for a
    representative R: one per kind with lambda in Q(i), and one with
    lambda a square in Q(i)(sqrt d).  Three have random Q(i) entries and
    one has random Q(i)(sqrt d) entries.  Together they reach every
    witness path of congruence_canonical, ExtensionTowerNeeded included."""
    rng = random.Random(1212)
    small = [GaussianRational(a, b) for a in range(-2, 3) for b in range(-1, 2)]
    units = small[5:10]  # 0, +-1, +-i: the sqrt(d) coefficients
    scales = [GaussianRational(x) for x in (1, -1, 2, 3, 5, Fraction(1, 2))] \
        + [GaussianRational(0, 1), GaussianRational(1, 1), GaussianRational(2, 1)]
    cs = [GaussianRational(x)
          for x in (2, Fraction(1, 2), 3, -2, -3, 4, 9, Fraction(1, 3))] \
        + [GaussianRational(0, 1), GaussianRational(1, 2)]
    reps = [[[0, 1], [-1, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 1]],
            [[0, 1], [-1, 1]]]
    fields = [QuadExtField(d) for d in (2, 3, -2, GaussianRational(1, 2))]
    forms = []
    for k in range(1500):
        slot = k % 10
        if slot < 5 or slot == 9:
            r = slot if slot < 5 else rng.randrange(5)
            rep = reps[r] if r < 4 else [[0, 1], [rng.choice(cs), 0]]
            while True:
                p = Matrix([[rng.randint(-3, 3) for _ in range(2)]
                            for _ in range(2)])
                if not (p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]).is_zero():
                    break
            m = p.transpose() @ Matrix(rep) @ p
            lam = rng.choice(scales)
            if slot == 9:
                mu = QuadExtElem(rng.choice(small), rng.choice(units),
                                 rng.choice(fields))
                lam = mu * mu
            forms.append(Matrix([[lam * x for x in row] for row in m.rows]))
        elif slot < 8:
            forms.append(Matrix([[rng.choice(small) for _ in range(2)]
                                 for _ in range(2)]))
        else:
            f = rng.choice(fields)
            forms.append(Matrix([[QuadExtElem(rng.choice(small),
                                              rng.choice(units), f)
                                  for _ in range(2)] for _ in range(2)]))
    return forms


def _scalar_text(x):
    if isinstance(x, QuadExtElem):
        return "%s[%r]:%r" % (type(x).__name__, x.field.d, x)
    return "%s:%r" % (type(x).__name__, x)


def test_canonical_witness_digest():
    # kind, c, every entry of Q with its type, and extension_d, or the
    # exception raised; the hash pins the exact witnesses, not just kinds
    h = hashlib.sha256()
    for m in _witness_corpus():
        try:
            res = congruence_canonical(BilinearForm2(m))
        except ExtensionTowerNeeded as ex:
            line = type(ex).__name__
        else:
            q = ";".join(",".join(_scalar_text(x) for x in row)
                         for row in res.q.rows)
            line = "%s|%r|%s|%r" % (res.kind.tag, res.kind.c, q,
                                    res.extension_d)
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == ("2c67ebaea11bd7747f24785d1aee75dc"
                             "38ba84483e6d72300a40142a84fcd1fd")
