"""Basis-free signature: values on known algebras, invariance, diff."""

import random

from leibkit import algebra, linalg
from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import instantiate, sample_params
from leibkit.invariants import signature
from leibkit.linalg import Matrix, SingularMatrix, Subspace
from leibkit.scalars import ZERO, GaussianRational


def test_abelian_signature():
    sig = signature(LeibnizAlgebra(5, {}))
    assert sig.dim == 5
    assert sig.lower_central_dims == (5, 0)
    assert sig.dim_leib == 0
    assert sig.dim_center == 5
    assert sig.is_lie


def test_catalogue_entry_signatures(catalogue):
    sig = signature(instantiate(catalogue.entry("A_1")))
    assert sig.lower_central_dims == (5, 3, 2, 1, 0)
    assert sig.dim_leib == 1
    assert sig.dim_center == 1
    assert not sig.is_lie
    sig16 = signature(instantiate(catalogue.entry("A_16")))
    assert sig16.lower_central_dims == (5, 4, 3, 2, 1, 0)
    assert sig16.dim_leib == 4


def test_structural_constraints(catalogue):
    for name in ("A_1", "A_16", "A_42", "A_233", "R_5"):
        entry = catalogue.entry(name)
        values = sample_params(entry, 1)[0] if entry.is_parametric else {}
        sig = signature(instantiate(entry, values))
        assert sig.derived_dims[1] == sig.lower_central_dims[1]
        assert sig.dim_center <= min(sig.dim_left_ann, sig.dim_right_ann)
        assert all(0 <= d <= sig.dim for d in sig.lower_central_dims)


def test_as_dict_and_diff(catalogue):
    a = signature(instantiate(catalogue.entry("A_1")))
    b = signature(instantiate(catalogue.entry("A_16")))
    assert a.diff(a) == []
    delta = a.diff(b)
    assert "dim_leib" in delta and "lower_central_dims" in delta
    assert set(a.as_dict()) == set(b.as_dict())
    assert a.as_dict()["dim_leib"] == 1


def test_base_change_invariance_sample(catalogue):
    rng = random.Random(42)
    for name in ("A_1", "A_17", "R_5"):
        entry = catalogue.entry(name)
        values = sample_params(entry, 1)[0] if entry.is_parametric else {}
        alg = instantiate(entry, values)
        sig = signature(alg)
        for _ in range(3):
            while True:
                p = Matrix([[rng.randint(-3, 3) for _ in range(5)]
                            for _ in range(5)])
                try:
                    p.inv()
                    break
                except SingularMatrix:
                    continue
            assert signature(alg.base_change(p)) == sig


def _antisymmetric(alg):
    for (i, j), comps in alg.table.items():
        other = alg.table.get((j, i), {})
        if set(comps) != set(other):
            return False
        if any(not (s + other[k]).is_zero() for k, s in comps.items()):
            return False
    return True


# not nilpotent, Z(A) outside A^2 and Leib(A) outside A^3; then a Lie algebra
STALLED = LeibnizAlgebra(5, {(0, 1): {1: GaussianRational(1)},
                             (2, 2): {3: GaussianRational(1)}})
HEISENBERG = LeibnizAlgebra(5, {(0, 1): {2: GaussianRational(1)},
                                (1, 0): {2: GaussianRational(-1)}})


# the earlier formulas, kept as references for the ones in the package

def _derived_by_squares(alg):
    """A, [A, A], ... by [last, last] from A, up to 0 or a repeat."""
    series = [alg.full_space()]
    while series[-1].dim != 0:
        nxt = alg.subspace_product(series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return tuple(series)


def _leib_by_polarisation(alg):
    """The squares [e_i, e_i] and the sums [e_i, e_j] + [e_j, e_i]."""
    vecs = []
    for i in range(alg.n):
        for j in range(i, alg.n):
            comps = dict(alg.bracket_basis(i, j))
            if j != i:
                for k, s in alg.bracket_basis(j, i).items():
                    comps[k] = comps.get(k, ZERO) + s
            vecs.append(tuple(comps.get(k, ZERO) for k in range(alg.n)))
    return Subspace(alg.n, vecs)


def _bracket_by_table(alg, u, v):
    """The double sum of u_i v_j [e_i, e_j] over the whole table."""
    acc = [ZERO] * alg.n
    for (i, j), comps in alg.table.items():
        for k, s in comps.items():
            acc[k] = acc[k] + u[i] * v[j] * s
    return tuple(acc)


def test_signature_facts_match_direct_computation(catalogue):
    rng = random.Random(8)
    algebras = [STALLED, HEISENBERG]
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        algebras.append(alg)
        if rng.random() < 0.25:  # about a quarter also get a base change
            while True:
                p = Matrix([[rng.randint(-2, 2) for _ in range(5)]
                            for _ in range(5)])
                try:
                    p.inv()
                    break
                except SingularMatrix:
                    continue
            algebras.append(alg.base_change(p))
            cols = p.transpose().rows
            assert all(alg.bracket(u, v) == _bracket_by_table(alg, u, v)
                       for u in cols for v in cols)
    seen = set()
    for alg in algebras:
        sig = signature(alg)
        sq = alg.lower_central_term(2)
        cube = alg.lower_central_term(3)
        center, leib = alg.center(), alg.leib_ideal()
        facts = (sig.nilpotent,
                 sig.dim_center_cap_sq == sig.dim_center,
                 sig.dim_leib_cap_cube == sig.dim_leib,
                 alg.is_lie())
        assert facts == (alg.is_nilpotent(), (sq + center) == sq,
                         (cube + leib) == cube, _antisymmetric(alg))
        assert alg.derived_series() == _derived_by_squares(alg)
        assert sig.dim_sq_bracket_sq == alg.subspace_product(sq, sq).dim
        assert leib == _leib_by_polarisation(alg)
        seen.add(facts)
    # each fact is seen both true and false
    assert all({f[k] for f in seen} == {True, False} for k in range(4))


def test_signature_computes_each_product_once(catalogue, monkeypatch):
    calls = []
    product = LeibnizAlgebra.subspace_product

    def counted(self, u_space, v_space):
        calls.append(self)
        return product(self, u_space, v_space)

    monkeypatch.setattr(LeibnizAlgebra, "subspace_product", counted)
    algebras = [LeibnizAlgebra(5, {}), STALLED, HEISENBERG]
    algebras += [instantiate(entry, sample_params(entry, 1)[0])
                 for entry in catalogue]
    for alg in algebras:
        fresh = LeibnizAlgebra(alg.n, alg.table)
        calls.clear()
        signature(fresh)
        lower, derived = fresh.lower_central_series(), fresh.derived_series()
        # one product per term after A^2, which is read off the table, and
        # after A^(2) = A^2; a series that stalls above 0 needs one more
        # to see the repeat; one more for [A^2, A]
        expected = (len(lower) - 2 + (lower[-1].dim != 0)
                    + len(derived) - 2 + (derived[-1].dim != 0) + 1)
        assert len(calls) == expected, alg


def test_signature_rref_count(catalogue, monkeypatch):
    # signature reduces each subspace it builds once, every reduction
    # going through linalg's one elimination routine, and takes the rows
    # that are already reduced (the whole space's unit rows, the kernels'
    # vectors and the intersection's rows) as they stand: 2,918 over the
    # first points, 4,026 while those were eliminated a second time
    calls, spaces = [], []
    echelon, of = linalg._echelon, Subspace._of

    def counted(rows):
        calls.append(None)
        return echelon(rows)

    def built(cls, ambient, done):
        spaces.append(None)
        return of(ambient, done)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(Subspace, "_of", classmethod(built))
    per_point = {}
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        calls.clear()
        spaces.clear()
        signature(LeibnizAlgebra(alg.n, alg.table))
        per_point[entry.name] = len(calls)
        # one elimination per subspace, none for the whole space
        assert len(calls) == len(spaces) - 1, entry.name
    assert per_point["A_1"] == 12
    assert sum(per_point.values()) == 2918


def test_signature_index_pass_count(catalogue, monkeypatch):
    # A^2 is spanned by the table's values, and a product with the whole
    # algebra is read off the table's index by consumed component, one
    # pass per echelon row of the other factor: 1,448 passes over the
    # first points.  [A^2, A] and [A^2, A^2] share one pass per row of
    # A^2, so the derived series brackets no two vectors either.  The
    # Leibniz check, Leib and the lower central series bracket none
    calls = []

    def counted(method, kind):
        def call(self, *args):
            calls.append(kind)
            return method(self, *args)
        return call

    for name in ("_unit_products", "bracket"):
        monkeypatch.setattr(LeibnizAlgebra, name, counted(
            getattr(LeibnizAlgebra, name), name))
    per_point = {}
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        calls.clear()
        fresh = LeibnizAlgebra(alg.n, alg.table)
        fresh.check_leibniz()
        fresh.leib_ideal()
        fresh.lower_central_series()
        assert "bracket" not in calls, entry.name
        calls.clear()
        signature(LeibnizAlgebra(alg.n, alg.table))
        per_point[entry.name] = (calls.count("_unit_products"),
                                 calls.count("bracket"))
    assert per_point["A_1"] == (9, 0)
    assert [sum(c) for c in zip(*per_point.values())] == [1448, 0]


def test_signature_converts_no_vector(catalogue, monkeypatch):
    # subspaces keep their echelon's sparse rows, and every kernel is read
    # off one echelon, so a signature pass neither takes the sparse row of
    # a dense vector nor makes a row dense
    calls = []

    def counted(convert):
        def call(*args):
            calls.append(None)
            return convert(*args)
        return call

    for name in ("_support", "_dense"):
        # algebra binds both names at import
        wrapped = counted(getattr(linalg, name))
        monkeypatch.setattr(linalg, name, wrapped)
        monkeypatch.setattr(algebra, name, wrapped)
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        signature(LeibnizAlgebra(alg.n, alg.table))
    assert len(calls) == 0


def _combined_center(alg):
    """Z(A) as one kernel of both annihilators' conditions, built from
    the table here: coordinate k of [x, e_j] and of [e_j, x] is 0 for
    every j and k."""
    rows = {}
    for (a, b), comps in alg.table.items():
        for k, s in comps.items():
            rows.setdefault(("left", b, k), {})[a] = s
            rows.setdefault(("right", a, k), {})[b] = s
    return Subspace._span(alg.n, linalg._nullspace(list(rows.values()),
                                                   alg.n))


def test_intersections_match_intersect(catalogue):
    # at every report point the center (the two annihilators'
    # intersection) is the one kernel of both annihilators' conditions,
    # and the two intersections the signature reads from sums by the
    # dimension formula agree with Subspace.intersect
    points = 0
    for entry in catalogue:
        for values in sample_params(entry, 3):
            alg = instantiate(entry, values)
            sig = signature(alg)
            center, sq = alg.center(), alg.lower_central_term(2)
            assert center == _combined_center(alg), (entry.name, values)
            assert sig.dim_center_cap_sq == center.intersect(sq).dim
            assert sig.dim_leib_cap_cube == alg.leib_ideal().intersect(
                alg.lower_central_term(3)).dim
            points += 1
    assert points == 545


def test_center_of_dense_base_changes(catalogue):
    # the same oracle where every product is dense: first points under
    # seeded +-1 base changes
    rng = random.Random(3)
    for entry in list(catalogue)[::9]:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        while True:
            p = Matrix([[rng.randint(-1, 1) for _ in range(5)]
                        for _ in range(5)])
            if p.rref()[1] == 5:
                break
        moved = alg.base_change(p)
        assert moved.center() == _combined_center(moved), entry.name
        assert moved.center().dim == alg.center().dim, entry.name
