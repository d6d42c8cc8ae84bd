"""Structure-constant algebras: bracket, identities, series, base change."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leibkit.algebra import LeibnizAlgebra, LeibnizViolation, _sum_rows
from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import _mod_p
from leibkit.linalg import AmbientMismatch, Matrix, SingularMatrix, Subspace
from leibkit.scalars import (ONE, ZERO, GaussianRational, PrimeField,
                             QuadExtField)


# [e1,e1] = e2: the smallest non-Lie left Leibniz algebra
SQUARE2 = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(1)}})

# Heisenberg: [e1,e2] = -[e2,e1] = e3
HEIS = LeibnizAlgebra(3, {(0, 1): {2: GaussianRational(1)},
                          (1, 0): {2: GaussianRational(-1)}})


def small_invertible(rng, n, lo=-3, hi=3):
    while True:
        m = Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


def a1():
    one = GaussianRational(1)
    return LeibnizAlgebra(5, {
        (0, 0): {4: one}, (0, 1): {2: one}, (0, 2): {3: one},
        (0, 3): {4: one}, (1, 0): {2: -one}, (2, 0): {3: -one},
        (3, 0): {4: -one},
    })


def gvec(*entries):
    return tuple(GaussianRational(x) for x in entries)


def test_bracket_basics():
    assert HEIS.bracket(gvec(1, 0, 0), gvec(0, 1, 0)) == gvec(0, 0, 1)
    z = GaussianRational(0)
    assert SQUARE2.bracket(gvec(1, 0), gvec(1, 0)) == (z, GaussianRational(1))
    assert SQUARE2.bracket(gvec(0, 1), gvec(1, 0)) == (z, z)
    assert SQUARE2.bracket_basis(0, 0) == {1: GaussianRational(1)}
    assert SQUARE2.bracket_basis(0, 1) == {}


def test_bracket_bilinear():
    rng = random.Random(5)
    alg = a1()
    for _ in range(10):
        u, v, w = ([GaussianRational(rng.randint(-3, 3)) for _ in range(5)]
                   for _ in range(3))
        lhs = alg.bracket([a + b for a, b in zip(u, v)], w)
        rhs = [a + b for a, b in zip(alg.bracket(u, w), alg.bracket(v, w))]
        assert list(lhs) == rhs
        c = GaussianRational(rng.randint(-3, 3))
        assert list(alg.bracket(u, [c * x for x in v])) == [c * x for x in alg.bracket(u, v)]


def test_check_leibniz():
    assert SQUARE2.check_leibniz() is None
    assert HEIS.check_leibniz() is None
    assert a1().check_leibniz() is None
    bad = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(1)},
                             (0, 1): {0: GaussianRational(1)}})
    violation = bad.check_leibniz()
    assert isinstance(violation, LeibnizViolation)
    assert "e" in str(violation)


def test_lie_flags():
    # for an algebra satisfying the left Leibniz identity, being Lie is
    # the same as having an antisymmetric bracket
    assert HEIS.is_lie()
    assert not SQUARE2.is_lie()
    assert not a1().is_lie()
    near_skew = LeibnizAlgebra(3, {(0, 1): {2: GaussianRational(1)},
                                   (1, 0): {2: GaussianRational(-1)},
                                   (0, 0): {2: GaussianRational(1)}})
    assert near_skew.check_leibniz() is None
    assert not near_skew.is_lie()


def test_series_and_nilpotency():
    alg = a1()
    assert alg.lower_central_dims() == (5, 3, 2, 1, 0)
    assert alg.derived_dims() == (5, 3, 0)
    assert alg.is_nilpotent()
    assert HEIS.lower_central_dims() == (3, 1, 0)
    abelian = LeibnizAlgebra(4, {})
    assert abelian.lower_central_dims() == (4, 0)
    loop = LeibnizAlgebra(1, {(0, 0): {0: GaussianRational(1)}})
    assert not loop.is_nilpotent()


def test_leib_ideal_and_annihilators():
    assert SQUARE2.leib_ideal() == Subspace(2, [(0, 1)])
    assert HEIS.leib_ideal().dim == 0
    alg = a1()
    assert alg.leib_ideal().dim == 1
    assert alg.center() == Subspace(5, [(0, 0, 0, 0, 1)])
    assert SQUARE2.center() == Subspace(2, [(0, 1)])
    assert HEIS.center() == Subspace(3, [(0, 0, 1)])
    assert SQUARE2.left_annihilator() == Subspace(2, [(0, 1)])


def test_base_change_identity_and_relabel():
    alg = SQUARE2
    assert alg.base_change(Matrix.identity(2)) == alg
    swap = Matrix([[0, 1], [1, 0]])
    relabeled = alg.base_change(swap)
    assert relabeled.table == {(1, 1): {0: GaussianRational(1)}}
    with pytest.raises(SingularMatrix):
        alg.base_change(Matrix([[1, 1], [1, 1]]))


def test_base_change_composition():
    rng = random.Random(6)
    alg = a1()
    for _ in range(6):
        p = small_invertible(rng, 5)
        q = small_invertible(rng, 5)
        assert alg.base_change(p).base_change(q) == alg.base_change(p @ q)
        moved = alg.base_change(p)
        assert moved.base_change(p.inv()) == alg
        assert moved.check_leibniz() is None


def test_scaling_a_generator_rescales_products():
    # x1 = 2*e1 divides [x1, e2] coefficients by 2 in the new coordinates
    alg = SQUARE2
    p = Matrix([[2, 0], [0, 1]])
    scaled = alg.base_change(p)
    assert scaled.table == {(0, 0): {1: GaussianRational(4)}}


# -- derivations -------------------------------------------------------------

def _all_points(catalogue):
    for entry in catalogue:
        for values in sample_params(entry):
            yield instantiate(entry, values)


def _dense_delta_rank(alg):
    """Rank of delta from one dense column per matrix unit E_ab: entry
    (i, j, k) is coordinate k of E_ab[e_i, e_j] - [E_ab e_i, e_j]
    - [e_i, E_ab e_j], where E_ab e_b = e_a and E_ab kills the rest."""
    n = alg.n
    units = [[int(k == i) for k in range(n)] for i in range(n)]
    c = [[alg.bracket(x, y) for y in units] for x in units]
    cols = []
    for a in range(n):
        for b in range(n):
            col = []
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        x = c[i][j][b] if k == a else ZERO
                        if i == b:
                            x = x - c[a][j][k]
                        if j == b:
                            x = x - c[i][a][k]
                        col.append(x)
            cols.append(col)
    return Matrix(cols).rref()[1]


def test_derivations_satisfy_the_identity(catalogue):
    n = 5
    units = [tuple(ONE if k == i else ZERO for k in range(n))
             for i in range(n)]
    for name in ("A_1", "A_36", "A_116", "A_242"):
        entry = catalogue.entry(name)
        alg = instantiate(entry, sample_params(entry, 1)[0])
        for vec in alg.derivations().basis:
            def d(v):
                return tuple(sum((vec[a * n + b] * v[b] for b in range(n)),
                                 ZERO) for a in range(n))
            for x in units:
                for y in units:
                    lhs = d(alg.bracket(x, y))
                    rhs = [s + t for s, t in zip(alg.bracket(d(x), y),
                                                 alg.bracket(x, d(y)))]
                    assert list(lhs) == rhs, (name, x, y)


def test_derivations_dim_is_25_minus_rank_delta(catalogue):
    points = 0
    for alg in _all_points(catalogue):
        points += 1
        assert alg.derivations().dim == 25 - _dense_delta_rank(alg)
    assert points == 545


def test_derivations_dim_survives_base_change(catalogue):
    rng = random.Random(25)
    for entry in list(catalogue)[::11]:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        moved = alg.base_change(small_invertible(rng, 5, -2, 2))
        assert moved.derivations().dim == alg.derivations().dim, entry.name


def test_derivations_dims_pinned(catalogue):
    dims = {name: instantiate(catalogue.entry(name)).derivations().dim
            for name in ("A_1", "A_2", "A_3", "A_36", "A_37")}
    assert dims == {"A_1": 8, "A_2": 7, "A_3": 7, "A_36": 8, "A_37": 7}
    assert SQUARE2.derivations().dim == 2   # diag(t, 2t) and e1 -> e2
    assert HEIS.derivations().dim == 6      # the gl_2 block and e1, e2 -> e3


def test_constructor_drops_zero_products():
    alg = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(0)}})
    assert alg.table == {}


@pytest.mark.parametrize("table, message", [
    ({(7, 0): {}}, r"bracket index \(7,0\)"),
    ({(0, 0): {9: 0}}, "component index 9"),
    ({(-1, 0): {0: 0}}, r"bracket index \(-1,0\)")],
    ids=["bracket", "component", "negative"])
def test_constructor_rejects_out_of_range_zero_products(table, message):
    # the indices are checked before the zero products are dropped
    with pytest.raises(IndexError, match=message):
        LeibnizAlgebra(5, table)


def test_int_and_fraction_constants_are_promoted():
    alg = LeibnizAlgebra(2, {(0, 0): {1: 1}, (0, 1): {1: Fraction(0)}})
    assert alg == SQUARE2
    assert all(type(s) is GaussianRational
               for comps in alg.table.values() for s in comps.values())
    assert alg.bracket((1, 0), (1, 0)) == (ZERO, ONE)
    half = Fraction(1, 2)
    assert alg.bracket((half, 0), (2, 0)) == (ZERO, ONE)
    assert all(type(x) is GaussianRational
               for x in alg.bracket((half, 0), (1, 0)))
    assert LeibnizAlgebra(3, {(0, 1): {2: 1}, (1, 0): {2: -1}}) == HEIS


# -- the Leibniz check against the triple loop over every (i, j, k) --------

def _bracket_by_table(alg, u, v):
    """[u, v] of sparse rows as the double sum of u_i v_j [e_i, e_j] over
    the whole table, apart from the algebra's own products."""
    acc = {}
    for (i, j), comps in alg.table.items():
        if i in u and j in v:
            for k, s in comps.items():
                t = u[i] * v[j] * s
                acc[k] = acc[k] + t if k in acc else t
    return {k: s for k, s in acc.items() if not s.is_zero()}


def _check_leibniz_by_triples(alg):
    """The identity tested at all n^3 triples of basis vectors."""
    n = alg.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _bracket_by_table(alg, {i: ONE}, alg.bracket_basis(j, k))
                r1 = _bracket_by_table(alg, alg.bracket_basis(i, j), {k: ONE})
                r2 = _bracket_by_table(alg, {j: ONE}, alg.bracket_basis(i, k))
                defect = dict(lhs)
                for term in (r1, r2):
                    for m, s in term.items():
                        t = defect.get(m, ZERO) - s
                        if t.is_zero():
                            defect.pop(m, None)
                        else:
                            defect[m] = t
                if defect:
                    vec = tuple(defect.get(m, ZERO) for m in range(n))
                    return LeibnizViolation(i, j, k, vec)
    return None


def _same_check(alg):
    got, want = alg.check_leibniz(), _check_leibniz_by_triples(alg)
    assert got == want
    if want is not None:  # the same scalars, kind included
        assert [type(x) for x in got.defect] == [type(x) for x in want.defect]
    return got


SQRT2 = QuadExtField(2)
small = st.integers(-2, 2)
gaussian = small.map(GaussianRational)
with_root = st.tuples(small, small).map(
    lambda ab: SQRT2.embed(ab[0]) + SQRT2.sqrt_d * GaussianRational(ab[1]))


@st.composite
def tables(draw, scalars):
    """n <= 4 and a table of entries in [-2, 2]: either any table, or one
    whose products all land in a block that brackets to 0, so the identity
    holds, with one more product planted on top."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    comps = st.dictionaries(index, scalars, max_size=n)
    if n == 1 or draw(st.booleans()):
        return n, draw(st.dictionaries(st.tuples(index, index), comps,
                                       max_size=n * n))
    cut = draw(st.integers(1, n - 1))  # e_cut..e_n span a central block
    low, high = st.integers(0, cut - 1), st.integers(cut, n - 1)
    table = draw(st.dictionaries(st.tuples(low, low),
                                 st.dictionaries(high, scalars, max_size=n),
                                 max_size=cut * cut))
    planted = draw(st.tuples(index, index))
    table[planted] = draw(comps)
    return n, table


@settings(max_examples=300, deadline=None)
@given(tables(gaussian))
def test_sparse_check_matches_triple_loop(n_table):
    _same_check(LeibnizAlgebra(*n_table))


@settings(max_examples=60, deadline=None)
@given(tables(st.one_of(gaussian, with_root)))
def test_sparse_check_matches_triple_loop_with_roots(n_table):
    _same_check(LeibnizAlgebra(*n_table))


def test_sparse_check_on_catalogue_mutants(catalogue):
    # the delete and negate mutants of criterion 9, on one entry
    entry = catalogue.entry("A_1")
    base = instantiate(entry, sample_params(entry, 1)[0])
    outcomes = []
    for key in sorted(base.table):
        for op in ("delete", "negate"):
            table = {k: dict(v) for k, v in base.table.items()}
            if op == "delete":
                del table[key]
            else:
                table[key] = {c: -v for c, v in table[key].items()}
            outcomes.append(_same_check(LeibnizAlgebra(5, table)))
    assert None in outcomes and any(outcomes)


def test_check_leibniz_brackets_per_product(catalogue, monkeypatch):
    # 3n^3 = 375 brackets at n = 5 whatever the table; the table has 7
    # products, and each may spend at most 2 passes over the table's
    # index, one for [e_x, [e_a, e_b]] and one for [[e_a, e_b], e_x]
    # over every x, and no bracket of two vectors
    calls = []

    def counted(method, kind):
        def call(self, *args):
            calls.append(kind)
            return method(self, *args)
        return call

    for name in ("_unit_products", "bracket"):
        monkeypatch.setattr(LeibnizAlgebra, name, counted(
            getattr(LeibnizAlgebra, name), name))
    algebras = [a1()]
    for name in ("A_16", "A_242"):
        entry = catalogue.entry(name)
        algebras.append(instantiate(entry, sample_params(entry, 1)[0]))
    for alg in algebras:
        calls.clear()
        assert alg.check_leibniz() is None
        assert set(calls) == {"_unit_products"}
        assert len(calls) <= 2 * len(alg.table)


# -- products of subspaces ---------------------------------------------------

def test_subspace_product_checks_ambient():
    alg = a1()
    with pytest.raises(AmbientMismatch):
        alg.subspace_product(Subspace(4, [(1, 0, 0, 0)]), alg.full_space())
    with pytest.raises(AmbientMismatch):
        alg.subspace_product(alg.full_space(), Subspace(6, []))


def _same_products(alg, spaces):
    """Each of [A, V], [V, A] and [U, V] over the given subspaces (U the
    one before V, cyclically) is the span of the products of their
    echelon rows, each summed over the table."""
    whole = alg.full_space()
    pairs = [(whole, v) for v in spaces] + [(v, whole) for v in spaces]
    pairs += list(zip(spaces[-1:] + spaces[:-1], spaces))
    for u_space, v_space in pairs:
        want = Subspace(alg.n, [
            [w.get(k, ZERO) for k in range(alg.n)]
            for w in (_bracket_by_table(alg, u, v) for u in u_space.echelon
                      for v in v_space.echelon)])
        assert alg.subspace_product(u_space, v_space) == want


def test_subspace_product_matches_bracket_span(catalogue):
    # the catalogue's points over Q(i), and the same algebras reduced to
    # GF(13) with subspaces over GF(13)
    rng = random.Random(13)
    field = PrimeField(13)
    for entry in list(catalogue)[::9]:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        for over, scalar in ((alg, int), (_mod_p(alg, field), field)):
            _same_products(over, [
                Subspace(5, [[scalar(rng.randint(-2, 2)) for _ in range(5)]
                             for _ in range(rng.randint(0, 3))])
                for _ in range(3)])
        whole = alg.full_space()
        assert (alg.subspace_product(whole, whole)
                == alg.lower_central_term(2))


@settings(max_examples=60, deadline=None)
@given(tables(st.one_of(gaussian, with_root)), st.data())
def test_subspace_product_matches_bracket_span_with_roots(n_table, data):
    alg = LeibnizAlgebra(*n_table)
    vector = st.lists(st.one_of(gaussian, with_root),
                      min_size=alg.n, max_size=alg.n)
    _same_products(alg, [Subspace(alg.n, data.draw(st.lists(vector,
                                                            max_size=3)))
                         for _ in range(2)])


@settings(max_examples=200, deadline=None)
@given(tables(st.one_of(gaussian, with_root)))
@example((4, {(0, 1): {2: 1}, (1, 0): {2: -1, 3: 1}}))
def test_leib_ideal_is_the_span_of_squares(n_table):
    # the squares of e_i + e_j (i <= j) span every square; in the example
    # Leib is e_4's line inside A^2 = <e_3, e_4>
    alg = LeibnizAlgebra(*n_table)
    n = alg.n
    sums = [[int(k in (i, j)) for k in range(n)]
            for i in range(n) for j in range(i, n)]
    assert alg.leib_ideal() == Subspace(n, [alg.bracket(x, x)
                                            for x in sums])


# -- summed rows and their kernels ------------------------------------------

nonzero = st.builds(GaussianRational, st.fractions(-2, 2, max_denominator=3),
                    st.fractions(-2, 2, max_denominator=3)).filter(
                        lambda x: not x.is_zero())


@st.composite
def row_terms(draw):
    """(terms, ncols): (key, column, nonzero coefficient) terms with keys
    0..5, shuffled; some are repeated negated, so entries cancel, and
    every term of key 5 is, so its whole row cancels."""
    ncols = draw(st.integers(1, 6))
    column = st.integers(0, ncols - 1)
    terms = draw(st.lists(st.tuples(st.integers(0, 4), column, nonzero),
                          max_size=20))
    terms += draw(st.lists(st.tuples(st.just(5), column, nonzero),
                           max_size=3))
    negated = [t for t in terms if t[0] == 5]
    if terms:
        negated += draw(st.lists(st.sampled_from(terms), max_size=8))
    terms += [(key, col, -s) for key, col, s in negated]
    return draw(st.permutations(terms)), ncols


def _plain_sum(terms):
    """Each key's row, keys in first-seen order: every column's total of
    the key's coefficients, where it is not zero."""
    rows = {}
    for key, col, s in terms:
        totals = rows.setdefault(key, {})
        totals[col] = totals.get(col, ZERO) + s
    return {key: {col: s for col, s in totals.items() if not s.is_zero()}
            for key, totals in rows.items()}


@settings(max_examples=300, deadline=None)
@given(row_terms())
@example(([(0, 0, ONE), (1, 2, ONE), (0, 0, -ONE), (1, 1, ONE)], 3))
def test_summed_rows_and_their_kernel(terms_ncols):
    terms, ncols = terms_ncols
    rows = _sum_rows(terms)
    want = _plain_sum(terms)
    assert list(rows.items()) == list(want.items())
    # the kernel assembled from the RREF of the dense matrix of the same
    # terms: 1 at each free column, minus that column of each pivot row
    # at its pivot
    dense = [[ZERO] * ncols for _ in range(6)]
    for key, col, s in terms:
        dense[key][col] += s
    red, _, pivots = Matrix(dense).rref()
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [GaussianRational(int(c == fc)) for c in range(ncols)]
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i, fc]
        kernel.append(vec)
    solutions = LeibnizAlgebra._solutions(terms, ncols)
    assert solutions == Subspace(ncols, kernel)
    assert solutions.dim == ncols - len(pivots)
