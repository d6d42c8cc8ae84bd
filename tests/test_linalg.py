"""Dense exact linear algebra and the canonical-basis subspace lattice."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leibkit.algebra import LeibnizAlgebra, _sum_rows
from leibkit.linalg import (AmbientMismatch, Matrix, SingularMatrix, Subspace,
                            _dense, _nullspace, _support)
from leibkit.scalars import (ONE, GaussianRational, PrimeField,
                             PrimeFieldElem, QuadExtElem, QuadExtField)


def rand_matrix(rng, n=3, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, n=3):
    while True:
        m = rand_matrix(rng, n)
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


def test_construction_and_coercion():
    m = Matrix([[1, Fraction(1, 2)], [0, GaussianRational(0, 1)]])
    assert m[0, 1] == GaussianRational(Fraction(1, 2))
    assert m[1, 1] == GaussianRational(0, 1)
    assert m.nrows == 2 and m.ncols == 2
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(AttributeError):
        m.rows = ()


def test_identity_and_zero():
    i2 = Matrix.identity(2)
    assert i2 == Matrix([[1, 0], [0, 1]])
    assert Matrix([[0] * 3] * 2).rref()[1] == 0
    m = Matrix([[2, 1], [1, 1]])
    assert m @ i2 == m and i2 @ m == m


def test_matmul_and_transpose():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    with pytest.raises(AmbientMismatch):
        a @ Matrix([[1, 2, 3]])


def test_rref_canonical():
    m = Matrix([[2, 4, 0], [1, 2, 1]])
    red, rank, pivots = m.rref()
    assert rank == 2 and pivots == (0, 2)
    assert red == Matrix([[1, 2, 0], [0, 0, 1]])
    again, rank2, _ = red.rref()
    assert again == red and rank2 == rank


def test_rank_bounds():
    rng = random.Random(11)
    for _ in range(20):
        a, b = rand_matrix(rng), rand_matrix(rng)
        assert (a @ b).rref()[1] <= min(a.rref()[1], b.rref()[1])


def test_inv_roundtrip():
    rng = random.Random(12)
    for _ in range(10):
        m = rand_invertible(rng)
        assert m @ m.inv() == Matrix.identity(3)
        assert m.inv() @ m == Matrix.identity(3)
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inv()
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2, 3]]).inv()


def test_quadext_matrix_inverse():
    f = QuadExtField(2)
    s = f.sqrt_d
    zero, one = f.embed(0), f.embed(1)
    m = Matrix([[one, s], [zero, one]])
    assert m.inv() == Matrix([[one, -s], [zero, one]])
    d = Matrix([[s, zero], [zero, one]])
    assert d @ d.inv() == Matrix.identity(2)


def test_subspace_canonical_basis():
    a = Subspace(3, [(2, 0, 0), (0, 1, 1)])
    b = Subspace(3, [(1, 0, 0), (2, 3, 3)])
    assert a == b and hash(a) == hash(b)
    assert a.dim == 2
    assert Subspace(3, []).dim == 0
    with pytest.raises(AmbientMismatch):
        Subspace(3, [(1, 0)])
    with pytest.raises(AmbientMismatch):
        a + Subspace(2, [(1, 0)])
    with pytest.raises(AmbientMismatch):
        a.intersect(Subspace(2, [(1, 0)]))


def test_subspace_sum_and_intersection():
    a = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert (a + b).dim == 3
    cap = a.intersect(b)
    assert cap == Subspace(3, [(0, 1, 0)])
    assert a.intersect(Subspace(3, [])).dim == 0
    # dim formula on random spans
    rng = random.Random(14)
    for _ in range(15):
        u = Subspace(4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        v = Subspace(4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        assert (u + v).dim + u.intersect(v).dim == u.dim + v.dim


def test_empty_shapes():
    three_by_zero = Matrix([[], [], []])
    assert (three_by_zero.nrows, three_by_zero.ncols) == (3, 0)
    t = three_by_zero.transpose()
    assert (t.nrows, t.ncols) == (0, 3)
    back = t.transpose()
    assert (back.nrows, back.ncols) == (3, 0) and back == three_by_zero
    assert t != Matrix([])
    assert three_by_zero @ t == Matrix([[0] * 3] * 3)


def test_kernel_results_hold_field_scalars():
    # rref, transpose, @ and inv trust their own entries; they must come
    # out exactly as the promoting constructor would build them
    rng = random.Random(15)
    field = QuadExtField(3)
    kinds = (GaussianRational, QuadExtElem)

    def entry():
        x = rng.randint(-3, 3)
        roll = rng.random()
        if roll < 0.3:
            return Fraction(x, rng.randint(1, 4))
        if roll < 0.4:
            return field.embed(x) + field.sqrt_d * GaussianRational(x)
        return x

    for _ in range(40):
        r, c, w = (rng.randint(1, 4) for _ in range(3))
        a = Matrix([[entry() for _ in range(c)] for _ in range(r)])
        b = Matrix([[entry() for _ in range(w)] for _ in range(c)])
        results = [a.rref()[0], a.transpose(), a @ b]
        if r == c:
            try:
                results.append(a.inv())
            except SingularMatrix:
                pass
        for m in results:
            assert all(type(x) in kinds for row in m.rows for x in row)
            assert m == Matrix(m.rows)


def gauss_jordan(m):
    """The dense Gauss-Jordan loop `Matrix.rref` ran before the sparse
    echelon, kept as its oracle: (rows, rank, pivots)."""
    rows = [list(r) for r in m.rows]
    pivots = []
    for col in range(m.ncols):
        rank = len(pivots)
        found = [r for r in range(rank, m.nrows) if not rows[r][col].is_zero()]
        if not found:
            continue
        rows[rank], rows[found[0]] = rows[found[0]], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [inv * x for x in rows[rank]]
        for r in range(m.nrows):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
    return [tuple(r) for r in rows], len(pivots), tuple(pivots)


def kernel_shaped(rng, entry, nrows):
    """nrows x 5 like the kernel's spans and kernels: a few sparse base
    rows, then zero rows, repeated rows and combinations of the bases."""
    def sparse_row():
        return [entry() if rng.random() < 0.5 else 0 for _ in range(5)]

    bases = [sparse_row() for _ in range(rng.randint(0, 5))]
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15 or not bases:
            rows.append([0] * 5)
        elif roll < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            coeffs = [entry() if rng.random() < 0.6 else 0 for _ in bases]
            rows.append([sum((c * b[k] for c, b in zip(coeffs, bases)),
                             GaussianRational(0)) for k in range(5)])
    return Matrix(rows)


def gaussian(rng):
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


@pytest.mark.parametrize("nrows", [5, 10, 15, 20, 25])
def test_rref_matches_gauss_jordan_over_qi(nrows):
    rng = random.Random(nrows)
    for _ in range(30):
        m = kernel_shaped(rng, lambda: gaussian(rng), nrows)
        red, rank, pivots = m.rref()
        rows, rank_gj, pivots_gj = gauss_jordan(m)
        assert (rank, pivots) == (rank_gj, pivots_gj)
        assert red.rows == tuple(rows)
        assert all(type(x) is GaussianRational for row in red.rows
                   for x in row)


@pytest.mark.parametrize("nrows", [5, 15, 25])
def test_rref_matches_gauss_jordan_mixed(nrows):
    # values only: where the loop left extension elements equal to 0 or
    # to a pivot's 1, the echelon holds Q(i)'s ZERO and ONE
    rng = random.Random(100 + nrows)
    field = QuadExtField(2)

    def entry():
        x = gaussian(rng)
        return field.embed(x) + field.sqrt_d * x if rng.random() < 0.3 else x

    for _ in range(20):
        m = kernel_shaped(rng, entry, nrows)
        red, rank, pivots = m.rref()
        rows, rank_gj, pivots_gj = gauss_jordan(m)
        assert (rank, pivots) == (rank_gj, pivots_gj)
        assert red.rows == tuple(rows)
        for row in red.rows:
            assert all(type(x) is GaussianRational for x in row
                       if x.is_zero())
        for r, c in enumerate(pivots):
            assert type(red[r, c]) is GaussianRational and red[r, c] == 1


@pytest.mark.parametrize("nrows", [3, 5, 10])
def test_nullspace_matches_rref_assembly(nrows):
    # `_nullspace` against the kernel vectors a dense loop assembles from
    # the RREF: 1 at each free column, minus that column of each pivot row
    # at its pivot
    rng = random.Random(200 + nrows)
    for _ in range(30):
        m = kernel_shaped(rng, lambda: gaussian(rng), nrows)
        red, _, pivots = m.rref()
        want = []
        for fc in (c for c in range(m.ncols) if c not in pivots):
            vec = [GaussianRational(int(c == fc)) for c in range(m.ncols)]
            for i, pc in enumerate(pivots):
                vec[pc] = -red[i, fc]
            want.append(tuple(vec))
        kernel = _nullspace(map(_support, m.rows), m.ncols)
        assert kernel == [_support(vec) for vec in want]
        assert all(m @ Matrix([[x] for x in _dense(row, m.ncols)])
                   == Matrix([[0]] * nrows) for row in kernel)


SQRT2 = QuadExtField(2)
small = st.integers(-3, 3)
with_root = st.tuples(small, small).map(
    lambda ab: SQRT2.embed(ab[0]) + SQRT2.sqrt_d * GaussianRational(ab[1]))
# a bracket on F^4 for subspace_product; it need not satisfy Leibniz
PRODUCT = LeibnizAlgebra(4, {(0, 1): {2: 1, 3: 2}, (1, 0): {2: -1},
                             (2, 0): {3: 1}, (3, 3): {0: 1, 1: -1}})


def _rows(space):
    """Each echelon row's items in order, to see any change to a row."""
    return [list(row.items()) for row in space.echelon]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.one_of(small, with_root), min_size=4,
                         max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(small, min_size=4, max_size=4), min_size=4,
                max_size=4))
@example(vectors=[[0, 0, 1, 1], [0, 1, 0, 1]],
         coeffs=[[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
@example(vectors=[[SQRT2.sqrt_d, 1, 0, 0], [0, 1, SQRT2.sqrt_d, 2],
                  [1, 0, 0, 1]],
         coeffs=[[1, 0, 0, 2], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
def test_spans_canonical_hashable_unaliased(vectors, coeffs):
    # a second spanning set of the same space: an invertible recombination
    # of the first, listed in reverse; both examples give echelon rows
    # that list equal items in different orders
    k = len(vectors)
    mix = Matrix([row[:k] for row in coeffs[:k]])
    assume(mix.rref()[1] == k)
    a = Subspace(4, vectors)
    b = Subspace(4, reversed((mix @ Matrix(vectors)).rows))
    assert a == b and hash(a) == hash(b)
    red, rank, _ = Matrix(vectors).rref()
    assert a.basis == b.basis == red.rows[:rank]
    before = _rows(a), _rows(b)
    assert a + b == a.intersect(b) == a
    PRODUCT.subspace_product(a, b)
    _nullspace(list(a.echelon + b.echelon), 4)
    assert (_rows(a), _rows(b)) == before


GF13 = PrimeField(13)
qi = st.tuples(small, small).map(lambda ab: GaussianRational(*ab))
# a field's entries, zero often, so rows are sparse and often dependent
ENTRIES = {"Q(i)": qi, "Q(i) and Q(i)(sqrt 2)": st.one_of(qi, with_root),
           "GF(13)": st.integers(0, 12).map(GF13)}


def _typed(space):
    """Each echelon row's (column, type, value) items in column order."""
    return [[(c, type(x), x) for c, x in sorted(row.items())]
            for row in space.echelon]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(sorted(ENTRIES)),
       n=st.integers(1, 6))
def test_reduced_rows_kept_as_they_stand(data, field, n):
    # the kernel, the intersection and the whole space hand their rows to
    # `Subspace._of` unreduced again; each must be the subspace that
    # `Subspace._span` makes of the same rows: for the kernel the vectors
    # `_nullspace` gives in the columns' own order.  Values only where
    # Q(i)(sqrt 2) enters: there the reversed elimination may leave a Q(i)
    # value where the second elimination left an equal extension value
    def rows(count):
        drawn = data.draw(st.lists(st.lists(ENTRIES[field], min_size=n,
                                            max_size=n), max_size=count))
        return [_support(row) for row in drawn]

    conditions = rows(6)
    terms = [(r, c, x) for r, row in enumerate(conditions)
             for c, x in row.items()]
    kernel = LeibnizAlgebra._solutions(terms, n)
    u, v = Subspace._span(n, rows(4)), Subspace._span(n, rows(4))
    cap = u.intersect(v)
    pairs = [(kernel, Subspace._span(n, _nullspace(
                 _sum_rows(terms).values(), n))),
             (cap, Subspace._span(n, cap.echelon)),
             (LeibnizAlgebra(n, {}).full_space(),
              Subspace._span(n, [{i: ONE} for i in range(n)]))]
    for got, want in pairs:
        assert got == want
        if field == "Q(i)" or (field == "GF(13)" and got is not kernel):
            assert _typed(got) == _typed(want)
    if field == "GF(13)":
        # an echelon row's entries: Q(i)'s 1 at its pivot, GF(13)'s
        # elsewhere; the second elimination kept `_nullspace`'s Q(i) 1
        # where it fell off the pivot
        assert all(type(x) is (GaussianRational if c == min(row)
                               else PrimeFieldElem)
                   for row in kernel.echelon for c, x in row.items())
    # and the rows right of n in Zassenhaus's echelon span U cap V
    assert (cap + u, cap + v) == (u, v)
    assert cap.dim == u.dim + v.dim - (u + v).dim
