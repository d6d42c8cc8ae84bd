"""Witness verification, modular search, lifting, and the fixture file."""

import contextlib
import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibkit import exprs, iso, linalg, scalars
from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import (
    CERTIFIED,
    DEFAULT_CAP,
    DISTINCT,
    INCONCLUSIVE,
    BadPrime,
    FixtureError,
    LevelCounts,
    Unliftable,
    _SINGULAR,
    _at,
    _balanced_place,
    _balanced_vals,
    _balanced_value,
    _brk,
    _compile,
    _int_table,
    _mod_p,
    _Poly,
    _prepare,
    _runs,
    _Stop,
    _structural_dims,
    _sweep,
    _Tally,
    _words,
    adapted_search,
    certify,
    lift_witness,
    load_fixtures,
    verify_witness,
)
from leibkit.linalg import Matrix, SingularMatrix, _nullspace
from leibkit.scalars import (ZERO, DenominatorDividesP, GaussianRational,
                             PrimeField, QuadExtElem, QuadExtField,
                             lift_mod_p, reduce_mod_p)


def small_invertible(rng, n=5):
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


def _rank(rows, p):
    """The rank of int rows mod p, by an int echelon of the tests' own:
    the reference that the search's eliminations through
    `linalg._echelon` are compared against."""
    echelon = []
    for v in rows:
        v = [x % p for x in v]
        for piv, bv in echelon:
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, bv)]
        piv = next((t for t, x in enumerate(v) if x), None)
        if piv is not None:
            inv = pow(v[piv], p - 2, p)
            echelon.append((piv, [x * inv % p for x in v]))
    return len(echelon)


# -- the witness check against the loop over every product ----------------

def _apply(matrix, vec):
    """The matrix times a dense vector of scalars."""
    return tuple(sum(map(operator.mul, row, vec), ZERO) for row in matrix.rows)


def _bracket_by_table(alg, u, v):
    """[u, v] of dense vectors as the double sum of u_i v_j [e_i, e_j] over
    the whole table, apart from the algebra's own products."""
    acc = [ZERO] * alg.n
    for (i, j), comps in alg.table.items():
        for k, s in comps.items():
            acc[k] = acc[k] + u[i] * v[j] * s
    return tuple(acc)


def _verify_by_products(source, target, matrix):
    """The check product by product: Q [e_i, e_j] against [Q e_i, Q e_j]
    for every (i, j), with the same four verdict texts."""
    n = source.n
    if target.n != n:
        return "algebras have different dimensions"
    if matrix.nrows != n or matrix.ncols != n:
        return "matrix shape does not match the algebras"
    if matrix.rref()[1] != n:
        return "matrix is singular"
    cols = [tuple(matrix.rows[i][j] for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(n):
            w = source.bracket_basis(i, j)
            lhs = _apply(matrix, tuple(w.get(k, ZERO) for k in range(n)))
            rhs = _bracket_by_table(target, cols[i], cols[j])
            if tuple(lhs) != tuple(rhs):
                return f"product ({i + 1},{j + 1}) is not preserved"
    return None


def _same_verdict(source, target, matrix):
    got = verify_witness(source, target, matrix)
    assert got == _verify_by_products(source, target, matrix)
    return got


def test_witness_check_matches_product_loop(catalogue, witness_fixtures):
    rng = random.Random(41)
    entries = list(catalogue)
    verdicts = set()
    for entry in rng.sample(entries, 30):
        alg = instantiate(entry, sample_params(entry, 1)[0])
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        try:
            moved = alg.base_change(Matrix(rows))
        except SingularMatrix:
            verdicts.add(_same_verdict(alg, alg, Matrix(rows)))
            continue
        verdicts.add(_same_verdict(moved, alg, Matrix(rows)))
        r, c = rng.randrange(5), rng.randrange(5)
        rows[r][c] += rng.choice((-1, 1))
        verdicts.add(_same_verdict(moved, alg, Matrix(rows)))
    assert None in verdicts and len(verdicts) > 2, verdicts
    for fixture in witness_fixtures:
        src, tgt, m = fixture.realize(catalogue)
        assert _same_verdict(src, tgt, m) is None, fixture.label
        assert _same_verdict(tgt, src, m.inv()) is None, fixture.label
        # with its (5, 4) entry negated, a sqrt(2) part in radical-A_5
        rows = [list(row) for row in m.rows]
        rows[4][3] = -rows[4][3]
        _same_verdict(src, tgt, Matrix(rows))


def test_identity_and_relabel_witness(catalogue):
    alg = instantiate(catalogue.entry("A_1"))
    assert verify_witness(alg, alg, Matrix.identity(5)) is None
    perm = Matrix([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    relabeled = alg.base_change(perm)
    assert verify_witness(relabeled, alg, perm) is None


def test_witness_failure_modes(catalogue):
    alg = instantiate(catalogue.entry("A_1"))
    other = instantiate(catalogue.entry("A_16"))
    assert _same_verdict(alg, other, Matrix.identity(5)) is not None
    singular = Matrix([[0] * 5] * 5)
    assert _same_verdict(alg, alg, singular) == "matrix is singular"
    for shape in (Matrix.identity(4), Matrix([[1] * 4] * 5)):
        assert _same_verdict(alg, alg, shape) == \
            "matrix shape does not match the algebras"
    small = LeibnizAlgebra(4, {})
    assert _same_verdict(alg, small, Matrix.identity(5)) == \
        "algebras have different dimensions"
    scaled = Matrix([[2 if r == c else 0 for c in range(5)]
                     for r in range(5)])
    assert _same_verdict(alg, alg, scaled) is not None  # not a homomorphism
    # scaling e_k by 3 breaks the first product, in row-major order, whose
    # factors hold e_k a different number of times than its value does
    texts = []
    for k in range(5):
        scale = Matrix([[(3 if r == k else 1) * (r == c) for c in range(5)]
                        for r in range(5)])
        texts.append(_same_verdict(alg, alg, scale))
    assert texts == ["product (%s) is not preserved" % ij for ij in
                     ("1,1", "1,2", "1,2", "1,3", "1,1")]


def test_round_trip_law(catalogue):
    rng = random.Random(31)
    alg = instantiate(catalogue.entry("A_5"), {"alpha": 2})
    for _ in range(5):
        p = small_invertible(rng)
        moved = alg.base_change(p)
        assert verify_witness(moved, alg, p) is None
        assert verify_witness(alg, moved, p.inv()) is None


def test_composition_law(catalogue):
    rng = random.Random(32)
    alg = instantiate(catalogue.entry("A_1"))
    p, q = small_invertible(rng), small_invertible(rng)
    b = alg.base_change(p)
    c = b.base_change(q)
    # p maps b into alg, q maps c into b; their composite maps c into alg
    assert verify_witness(b, alg, p) is None
    assert verify_witness(c, b, q) is None
    assert verify_witness(c, alg, p @ q) is None


def test_witness_over_extension(catalogue):
    field = QuadExtField(2)
    alg = instantiate(catalogue.entry("A_1"))
    p = Matrix.identity(5)
    rows = [list(r) for r in p.rows]
    rows[4][4] = field.sqrt_d
    p = Matrix(rows)
    moved = alg.base_change(p)
    assert verify_witness(moved, alg, p) is None


def test_adapted_search_finds_remark_pair(catalogue):
    entry = catalogue.entry("A_116")
    source = instantiate(entry, {"alpha": 2})
    target = instantiate(entry, {"alpha": -2})
    result = adapted_search(source, target, prime=13, cap=100000)
    assert result.status == "found"
    assert result.matrices
    assert result.candidates <= 100000
    lifted = lift_witness(result.matrices[0], 13)
    assert lifted is not None
    assert verify_witness(source, target, lifted) is None


def assert_counts_add_up(result):
    assert sum(level.tried for level in result.levels) == result.candidates
    for level in result.levels:
        assert level.passed >= 0, level
    # only a complete map reaches the leaf check
    leaf = result.levels[-1]
    assert leaf.passed == 0
    assert sum(level.found for level in result.levels) == \
        len(result.matrices)


def test_layered_search_a5_at_29(catalogue):
    entry = catalogue.entry("A_5")
    source = instantiate(entry, {"alpha": 2})
    target = instantiate(entry, {"alpha": -2})
    result = adapted_search(source, target, prime=29, cap=DEFAULT_CAP)
    assert result.status == "found"
    assert [level.level for level in result.levels] == \
        ["class 1", "class 2", "layer 3", "layer 4"]
    assert_counts_add_up(result)
    lifted = lift_witness(result.matrices[0], 29)
    assert lifted is not None
    assert verify_witness(source, target, lifted) is None


def _m2_points(catalogue):
    """First points with dim A/A^2 = 2 whose search is defined mod 5."""
    points = []
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        if alg.lower_central_dims()[1] != 3:
            continue
        try:
            adapted_search(alg, alg, prime=5)
        except BadPrime:
            continue
        points.append((entry.name, alg))
    return points


@pytest.fixture(scope="module")
def m2_points(catalogue):
    return _m2_points(catalogue)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layered_search_finds_base_changes_mod_5(m2_points, data):
    name, alg = data.draw(st.sampled_from(m2_points))
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=25,
                                 max_size=25))
    rows = [entries[5 * r:5 * r + 5] for r in range(5)]
    # invertible mod 5, so the moved table reduces mod 5 to an algebra
    # isomorphic to the reduction of the original
    assume(_rank(rows, 5) == 5)
    result = adapted_search(alg, alg.base_change(Matrix(rows)), prime=5)
    assert result.status == "found", name
    assert_counts_add_up(result)


def test_layered_search_exhausts_mod_5(catalogue):
    a = instantiate(catalogue.entry("A_136"))
    b = instantiate(catalogue.entry("A_137"))
    assert a.lower_central_dims() == b.lower_central_dims()
    result = adapted_search(a, b, prime=5)
    assert result.status == "exhausted"
    assert not result.matrices
    assert_counts_add_up(result)
    assert sum(level.relations for level in result.levels) > 0


def test_layered_search_exhausts_a1_a2_mod_17(catalogue):
    # every layer-3 solution fails the consistency of layer 4, so every
    # one of the 17^2 kernel points of each layer-3 node is evaluated
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_2"))
    result = adapted_search(a, b, prime=17)
    assert result.status == "exhausted"
    assert result.candidates == 1_340_960
    assert result.levels == (
        LevelCounts("class 1", tried=288),
        LevelCounts("class 2", tried=82_944, dependent=4_608,
                    relations=73_984),
        LevelCounts("layer 3", tried=1_257_728, inconsistent=1_257_728),
        LevelCounts("layer 4"))


# -- the compiled checks against the bracket of evaluated vectors ---------

def _poly_at(f, point, p):
    if not isinstance(f, _Poly):
        return f % p
    total = 0
    for mono, c in f.items():
        for var in mono:
            c *= point[var]
        total += c
    return total % p


@st.composite
def _poly_vectors(draw, n, k, p):
    coef = st.integers(-p, p)
    mono = st.lists(st.integers(0, k - 1), max_size=3).map(
        lambda vs: tuple(sorted(vs)))
    entry = st.one_of(coef, st.dictionaries(mono, coef, max_size=3).map(
        _Poly))
    return draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), p=st.sampled_from([5, 13]), n=st.integers(2, 5),
       k=st.integers(1, 3))
def test_compiled_bracket_matches_brk(data, p, n, k):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    comps = st.dictionaries(st.integers(0, n - 1), st.integers(1, p - 1),
                            min_size=1, max_size=n).map(
        lambda d: tuple(sorted(d.items())))
    table = data.draw(st.dictionaries(pair, comps, max_size=2 * n))
    u = data.draw(_poly_vectors(n, k, p))
    v = data.draw(_poly_vectors(n, k, p))
    point = data.draw(st.lists(st.integers(0, p - 1), min_size=k,
                               max_size=k))
    pos = data.draw(st.integers(0, k - 1))
    # evaluation commutes with the arithmetic, ints on either side
    for f, g in zip(u, v):
        fx, gx = _poly_at(f, point, p), _poly_at(g, point, p)
        for op in (operator.add, operator.sub, operator.mul):
            assert _poly_at(op(f, g) % p, point, p) == op(fx, gx) % p
    w = _brk(table, u, v, n, p)
    want = _brk(table, [_poly_at(f, point, p) for f in u],
                [_poly_at(f, point, p) for f in v], n, p)
    assert [_poly_at(f, point, p) for f in w] == want
    # the compiled checks, on the run through the point that moves pos,
    # see a nonzero entry exactly where there is one, and none in the
    # differences, also after reducing them to a basis
    def nonzero(polys):
        along = _compile(polys, PrimeField(p))
        return along is None or any(_at(f, point[pos], p)
                                    for f in along(tuple(point), pos))
    for f, c in zip(w, want):
        assert nonzero([f]) == bool(c)
    assert not nonzero([f - c for f, c in zip(w, want)])
    assert nonzero(w) == any(want)
    # at every t of that run, the rows all vanish exactly when every
    # input polynomial does
    along = _compile(w, PrimeField(p))
    rows = along(tuple(point), pos) if along else None
    for t in range(p):
        moved = point[:pos] + [t] + point[pos + 1:]
        vanish = not any(_poly_at(f, moved, p) for f in w)
        assert vanish == (rows is not None
                          and not any(_at(f, t, p) for f in rows))


def _balanced(p):
    vals = [0]
    for x in range(1, (p - 1) // 2 + 1):
        vals += [x, p - x]
    return vals


def _listed_images(k, p):
    # the order the search enumerates in, written out as whole lists
    vals = _balanced(p)
    nz = vals[1:]
    out = []
    for pos in range(k):
        for v in nz:
            vec = [0] * k
            vec[pos] = v
            out.append(tuple(vec))
    for a in range(k):
        for b in range(a + 1, k):
            for va in nz:
                for vb in nz:
                    vec = [0] * k
                    vec[a] = va
                    vec[b] = vb
                    out.append(tuple(vec))
    out += [vec for vec in itertools.product(vals, repeat=k)
            if k - vec.count(0) > 2]
    return out


def _flattened(k, p, zero=False):
    vals = _balanced(p)
    return [vec[:pos] + (t,) + vec[pos + 1:]
            for vec, pos, lo in _runs(k, p, zero) for t in vals[lo:]]


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_images_order(p):
    for k in range(5):
        got = _flattened(k, p)
        assert got == _listed_images(k, p)
        assert len(got) == p ** k - 1
        if 0 < k < 4:
            assert _flattened(k, p, zero=True) == [(0,) * k] + got


@pytest.mark.parametrize("p", [5, 13, 29, 1000000009])
def test_balanced_order_maps_invert_each_other(p):
    # place -> residue and residue -> place, at every place of a small
    # prime and at a seeded sample of places and residues of a large one
    rng = random.Random(p)
    places = range(p) if p < 100 else rng.sample(range(p), 2000)
    for i in places:
        t = _balanced_value(i, p)
        assert 0 <= t < p and _balanced_place(t, p) == i
    for t in places:
        assert _balanced_value(_balanced_place(t, p), p) == t
    head = min(p, 10_000)
    assert list(itertools.islice(_balanced_vals(p), head)) == [
        _balanced_value(i, p) for i in range(head)]
    if p < 100:
        assert list(_balanced_vals(p)) == _balanced(p)


@st.composite
def _run_checks(draw, k, p):
    """Polynomials of degree at most 2 in k variables, some of them zero
    or constant."""
    mono = st.lists(st.integers(0, k - 1), max_size=2).map(
        lambda vs: tuple(sorted(vs)))
    poly = st.dictionaries(mono, st.integers(0, p - 1), max_size=3).map(_Poly)
    return draw(st.lists(st.one_of(st.integers(0, 2), poly), max_size=4))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([5, 13]), k=st.integers(1, 3))
def test_sweep_matches_candidate_loop(data, p, k):
    checks = data.draw(_run_checks(k, p))
    earlier = data.draw(st.none() | st.lists(
        st.tuples(*[st.integers(0, p - 1)] * k), max_size=k - 1))
    zero = earlier is None and data.draw(st.booleans())
    cap = data.draw(st.integers(0, p ** k + 1))
    candidates = [(0,) * k] * zero + _listed_images(k, p)
    # the loop the sweep replaces: one candidate at a time, each checked
    # at its point and counted on its own
    want = LevelCounts("x")
    passed = []
    span = set()
    if earlier is not None:
        span = {tuple(sum(c * u[r] for c, u in zip(cs, earlier)) % p
                      for r in range(k))
                for cs in itertools.product(range(p), repeat=len(earlier))}
    for v in candidates[:cap]:
        want.tried += 1
        if v in span:
            want.dependent += 1
        elif any(_poly_at(f, v, p) for f in checks):
            want.relations += 1
        else:
            passed.append(v)
    # the dependence checks as `classes` builds them: the linear forms
    # that vanish on the earlier vectors, one per `_nullspace` row
    field = PrimeField(p)
    dependence = None
    if earlier is not None:
        forms = _nullspace(({r: field(c) for r, c in enumerate(u) if c}
                            for u in earlier), k)
        dependence = _compile([_Poly({(r,): field(c).value for r, c
                                      in w.items()}) for w in forms], field)
    got = LevelCounts("x")
    tally = _Tally(cap)
    swept = []
    with pytest.raises(_Stop) if cap < len(candidates) else \
            contextlib.nullcontext():
        for v in _sweep(tally, got, _runs(k, p, zero),
                        _compile(checks, field), "relations", p,
                        dependence):
            swept.append(v)
    assert (got, swept, tally.count) == (want, passed, want.tried)


def test_large_prime_clips_one_run(catalogue):
    # class 2 starts with the multiples of class 1 = (1, 0): one run of
    # 10^9 dependent vectors, counted in one step clipped at the cap
    alg = instantiate(catalogue.entry("A_1"))
    result = adapted_search(alg, alg, prime=1000000009)
    assert (result.status, result.candidates) == ("capped", DEFAULT_CAP)
    assert result.levels[1] == LevelCounts(
        "class 2", tried=DEFAULT_CAP - 1, dependent=DEFAULT_CAP - 1)


def test_lift_failure_names_the_entry(catalogue):
    alg = instantiate(catalogue.entry("A_5"), {"alpha": 2})
    shear = [[int(r == c) for c in range(5)] for r in range(5)]
    shear[2][1] = 100
    cert = certify(alg, alg.base_change(Matrix(shear)), primes=(1009,))
    assert cert.status == INCONCLUSIVE
    misses = []
    for rows in cert.searches[-1].matrices:
        try:
            lift_witness(rows, 1009)
        except Unliftable as miss:
            misses.append((rows, miss))
    rows, miss = misses[0]
    r, c, e, p = miss.args
    assert p == 1009 and rows[r - 1][c - 1] == e
    assert str(miss) == ("entry (%d,%d) = %d mod 1009 has no preimage in "
                         "the box" % (r, c, e))
    assert cert.detail == "25 witnesses mod 1009, none lifted: %s" % miss


def test_adapted_search_exhausts_small_cap(catalogue):
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_3"))
    result = adapted_search(a, b, prime=13, cap=300)
    assert result.status in ("capped", "exhausted")
    assert not result.matrices


def test_bad_prime(catalogue):
    alg = LeibnizAlgebra(5, {(0, 0): {4: GaussianRational(1, 0) / 13}})
    with pytest.raises(BadPrime):
        adapted_search(alg, alg, prime=13, cap=100)
    cert = certify(alg, alg, primes=(13,), cap=100)
    assert cert.status == INCONCLUSIVE
    assert "13" in cert.detail
    # dimensions that differ, and a Lie algebra that is not nilpotent
    small = LeibnizAlgebra(2, {(0, 0): {1: 1}})
    lie = LeibnizAlgebra(2, {(0, 1): {1: 1}, (1, 0): {1: -1}})
    for a, b, why in ((instantiate(catalogue.entry("A_1")), small,
                       "different dimensions"), (lie, lie, "nilpotent")):
        with pytest.raises(ValueError, match=why):
            adapted_search(a, b, prime=13, cap=100)


def test_sqrt_constant_has_no_reduction():
    # sqrt(2) has no image in GF(p) through Q(i), so no prime is usable
    products = {(0, 2): {4: 1}, (1, 1): {3: 1}}
    a = LeibnizAlgebra(5, {(0, 0): {2: QuadExtField(2).sqrt_d}, **products})
    b = LeibnizAlgebra(5, {(0, 0): {2: 1}, **products})
    with pytest.raises(BadPrime, match="reduction undefined mod 13"):
        adapted_search(a, b, prime=13, cap=100)
    cert = certify(a, b)
    assert cert.status == INCONCLUSIVE
    assert cert.detail == "; ".join(
        "reduction undefined mod %d: sqrt(2) does not lie in Q(i)" % p
        for p in (13, 29))


def test_bad_prime_degenerate_dimension(catalogue):
    # 13 kills the only product, so A^2, Leib and Z change dimension mod 13
    alg = LeibnizAlgebra(5, {(0, 0): {4: GaussianRational(13)}})
    with pytest.raises(BadPrime, match="13 degenerates a structural dimension"):
        adapted_search(alg, alg, prime=13, cap=100)
    cert = certify(alg, alg, primes=(13, 29))
    assert cert.status == CERTIFIED
    assert cert.prime == 29
    assert verify_witness(alg, alg, cert.matrix) is None


def test_int_table_and_mod_structure(catalogue):
    # the structure mod p is the algebra's own, computed over GF(p)
    field = PrimeField(13)
    alg = instantiate(catalogue.entry("A_1"))
    reduced = _mod_p(alg, field)
    tab = _int_table(reduced)
    assert tab[(1, 0)] == ((2, 12),)
    dims = _structural_dims(reduced)
    assert dims[0] == (5, 3, 2, 1, 0)
    assert dims == _structural_dims(alg)
    series = reduced.lower_central_series()[1:]
    assert [term.dim for term in series] == [3, 2, 1, 0]
    quarter = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(Fraction(1, 4))}})
    assert _int_table(_mod_p(quarter, field)) == {(0, 0): ((1, 10),)}
    assert _int_table(_mod_p(
        LeibnizAlgebra(5, {(0, 0): {4: GaussianRational(13)}}), field)) == {}


def test_mod_structure_matches_exact_dims(catalogue):
    field = PrimeField(29)
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        dims = _structural_dims(_mod_p(alg, field))
        assert dims == _structural_dims(alg), entry.name


@pytest.mark.parametrize("p", [13, 29])
def test_words_adapted_to_the_series(catalogue, p):
    # each side of a search is written in its own words: n independent
    # rows, as many of length t as the lower central dims drop from A^t to
    # A^(t+1), and past the generators each row the bracket of its pair
    field = PrimeField(p)
    checked = 0
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        try:
            reduced = _mod_p(alg, field)
        except DenominatorDividesP:
            continue
        dims = _structural_dims(reduced)
        if dims != _structural_dims(alg):
            continue
        words, pairs, layer = _words(reduced, field)
        cols = words.transpose().rows
        assert len(cols) == words.rref()[1] == 5, entry.name
        lower = dims[0]
        assert [layer.count(t) for t in range(1, len(lower))] == [
            a - b for a, b in zip(lower, lower[1:])], entry.name
        for col, pair, t in zip(cols, pairs, layer):
            if t == 1:
                assert pair is None and sorted(
                    field(e).value for e in col) == [0, 0, 0, 0, 1]
                continue
            a, w = pair
            assert (layer[a], layer[w]) == (1, t - 1), entry.name
            assert col == reduced.bracket(cols[a], cols[w]), entry.name
        checked += 1
    assert checked > 250


# -- the search leaf's check mod p against the exact base change ---------

REBASE_PRIMES = (5, 13, 29)


@pytest.fixture(scope="module")
def reducible_points(catalogue):
    """For each prime, the first points whose tables reduce mod it."""
    points = {p: [] for p in REBASE_PRIMES}
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        for p in REBASE_PRIMES:
            try:
                _mod_p(alg, PrimeField(p))
            except DenominatorDividesP:
                continue
            points[p].append((entry.name, alg))
    return points


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(REBASE_PRIMES))
def test_leaf_check_matches_base_change(reducible_points, data, p):
    # the leaf's check of a complete map, `verify_witness` on the reduced
    # algebras, against the exact base change: Q maps A.base_change(Q) to A
    name, alg = data.draw(st.sampled_from(reducible_points[p]))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=25,
                                 max_size=25))
    rows = [entries[5 * r:5 * r + 5] for r in range(5)]
    field = PrimeField(p)
    reduced = _mod_p(alg, field)
    q = Matrix([map(field, row) for row in rows])
    singular = _rank(rows, p) < 5
    assert (verify_witness(reduced, reduced, q) == _SINGULAR) == singular
    if singular:
        return
    moved = _mod_p(alg.base_change(Matrix(rows)), field)
    assert verify_witness(moved, reduced, q) is None, name


# -- the layer systems' solver against the echelon rank -------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from(REBASE_PRIMES),
       u=st.integers(1, 6))
def test_prepare_solves_layer_systems(data, p, u):
    # mostly zero entries, and rows drawn from a small pool so some repeat
    entry = st.one_of(st.just(0), st.just(0), st.integers(1, p - 1))
    vector = st.lists(entry, min_size=u, max_size=u)
    pool = data.draw(st.lists(vector, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    q = len(rows)
    tests, solve, null = _prepare(rows, u, PrimeField(p))
    rank = _rank(rows, p)
    assert (len(solve), len(null), len(tests)) == (rank, u - rank, q - rank)
    # every entry leaves `_echelon` through the field, so none is Q(i)'s
    # ONE that `_echelon` writes at its pivots
    coefs = [v for f in tests + [f for _, f in solve] for _, v in f]
    for x in coefs + [x for vec in null for x in vec]:
        assert type(x) is int and 0 <= x < p, x

    def apply(x):
        return [sum(map(operator.mul, row, x)) % p for row in rows]

    def solution(b):
        x0 = [0] * u
        for col, f in solve:
            x0[col] = sum(b[e] * v for e, v in f) % p
        return x0

    def consistent(b):
        return not any(sum(b[e] * v for e, v in f) % p for f in tests)

    x = data.draw(st.lists(st.integers(0, p - 1), min_size=u, max_size=u))
    b = apply(x)
    assert consistent(b)
    assert apply(solution(b)) == b
    for vec in null:
        assert apply(vec) == [0] * q
    assert _rank(null, p) == len(null)
    b = data.draw(st.lists(entry, min_size=q, max_size=q))
    assert consistent(b) == (
        _rank([[*row, e] for row, e in zip(rows, b)], p) == rank)
    if consistent(b):
        assert apply(solution(b)) == b


# the pairs of perfbench's iso_dense workload: four found, four capped
ISO_DENSE_FOUND = (("A_5", 2), ("A_116", 2), ("A_5", 3), ("A_116", 3))
ISO_DENSE_CAPPED = (("A_36", "A_37"), ("A_38", "A_39"), ("A_44", "A_45"),
                    ("A_136", "A_137"))


def test_layer_systems_solved_once_per_distinct_matrix(catalogue,
                                                       monkeypatch):
    # a search builds each layer's system once, linear in the classes,
    # and solves each distinct matrix once: 12 eliminations, where one per
    # candidate past the classes made 530; the word inverses are
    # `Matrix.inv`'s over GF(p).  `certify` refutes the capped pairs by
    # dim Der with no search, so they are searched here directly.
    calls = []
    prepare = iso._prepare

    def counted(rows, u, field):
        calls.append(u)
        return prepare(rows, u, field)

    def first(name):
        entry = catalogue.entry(name)
        return instantiate(entry, sample_params(entry, 1)[0]
                           if entry.is_parametric else {})

    monkeypatch.setattr(iso, "_prepare", counted)
    verdicts = []
    for name, alpha in ISO_DENSE_FOUND:
        entry = catalogue.entry(name)
        cert = certify(instantiate(entry, {"alpha": alpha}),
                       instantiate(entry, {"alpha": -alpha}))
        verdicts.append((cert.status, cert.candidates))
    for a, b in ISO_DENSE_CAPPED:
        src, tgt = first(a), first(b)
        for prime in (13, 29):
            res = adapted_search(src, tgt, prime=prime, cap=20_000)
            verdicts.append((res.status, res.candidates))
        cert = certify(src, tgt, cap=20_000)
        verdicts.append((cert.status, cert.candidates))
    assert verdicts == [(CERTIFIED, 2383), (CERTIFIED, 16)] * 2 \
        + [("capped", 20_000), ("capped", 20_000), (DISTINCT, 0)] * 4
    assert len(calls) == 12


def test_certify_refutes_capped_pairs_without_search(catalogue,
                                                     monkeypatch):
    # the capped pairs share their signature but not dim Der, which
    # settles them before `certify` reaches `adapted_search`
    calls = []
    search = iso.adapted_search
    monkeypatch.setattr(iso, "adapted_search", lambda *args, **kwargs: (
        calls.append(args) or search(*args, **kwargs)))
    dims = []
    for a, b in ISO_DENSE_CAPPED:
        src, tgt = (instantiate(catalogue.entry(name), sample_params(
            catalogue.entry(name), 1)[0]) for name in (a, b))
        cert = certify(src, tgt, cap=20_000)
        assert (cert.status, cert.candidates, cert.detail, cert.searches) \
            == (DISTINCT, 0, "invariants differ: dim_der", ()), (a, b)
        dims.append((src.derivations().dim, tgt.derivations().dim))
    assert calls == []
    assert dims == [(8, 7), (7, 6), (7, 6), (9, 8)]


def test_word_matrices_inverted_once_each(catalogue, monkeypatch):
    # set-up inverts each side's word matrix once, inside `base_change`;
    # the source's is inverted again only for a reported witness, and
    # then once however many witnesses the search collects
    calls = []
    inv = Matrix.inv

    def counted(self):
        calls.append(self.nrows)
        return inv(self)

    monkeypatch.setattr(Matrix, "inv", counted)
    res = adapted_search(instantiate(catalogue.entry("A_36")),
                         instantiate(catalogue.entry("A_37")),
                         prime=13, cap=200)
    assert (res.status, res.matrices, len(calls)) == ("capped", (), 2)
    calls.clear()
    entry = catalogue.entry("A_5")
    res = adapted_search(instantiate(entry, {"alpha": 2}),
                         instantiate(entry, {"alpha": -2}),
                         enough=lambda found: len(found) >= 3)
    assert (res.status, len(res.matrices), len(calls)) == ("found", 3, 3)


def test_witness_multiplied_in_gf_p_alone(catalogue, monkeypatch):
    # the search runs on GF(p) elements: the words are built from the
    # field's own 1, the echelon tests a pivot by `is_one`, and the leaf's
    # inverse is taken into the field once, so no product of the words,
    # their base changes or the leaf's basis Y words^-1 reduces a Q(i) 1
    # or 0, and no pivot test reduces Q(i)'s ONE
    calls = []
    reduce = scalars.reduce_mod_p

    def counted(a, field):
        calls.append(a)
        return reduce(a, field)

    monkeypatch.setattr(scalars, "reduce_mod_p", counted)
    entry = catalogue.entry("A_5")
    cert = certify(instantiate(entry, {"alpha": 2}),
                   instantiate(entry, {"alpha": -2}))
    assert (cert.status, cert.candidates, len(calls)) == (CERTIFIED, 2383,
                                                          96)


def test_certify_elimination_count(catalogue, monkeypatch):
    # the search's set-up grows each side's span of words by one
    # elimination per candidate word, and its layer systems, compiled
    # checks and class dependence are one `_echelon` each: 102 in this
    # certify, 146 while each word was spanned alone and then summed
    calls = []
    echelon = linalg._echelon

    def counted(rows):
        calls.append(None)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(iso, "_echelon", counted)
    entry = catalogue.entry("A_5")
    cert = certify(instantiate(entry, {"alpha": 2}),
                   instantiate(entry, {"alpha": -2}))
    assert (cert.status, cert.candidates, len(calls)) == (CERTIFIED, 2383,
                                                          102)


def test_lift_witness_values():
    field_p = 13
    rows = ((12, 0), (0, 7))  # -1 and 1/2 mod 13
    lifted = lift_witness(rows, field_p)
    assert lifted == Matrix([[-1, 0], [0, GaussianRational(1, 0) / 2]])
    assert lift_witness(((5, 0), (0, 1)), 13) is not None  # 5 is i mod 13
    # no preimage has a denominator divisible by p: 2 = -1/2 mod 5, not 0/5
    assert lift_witness(((2, 0), (0, 1)), 5) == \
        Matrix([[GaussianRational(-1, 0) / 2, 0], [0, 1]])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from((5, 13, 29, 1009)))
def test_lift_exists_unless_an_entry_is_unliftable(data, p):
    # the lifting pass either lifts every entry or names the first entry,
    # row by row, that has no preimage in the box
    shape = st.integers(1, 5)
    nrows, ncols = data.draw(shape), data.draw(shape)
    rows = data.draw(st.lists(
        st.lists(st.integers(-p, 2 * p), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    field = PrimeField(p)
    entries = [e for row in rows for e in row]
    try:
        lifted = lift_witness(rows, p)
    except Unliftable as miss:
        r, c, e, prime = miss.args
        k = (r - 1) * ncols + (c - 1)
        assert prime == p and e == entries[k] % p
        assert [lift_mod_p(x, field) is None for x in entries[:k + 1]] == \
            [False] * k + [True]
    else:
        assert [[reduce_mod_p(x, field) for x in row]
                for row in lifted.rows] == [[e % p for e in row]
                                            for row in rows]


def test_certify_mod_5(catalogue):
    alg = instantiate(catalogue.entry("A_1"))
    shear = [[int(r == c) for c in range(5)] for r in range(5)]
    shear[0][1] = 1
    moved = alg.base_change(Matrix(shear))
    cert = certify(alg, moved, primes=(5,))
    assert cert.status == CERTIFIED
    assert cert.prime == 5
    assert verify_witness(alg, moved, cert.matrix) is None


def test_certify_repeated_prime_is_one_prime(catalogue):
    # witnesses mod 5 exist but none lifts, so one prime gives no EVIDENCE
    # however often it is named, and it is searched once
    x = instantiate(catalogue.entry("A_5"), {"alpha": 2})
    diag = [[int(r == c) * (7 if r == 0 else 1) for c in range(5)]
            for r in range(5)]
    y = x.base_change(Matrix(diag))
    once = certify(y, x, primes=(5,))
    assert once.status == INCONCLUSIVE and once.detail.startswith(
        "25 witnesses mod 5, none lifted")
    twice = certify(y, x, primes=(5, 5))
    assert twice.status == INCONCLUSIVE
    assert twice.candidates == once.candidates == 282
    assert twice.detail == once.detail
    assert len(twice.searches) == 1


def test_certify_cap_is_per_prime(catalogue):
    # the first witness mod 5 does not lift; lifting the later ones goes
    # on inside the same search, so each prime spends at most the cap
    x = instantiate(catalogue.entry("A_5"), {"alpha": 2})
    diag = [[int(r == c) * (7 if r == 0 else 1) for c in range(5)]
            for r in range(5)]
    y = x.base_change(Matrix(diag))
    for primes in ((5,), (5, 13), (5, 5)):
        cert = certify(y, x, primes=primes, cap=300)
        assert cert.candidates <= 300 * len(set(primes))
        assert len(cert.searches) == len(set(primes))


def test_certify_distinct(catalogue):
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_16"))
    cert = certify(a, b)
    assert cert.status == DISTINCT
    assert "dim_leib" in cert.detail


def test_certify_remark_pair(catalogue):
    entry = catalogue.entry("A_116")
    cert = certify(instantiate(entry, {"alpha": 2}),
                   instantiate(entry, {"alpha": -2}))
    assert cert.status == CERTIFIED
    assert verify_witness(instantiate(entry, {"alpha": 2}),
                          instantiate(entry, {"alpha": -2}),
                          cert.matrix) is None


def test_certify_inconclusive_under_tiny_cap(catalogue):
    # A_2 and A_3 share the signature and dim Der = 7
    a = instantiate(catalogue.entry("A_2"))
    b = instantiate(catalogue.entry("A_3"))
    cert = certify(a, b, cap=200)
    assert (cert.status, cert.candidates) == (INCONCLUSIVE, 400)


def test_fixture_file_loads(witness_fixtures):
    assert len(witness_fixtures) >= 10
    labels = [f.label for f in witness_fixtures]
    assert len(set(labels)) == len(labels)
    assert "form-ii-vs-iv" in labels and "form-iii-vs-v" in labels


def test_fixtures_all_verify(witness_fixtures, catalogue):
    for fixture in witness_fixtures:
        assert verify_witness(*fixture.realize(catalogue)) is None, \
            fixture.label


def test_extension_witness_rejected_when_wrong(witness_fixtures, catalogue):
    # the Q(i) algebras meet the Q(sqrt 2) witness without an embedding
    fixture = next(f for f in witness_fixtures if f.label == "radical-A_5")
    src, tgt, m = fixture.realize(catalogue)
    assert isinstance(src.table[(0, 0)][4], GaussianRational)
    assert isinstance(m[2, 2], GaussianRational)
    # entry (5, 4) is sqrt(2)/4; negating it changes only sqrt(2) parts
    assert isinstance(m[4, 3], QuadExtElem)
    rows = [list(row) for row in m.rows]
    rows[4][3] = -rows[4][3]
    assert verify_witness(src, tgt, Matrix(rows)) is not None
    assert verify_witness(tgt, src, m.inv()) is None


def test_realize_parses_no_scalar(witness_fixtures, catalogue, monkeypatch):
    # load_fixtures keeps every value it parsed, so a realize pass parses
    # no scalar literal, only constraints the catalogue has not yet parsed
    calls = []
    parse = exprs.parse_expr
    monkeypatch.setattr(exprs, "parse_expr", lambda text, params: (
        calls.append((text, params)) or parse(text, params)))
    for fixture in witness_fixtures:
        fixture.realize(catalogue)
    entries = [catalogue.entry(side["entry"]) for f in witness_fixtures
               for side in (f.source, f.target) if isinstance(side, dict)]
    constraints = {text for entry in entries for text in itertools.chain(
        entry.constraints, *entry.constraints_any)}
    assert all(params is not None and text in constraints
               for text, params in calls), calls


def test_fixture_realize_shapes(witness_fixtures, catalogue):
    for fixture in witness_fixtures:
        src, tgt, matrix = fixture.realize(catalogue)
        assert src.n == tgt.n == 5
        assert matrix.nrows == matrix.ncols == 5
        assert src.check_leibniz() is None
        assert tgt.check_leibniz() is None


def test_fixture_parse_validation(tmp_path):
    good = {"label": "x", "source": {"products": []}, "target": {"products": []},
            "matrix": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                       ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                       ["0", "0", "0", "0", "1"]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"witnesses": [good]}))
    assert len(load_fixtures(path)) == 1

    for breakage in (
        lambda r: r.pop("matrix"),
        lambda r: r.__setitem__("matrix", [["1"] * 4] * 5),
        lambda r: r.__setitem__("source", {}),
        lambda r: r.__setitem__("source", {"entry": "A_1", "products": []}),
    ):
        rec = json.loads(json.dumps(good))
        breakage(rec)
        path.write_text(json.dumps({"witnesses": [rec]}))
        with pytest.raises(ValueError):
            load_fixtures(path)
    for data in (b"\xff\xfe{", b"{not json", b"[]", b'{"witnesses": [[]]}'):
        path.write_bytes(data)
        with pytest.raises(FixtureError):
            load_fixtures(path)

    product = {"left": 1, "right": 1, "components": {"5": "1"}}
    for breakage in (
        lambda r: r["matrix"][2].__setitem__(3, "abc"),
        lambda r: r["matrix"][0].__setitem__(0, 1),
        lambda r: r["matrix"][4].__setitem__(4, "1/(1-1)"),
        lambda r: r["matrix"][1].__setitem__(1, "alpha"),
        lambda r: r["matrix"][1].__setitem__(1, "sqrt(2)*sqrt(3)"),
        lambda r: r["source"]["products"].append({"left": 1, "right": 1}),
        lambda r: r["source"]["products"].append({"components": {}}),
        lambda r: r["target"]["products"].append(
            dict(product, left="1")),
        lambda r: r["target"]["products"].append(
            dict(product, right=6)),
        lambda r: r["target"]["products"].append(
            dict(product, components={"x": "1"})),
        lambda r: r["target"]["products"].append(
            dict(product, components={"6": "1"})),
        lambda r: r["target"]["products"].append(
            dict(product, components={"5": "2+"})),
        lambda r: r["target"]["products"].append(
            dict(product, components=["1"])),
        lambda r: r["target"]["products"].append(
            dict(product, components={})),
        lambda r: r["target"]["products"].extend([product, product]),
        lambda r: r.__setitem__("source", {"products": {}}),
        lambda r: r.__setitem__("source", {"entry": "A_5",
                                           "params": {"alpha": "2*"}}),
        lambda r: r.__setitem__("source", {"entry": "A_5",
                                           "params": ["alpha"]}),
        lambda r: r.__setitem__("label", 7),
    ):
        rec = json.loads(json.dumps(good))
        breakage(rec)
        path.write_text(json.dumps({"witnesses": [rec]}))
        with pytest.raises(FixtureError, match="^witness (x|0)[ :]"):
            load_fixtures(path)


def test_fixture_realize_rejects_two_radicals(tmp_path, catalogue):
    rows = [["1" if r == c else "0" for c in range(5)] for r in range(5)]
    rows[0][0], rows[1][1] = "sqrt(2)", "sqrt(3)"
    rec = {"label": "x", "source": {"products": []},
           "target": {"products": []}, "matrix": rows}
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"witnesses": [rec]}))
    (fixture,) = load_fixtures(path)
    with pytest.raises(FixtureError, match="^x: mixed radicals"):
        fixture.realize(catalogue)
