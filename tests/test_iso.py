"""Witness verification, modular search, lifting, and the fixture file."""

import itertools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    _absorb,
    _brk,
    _compile,
    _images,
    _int_table,
    _inv_mat,
    _mod_structure,
    _Poly,
    _rebase,
    _structural_dims,
    _unliftable,
    adapted_search,
    certify,
    lift_witness,
    load_fixtures,
    verify_witness,
)
from leibkit.linalg import Matrix, SingularMatrix
from leibkit.scalars import (ZERO, DenominatorDividesP, GaussianRational,
                             PrimeField, QuadExtElem, QuadExtField)


def small_invertible(rng, n=5):
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


# -- the witness check against the loop over every product ----------------

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
            lhs = matrix.apply(tuple(w.get(k, ZERO) for k in range(n)))
            rhs = target.bracket(cols[i], cols[j])
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
    echelon = []
    for row in rows:
        _absorb(echelon, [x % 5 for x in row], 5)
    assume(len(echelon) == 5)
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
    # evaluation commutes with the arithmetic, ints on either side
    for f, g in zip(u, v):
        fx, gx = _poly_at(f, point, p), _poly_at(g, point, p)
        for op in (operator.add, operator.sub, operator.mul):
            assert _poly_at(op(f, g) % p, point, p) == op(fx, gx) % p
    w = _brk(table, u, v, n, p)
    want = _brk(table, [_poly_at(f, point, p) for f in u],
                [_poly_at(f, point, p) for f in v], n, p)
    assert [_poly_at(f, point, p) for f in w] == want
    # the compiled test sees a nonzero entry exactly where there is one,
    # and none in the differences, also after reducing them to a basis
    for f, c in zip(w, want):
        assert _compile([f], k, p)(point) == bool(c)
    assert not _compile([f - c for f, c in zip(w, want)], k, p)(point)
    assert _compile(w, k, p)(point) == any(want)


def _listed_images(k, p):
    # the order the search enumerates in, written out as whole lists
    vals = [0]
    for x in range(1, (p - 1) // 2 + 1):
        vals += [x, p - x]
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


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_images_order(p):
    for k in range(5):
        got = list(_images(k, p))
        assert got == _listed_images(k, p)
        assert len(got) == p ** k - 1


def test_lift_failure_names_the_entry(catalogue):
    alg = instantiate(catalogue.entry("A_5"), {"alpha": 2})
    shear = [[int(r == c) for c in range(5)] for r in range(5)]
    shear[2][1] = 100
    cert = certify(alg, alg.base_change(Matrix(shear)), primes=(1009,))
    assert cert.status == INCONCLUSIVE
    misses = [(rows, _unliftable(rows, 1009))
              for rows in cert.searches[-1].matrices
              if lift_witness(rows, 1009) is None]
    rows, (r, c, e) = misses[0]
    assert rows[r - 1][c - 1] == e
    assert cert.detail == ("25 witnesses mod 1009, none lifted: entry "
                           "(%d,%d) = %d mod 1009 has no preimage in the box"
                           % (r, c, e))
    assert _unliftable(((1, 0), (0, 7)), 13) is None


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
    field = PrimeField(13)
    alg = instantiate(catalogue.entry("A_1"))
    tab = _int_table(alg, field)
    assert tab[(1, 0)] == ((2, 12),)
    dims, series = _mod_structure(tab, 5, 13)
    assert dims[0] == (5, 3, 2, 1, 0)
    assert dims == _structural_dims(alg)
    assert [len(rows) for rows in series] == [3, 2, 1, 0]
    quarter = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(Fraction(1, 4))}})
    assert _int_table(quarter, field) == {(0, 0): ((1, 10),)}
    assert _int_table(LeibnizAlgebra(5, {(0, 0): {4: GaussianRational(13)}}),
                      field) == {}


def test_mod_structure_matches_exact_dims(catalogue):
    field = PrimeField(29)
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        dims, _ = _mod_structure(_int_table(alg, field), 5, 29)
        assert dims == _structural_dims(alg), entry.name


# -- the search leaf's rewrite mod p against the exact base change --------

REBASE_PRIMES = (5, 13, 29)


@pytest.fixture(scope="module")
def reducible_points(catalogue):
    """For each prime, the first points whose tables reduce mod it."""
    points = {p: [] for p in REBASE_PRIMES}
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        for p in REBASE_PRIMES:
            try:
                _int_table(alg, PrimeField(p))
            except DenominatorDividesP:
                continue
            points[p].append((entry.name, alg))
    return points


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(REBASE_PRIMES))
def test_rebase_matches_base_change(reducible_points, data, p):
    # the leaf's check of a complete map, against `verify_witness`'s
    name, alg = data.draw(st.sampled_from(reducible_points[p]))
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=25,
                                 max_size=25))
    rows = [entries[5 * r:5 * r + 5] for r in range(5)]
    cols = [[rows[r][c] % p for r in range(5)] for c in range(5)]
    echelon = []
    for col in cols:
        _absorb(echelon, col, p)
    inv = _inv_mat(cols, p)
    assert (inv is None) == (len(echelon) < 5), name
    if inv is None:
        return
    field = PrimeField(p)
    moved = _int_table(alg.base_change(Matrix(rows)), field)
    assert _rebase(_int_table(alg, field), cols, inv, 5, p) == moved, name


def test_lift_witness_values():
    field_p = 13
    rows = ((12, 0), (0, 7))  # -1 and 1/2 mod 13
    lifted = lift_witness(rows, field_p)
    assert lifted == Matrix([[-1, 0], [0, GaussianRational(1, 0) / 2]])
    assert lift_witness(((5, 0), (0, 1)), 13) is not None  # 5 is i mod 13
    # no preimage has a denominator divisible by p: 2 = -1/2 mod 5, not 0/5
    assert lift_witness(((2, 0), (0, 1)), 5) == \
        Matrix([[GaussianRational(-1, 0) / 2, 0], [0, 1]])


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
    assert twice.candidates == once.candidates == 540
    assert twice.detail == once.detail
    assert len(twice.searches) == 2


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
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_3"))
    cert = certify(a, b, cap=200)
    assert cert.status == INCONCLUSIVE


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
    for text in ("{not json", "[]", '{"witnesses": [[]]}'):
        path.write_text(text)
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
