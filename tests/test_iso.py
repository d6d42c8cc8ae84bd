"""Witness verification, modular search, lifting, and the fixture file."""

import json
import random

import pytest

from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import instantiate
from leibkit.iso import (
    CERTIFIED,
    DISTINCT,
    INCONCLUSIVE,
    BadPrime,
    FixtureError,
    adapted_search,
    certify,
    compose_witnesses,
    lift_witness,
    load_fixtures,
    verify_fixture,
    verify_witness,
)
from leibkit.linalg import Matrix, SingularMatrix
from leibkit.scalars import GaussianRational, QuadExtField


def small_invertible(rng, n=5):
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


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
    assert verify_witness(alg, other, Matrix.identity(5)) is not None
    singular = Matrix.zero(5, 5)
    assert verify_witness(alg, alg, singular) == "matrix is singular"
    assert verify_witness(alg, alg, Matrix.identity(4)) is not None
    small = LeibnizAlgebra(4, {})
    assert verify_witness(alg, small, Matrix.identity(5)) is not None
    scaled = Matrix.identity(5).scale(2)
    assert verify_witness(alg, alg, scaled) is not None  # not a homomorphism


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
    composite = compose_witnesses(q, p)
    assert composite == p @ q
    assert verify_witness(c, alg, composite) is None


def test_witness_over_extension(catalogue):
    field = QuadExtField(2)
    alg = instantiate(catalogue.entry("A_1")).map_scalars(field.embed, field.one)
    p = Matrix.identity(5, one=field.one)
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


def test_lift_witness_values():
    field_p = 13
    rows = ((12, 0), (0, 7))  # -1 and 1/2 mod 13
    lifted = lift_witness(rows, field_p)
    assert lifted == Matrix([[-1, 0], [0, GaussianRational(1, 0) / 2]])
    assert lift_witness(((5, 0), (0, 1)), 13) is not None  # 5 is i mod 13


def test_certify_distinct(catalogue):
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_16"))
    cert = certify(a, b)
    assert cert.status == DISTINCT
    assert cert.isomorphic is False
    assert "dim_leib" in cert.detail


def test_certify_remark_pair(catalogue):
    entry = catalogue.entry("A_116")
    cert = certify(instantiate(entry, {"alpha": 2}),
                   instantiate(entry, {"alpha": -2}))
    assert cert.status == CERTIFIED
    assert cert.isomorphic is True
    assert verify_witness(instantiate(entry, {"alpha": 2}),
                          instantiate(entry, {"alpha": -2}),
                          cert.matrix) is None


def test_certify_inconclusive_under_tiny_cap(catalogue):
    a = instantiate(catalogue.entry("A_1"))
    b = instantiate(catalogue.entry("A_3"))
    cert = certify(a, b, cap=200)
    assert cert.status == INCONCLUSIVE
    assert cert.isomorphic is None


def test_fixture_file_loads(witness_fixtures):
    assert len(witness_fixtures) >= 10
    labels = [f.label for f in witness_fixtures]
    assert len(set(labels)) == len(labels)
    assert "form-ii-vs-iv" in labels and "form-iii-vs-v" in labels


def test_fixtures_all_verify(witness_fixtures, catalogue):
    for fixture in witness_fixtures:
        assert verify_fixture(fixture, catalogue) is None, fixture.label


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
