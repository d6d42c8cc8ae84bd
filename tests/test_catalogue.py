"""Catalogue data: completeness, sampling, instantiation, verification."""

import json
from fractions import Fraction

import pytest

from leibkit import exprs
from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import (
    CatalogueError,
    Claims,
    ConstraintViolated,
    NoAdmissiblePoint,
    instantiate,
    parse_catalogue,
    point_text,
    sample_params,
    verify_entry,
    verify_point,
)
from leibkit.iso import load_fixtures
from leibkit.scalars import GaussianRational, QuadExtField


def test_record_count_and_names(catalogue):
    assert len(catalogue) == 277
    names = [e.name for e in catalogue]
    assert names[0] == "A_1" and names[-1] == "R_15"
    assert "A_246" not in names
    assert "A_246a" in names and "A_246b" in names
    assert sum(1 for n in names if n.startswith("R_")) == 15
    expected = {"A_%d" % k for k in range(1, 262)} - {"A_246"}
    expected |= {"A_246a", "A_246b"}
    expected |= {"R_%d" % k for k in range(1, 16)}
    assert set(names) == expected


def test_literal_scalars_survive(catalogue):
    quarter = instantiate(catalogue.entry("A_42"))
    assert quarter.table[(1, 1)][4] == GaussianRational(Fraction(1, 4))
    imag = instantiate(catalogue.entry("A_198"))
    assert imag.table[(1, 0)][4] == GaussianRational(0, 1)


def test_sample_params_deterministic(catalogue):
    entry = catalogue.entry("A_17")
    first = sample_params(entry, 3)
    assert first == sample_params(entry, 3)
    assert len(first) == 3
    assert len({tuple(sorted(v.items())) for v in first}) == 3
    for values in first:
        instantiate(entry, values)  # admissible by construction


def test_sample_params_respects_constraints(catalogue):
    # A_23 needs alpha outside {0}; every sampled point must instantiate
    for name in ("A_5", "A_23", "A_116", "R_3"):
        entry = catalogue.entry(name)
        if not entry.is_parametric:
            continue
        for values in sample_params(entry, 4):
            instantiate(entry, values)


def test_instantiate_errors(catalogue):
    entry = catalogue.entry("A_5")
    with pytest.raises(ConstraintViolated):
        instantiate(entry, {})  # missing alpha
    with pytest.raises(ConstraintViolated):
        instantiate(entry, {"alpha": 1, "beta": 1})
    with pytest.raises(ConstraintViolated):
        instantiate(entry, {"alpha": QuadExtField(2).sqrt_d})
    plain = catalogue.entry("A_1")
    with pytest.raises(ConstraintViolated):
        instantiate(plain, {"alpha": 1})


def test_instantiate_rejects_inadmissible(catalogue):
    entry = catalogue.entry("A_23")
    with pytest.raises(ConstraintViolated):
        instantiate(entry, {"alpha": 1})
    with pytest.raises(ConstraintViolated):
        instantiate(entry, {"alpha": -1})
    instantiate(entry, {"alpha": Fraction(1, 2)})


def test_verify_point_check_names(catalogue):
    report = verify_point(catalogue.entry("A_1"))
    assert report.passed
    names = [o.check for o in report.outcomes]
    assert names[0] == "leibniz"
    assert "non_lie" in names and "center_in_square" in names
    assert "claim_dim_sq" in names
    assert point_text(report.values) == "-"


def test_verify_entry_known_failure(catalogue):
    report = verify_entry(catalogue.entry("A_242"), samples=2)
    assert report.entry == "A_242"
    assert not report.passed
    failing = {o.check for p in report.points for o in p.outcomes if not o.passed}
    assert failing == {"claim_dim_leib"}


def test_a134_fails_off_its_sample_points(catalogue):
    # dim Leib drops from the claimed 3 to 2 on the plane gamma = -1, which
    # the sampled points (gamma = 0 and 1) miss; the entry stays as shipped
    entry = catalogue.entry("A_134")
    for alpha, beta in ((0, 0), (3, -2)):
        report = verify_point(entry, {"alpha": alpha, "beta": beta,
                                      "gamma": -1})
        failed = [(o.check, o.detail) for o in report.outcomes
                  if not o.passed]
        assert failed == [("claim_dim_leib", "claimed 3, computed 2")]
    assert {p["gamma"] for p in sample_params(entry, 3)} == {0, 1}
    assert verify_entry(entry, 3).passed


def test_verify_entry_passes_after_sign_fix(catalogue):
    assert verify_entry(catalogue.entry("A_120"), samples=3).passed


def test_parametric_point_labels(catalogue):
    report = verify_entry(catalogue.entry("A_5"), samples=2)
    assert len(report.points) == 2
    assert "alpha=" in point_text(report.points[0].values)


def test_claims_round_trip(catalogue):
    claims = catalogue.entry("A_5").claims
    assert claims == Claims(dim_sq=3, dim_cube=2, dim_fourth=1, dim_leib=1)


def test_iso_criteria_present(catalogue):
    iso = catalogue.entry("A_5").iso
    assert iso is not None
    assert len(iso.pairs) == 3
    assert {"alpha"} == set(dict(iso.pairs[0]))
    assert catalogue.entry("A_1").iso is None


def test_no_admissible_point(tmp_path, shipped_document):
    entry = {
        "name": "X_1",
        "case": shipped_document["entries"][0]["case"],
        "params": ["alpha"],
        "constraints": ["alpha-alpha"],
        "products": [{"left": 1, "right": 1, "components": {"5": "alpha"}}],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(shipped_document, entries=[entry])))
    bad = parse_catalogue(path)
    with pytest.raises(NoAdmissiblePoint):
        sample_params(bad.entry("X_1"), 1)


def test_parse_rejects_duplicates(tmp_path, shipped_document):
    first = shipped_document["entries"][0]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dict(shipped_document,
                                    entries=[first, dict(first)])))
    with pytest.raises(CatalogueError):
        parse_catalogue(path)


def test_parse_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    one_entry = ('{"dimension": 5, "cases": {"c": {"claims": {}}}, '
                 '"entries": [{"name": "X_1", "case": "c", %s}]}')
    for text in (b"\xff\xfe{", "{not json", "[]",
                 '{"dimension": 5, "cases": []}',
                 '{"dimension": 5, "entries": [1]}',
                 one_entry % '"products": [{"left": 1, "right": 1, '
                             '"components": {"x": "1"}}]',
                 one_entry % '"products": [{"left": true, "right": 1, '
                             '"components": {"5": "1"}}]',
                 one_entry % '"products": [{"left": 1, "right": 1, '
                             '"components": {"05": "1"}}]',
                 one_entry % '"constraints": [1]'):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(CatalogueError):
            parse_catalogue(path)
    with_claims = ('{"dimension": 5, "cases": {"c": {"claims": %s}}, '
                   '"entries": []}')
    for claims in ('{"dim_sq": "x"}', '{"dim_center": 1.5}',
                   '{"dim_leib": true}', '{"dim_cube": null}',
                   '{"leib_equals_center": 1}',
                   '{"leib_equals_center": "true"}'):
        path.write_text(with_claims % claims)
        with pytest.raises(CatalogueError):
            parse_catalogue(path)
    path.write_text(with_claims
                    % '{"dim_sq": 3, "leib_equals_center": false}')
    assert parse_catalogue(path).cases["c"].leib_equals_center is False


def test_each_expression_parsed_once_per_load(tmp_path, shipped_document,
                                             monkeypatch):
    # 1,873 expressions in the shipped table, 160 distinct (text, params)
    calls = []
    parse = exprs.parse_expr

    def counted(text, params):
        calls.append((text, params))
        return parse(text, params)

    monkeypatch.setattr(exprs, "parse_expr", counted)
    parse_catalogue()
    assert len(calls) == len(set(calls)) == 160
    # a parse is shared only under the same parameter names
    case = shipped_document["entries"][0]["case"]
    entries = [{"name": name, "case": case, "params": params,
                "products": [{"left": 1, "right": 1,
                              "components": {"5": "a"}}]}
               for name, params in (("X_1", ["a"]), ("X_2", []))]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(dict(shipped_document, entries=entries)))
    with pytest.raises(CatalogueError, match="^entry X_2: bad expression"):
        parse_catalogue(path)
    # and nothing is kept from one load to the next
    calls.clear()
    parse_catalogue()
    assert len(calls) == 160


def test_load_memo_serves_sampling_and_witnesses(monkeypatch):
    # after a load, sampling and instantiating parse nothing again, and
    # the witness file parses each distinct literal once: 17 of its 424
    calls = []
    parse = exprs.parse_expr

    def counted(text, params):
        calls.append((text, params))
        return parse(text, params)

    monkeypatch.setattr(exprs, "parse_expr", counted)
    catalogue = parse_catalogue()
    calls.clear()
    for entry in catalogue:
        verify_entry(entry, 3)
    assert calls == []
    fixtures = load_fixtures()
    assert len(calls) == len(set(calls)) == 17
    assert all(params is None for _, params in calls)
    calls.clear()
    for fixture in fixtures:
        fixture.realize(catalogue)
    assert calls == []


def test_structure_computed_once_per_algebra(catalogue, monkeypatch):
    # count the computations behind the cached accessors
    computed = {"_lower_central_series": [], "_center": []}
    solved = []     # the kernel of each `_solutions` call

    def counted(attr):
        original = getattr(LeibnizAlgebra, attr)

        def compute(self, *args):
            computed[attr].append((self, *args))
            return original(self, *args)
        return compute

    for attr in computed:
        monkeypatch.setattr(LeibnizAlgebra, attr, counted(attr))
    solutions = LeibnizAlgebra._solutions

    def solve(terms, ncols):
        solved.append(solutions(terms, ncols))
        return solved[-1]
    monkeypatch.setattr(LeibnizAlgebra, "_solutions", staticmethod(solve))

    report = verify_point(catalogue.entry("A_5"), {"alpha": 2})
    assert report.passed
    [(algebra,)] = computed["_lower_central_series"]
    assert computed["_center"] == [(algebra,)]
    # each side's annihilator is solved once, by one `_solutions` call,
    # and kept; the center is the two annihilators' intersection
    sides = [algebra.left_annihilator(), algebra.right_annihilator()]
    assert sorted(map(id, solved)) == sorted(map(id, sides))
    assert isinstance(algebra.lower_central_series(), tuple)
    assert isinstance(algebra.derived_series(), tuple)
    assert len(computed["_lower_central_series"]) == 1
