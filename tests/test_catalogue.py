"""Catalogue data: completeness, sampling, instantiation, verification."""

import json
from fractions import Fraction

import pytest
from importlib import resources

from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import (
    CatalogueError,
    ConstraintViolated,
    NoAdmissiblePoint,
    instantiate,
    parse_catalogue,
    sample_params,
    verify_entry,
    verify_point,
)
from leibkit.scalars import GaussianRational, QuadExtField


def test_record_count_and_names(catalogue):
    assert len(catalogue) == 277
    names = catalogue.names()
    assert names[0] == "A_1" and names[-1] == "R_15"
    assert "A_246" not in names
    assert "A_246a" in names and "A_246b" in names
    assert sum(1 for n in names if n.startswith("R_")) == 15
    expected = {"A_%d" % k for k in range(1, 262)} - {"A_246"}
    expected |= {"A_246a", "A_246b"}
    expected |= {"R_%d" % k for k in range(1, 16)}
    assert set(names) == expected


def test_dumps_matches_shipped_file(catalogue):
    shipped = (resources.files("leibkit") / "data" / "catalogue.json").read_text()
    assert catalogue.dumps() == shipped


def test_roundtrip_through_file(catalogue, tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(catalogue.dumps())
    again = parse_catalogue(path)
    assert again.names() == catalogue.names()
    assert again.dumps() == catalogue.dumps()


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
    assert report.value_text() == "-"


def test_verify_entry_known_failure(catalogue):
    report = verify_entry(catalogue.entry("A_242"), samples=2)
    assert report.entry == "A_242"
    assert not report.passed
    failing = {o.check for p in report.points for o in p.outcomes if not o.passed}
    assert failing == {"claim_dim_leib"}


def test_verify_entry_passes_after_sign_fix(catalogue):
    assert verify_entry(catalogue.entry("A_120"), samples=3).passed


def test_parametric_point_labels(catalogue):
    report = verify_entry(catalogue.entry("A_5"), samples=2)
    assert len(report.points) == 2
    assert "alpha=" in report.points[0].value_text()


def test_claims_round_trip(catalogue):
    claims = catalogue.entry("A_5").claims.as_dict()
    assert claims == {"dim_sq": 3, "dim_cube": 2, "dim_fourth": 1, "dim_leib": 1}


def test_iso_criteria_present(catalogue):
    iso = catalogue.entry("A_5").iso
    assert iso is not None
    assert len(iso.substitutions()) == 3
    assert {"alpha"} == set(iso.substitutions()[0])
    assert catalogue.entry("A_1").iso is None


def test_no_admissible_point(tmp_path, catalogue):
    doc = json.loads(catalogue.dumps())
    entry = {
        "name": "X_1",
        "case": doc["entries"][0]["case"],
        "params": ["alpha"],
        "constraints": ["alpha-alpha"],
        "products": [{"left": 1, "right": 1, "components": {"5": "alpha"}}],
    }
    doc["entries"] = [entry]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    bad = parse_catalogue(path)
    with pytest.raises(NoAdmissiblePoint):
        sample_params(bad.entry("X_1"), 1, budget=500)


def test_parse_rejects_duplicates(tmp_path, catalogue):
    doc = json.loads(catalogue.dumps())
    doc["entries"] = doc["entries"][:2]
    doc["entries"][1] = dict(doc["entries"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogueError):
        parse_catalogue(path)


def test_parse_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    one_entry = ('{"dimension": 5, "cases": {"c": {"claims": {}}}, '
                 '"entries": [{"name": "X_1", "case": "c", %s}]}')
    for text in ("{not json", "[]", '{"dimension": 5, "cases": []}',
                 '{"dimension": 5, "entries": [1]}',
                 one_entry % '"products": [{"left": 1, "right": 1, '
                             '"components": {"x": "1"}}]',
                 one_entry % '"constraints": [1]'):
        path.write_text(text)
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


def test_structure_computed_once_per_algebra(catalogue, monkeypatch):
    # count the computations behind the cached accessors
    computed = {"_lower_central_series": [], "_center": []}

    def counted(attr):
        original = getattr(LeibnizAlgebra, attr)

        def compute(self):
            computed[attr].append(self)
            return original(self)
        return compute

    for attr in computed:
        monkeypatch.setattr(LeibnizAlgebra, attr, counted(attr))

    report = verify_point(catalogue.entry("A_5"), {"alpha": 2})
    assert report.passed
    [algebra] = computed["_lower_central_series"]
    assert computed["_center"] == [algebra]
    assert isinstance(algebra.lower_central_series(), tuple)
    assert isinstance(algebra.derived_series(), tuple)
    assert len(computed["_lower_central_series"]) == 1
