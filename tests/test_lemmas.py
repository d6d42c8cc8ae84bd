"""Dimension-bound lemmas and the k=2, t=1 exclusion instance."""

from leibkit.catalogue import instantiate
from leibkit.invariants import signature
from leibkit.lemmas import (
    BoundsReport,
    center_bound,
    check_center_bound,
    check_derived_bound,
    derived_bound_i,
    derived_bound_ii,
)


def test_bound_formulas():
    assert center_bound(2) == 2
    assert center_bound(4) == 7
    assert derived_bound_i(2, 1) == 5
    assert derived_bound_ii(2, 1) == 4
    assert derived_bound_ii(3, 2) == 8


def test_exclusion_instance():
    # part (ii) at k = 2, t = 1: bound 4 rules out dimension 5
    report = BoundsReport("derived-bound-ii", True, "k=2, t=1, Leib in A^3",
                          bound=derived_bound_ii(2, 1), observed=5)
    assert report.name == "derived-bound-ii"
    assert report.applicable
    assert report.bound == 4 and report.observed == 5
    assert report.holds is False
    assert "5" in str(report) and "4" in str(report)


def test_center_bound_on_entries(catalogue):
    report = check_center_bound(signature(instantiate(catalogue.entry("A_1"))))
    assert report.applicable
    assert report.observed == 3  # dim A^2
    assert report.bound == center_bound(4)  # center has codim 4
    assert report.holds is True
    skipped = check_center_bound(
        signature(instantiate(catalogue.entry("A_16"))))
    assert not skipped.applicable
    assert skipped.holds is None
    assert "not applicable" in str(skipped)


def test_derived_bounds_on_entries(catalogue):
    first, second = check_derived_bound(
        signature(instantiate(catalogue.entry("A_1"))))
    assert first.name == "derived-bound-i"
    assert second.name == "derived-bound-ii"
    assert first.applicable and first.holds is True
    assert second.holds in (True, None)
    for name in ("A_16", "A_42"):
        for rep in check_derived_bound(
                signature(instantiate(catalogue.entry(name)))):
            assert rep.holds in (True, None)
