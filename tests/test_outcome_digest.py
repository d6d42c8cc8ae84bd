"""One digest over every per-point check outcome, failure texts included.

`report` prints a check's detail only where it failed, and on the shipped
data only A_242's `claim_dim_leib` fails.  So the digest also covers a
small inline catalogue whose entries fail every check a table can fail.
It hashes (entry, point, check, passed, detail) for all 545 shipped points
and for each inline entry; a change to any check's name, order, verdict
or failure text moves it.

No table fails the three bound checks: with dim span{[x, x]} = 1 each
bound follows from splitting products into symmetric and antisymmetric
parts, by linear algebra alone, so they are left out of FAILING.
"""

import hashlib
import json

import pytest

from leibkit.catalogue import parse_catalogue, point_text, verify_entry

DIGEST = "8d3678373d079d09913340f775e75880db4c33e04fd8d2fc56049f24f8838990"


def product(left, right, comps):
    return {"left": left, "right": right,
            "components": {str(k): text for k, text in comps.items()}}


# [e1, e1] = e2 and [e1, e_k] = e_(k+1): the null-filiform algebra
NULL_FILIFORM = [product(1, 1, {2: "1"})] + [
    product(1, k, {k + 1: "1"}) for k in range(2, 5)]

# entry -> (case, products, the checks it fails)
FAILING = {
    # [[e1, e1], e1] = e3, but squares must annihilate from the left
    "X_leibniz": ("none", [product(1, 1, {2: "1"}), product(2, 1, {3: "1"}),
                           product(1, 3, {4: "1"}), product(1, 4, {5: "1"})],
                  {"leibniz"}),
    # the Heisenberg Lie algebra
    "X_lie": ("none", [product(1, 2, {5: "1"}), product(2, 1, {5: "-1"}),
                       product(3, 4, {5: "1"}), product(4, 3, {5: "-1"})],
              {"non_lie"}),
    # [e1, e_k] = e_k: A^2 = A^3 = span(e2, ..., e5)
    "X_stall": ("none", [product(1, k, {k: "1"}) for k in range(2, 6)],
                {"nilpotent"}),
    # Z = span(e2, ..., e5) against A^2 = span(e2)
    "X_split": ("none", [product(1, 1, {2: "1"})], {"center_in_square"}),
    # computed 4, 3, 2, 4, 1 and Leib(A) != Z(A)
    "X_claims": ("wrong", NULL_FILIFORM,
                 {"claim_dim_sq", "claim_dim_cube", "claim_dim_fourth",
                  "claim_dim_leib", "claim_dim_center",
                  "claim_leib_equals_center"}),
    # Leib(A) = Z(A) = A^2 = span(e5)
    "X_leib_is_center": ("unequal",
                         [product(1, 1, {5: "1"}), product(2, 3, {5: "1"}),
                          product(3, 2, {5: "-1"}), product(4, 4, {5: "1"})],
                         {"claim_leib_equals_center"}),
}

FAILING_CATALOGUE = json.dumps({
    "dimension": 5,
    "cases": {"none": {"claims": {}},
              "wrong": {"claims": {"dim_sq": 3, "dim_cube": 2,
                                   "dim_fourth": 1, "dim_leib": 3,
                                   "dim_center": 2,
                                   "leib_equals_center": True}},
              "unequal": {"claims": {"leib_equals_center": False}}},
    "entries": [{"name": name, "case": case, "products": products}
                for name, (case, products, _) in FAILING.items()]})


def outcome_lines(reports):
    return ["%s %s %s %s %s" % (rep.entry, point_text(point.values),
                                o.check, o.passed, o.detail)
            for rep in reports for point in rep.points
            for o in point.outcomes]


@pytest.fixture(scope="module")
def failing_reports(tmp_path_factory):
    path = tmp_path_factory.mktemp("outcomes") / "failing.json"
    path.write_text(FAILING_CATALOGUE)
    return [verify_entry(entry) for entry in parse_catalogue(str(path))]


def test_each_inline_entry_fails_its_checks(failing_reports):
    for rep in failing_reports:
        failed = {o.check for o in rep.points[0].outcomes if not o.passed}
        assert failed == FAILING[rep.entry][2], rep.entry


def test_outcome_digest(catalogue, failing_reports):
    shipped = [verify_entry(entry, 3) for entry in catalogue]
    text = "\n".join(outcome_lines(shipped + failing_reports)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
