"""Acceptance gate: the nine headline checks, one verdict line each.

The shared full verification (every entry, three admissible points) runs
once per module; the criteria read from it.  Verdict lines are echoed
after the pytest summary by the hook in conftest.
"""

import random
import time

import pytest

from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import Claims, instantiate, sample_params, verify_entry
from leibkit.forms import (
    BilinearForm2,
    CanonicalKind,
    congruence_canonical,
    extract_v_form,
    section_two_eligible,
)
from leibkit.invariants import signature
from leibkit.iso import CERTIFIED, EVIDENCE, certify, verify_witness
from leibkit.lemmas import BoundsReport, derived_bound_ii
from leibkit.linalg import Matrix, SingularMatrix
from leibkit.scalars import (ExtensionTowerNeeded, GaussianRational,
                             QuadExtField)

VERDICTS = []

CLAIM_CHECKS = ("claim_dim_sq", "claim_dim_cube", "claim_dim_fourth",
                "claim_dim_leib", "claim_dim_center",
                "claim_leib_equals_center")

# Spread over the main families; base-change invariance is unconditional.
INVARIANCE_ENTRIES = (
    "A_1", "A_5", "A_8", "A_16", "A_17", "A_23", "A_31", "A_50", "A_64",
    "A_75", "A_88", "A_97", "A_118", "A_129", "A_136", "A_140", "A_161",
    "A_200", "R_5", "R_15",
)

# Entries with at least three descending steps in the lower central
# series.  Tables whose products all land in the center stay valid under
# any sign change, and many of those changes produce isomorphic algebras
# that no basis-free quantity can separate; the detection rate is a
# statement about rigid tables.
MUTATION_ENTRIES = (
    "A_1", "A_2", "A_3", "A_4", "A_8", "A_9", "A_13", "A_31", "A_75",
    "A_76", "A_77", "A_82", "A_120", "A_121", "A_122", "A_124", "A_126",
    "A_132", "A_134", "A_135",
)


def _verdict(num, ok, detail):
    line = "criterion %d: %-4s %s" % (num, "PASS" if ok else "FAIL", detail)
    VERDICTS.append(line)
    print(line)


def _first_point(catalogue, name):
    entry = catalogue.entry(name)
    values = sample_params(entry, 1)[0] if entry.is_parametric else {}
    return instantiate(entry, values)


def _small_invertible(rng, n=5):
    while True:
        m = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


@pytest.fixture(scope="module")
def full_run(catalogue):
    start = time.monotonic()
    reports = [verify_entry(entry, samples=3) for entry in catalogue]
    return reports, time.monotonic() - start


def test_criterion_1_catalogue_complete(catalogue, full_run):
    reports, elapsed = full_run
    leibniz_failures = [r.entry for r in reports for p in r.points
                        for o in p.outcomes
                        if o.check == "leibniz" and not o.passed]
    thin = [r.entry for r in reports
            if catalogue.entry(r.entry).is_parametric and len(r.points) < 3]
    points = sum(len(r.points) for r in reports)
    ok = (len(reports) == 277 and not leibniz_failures and not thin
          and elapsed < 60)
    _verdict(1, ok, "%d records, %d points, exact Leibniz, %.1fs"
             % (len(reports), points, elapsed))
    assert len(reports) == 277
    assert leibniz_failures == []
    assert thin == []
    assert elapsed < 60


def test_criterion_2_hypothesis_conformance(catalogue, full_run):
    reports, _ = full_run
    for name in ("A_1", "A_2", "A_3", "A_4", "A_5", "A_6", "A_7"):
        assert catalogue.entry(name).claims == Claims(
            dim_sq=3, dim_cube=2, dim_fourth=1, dim_leib=1)
    assert signature(instantiate(catalogue.entry("A_16"))).lower_central_dims[1] == 4
    failures = sorted({(r.entry, o.check) for r in reports for p in r.points
                       for o in p.outcomes
                       if o.check in CLAIM_CHECKS and not o.passed})
    ok = not failures
    _verdict(2, ok, "zero tolerance on claimed dimensions; "
             + ("all claims match" if ok else "mismatches: %s" % failures))
    assert not failures, (
        "claimed invariants are contradicted by the computed values at "
        "every admissible point: %s. For A_242 the claimed dim Leib = 2 "
        "is never attained (the computed value is 1 identically); the "
        "entry ships exactly as printed in the source classification, so "
        "this failure is expected and recorded." % failures)


def test_criterion_3_nonlie_nonsplit(full_run):
    reports, _ = full_run
    bad = [(r.entry, o.check) for r in reports for p in r.points
           for o in p.outcomes
           if o.check in ("non_lie", "center_in_square") and not o.passed]
    points = sum(len(r.points) for r in reports)
    _verdict(3, not bad, "dim Leib >= 1 and Z inside A^2 at all %d points"
             % points)
    assert bad == []


def test_criterion_4_dimension_bounds(full_run):
    reports, _ = full_run
    bad = [(r.entry, o.check) for r in reports for p in r.points
           for o in p.outcomes
           if o.check.startswith("bound_") and not o.passed]
    witness = BoundsReport("derived-bound-ii", True, "k=2, t=1, Leib in A^3",
                           bound=derived_bound_ii(2, 1), observed=5)
    instance_ok = (witness.bound == 4 and witness.observed == 5
                   and witness.holds is False)
    _verdict(4, not bad and instance_ok,
             "bounds hold on every applicable point; exclusion instance "
             "k=2, t=1 reports 5 > 4")
    assert bad == []
    assert instance_ok


def _assert_congruence(m, res):
    rep = res.kind.rep_matrix()
    q = res.q
    if res.extension_d is not None:
        field = QuadExtField(res.extension_d)
        m = Matrix([[field.embed(x) for x in row] for row in m.rows])
        rep = Matrix([[field.embed(x) for x in row] for row in rep.rows])
    assert q.transpose() @ m @ q == rep


def test_criterion_5_canonical_forms(catalogue):
    from fractions import Fraction
    kinds = [CanonicalKind("zero"), CanonicalKind("skew_i"),
             CanonicalKind("sym_rank1_ii"), CanonicalKind("sym_rank2_iii"),
             CanonicalKind("mixed_iv"),
             CanonicalKind("mixed_v", GaussianRational(Fraction(1, 2)))]
    fixed = True
    for kind in kinds:
        res = congruence_canonical(BilinearForm2(kind.rep_matrix()))
        fixed = fixed and res.kind == kind and res.q == Matrix.identity(2)
        _assert_congruence(kind.rep_matrix(), res)
    eligible = 0
    skew_hits = []
    tower = []
    for entry in catalogue:
        values = sample_params(entry, 1)[0] if entry.is_parametric else {}
        alg = instantiate(entry, values)
        if not section_two_eligible(alg):
            continue
        eligible += 1
        form, _basis = extract_v_form(alg)
        try:
            res = congruence_canonical(form)
        except ExtensionTowerNeeded:
            tower.append(entry.name)
            continue
        if res.kind.tag == "skew_i":
            skew_hits.append(entry.name)
        _assert_congruence(form.matrix, res)
    ok = fixed and eligible > 0 and not skew_hits and not tower
    _verdict(5, ok, "5 representatives are fixed points (Q = I); "
             "%d eligible entries, none of kind (i)" % eligible)
    assert fixed
    assert eligible > 0
    assert skew_hits == []
    assert tower == []


def test_criterion_6_witness_fixtures(witness_fixtures, catalogue):
    labels = {f.label for f in witness_fixtures}
    proof_labels = {"form-ii-vs-iv", "form-iii-vs-v", "filiform-A_1",
                    "filiform-A_3", "radical-A_5", "flat-A_8", "flat-A_9",
                    "abelian-slice-A_13", "isotropic-A_15", "graded-A_64"}
    theorem_groups = ({"filiform-A_1", "filiform-A_3", "radical-A_5"},
                      {"flat-A_8", "flat-A_9"},
                      {"abelian-slice-A_13", "isotropic-A_15"})
    structure_ok = (proof_labels <= labels
                    and all(g & labels for g in theorem_groups))
    failures = []
    for fixture in witness_fixtures:
        src, tgt, m = fixture.realize(catalogue)
        if verify_witness(src, tgt, m) is not None:
            failures.append(fixture.label)
            continue
        back = m.inv()
        if verify_witness(tgt, src, back) is not None:
            failures.append(fixture.label + " (reverse)")
            continue
        loop = back @ m
        if loop != Matrix.identity(5):
            failures.append(fixture.label + " (composition)")
        if verify_witness(src, src, loop) is not None:
            failures.append(fixture.label + " (loop)")
    ok = structure_ok and not failures
    _verdict(6, ok, "%d fixtures (%d proof transcriptions) verify exactly; "
             "round trips and compositions hold"
             % (len(witness_fixtures), len(proof_labels & labels)))
    assert structure_ok
    assert failures == []
    assert len(witness_fixtures) >= 10


def test_criterion_7_search_oracle(catalogue):
    outcomes = []
    for name, left, right in (("A_5", 2, -2), ("A_116", 2, -2)):
        entry = catalogue.entry(name)
        source = instantiate(entry, {"alpha": left})
        target = instantiate(entry, {"alpha": right})
        start = time.monotonic()
        cert = certify(source, target)
        elapsed = time.monotonic() - start
        exact = (cert.status == CERTIFIED
                 and verify_witness(source, target, cert.matrix) is None)
        accepted = exact or cert.status == EVIDENCE
        outcomes.append((name, cert.status, cert.candidates, elapsed,
                         accepted and elapsed < 300
                         and cert.candidates <= 10 ** 7))
    ok = all(o[-1] for o in outcomes)
    _verdict(7, ok, "; ".join("%s(2)~%s(-2): %s after %d candidates (%.1fs)"
                              % (n, n, s.upper(), c, e)
                              for n, s, c, e, _ in outcomes))
    assert ok, outcomes


def test_criterion_8_invariance(catalogue, witness_fixtures):
    rng = random.Random(20260817)
    changes = 0
    problems = []
    for name in INVARIANCE_ENTRIES:
        alg = _first_point(catalogue, name)
        sig = signature(alg)
        der = alg.derivations().dim
        for _ in range(10):
            p = _small_invertible(rng)
            moved = alg.base_change(p)
            changes += 1
            if signature(moved) != sig:
                problems.append((name, "signature moved"))
            if moved.derivations().dim != der:
                problems.append((name, "dim Der moved"))
            if verify_witness(moved, alg, p) is not None:
                problems.append((name, "witness rejected"))
    for fixture in witness_fixtures:
        src, tgt, _m = fixture.realize(catalogue)
        if signature(src) != signature(tgt):
            problems.append((fixture.label, "fixture signatures differ"))
        if src.derivations().dim != tgt.derivations().dim:
            problems.append((fixture.label, "fixture dim Der differ"))
    ok = not problems and changes == 200
    _verdict(8, ok, "%d base changes over %d entries keep the signature "
             "and dim Der and round-trip; %d fixture pairs agree"
             % (changes, len(INVARIANCE_ENTRIES), len(witness_fixtures)))
    assert changes == 200
    assert problems == []


def test_criterion_9_mutation_detection(catalogue):
    total = 0
    detected = 0
    misses = []
    for name in MUTATION_ENTRIES:
        base = _first_point(catalogue, name)
        sig = signature(base)
        for key in sorted(base.table):
            for op in ("delete", "negate"):
                total += 1
                table = {k: dict(v) for k, v in base.table.items()}
                if op == "delete":
                    del table[key]
                else:
                    table[key] = {c: -v for c, v in table[key].items()}
                mutant = LeibnizAlgebra(5, table)
                if (mutant.check_leibniz() is not None
                        or signature(mutant) != sig):
                    detected += 1
                else:
                    misses.append((name, op, key, mutant))
    rate = detected / total
    for _name, _op, _key, mutant in misses:
        assert mutant.check_leibniz() is None  # remainder stays valid
    ok = rate >= 0.95
    _verdict(9, ok, "%d/%d mutations detected (%.1f%%); %d undetected "
             "mutants re-verified as valid Leibniz tables"
             % (detected, total, 100 * rate, len(misses)))
    assert rate >= 0.95, (detected, total)
