"""Walk the shipped catalogue: counts, spot checks, and the one known defect."""

from leibkit.catalogue import (
    instantiate,
    parse_catalogue,
    sample_params,
    verify_entry,
)
from leibkit.invariants import signature


def main():
    cat = parse_catalogue()
    names = [e.name for e in cat]
    print(f"catalogue holds {len(names)} records "
          f"({sum(1 for n in names if n.startswith('A_'))} A-family, "
          f"{sum(1 for n in names if n.startswith('R_'))} R-family)")

    parametric = [n for n in names if cat.entry(n).is_parametric]
    print(f"{len(parametric)} entries carry free parameters\n")

    # a rigid entry: one point, every check
    report = verify_entry(cat.entry("A_1"))
    point = report.points[0]
    print("A_1 checks:")
    for outcome in point.outcomes:
        print(f"  {outcome.check:28s} {'ok' if outcome.passed else 'FAIL'}")

    # a parametric entry: deterministic sampling away from the excluded values
    entry = cat.entry("A_17")
    points = sample_params(entry, count=3)
    print(f"\nA_17 constraints {entry.constraints} sampled at {points}")
    for values in points:
        alg = instantiate(entry, values)
        sig = signature(alg)
        print(f"  alpha={values['alpha']}: lower central {sig.lower_central_dims}, "
              f"dim Leib {sig.dim_leib}, dim center {sig.dim_center}")

    # the known defect: A_242 claims dim Leib = 2, the table gives 1
    report = verify_entry(cat.entry("A_242"))
    bad = sorted({(o.check, o.detail) for p in report.points
                  for o in p.outcomes if not o.passed})
    print(f"\nA_242 ships as printed in the source classification; "
          f"it fails the same check at every admissible point:")
    for check, detail in bad:
        print(f"  {check}: {detail}")


if __name__ == "__main__":
    main()
