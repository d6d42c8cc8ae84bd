"""Command-line driver: verification, invariants, forms, isomorphism.

Commands
  verify      check entries against the Leibniz identity and their claims
  invariants  print computed invariant signatures
  iso verify  check the stored base-change witnesses exactly
  iso search  run the modular witness search with exact lifting
  canon       canonicalize a 2x2 bilinear form matrix
  report      emit the full verification report (text or json)

Exit status is 0 exactly when no check failed; inconclusive search
results do not fail a run.  Usage errors and malformed input files exit
2 with one "error:" line.  Output carries no timestamps, so identical
inputs produce byte-identical reports.
"""

import argparse
import dataclasses
import json
import sys

from . import __version__, exprs
from .catalogue import (CatalogueError, ConstraintViolated, EntryReport,
                        NoAdmissiblePoint, instantiate, parse_catalogue,
                        point_text, sample_params, verify_entry,
                        verify_point)
from .forms import BilinearForm2, congruence_canonical
from .invariants import signature
from .iso import (CERTIFIED, DEFAULT_CAP, DEFAULT_PRIMES, DISTINCT,
                  EVIDENCE, INCONCLUSIVE, FixtureError, LevelCounts,
                  certify, load_fixtures, verify_witness)
from .linalg import Matrix
from .scalars import PrimeField

STATUS_LABEL = {
    CERTIFIED: "CERTIFIED",
    EVIDENCE: "FINITE-FIELD-EVIDENCE",
    INCONCLUSIVE: "INCONCLUSIVE",
    DISTINCT: "NON-ISOMORPHIC (signature certificate)",
}


class UsageError(ValueError):
    """A bad option value or argument; `main` prints it and exits 2."""


def _require_positive(flag, value):
    if value < 1:
        raise UsageError("%s must be at least 1, got %d" % (flag, value))


def _header(catalogue):
    return ["leibkit %s" % __version__,
            "catalogue sha256 %s" % catalogue.sha256]


def _entry_spec(text):
    """NAME or NAME:param=value,... with scalar-literal values."""
    name, sep, rest = text.partition(":")
    name = name.strip()
    values = {}
    if sep:
        if not rest:
            raise UsageError("empty parameter list in %r" % text)
        for piece in rest.split(","):
            key, eq, val = (x.strip() for x in piece.partition("="))
            if not eq or not key or not val:
                raise UsageError("bad parameter assignment %r" % piece)
            if key in values:
                raise UsageError("parameter %s given twice" % key)
            try:
                values[key] = exprs.parse_scalar(val)
            except ValueError as ex:
                raise UsageError("parameter %s: %s" % (key, ex))
    return name, values


def _select_entries(catalogue, specs):
    """Resolve --entry flags; no flags means the whole catalogue."""
    if not specs:
        return [(entry, None) for entry in catalogue]
    out = []
    for spec in specs:
        name, values = _entry_spec(spec)
        out.append((catalogue.entry(name), values or None))
    return out


def _format_matrix(matrix):
    return ["[%s]" % ", ".join(exprs.format_scalar(v) for v in row)
            for row in matrix.rows]


# ------------------------------------------------------------------ reports

def _count_failures(reports):
    failed = 0
    points = 0
    checks = 0
    for rep in reports:
        for point in rep.points:
            points += 1
            for outcome in point.outcomes:
                checks += 1
                if not outcome.passed:
                    failed += 1
    return points, checks, failed


def _failure_lines(rep):
    """One line per failed check of an entry, with the point it failed at."""
    return ["  at %s  %s" % (point_text(point.values), outcome)
            for point in rep.points for outcome in point.outcomes
            if not outcome.passed]


def _entry_document(rep):
    return {"name": rep.entry, "passed": rep.passed, "points": [
        {"values": {p: exprs.format_scalar(v) for p, v in point.values},
         "checks": [{"check": o.check, "passed": o.passed,
                     **({"detail": o.detail} if o.detail else {})}
                    for o in point.outcomes]}
        for point in rep.points]}


def _signature_collisions(reports):
    """Entries sharing a full signature at their first admissible point.

    The signature is the one computed while verifying that point (the
    first sample point does not depend on the sample count).  Shared
    signatures are reported as an observation only; they do not assert
    isomorphism.
    """
    groups = {}
    for rep in reports:
        groups.setdefault(rep.points[0].signature, []).append(rep.entry)
    out = []
    for sig, names in groups.items():
        if len(names) < 2:
            continue
        out.append({"signature": sig.as_dict(), "entries": names})
    return out


# ----------------------------------------------------------------- commands

def cmd_verify(args):
    _require_positive("--samples", args.samples)
    catalogue = parse_catalogue(args.catalogue)
    reports = [verify_entry(entry, args.samples) if values is None
               else EntryReport(entry.name, (verify_point(entry, values),))
               for entry, values in _select_entries(catalogue, args.entry)]
    points, _checks, failed = _count_failures(reports)
    print(*_header(catalogue), sep="\n")
    for rep in reports:
        status = "ok" if rep.passed else "FAIL"
        print("%-8s %d point%s  %s" % (rep.entry, len(rep.points),
                                       "s" if len(rep.points) != 1 else "",
                                       status))
        for line in _failure_lines(rep):
            print(line)
    print("%d entries, %d points, %d failed checks"
          % (len(reports), points, failed))
    return 1 if failed else 0


def cmd_invariants(args):
    _require_positive("--samples", args.samples)
    catalogue = parse_catalogue(args.catalogue)
    # instantiate every point first, so that a bad one exits 2 before
    # anything reaches stdout
    algebras = []
    for entry, values in _select_entries(catalogue, args.entry):
        points = ([values] if values is not None
                  else sample_params(entry, args.samples))
        algebras.extend((entry.name, point, instantiate(entry, point))
                        for point in points)
    print(*_header(catalogue), sep="\n")
    for name, point, alg in algebras:
        sig = signature(alg)
        where = point_text(sorted(point.items()))
        pairs = []
        for key, value in sig.as_dict().items():
            if isinstance(value, tuple):
                value = "(%s)" % ",".join(str(x) for x in value)
            pairs.append("%s=%s" % (key, value))
        print("%s  %s  %s" % (name, where, " ".join(pairs)))
    return 0


def cmd_iso_verify(args):
    catalogue = parse_catalogue(args.catalogue)
    fixtures = load_fixtures(args.fixtures)
    if args.label:
        wanted = set(args.label)
        fixtures = tuple(f for f in fixtures if f.label in wanted)
        missing = wanted - {f.label for f in fixtures}
        if missing:
            raise UsageError("no fixture labeled %s"
                             % ", ".join(sorted(missing)))
    # realize every fixture first, so that a bad one exits 2 before
    # anything reaches stdout
    realized = [(f.label, f.realize(catalogue)) for f in fixtures]
    print(*_header(catalogue), sep="\n")
    failed = 0
    for label, (src, tgt, matrix) in realized:
        defect = verify_witness(src, tgt, matrix)
        if defect is None:
            print("%-22s ok" % label)
        else:
            failed += 1
            print("%-22s FAIL  %s" % (label, defect))
    print("%d witnesses, %d failed" % (len(fixtures), failed))
    return 1 if failed else 0


# every counter of LevelCounts, then the candidates that went on
_COUNTERS = tuple(f.name for f in dataclasses.fields(LevelCounts)
                  if f.name != "level") + ("passed",)


def cmd_iso_search(args):
    _require_positive("--cap", args.cap)
    primes = tuple(args.prime or DEFAULT_PRIMES)
    for k, prime in enumerate(primes):
        if prime in primes[:k]:
            raise UsageError("--prime %d given twice" % prime)
        try:
            PrimeField(prime)
        except ValueError as ex:
            raise UsageError("--prime: %s" % ex)
    catalogue = parse_catalogue(args.catalogue)
    sides = []
    for spec in (args.a, args.b):
        name, values = _entry_spec(spec)
        sides.append(instantiate(catalogue.entry(name), values))
    print(*_header(catalogue), sep="\n")
    result = certify(sides[0], sides[1], primes=primes, cap=args.cap)
    # per-level search counters go to stderr, so stdout keeps its format
    for search in result.searches:
        print("search mod %d: %s after %d candidates"
              % (search.prime, search.status, search.candidates),
              file=sys.stderr)
        print("  %-8s" % "level" + "".join("%13s" % f for f in _COUNTERS),
              file=sys.stderr)
        for level in search.levels:
            print("  %-8s" % level.level + "".join(
                "%13d" % getattr(level, f) for f in _COUNTERS),
                file=sys.stderr)
    print(STATUS_LABEL[result.status])
    print("candidates considered: %d" % result.candidates)
    if result.detail:
        print(result.detail)
    if result.matrix is not None:
        print("witness columns are images of the source basis:")
        for line in _format_matrix(result.matrix):
            print("  %s" % line)
    return 0


def _parse_form_literal(text):
    s = "".join(text.split())
    if not (s.startswith("[[") and s.endswith("]]")):
        raise UsageError("matrix literal must look like [[a,b],[c,d]]")
    rows = s[2:-2].split("],[")
    if len(rows) != 2:
        raise UsageError("need exactly two rows")
    rows = [row.split(",") for row in rows]
    if any(len(parts) != 2 for parts in rows):
        raise UsageError("need exactly two entries per row")
    try:
        return Matrix(exprs.parse_scalar_rows(rows))
    except ValueError as ex:
        raise UsageError(str(ex))


def cmd_canon(args):
    m = _parse_form_literal(args.matrix)
    try:
        result = congruence_canonical(BilinearForm2(m))
    except (ValueError, ArithmeticError) as ex:
        raise UsageError(str(ex))
    print("kind %s" % result.kind.label)
    if result.kind.tag == "mixed_v":
        print("c = %s" % exprs.format_scalar(result.kind.c))
    if result.extension_d is not None:
        print("transform uses sqrt(%s)"
              % exprs.format_scalar(result.extension_d))
    print("Q =")
    for line in _format_matrix(result.q):
        print("  %s" % line)
    # congruence_canonical raises unless Q^T M Q is the representative
    print("Q^T M Q equals the canonical matrix: verified")
    return 0


def cmd_report(args):
    _require_positive("--samples", args.samples)
    catalogue = parse_catalogue(args.catalogue)
    reports = [verify_entry(entry, args.samples) for entry in catalogue]
    points, checks, failed = _count_failures(reports)
    failing = [rep.entry for rep in reports if not rep.passed]
    collisions = _signature_collisions(reports)
    status = 1 if failed else 0
    if args.format == "json":
        doc = {"tool": "leibkit", "version": __version__,
               "catalogue_sha256": catalogue.sha256,
               "samples": args.samples,
               "entries": [_entry_document(rep) for rep in reports],
               "summary": {"entries": len(reports), "points": points,
                           "checks": checks, "failed_checks": failed,
                           "failing_entries": failing},
               "signature_collisions": collisions,
               "exit_status": status}
        text = json.dumps(doc, indent=1) + "\n"
    else:
        lines = _header(catalogue)
        lines.append("samples per parametric entry: %d" % args.samples)
        lines.append("")
        lines.append("%-8s %-7s %s" % ("entry", "points", "status"))
        for rep in reports:
            lines.append("%-8s %-7d %s"
                         % (rep.entry, len(rep.points),
                            "ok" if rep.passed else "FAIL"))
            lines.extend(_failure_lines(rep))
        lines.append("")
        lines.append("%d entries, %d points, %d checks, %d failed"
                     % (len(reports), points, checks, failed))
        if failing:
            lines.append("failing entries: %s" % ", ".join(failing))
        lines.append("")
        lines.append("shared invariant signatures (no isomorphism claim):")
        for group in collisions:
            lines.append("  %s" % ", ".join(group["entries"]))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


# --------------------------------------------------------------- arg wiring

def _add_catalogue_flag(parser):
    parser.add_argument("--catalogue", metavar="PATH", default=None,
                        help="catalogue file (default: the shipped table)")


def _add_entry_flags(parser):
    parser.add_argument("--entry", metavar="NAME[:param=value,...]",
                        action="append", default=[],
                        help="restrict to one entry, optionally at an "
                             "explicit parameter point; repeatable")
    parser.add_argument("--samples", type=int, default=3, metavar="N",
                        help="admissible parameter points per entry "
                             "(default 3)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibkit",
        description="Exact verification tooling for the catalogue of "
                    "5-dimensional complex non-split non-Lie nilpotent "
                    "left Leibniz algebras.")
    parser.add_argument("--version", action="version",
                        version="leibkit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify catalogue entries")
    _add_catalogue_flag(p)
    _add_entry_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariants", help="print invariant signatures")
    _add_catalogue_flag(p)
    _add_entry_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("iso", help="isomorphism witnesses")
    iso_sub = p.add_subparsers(dest="iso_command", required=True)

    q = iso_sub.add_parser("verify", help="check stored witnesses")
    _add_catalogue_flag(q)
    q.add_argument("--fixtures", metavar="PATH", default=None,
                   help="witness file (default: the shipped fixtures)")
    q.add_argument("--label", action="append", default=[],
                   help="check only the named fixture; repeatable")
    q.set_defaults(func=cmd_iso_verify)

    q = iso_sub.add_parser("search", help="search for a witness mod p, "
                                          "then lift exactly")
    _add_catalogue_flag(q)
    q.add_argument("--a", required=True, metavar="NAME[:param=value,...]")
    q.add_argument("--b", required=True, metavar="NAME[:param=value,...]")
    q.add_argument("--prime", type=int, action="append", default=None,
                   help="search prime, p = 1 mod 4; repeatable with "
                        "distinct values (default 13 then 29)")
    q.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="candidate cap per prime (default %d)" % DEFAULT_CAP)
    q.set_defaults(func=cmd_iso_search)

    p = sub.add_parser("canon", help="canonicalize a 2x2 bilinear form")
    p.add_argument("matrix", help="matrix literal, e.g. \"[[0,2],[4,0]]\"")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("report", help="full verification report")
    _add_catalogue_flag(p)
    p.add_argument("--samples", type=int, default=3, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CatalogueError, FixtureError, NoAdmissiblePoint,
            ConstraintViolated, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
