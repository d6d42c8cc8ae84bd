"""Catalogue of 5-dimensional non-split non-Lie nilpotent left Leibniz algebras.

The shipped table lists 277 records grouped into cases; each case carries the
dimension claims shared by its members. Entries are parametric: coefficients
are expressions over the entry's parameters, and admissibility is a
conjunction of nonzero constraints plus optional any-nonzero clauses.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional

from . import exprs
from .algebra import LeibnizAlgebra
from .invariants import signature
from .lemmas import check_center_bound, check_derived_bound
from .scalars import FieldMismatch, GaussianRational


class CatalogueError(ValueError):
    """Malformed catalogue data."""


class ConstraintViolated(ValueError):
    """Parameter values fail an entry's admissibility constraints."""


class NoAdmissiblePoint(RuntimeError):
    """The deterministic sample stream found too few admissible points."""


CLAIM_FIELDS = ("dim_sq", "dim_cube", "dim_fourth", "dim_leib",
                "dim_center", "leib_equals_center")


@dataclass(frozen=True)
class Claims:
    dim_sq: Optional[int] = None
    dim_cube: Optional[int] = None
    dim_fourth: Optional[int] = None
    dim_leib: Optional[int] = None
    dim_center: Optional[int] = None
    leib_equals_center: Optional[bool] = None

    def as_dict(self):
        out = {}
        for f in CLAIM_FIELDS:
            v = getattr(self, f)
            if v is not None:
                out[f] = v
        return out


@dataclass(frozen=True)
class Product:
    """One bracket [x_left, x_right] with 1-based component expressions."""
    left: int
    right: int
    components: tuple  # ((k, expr-text, ast), ...) sorted by k


@dataclass(frozen=True)
class IsoCriteria:
    statement: str
    pairs: tuple      # of ((param, expr-text), ...) maps
    invariant: Optional[str] = None

    def substitutions(self):
        return [dict(p) for p in self.pairs]


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    case: str
    params: tuple
    constraints: tuple        # expr texts, each required nonzero
    constraints_any: tuple    # clauses; each clause needs one nonzero member
    products: tuple
    claims: Claims
    iso: Optional[IsoCriteria] = None
    notes: Optional[str] = None

    @property
    def is_parametric(self):
        return bool(self.params)


class Catalogue:
    """Parsed catalogue with name lookup and canonical serialization.

    `sha256` is the hex digest of the file text the catalogue was parsed
    from, so a report names exactly the table it checked.
    """

    def __init__(self, dimension, cases, entries, sha256):
        self.dimension = dimension
        self.cases = dict(cases)
        self.entries = tuple(entries)
        self.by_name = {e.name: e for e in self.entries}
        self.sha256 = sha256

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def entry(self, name):
        try:
            return self.by_name[name]
        except KeyError:
            raise CatalogueError("no catalogue entry named %r" % name) from None

    def names(self):
        return [e.name for e in self.entries]

    def to_document(self):
        cases = {cid: {"claims": claims.as_dict()}
                 for cid, claims in self.cases.items()}
        entries = []
        for e in self.entries:
            rec = {
                "name": e.name,
                "case": e.case,
                "params": list(e.params),
                "constraints": list(e.constraints),
                "products": [
                    {"left": p.left, "right": p.right,
                     "components": {str(k): text for k, text, _ in p.components}}
                    for p in e.products
                ],
            }
            if e.constraints_any:
                rec["constraints_any"] = [list(cl) for cl in e.constraints_any]
            if e.notes:
                rec["notes"] = e.notes
            if e.iso is not None:
                iso = {"statement": e.iso.statement,
                       "pairs": [dict(p) for p in e.iso.pairs]}
                if e.iso.invariant is not None:
                    iso["invariant"] = e.iso.invariant
                rec["iso"] = iso
            entries.append(rec)
        return {"dimension": self.dimension, "cases": cases, "entries": entries}

    def dumps(self):
        return json.dumps(self.to_document(), indent=1) + "\n"


def _parse_expr_checked(text, params, where):
    if not isinstance(text, str):
        raise CatalogueError("%s: expression %r is not a string"
                             % (where, text))
    try:
        ast = exprs.parse_expr(text)
    except exprs.ExprSyntaxError as e:
        raise CatalogueError("%s: bad expression %r (%s)" % (where, text, e))
    stray = exprs.free_params(ast) - set(params)
    if stray:
        raise CatalogueError("%s: expression %r uses undeclared %s"
                             % (where, text, ", ".join(sorted(stray))))
    return ast


def _expect(value, kind, what):
    """Return `value`, or raise CatalogueError unless it is of JSON type
    `kind` (dict for an object, list for an array)."""
    if not isinstance(value, kind):
        raise CatalogueError("%s must be a JSON %s"
                             % (what, "object" if kind is dict else "array"))
    return value


def _parse_claims(rec, where):
    _expect(rec, dict, "%s claims" % where)
    unknown = set(rec) - set(CLAIM_FIELDS)
    if unknown:
        raise CatalogueError("%s: unknown claim fields %s"
                             % (where, ", ".join(sorted(unknown))))
    for name, value in rec.items():
        # exact types: bool is an int subclass, but true is no dimension
        kind = bool if name == "leib_equals_center" else int
        if type(value) is not kind:
            raise CatalogueError("%s: claim %s must be %s, got %s"
                                 % (where, name, "a boolean" if kind is bool
                                    else "an integer", json.dumps(value)))
    return Claims(**rec)


def _parse_entry(rec, dimension, cases):
    name = _expect(rec, dict, "catalogue entry").get("name")
    if not isinstance(name, str) or not name:
        raise CatalogueError("entry without a name")
    where = "entry %s" % name
    case = rec.get("case")
    if case not in cases:
        raise CatalogueError("%s: unknown case %r" % (where, case))
    params = tuple(rec.get("params", ()))
    constraints = tuple(rec.get("constraints", ()))
    for text in constraints:
        _parse_expr_checked(text, params, where)
    constraints_any = tuple(
        tuple(cl) for cl in rec.get("constraints_any", ()))
    for clause in constraints_any:
        if not clause:
            raise CatalogueError("%s: empty any-clause" % where)
        for text in clause:
            _parse_expr_checked(text, params, where)

    products = []
    seen = set()
    for prec in _expect(rec.get("products", []), list, "%s products" % where):
        _expect(prec, dict, "%s product" % where)
        i, j = prec.get("left"), prec.get("right")
        if not (isinstance(i, int) and isinstance(j, int)
                and 1 <= i <= dimension and 1 <= j <= dimension):
            raise CatalogueError("%s: bad product indices %r, %r"
                                 % (where, i, j))
        if (i, j) in seen:
            raise CatalogueError("%s: duplicate product [%d, %d]"
                                 % (where, i, j))
        seen.add((i, j))
        comps = []
        components = _expect(prec.get("components", {}), dict,
                             "%s components" % where)
        for key, text in components.items():
            try:
                k = int(key)
            except ValueError:
                raise CatalogueError("%s: bad component index %r"
                                     % (where, key)) from None
            if not 1 <= k <= dimension:
                raise CatalogueError("%s: component index %d out of range"
                                     % (where, k))
            ast = _parse_expr_checked(text, params, where)
            comps.append((k, text, ast))
        if not comps:
            raise CatalogueError("%s: empty product [%d, %d]" % (where, i, j))
        comps.sort()
        products.append(Product(i, j, tuple(comps)))

    iso = None
    irec = rec.get("iso")
    if irec is not None:
        pairs = []
        for pmap in irec.get("pairs", ()):
            items = []
            for p, text in pmap.items():
                if p not in params:
                    raise CatalogueError("%s: iso map names foreign "
                                         "parameter %r" % (where, p))
                _parse_expr_checked(text, params, where)
                items.append((p, text))
            pairs.append(tuple(items))
        invariant = irec.get("invariant")
        if invariant is not None:
            _parse_expr_checked(invariant, params, where)
        iso = IsoCriteria(statement=irec.get("statement", ""),
                          pairs=tuple(pairs), invariant=invariant)

    return CatalogueEntry(
        name=name, case=case, params=params, constraints=constraints,
        constraints_any=constraints_any, products=tuple(products),
        claims=cases[case], iso=iso, notes=rec.get("notes"))


def parse_catalogue(path=None):
    """Load and validate a catalogue document (default: the shipped table).

    The file is read once; the digest of its text goes on the result.
    """
    if path is None:
        text = (resources.files("leibkit") / "data" /
                "catalogue.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CatalogueError("invalid JSON: %s" % e)

    dimension = _expect(doc, dict, "catalogue document").get("dimension")
    if dimension != 5:
        raise CatalogueError("unsupported dimension %r" % dimension)
    cases = {}
    for cid, crec in _expect(doc.get("cases", {}), dict, "cases").items():
        where = "case %s" % cid
        cases[cid] = _parse_claims(
            _expect(crec, dict, where).get("claims", {}), where)

    entries = []
    names = set()
    for rec in _expect(doc.get("entries", []), list, "entries"):
        entry = _parse_entry(rec, dimension, cases)
        if entry.name in names:
            raise CatalogueError("duplicate entry name %r" % entry.name)
        names.add(entry.name)
        entries.append(entry)
    return Catalogue(dimension, cases, entries,
                     hashlib.sha256(text.encode()).hexdigest())


# ----------------------------------------------------------- sampling

def _sample_stream():
    i = GaussianRational(0, 1)
    half = Fraction(1, 2)
    vals = [0, 1, 2, 3, -2, i, 1 + i, -1, 4, -3, 2 * i, 1 - i,
            half, -half, 5, Fraction(3, 2), -4, 2 + i, -i, 6]
    return [GaussianRational.coerce(v) for v in vals]


@functools.lru_cache(maxsize=None)
def _parsed(texts):
    return tuple(exprs.parse_expr(t) for t in texts)


def _admissible(entry, env):
    for ast in _parsed(entry.constraints):
        if exprs.evaluate(ast, env).is_zero():
            return False
    for clause in entry.constraints_any:
        if all(exprs.evaluate(ast, env).is_zero()
               for ast in _parsed(clause)):
            return False
    return True


def _index_tuples(m, width):
    # graded by maximum stream index, lexicographic within a grade
    for top in range(width):
        for idx in itertools.product(range(top + 1), repeat=m):
            if top in idx:
                yield idx


def sample_params(entry, count=3, budget=500000):
    """Deterministic admissible parameter points for a catalogue entry.

    Single-parameter entries walk a fixed scalar stream; multi-parameter
    entries walk tuples of stream values graded by the largest stream index
    used. Raises NoAdmissiblePoint when the stream cannot supply `count`
    admissible points within the candidate budget.
    """
    if not entry.params:
        return [{}]
    stream = _sample_stream()
    out = []
    examined = 0
    for idx in _index_tuples(len(entry.params), len(stream)):
        examined += 1
        if examined > budget:
            break
        env = {p: stream[k] for p, k in zip(entry.params, idx)}
        if _admissible(entry, env):
            out.append(env)
            if len(out) >= count:
                return out
    raise NoAdmissiblePoint(
        "%s: found %d admissible points (wanted %d)"
        % (entry.name, len(out), count))


def instantiate(entry, values=None):
    """Build the algebra of `entry` at the given parameter values.

    `values` maps every parameter name to a scalar (int, Fraction, or
    GaussianRational). Raises ConstraintViolated off the admissible locus.
    """
    values = dict(values or {})
    expected = set(entry.params)
    if set(values) != expected:
        missing = expected - set(values)
        extra = set(values) - expected
        bits = []
        if missing:
            bits.append("missing %s" % ", ".join(sorted(missing)))
        if extra:
            bits.append("unexpected %s" % ", ".join(sorted(extra)))
        raise ConstraintViolated("%s: %s" % (entry.name, "; ".join(bits)))
    try:
        env = {p: GaussianRational.coerce(v) for p, v in values.items()}
    except FieldMismatch as ex:  # e.g. sqrt(2): parameters live in Q(i)
        raise ConstraintViolated("%s: %s" % (entry.name, ex)) from None
    if not _admissible(entry, env):
        raise ConstraintViolated("%s: parameter values violate the "
                                 "admissibility constraints" % entry.name)
    table = {}
    for prod in entry.products:
        row = {}
        for k, _text, ast in prod.components:
            val = exprs.evaluate(ast, env)
            if not val.is_zero():
                row[k - 1] = val
        if row:
            table[(prod.left - 1, prod.right - 1)] = row
    return LeibnizAlgebra(5, table)


# ----------------------------------------------------------- verification

@dataclass(frozen=True)
class CheckOutcome:
    check: str
    passed: bool
    detail: str = ""

    def __str__(self):
        mark = "ok" if self.passed else "FAIL"
        tail = " (%s)" % self.detail if self.detail else ""
        return "%s: %s%s" % (self.check, mark, tail)


@dataclass(frozen=True)
class PointReport:
    values: tuple  # ((param, scalar), ...)
    outcomes: tuple
    # the algebra's invariant signature, kept for the report's collision
    # listing; never printed and not part of a report's identity
    signature: object = field(default=None, compare=False, repr=False)

    @property
    def passed(self):
        return all(o.passed for o in self.outcomes)

    def value_text(self):
        if not self.values:
            return "-"
        return ", ".join("%s=%s" % (p, exprs.format_scalar(v))
                         for p, v in self.values)


@dataclass(frozen=True)
class EntryReport:
    entry: str
    points: tuple

    @property
    def passed(self):
        return all(p.passed for p in self.points)


def _check_point(entry, values):
    algebra = instantiate(entry, values)
    sig = signature(algebra)
    outcomes = []

    violation = algebra.check_leibniz()
    outcomes.append(CheckOutcome(
        "leibniz", violation is None,
        "" if violation is None else str(violation)))

    outcomes.append(CheckOutcome(
        "non_lie", sig.dim_leib >= 1,
        "" if sig.dim_leib >= 1 else "squares span nothing"))

    outcomes.append(CheckOutcome(
        "nilpotent", algebra.is_nilpotent(),
        "" if algebra.is_nilpotent() else "lower central series stalls"))

    center = algebra.center()
    non_split_ok = algebra.lower_central_term(2).contains_space(center)
    outcomes.append(CheckOutcome(
        "center_in_square", non_split_ok,
        "" if non_split_ok else "center exceeds the derived subalgebra"))

    claims = entry.claims
    observed = {
        "dim_sq": sig.lower_central_dims[1]
        if len(sig.lower_central_dims) > 1 else 0,
        "dim_cube": sig.lower_central_dims[2]
        if len(sig.lower_central_dims) > 2 else 0,
        "dim_fourth": sig.lower_central_dims[3]
        if len(sig.lower_central_dims) > 3 else 0,
        "dim_leib": sig.dim_leib,
        "dim_center": sig.dim_center,
    }
    for field in ("dim_sq", "dim_cube", "dim_fourth", "dim_leib",
                  "dim_center"):
        want = getattr(claims, field)
        if want is None:
            continue
        got = observed[field]
        outcomes.append(CheckOutcome(
            "claim_%s" % field, got == want,
            "" if got == want else "claimed %d, computed %d" % (want, got)))
    if claims.leib_equals_center is not None:
        got = algebra.leib_ideal() == center
        want = claims.leib_equals_center
        outcomes.append(CheckOutcome(
            "claim_leib_equals_center", got == want,
            "" if got == want else "claimed %s, computed %s" % (want, got)))

    for rep in (check_center_bound(algebra),) + check_derived_bound(algebra):
        ok = rep.holds is not False
        outcomes.append(CheckOutcome(
            "bound_%s" % rep.name, ok, "" if ok else str(rep)))

    return PointReport(tuple(sorted(values.items())), tuple(outcomes), sig)


def verify_point(entry, values=None):
    """Run every per-point check at one explicit parameter assignment."""
    return _check_point(entry, dict(values or {}))


def verify_entry(entry, samples=3):
    """Check one entry at `samples` admissible points.

    Verifies the left Leibniz identity, non-Lie-ness, nilpotency, the
    non-split necessary condition Z(A) <= A^2, every claimed dimension,
    and the applicable dimension bounds.
    """
    return EntryReport(entry.name, tuple(_check_point(entry, v) for v in
                                         sample_params(entry, samples)))
