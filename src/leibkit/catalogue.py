"""Catalogue of 5-dimensional non-split non-Lie nilpotent left Leibniz algebras.

The shipped table lists 277 records grouped into cases; each case carries the
dimension claims shared by its members. Entries are parametric: coefficients
are expressions over the entry's parameters, and admissibility is a
conjunction of nonzero constraints plus optional any-nonzero clauses.

This module is the one reader of the data files: `read_document` decodes
both the catalogue and the witness file, and `parse_products` and
`product_table` read the JSON product layout, a list of {left: i,
right: j, components: {k: text}} records, in both.
"""

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from importlib import resources
from typing import get_args

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


DIMENSION = 5  # the n of the classification, for catalogue and witness files


# optional fields are written X | None, not Optional[X]: typing keeps
# Optional[X] in a process-wide cache, where Optional[IsoCriteria] would
# keep this module, and every module its functions reach, alive after
# a fresh import of the package
@dataclass(frozen=True)
class Claims:
    """A case's claims, None where it makes none; `verify_point` also
    holds an algebra's computed values in one."""
    dim_sq: int | None = None
    dim_cube: int | None = None
    dim_fourth: int | None = None
    dim_leib: int | None = None
    dim_center: int | None = None
    leib_equals_center: bool | None = None


# each claim field, in report order, with the exact type of its value
CLAIM_FIELDS = {f.name: get_args(f.type)[0] for f in fields(Claims)}


@dataclass(frozen=True)
class Product:
    """One bracket [x_left, x_right] with 1-based component expressions."""
    left: int
    right: int
    components: tuple  # ((k, ast), ...) sorted by k


@dataclass(frozen=True)
class IsoCriteria:
    statement: str
    pairs: tuple      # of ((param, expr-text), ...) maps
    invariant: str | None = None


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    params: tuple
    constraints: tuple        # expr texts, each required nonzero
    constraints_any: tuple    # clauses; each clause needs one nonzero member
    products: tuple
    claims: Claims
    iso: IsoCriteria | None = None

    @property
    def is_parametric(self):
        return bool(self.params)


class Catalogue:
    """Parsed catalogue with name lookup.  Nothing writes one back; its
    product reader `parse_products` also reads witness files' inline tables.

    `sha256` is the hex digest of the file text the catalogue was parsed
    from, so a report names exactly the table it checked.
    """

    def __init__(self, cases, entries, sha256):
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


def parse_expr_checked(text, params, where):
    """The AST of expression `text`, or CatalogueError naming `where`.

    `params` is as for exprs.parse_expr: the declared parameter names, or
    None for a scalar literal.  The parser folds constants, so e.g.
    1/(1-1) fails here and not at use.
    """
    if not isinstance(text, str):
        raise CatalogueError("%s: expression %r is not a string"
                             % (where, text))
    try:
        return _parsed(text, params)
    except ValueError as e:
        raise CatalogueError("%s: bad expression %r (%s)"
                             % (where, text, e)) from None


@functools.lru_cache(maxsize=None)
def _parsed(text, params):
    """The AST of one expression text: the package's one parse memo,
    started afresh by each `parse_catalogue`.  A failed parse is not
    kept, so each error is raised afresh with its own `where`."""
    return exprs.parse_expr(text, params)


_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _expect(value, kind, what):
    """Return `value`, or raise CatalogueError unless it is of JSON type
    `kind` (dict for an object, list for an array, str for a string)."""
    if not isinstance(value, kind):
        raise CatalogueError("%s must be a JSON %s"
                             % (what, _JSON_TYPES[kind]))
    return value


def _parse_claims(rec, where):
    _expect(rec, dict, "%s claims" % where)
    unknown = set(rec) - set(CLAIM_FIELDS)
    if unknown:
        raise CatalogueError("%s: unknown claim fields %s"
                             % (where, ", ".join(sorted(unknown))))
    for name, value in rec.items():
        # exact types: bool is an int subclass, but true is no dimension
        kind = CLAIM_FIELDS[name]
        if type(value) is not kind:
            raise CatalogueError("%s: claim %s must be %s, got %s"
                                 % (where, name, "a boolean" if kind is bool
                                    else "an integer", json.dumps(value)))
    return Claims(**rec)


def parse_products(recs, params, where):
    """Products from a JSON list of product records.

    Indices are JSON integers 1..DIMENSION, a component key is one of
    "1".."DIMENSION" and its value an expression (see parse_expr_checked
    for `params`); a pair listed twice or a product without
    components is an error.  Raises CatalogueError naming `where`.
    """
    keys = {str(k): k for k in range(1, DIMENSION + 1)}
    products = []
    seen = set()
    for prec in _expect(recs, list, "%s products" % where):
        _expect(prec, dict, "%s product" % where)
        i, j = prec.get("left"), prec.get("right")
        if not (type(i) is int and type(j) is int   # true is no index
                and 1 <= i <= DIMENSION and 1 <= j <= DIMENSION):
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
            if key not in keys:
                raise CatalogueError("%s: bad component index %r"
                                     % (where, key))
            comps.append((keys[key],
                          parse_expr_checked(text, params, where)))
        if not comps:
            raise CatalogueError("%s: empty product [%d, %d]" % (where, i, j))
        comps.sort()
        products.append(Product(i, j, tuple(comps)))
    return tuple(products)


def _parse_params(rec, where):
    """The entry's parameter names: distinct ASCII identifiers other than
    the grammar's `i` and `sqrt`."""
    params = tuple(_expect(rec.get("params", []), list, "%s params" % where))
    for k, p in enumerate(params):
        if (not isinstance(p, str) or not p.isascii() or not p.isidentifier()
                or p in ("i", "sqrt")):
            raise CatalogueError("%s: bad parameter name %s"
                                 % (where, json.dumps(p)))
        if p in params[:k]:
            raise CatalogueError("%s: parameter %r listed twice" % (where, p))
    return params


def _parse_iso(irec, params, where):
    _expect(irec, dict, "%s iso" % where)
    pairs = []
    for pmap in _expect(irec.get("pairs", []), list, "%s iso pairs" % where):
        items = []
        for p, text in _expect(pmap, dict, "%s iso pair" % where).items():
            if p not in params:
                raise CatalogueError("%s: iso map names foreign "
                                     "parameter %r" % (where, p))
            parse_expr_checked(text, params, where)
            items.append((p, text))
        pairs.append(tuple(items))
    statement = _expect(irec.get("statement", ""), str,
                        "%s iso statement" % where)
    invariant = irec.get("invariant")
    if invariant is not None:
        parse_expr_checked(invariant, params, where)
    return IsoCriteria(statement=statement, pairs=tuple(pairs),
                       invariant=invariant)


def _parse_entry(rec, cases):
    name = _expect(rec, dict, "catalogue entry").get("name")
    if not isinstance(name, str) or not name:
        raise CatalogueError("entry without a name")
    where = "entry %s" % name
    case = _expect(rec.get("case"), str, "%s case" % where)
    if case not in cases:
        raise CatalogueError("%s: unknown case %r" % (where, case))
    params = _parse_params(rec, where)
    constraints = tuple(_expect(rec.get("constraints", []), list,
                                "%s constraints" % where))
    for text in constraints:
        parse_expr_checked(text, params, where)
    constraints_any = tuple(
        tuple(_expect(cl, list, "%s any-clause" % where))
        for cl in _expect(rec.get("constraints_any", []), list,
                          "%s constraints_any" % where))
    for clause in constraints_any:
        if not clause:
            raise CatalogueError("%s: empty any-clause" % where)
        for text in clause:
            parse_expr_checked(text, params, where)

    products = parse_products(rec.get("products", []), params, where)
    irec = rec.get("iso")
    iso = None if irec is None else _parse_iso(irec, params, where)
    return CatalogueEntry(
        name=name, params=params, constraints=constraints,
        constraints_any=constraints_any, products=products,
        claims=cases[case], iso=iso)


def read_document(path, shipped):
    """(text, decoded JSON) of the file at `path`, or of the shipped data
    file named `shipped` when `path` is None.

    The file is read as UTF-8 with universal newlines; bytes that are not
    UTF-8 or text that is not JSON raise CatalogueError.
    """
    try:
        if path is None:
            text = (resources.files("leibkit") / "data" /
                    shipped).read_text(encoding="utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return text, json.loads(text)
    except UnicodeDecodeError as e:
        raise CatalogueError("not UTF-8 text: %s" % e) from None
    except json.JSONDecodeError as e:
        raise CatalogueError("invalid JSON: %s" % e) from None


def parse_catalogue(path=None):
    """Load and validate a catalogue document (default: the shipped table).

    The file is read once; the digest of its text goes on the result.
    Each load starts the parse memo `_parsed` afresh.
    """
    text, doc = read_document(path, "catalogue.json")
    _parsed.cache_clear()
    dimension = _expect(doc, dict, "catalogue document").get("dimension")
    if dimension != DIMENSION:
        raise CatalogueError("unsupported dimension %r" % dimension)
    cases = {}
    for cid, crec in _expect(doc.get("cases", {}), dict, "cases").items():
        where = "case %s" % cid
        cases[cid] = _parse_claims(
            _expect(crec, dict, where).get("claims", {}), where)

    entries = []
    names = set()
    for rec in _expect(doc.get("entries", []), list, "entries"):
        entry = _parse_entry(rec, cases)
        if entry.name in names:
            raise CatalogueError("duplicate entry name %r" % entry.name)
        names.add(entry.name)
        entries.append(entry)
    return Catalogue(cases, entries,
                     hashlib.sha256(text.encode()).hexdigest())


# ----------------------------------------------------------- sampling

_SAMPLE_BUDGET = 500000   # candidate points sample_params examines at most


_I = GaussianRational(0, 1)
# the scalars `sample_params` walks, built once
_SAMPLE_STREAM = tuple(map(GaussianRational.coerce, (
    0, 1, 2, 3, -2, _I, 1 + _I, -1, 4, -3, 2 * _I, 1 - _I, Fraction(1, 2),
    Fraction(-1, 2), 5, Fraction(3, 2), -4, 2 + _I, -_I, 6)))


def point_text(values):
    """'p=v, ...' for (param, scalar) pairs, or '-' for none."""
    return ", ".join("%s=%s" % (p, exprs.format_scalar(v))
                     for p, v in values) or "-"


def _zero_divisor(entry, env):
    return CatalogueError("entry %s: division by zero at %s"
                          % (entry.name, point_text(sorted(env.items()))))


def _admissible(entry, env):
    """Whether `env` meets the entry's constraints; CatalogueError when a
    constraint divides by zero there."""
    try:
        for text in entry.constraints:
            if exprs.evaluate(_parsed(text, entry.params), env).is_zero():
                return False
        for clause in entry.constraints_any:
            if all(exprs.evaluate(_parsed(text, entry.params), env).is_zero()
                   for text in clause):
                return False
    except ZeroDivisionError:
        raise _zero_divisor(entry, env) from None
    return True


def _index_tuples(m, width):
    # graded by maximum stream index, lexicographic within a grade
    for top in range(width):
        for idx in itertools.product(range(top + 1), repeat=m):
            if top in idx:
                yield idx


def sample_params(entry, count=3):
    """Deterministic admissible parameter points for a catalogue entry.

    Single-parameter entries walk a fixed scalar stream; multi-parameter
    entries walk tuples of stream values graded by the largest stream index
    used. Raises NoAdmissiblePoint when the stream cannot supply `count`
    admissible points within `_SAMPLE_BUDGET` candidates.
    """
    if not entry.params:
        return [{}]
    out = []
    examined = 0
    for idx in _index_tuples(len(entry.params), len(_SAMPLE_STREAM)):
        examined += 1
        if examined > _SAMPLE_BUDGET:
            break
        env = {p: _SAMPLE_STREAM[k] for p, k in zip(entry.params, idx)}
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
    GaussianRational). Raises ConstraintViolated off the admissible locus,
    and CatalogueError when a coefficient divides by zero on it.
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
    try:
        return LeibnizAlgebra(DIMENSION, product_table(entry.products, env))
    except ZeroDivisionError:
        raise _zero_divisor(entry, env) from None


def product_table(products, env=None):
    """The table {(i, j): {k: value}} (0-based) of parsed products, every
    component evaluated at the parameter values `env`; LeibnizAlgebra
    drops the zeros."""
    table = {}
    for prod in products:
        row = table[(prod.left - 1, prod.right - 1)] = {}
        for k, ast in prod.components:
            row[k - 1] = exprs.evaluate(ast, env)
    return table


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


@dataclass(frozen=True)
class EntryReport:
    entry: str
    points: tuple

    @property
    def passed(self):
        return all(p.passed for p in self.points)


def verify_point(entry, values=None):
    """Run every per-point check at one explicit parameter assignment.

    Each check is one (check, passed, detail) row, in report order; the
    detail is kept only where the check failed.
    """
    values = dict(values or {})
    algebra = instantiate(entry, values)
    sig = signature(algebra)
    violation = algebra.check_leibniz()
    # the algebra's values of the claim fields, in field order
    computed = Claims(*(algebra.lower_central_term(k).dim for k in (2, 3, 4)),
                      sig.dim_leib, sig.dim_center,
                      algebra.leib_ideal() == algebra.center())
    rows = [("leibniz", violation is None, str(violation)),
            ("non_lie", sig.dim_leib >= 1, "squares span nothing"),
            ("nilpotent", sig.nilpotent, "lower central series stalls"),
            ("center_in_square", sig.dim_center_cap_sq == sig.dim_center,
             "center exceeds the derived subalgebra")]
    for name in CLAIM_FIELDS:
        want, got = getattr(entry.claims, name), getattr(computed, name)
        if want is not None:
            rows.append(("claim_%s" % name, got == want,
                         "claimed %s, computed %s" % (want, got)))
    rows += [("bound_%s" % rep.name, rep.holds is not False, str(rep))
             for rep in (check_center_bound(sig),) + check_derived_bound(sig)]
    outcomes = tuple(CheckOutcome(check, passed, "" if passed else detail)
                     for check, passed, detail in rows)
    return PointReport(tuple(sorted(values.items())), outcomes, sig)


def verify_entry(entry, samples=3):
    """Check one entry at `samples` admissible points.

    Verifies the left Leibniz identity, non-Lie-ness, nilpotency, the
    non-split necessary condition Z(A) <= A^2, every claimed dimension,
    and the applicable dimension bounds.
    """
    return EntryReport(entry.name, tuple(verify_point(entry, v) for v in
                                         sample_params(entry, samples)))
