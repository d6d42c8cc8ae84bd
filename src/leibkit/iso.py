"""Isomorphism witnesses: exact checking, modular search, and lifting.

A witness for "A is isomorphic to B" is an invertible matrix Q whose
column j holds the image of the j-th basis vector of A written in the
basis of B.  Witnesses are verified exactly; the search for new ones
runs over GF(p) and lifts candidates back to Q(i) for exact
re-verification, so nothing modular is ever trusted on its own.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import exprs
from .algebra import LeibnizAlgebra
from .catalogue import instantiate as cat_instantiate
from .catalogue import parse_catalogue as cat_parse
from .invariants import signature
from .linalg import Matrix
from .scalars import (DenominatorDividesP, GaussianRational, PrimeField,
                      QuadExtElem, reduce_mod_p)

CERTIFIED = "certified"
EVIDENCE = "evidence"
DISTINCT = "distinct_invariants"
INCONCLUSIVE = "inconclusive"

DEFAULT_PRIMES = (13, 29)
DEFAULT_CAP = 10_000_000


class BadPrime(ArithmeticError):
    """The chosen prime collapses the problem (bad reduction)."""


class FixtureError(ValueError):
    """Malformed witness file."""


# ---------------------------------------------------------------- exact side

def _columns(matrix: Matrix):
    return [tuple(matrix.rows[i][j] for i in range(matrix.nrows))
            for j in range(matrix.ncols)]


def verify_witness(source: LeibnizAlgebra, target: LeibnizAlgebra,
                   matrix: Matrix) -> str | None:
    """None when the matrix is a bijective homomorphism source -> target,
    otherwise a short description of the first failure."""
    n = source.n
    if target.n != n:
        return "algebras have different dimensions"
    if matrix.nrows != n or matrix.ncols != n:
        return "matrix shape does not match the algebras"
    if matrix.rank() != n:
        return "matrix is singular"
    cols = _columns(matrix)
    zero = source.zero
    for i in range(n):
        for j in range(n):
            w = source.bracket_basis(i, j)
            lhs = matrix.apply(tuple(w.get(k, zero) for k in range(n)))
            rhs = target.bracket(cols[i], cols[j])
            if tuple(lhs) != tuple(rhs):
                return f"product ({i + 1},{j + 1}) is not preserved"
    return None


def compose_witnesses(first: Matrix, second: Matrix) -> Matrix:
    """Witness for A -> C from witnesses A -> B and B -> C."""
    return second @ first


# ---------------------------------------------------------------- mod-p side

def _int_table(alg: LeibnizAlgebra, field: PrimeField) -> dict:
    """The structure constants mod p as (k, int) rows; raises
    DenominatorDividesP when a denominator vanishes mod p."""
    table = {}
    for ij, comps in alg.table.items():
        row = []
        for k, s in sorted(comps.items()):
            r = reduce_mod_p(s, field)
            if r:
                row.append((k, r))
        if row:
            table[ij] = tuple(row)
    return table


def _brk(table, u, v, n, p):
    w = [0] * n
    for (i, j), comps in table.items():
        c = u[i] * v[j] % p
        if c:
            for k, s in comps:
                w[k] = (w[k] + c * s) % p
    return w


def _indep(rows, v, p):
    """True when v is independent of the echelon rows (not mutated)."""
    v = list(v)
    for piv, bv in rows:
        c = v[piv]
        if c:
            for t in range(len(v)):
                v[t] = (v[t] - c * bv[t]) % p
    return any(v)


def _absorb(rows, v, p):
    """Add v to the echelon rows; False when it was already dependent."""
    v = list(v)
    for piv, bv in rows:
        c = v[piv]
        if c:
            for t in range(len(v)):
                v[t] = (v[t] - c * bv[t]) % p
    piv = next((t for t in range(len(v)) if v[t]), None)
    if piv is None:
        return False
    inv = pow(v[piv], p - 2, p)
    rows.append((piv, tuple(x * inv % p for x in v)))
    return True


def _inv_mat(rows, p):
    """Inverse of a square int matrix mod p (rows known independent)."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[c])]
    return [tuple(row[n:]) for row in aug]


def _build_schedule(tab, gens, n, p):
    """Closure plan over the source algebra, one op list per generator.

    Every op is (kind, ai, bi, directive, elim, scale): kind "seed" takes
    the candidate image, kind "brk" brackets members ai and bi; the vector
    is then reduced by the recorded elimination steps and either must
    vanish ("dep") or is normalized by scale and appended ("new").  The
    plan depends only on the source, so a candidate map is checked by
    replaying the image side alone.
    """
    rows = []
    members = []
    levels = []
    for g in gens:
        ops = []
        queue = [("seed", 0, 0, tuple(g))]
        while queue:
            kind, ai, bi, v = queue.pop(0)
            vv = list(v)
            elim = []
            for j, (piv, bv) in enumerate(rows):
                c = vv[piv]
                if c:
                    elim.append((j, c))
                    for t in range(n):
                        vv[t] = (vv[t] - c * bv[t]) % p
            piv = next((t for t in range(n) if vv[t]), None)
            if piv is None:
                ops.append((kind, ai, bi, "dep", tuple(elim), 0))
                continue
            scale = pow(vv[piv], p - 2, p)
            nv = tuple(x * scale % p for x in vv)
            midx = len(members)
            ops.append((kind, ai, bi, "new", tuple(elim), scale))
            rows.append((piv, nv))
            members.append(nv)
            for k, mv in enumerate(members):
                queue.append(("brk", midx, k, _brk(tab, nv, mv, n, p)))
                if k != midx:
                    queue.append(("brk", k, midx, _brk(tab, mv, nv, n, p)))
        levels.append(tuple(ops))
    return levels, members


def _replay(ops, img_rows, seed, tab, n, p):
    """Image-side closure replay; False on the first inconsistency."""
    for kind, ai, bi, directive, elim, scale in ops:
        if kind == "seed":
            w = list(seed)
        else:
            w = _brk(tab, img_rows[ai], img_rows[bi], n, p)
        for j, c in elim:
            bw = img_rows[j]
            for t in range(n):
                w[t] = (w[t] - c * bw[t]) % p
        if directive == "dep":
            if any(w):
                return False
        else:
            img_rows.append(tuple(x * scale % p for x in w))
    return True


def _balanced_vals(p):
    vals = [0]
    for k in range(1, (p - 1) // 2 + 1):
        vals += [k, p - k]
    return vals


def _images(n, p):
    """All nonzero vectors of GF(p)^n, sparse ones first, small entries
    first inside each block."""
    nz = _balanced_vals(p)[1:]
    for pos in range(n):
        for v in nz:
            vec = [0] * n
            vec[pos] = v
            yield tuple(vec)
    for a in range(n):
        for b in range(a + 1, n):
            for va in nz:
                for vb in nz:
                    vec = [0] * n
                    vec[a] = va
                    vec[b] = vb
                    yield tuple(vec)
    for vec in itertools.product(_balanced_vals(p), repeat=n):
        if n - vec.count(0) > 2:
            yield vec


class _Capped(Exception):
    pass


class _Done(Exception):
    pass


@dataclass(frozen=True)
class SearchResult:
    status: str          # "found" | "capped" | "exhausted"
    prime: int
    candidates: int
    matrices: tuple      # row-major int matrices mod prime


def _structural_dims(alg: LeibnizAlgebra) -> tuple:
    return (alg.lower_central_dims(), alg.leib_ideal().dim, alg.center().dim)


def _mod_structure(tab, n, p):
    """(lower central dims, dim Leib, dim Z) of an int table mod p, the
    triple `_structural_dims` gives on the exact side, and echelon rows
    of A^2 mod p."""
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    dims = [n]
    term = units
    sq_rows = None
    while True:
        rows = []
        for u in units:
            for v in term:
                _absorb(rows, _brk(tab, u, v, n, p), p)
        if sq_rows is None:
            sq_rows = rows
        # the terms are nested, so an equal dimension means an equal term
        if len(rows) == dims[-1]:
            break
        dims.append(len(rows))
        if not rows:
            break
        term = [bv for _, bv in rows]
    # the squares of e_i and of e_i + e_j span the squares and the
    # polarised squares [e_i, e_j] + [e_j, e_i]
    leib = []
    for i in range(n):
        for j in range(i, n):
            u = [a + b for a, b in zip(units[i], units[j])]
            _absorb(leib, _brk(tab, u, u, n, p), p)
    # Z is the kernel of x -> ([x, e_j], [e_j, x])_j
    images = []
    for u in units:
        img = []
        for v in units:
            img += _brk(tab, u, v, n, p) + _brk(tab, v, u, n, p)
        _absorb(images, img, p)
    return (tuple(dims), len(leib), n - len(images)), sq_rows


def adapted_search(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
                   prime: int = 13, cap: int = DEFAULT_CAP,
                   max_found: int = 1) -> SearchResult:
    """Search for witnesses source -> target over GF(prime).

    Only the images of a fixed complement of the derived subalgebra are
    chosen freely; everything else is forced by closure, and candidates
    whose class is dependent modulo the target's derived subalgebra are
    skipped.  Raises BadPrime when the reduction is undefined or drops a
    structural dimension.
    """
    n = source.n
    if target.n != n:
        raise ValueError("algebras have different dimensions")
    field = PrimeField(prime)
    try:
        tab_s = _int_table(source, field)
        tab_t = _int_table(target, field)
    except DenominatorDividesP as ex:
        raise BadPrime(f"reduction undefined mod {prime}: {ex}") from None
    dims_s, sq_s = _mod_structure(tab_s, n, prime)
    dims_t, sq_t = _mod_structure(tab_t, n, prime)
    if (_structural_dims(source) != dims_s
            or _structural_dims(target) != dims_t):
        raise BadPrime(f"{prime} degenerates a structural dimension")

    pivots = {piv for piv, _ in sq_s}
    gens = []
    for i in range(n):
        if i not in pivots:
            vec = [0] * n
            vec[i] = 1
            gens.append(tuple(vec))
    m = len(gens)

    levels, members = _build_schedule(tab_s, gens, n, p=prime)
    if len(members) != n:
        raise BadPrime(f"{prime} breaks generation by the complement")
    mem_inv = _inv_mat(members, prime)

    found = []
    state = {"count": 0}
    p = prime

    def leaf(img_rows):
        cols = []
        for i in range(n):
            acc = [0] * n
            for j, c in enumerate(mem_inv[i]):
                if c:
                    iw = img_rows[j]
                    for t in range(n):
                        acc[t] = (acc[t] + c * iw[t]) % p
            cols.append(tuple(acc))
        rank_rows = []
        for cvec in cols:
            _absorb(rank_rows, cvec, p)
        if len(rank_rows) != n:
            return
        for i in range(n):
            for j in range(n):
                comps = tab_s.get((i, j), ())
                lhs = [0] * n
                for k, c in comps:
                    cv = cols[k]
                    for t in range(n):
                        lhs[t] = (lhs[t] + c * cv[t]) % p
                if lhs != _brk(tab_t, cols[i], cols[j], n, p):
                    return
        found.append(tuple(tuple(cols[c][r] for c in range(n))
                           for r in range(n)))
        if len(found) >= max_found:
            raise _Done

    def rec(level, img_rows, cls_rows):
        for img in _images(n, p):
            state["count"] += 1
            if state["count"] > cap:
                raise _Capped
            if not _indep(cls_rows, img, p):
                continue
            trial = img_rows.copy()
            if not _replay(levels[level], trial, img, tab_t, n, p):
                continue
            if level + 1 == m:
                leaf(trial)
            else:
                cls2 = cls_rows.copy()
                _absorb(cls2, img, p)
                rec(level + 1, trial, cls2)

    status = "exhausted"
    try:
        rec(0, [], sq_t)
    except _Capped:
        status = "capped"
    except _Done:
        pass
    if found:
        status = "found"
    return SearchResult(status, prime, state["count"], tuple(found))


# ---------------------------------------------------------------- lifting

def _lift_scalar(e, p, i_res, bound):
    """Smallest preimage of e in Q(i), ordered by (|im|, |re|, den)."""
    best = None
    for den in range(1, bound + 1):
        t = e * den % p
        for b in range(-bound, bound + 1):
            a = (t - b * i_res) % p
            if a > p // 2:
                a -= p
            if abs(a) > bound:
                continue
            key = (abs(b), abs(a), den, b < 0, a < 0)
            if best is None or key < best[0]:
                best = (key, GaussianRational(Fraction(a, den),
                                              Fraction(b, den)))
    return None if best is None else best[1]


def lift_witness(rows, prime: int, bound: int = 6) -> Matrix | None:
    """Entry-wise lift of a mod-p matrix to Q(i); None when an entry has
    no preimage inside the search box."""
    field = PrimeField(prime)
    lifted = []
    for row in rows:
        out = []
        for e in row:
            s = _lift_scalar(e % prime, prime, field.i_residue, bound)
            if s is None:
                return None
            out.append(s)
        lifted.append(tuple(out))
    return Matrix(lifted)


# ---------------------------------------------------------------- certify

@dataclass(frozen=True)
class Certification:
    status: str              # CERTIFIED | EVIDENCE | DISTINCT | INCONCLUSIVE
    matrix: Matrix | None    # exact witness when status == CERTIFIED
    prime: int               # prime behind the certificate or 0
    candidates: int          # total candidates consumed
    detail: str

    @property
    def isomorphic(self) -> bool | None:
        if self.status == CERTIFIED:
            return True
        if self.status == DISTINCT:
            return False
        return None


def certify(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
            primes=DEFAULT_PRIMES, cap: int = DEFAULT_CAP,
            lift_attempts: int = 25) -> Certification:
    """Decide isomorphism as far as the exact tools allow.

    Distinct invariant signatures certify non-isomorphism.  Otherwise a
    modular witness search runs prime by prime; any hit is lifted to Q(i)
    and re-verified exactly, and only an exact verification yields
    CERTIFIED.  Hits at two primes without a lifting give EVIDENCE;
    everything else is INCONCLUSIVE.
    """
    sig_s = signature(source)
    sig_t = signature(target)
    if sig_s != sig_t:
        fields = ", ".join(sig_s.diff(sig_t))
        return Certification(DISTINCT, None, 0, 0,
                             f"invariants differ: {fields}")
    total = 0
    hit_primes = []
    notes = []
    for prime in primes:
        try:
            res = adapted_search(source, target, prime=prime, cap=cap,
                                 max_found=lift_attempts)
        except BadPrime as ex:
            notes.append(str(ex))
            continue
        total += res.candidates
        if res.matrices:
            hit_primes.append(prime)
            for rows in res.matrices:
                m = lift_witness(rows, prime)
                if m is not None and verify_witness(source, target, m) is None:
                    return Certification(
                        CERTIFIED, m, prime, total,
                        f"witness found mod {prime} and verified exactly")
            notes.append(f"{len(res.matrices)} witnesses mod {prime}, "
                         "none lifted")
        else:
            notes.append(f"search {res.status} mod {prime} without witness")
        if len(hit_primes) >= 2:
            return Certification(EVIDENCE, None, hit_primes[-1], total,
                                 "; ".join(notes))
    return Certification(INCONCLUSIVE, None, 0, total,
                         "; ".join(notes) or "no usable prime")


# ------------------------------------------------------------- fixture file

_REALIZE_CACHE = {}


def _fixture_side(spec, catalogue):
    if "entry" in spec:
        entry = catalogue.entry(spec["entry"])
        values = {p: exprs.parse_scalar(t)
                  for p, t in spec.get("params", {}).items()}
        return cat_instantiate(entry, values)
    table = {}
    for prod in spec["products"]:
        row = {}
        for k, text in prod["components"].items():
            row[int(k) - 1] = exprs.parse_scalar(text)
        if row:
            table[(prod["left"] - 1, prod["right"] - 1)] = row
    return LeibnizAlgebra(5, table)


@dataclass(frozen=True)
class WitnessFixture:
    """One stored base change between two recorded algebras.

    `source` and `target` each name a catalogue entry (with parameter
    values) or carry an inline product table; `matrix_text` holds the
    witness entries as scalar literals.
    """
    label: str
    source: dict
    target: dict
    matrix_text: tuple
    note: str

    def realize(self, catalogue=None):
        """Return (source algebra, target algebra, witness matrix).

        When any matrix entry lies in a quadratic extension, both
        algebras and the remaining entries are embedded into that
        field so the check runs over a single scalar type.
        """
        if catalogue is None:
            catalogue = _shipped_catalogue()
        src = _fixture_side(self.source, catalogue)
        tgt = _fixture_side(self.target, catalogue)
        entries = [[exprs.parse_scalar(t) for t in row]
                   for row in self.matrix_text]
        field = None
        for row in entries:
            for v in row:
                if isinstance(v, QuadExtElem):
                    if field is not None and field.d != v.field.d:
                        raise FixtureError(
                            "%s: mixed radicals in one witness" % self.label)
                    field = v.field
        if field is not None:
            entries = [[v if isinstance(v, QuadExtElem) else field.embed(v)
                        for v in row] for row in entries]
            src = src.map_scalars(field.embed, field.one)
            tgt = tgt.map_scalars(field.embed, field.one)
        return src, tgt, Matrix(entries)


def _shipped_catalogue():
    if "catalogue" not in _REALIZE_CACHE:
        _REALIZE_CACHE["catalogue"] = cat_parse()
    return _REALIZE_CACHE["catalogue"]


@functools.lru_cache(maxsize=None)
def _scalar_problem(text):
    """Why `text` is not a scalar literal, or None when it is one (a
    witness file repeats a few texts such as "0" many times)."""
    try:
        exprs.parse_scalar(text)
    except (ValueError, ZeroDivisionError) as ex:
        return str(ex)
    return None


def _check_scalar(text, where):
    """Raise FixtureError unless `text` is a scalar literal."""
    if not isinstance(text, str):
        raise FixtureError("%s: %r is not a scalar string" % (where, text))
    problem = _scalar_problem(text)
    if problem is not None:
        raise FixtureError("%s: bad scalar %r (%s)" % (where, text, problem))


def _check_side(spec, where):
    """Validate one side's entry parameters or inline product table, so
    that realizing it cannot fail on the file's shape."""
    if "entry" in spec:
        params = spec.get("params", {})
        if not isinstance(spec["entry"], str) or not isinstance(params, dict):
            raise FixtureError("%s: entry must be a name and params an object"
                               % where)
        for text in params.values():
            _check_scalar(text, "%s params" % where)
        return
    products = spec["products"]
    if not isinstance(products, list):
        raise FixtureError("%s: products must be an array" % where)
    for prod in products:
        if (not isinstance(prod, dict)
                or not {"left", "right", "components"} <= set(prod)):
            raise FixtureError("%s: a product needs the keys left, right "
                               "and components" % where)
        if any(type(prod[key]) is not int or not 1 <= prod[key] <= 5
               for key in ("left", "right")):
            raise FixtureError("%s: product indices must be integers 1..5"
                               % where)
        comps = prod["components"]
        if not isinstance(comps, dict):
            raise FixtureError("%s: components must be an object" % where)
        for key, text in comps.items():
            if key not in ("1", "2", "3", "4", "5"):
                raise FixtureError("%s: bad component index %r"
                                   % (where, key))
            _check_scalar(text, "%s components" % where)


def _parse_fixture(rec, where):
    if not isinstance(rec, dict):
        raise FixtureError("%s: not a JSON object" % where)
    for key in ("label", "source", "target", "matrix"):
        if key not in rec:
            raise FixtureError("%s: missing %r" % (where, key))
    if not isinstance(rec["label"], str):
        raise FixtureError("%s: label must be a string" % where)
    where = "witness %s" % rec["label"]
    for side in ("source", "target"):
        spec = rec[side]
        if (not isinstance(spec, dict)
                or ("entry" in spec) == ("products" in spec)):
            raise FixtureError("%s: %s must name an entry or carry products"
                               % (where, side))
        _check_side(spec, "%s %s" % (where, side))
    rows = rec["matrix"]
    if (not isinstance(rows, list) or len(rows) != 5
            or any(not isinstance(r, list) or len(r) != 5 for r in rows)):
        raise FixtureError("%s: matrix must be 5x5" % where)
    for row in rows:
        for text in row:
            _check_scalar(text, "%s matrix" % where)
    return WitnessFixture(
        label=rec["label"],
        source=rec["source"],
        target=rec["target"],
        matrix_text=tuple(tuple(r) for r in rows),
        note=rec.get("note", ""),
    )


def load_fixtures(path=None):
    """Load the stored witness list (default: the shipped file).

    Raises FixtureError when the file is not a witness document.
    """
    if path is None:
        text = (resources.files("leibkit") / "data" /
                "witnesses.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureError("invalid JSON: %s" % e) from None
    records = doc.get("witnesses", []) if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise FixtureError("expected an object with a \"witnesses\" array")
    return tuple(_parse_fixture(rec, "witness %d" % k)
                 for k, rec in enumerate(records))

