"""Isomorphism witnesses: exact checking, modular search, and lifting.

A witness for "A is isomorphic to B" is an invertible matrix Q whose
column j holds the image of the j-th basis vector of A written in the
basis of B.  Witnesses are verified exactly: B's products written by
`base_change` in the basis of Q's columns must be A's.  The search for
new ones runs over GF(p) and checks each complete map it reaches the
same way, with `_rebase` in place of `base_change`; it lifts candidates
back to Q(i) for exact re-verification, so nothing modular is ever
trusted on its own.

The search follows the lower central series, as the lifting step of
p-group generation does (O'Brien 1990; Eick, Leedham-Green and O'Brien
2002): it enumerates only the generators' classes modulo A^2 and solves
each deeper layer of their images as an affine system mod p.  Each
layer's relations are written once, as residuals; the system's matrix
is the difference of those residuals at unit steps.  The same residuals,
run on polynomials in a search node's unknowns, give that node's checks
once, and each candidate only evaluates them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import exprs
from .algebra import LeibnizAlgebra
from .catalogue import (DIMENSION, CatalogueError, _expect,
                        parse_expr_checked, parse_products, product_table,
                        read_document)
from .catalogue import instantiate as cat_instantiate
from .invariants import signature
from .linalg import Matrix, SingularMatrix
from .scalars import (DenominatorDividesP, FieldMismatch, GaussianRational,
                      PrimeField, reduce_mod_p)

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

def verify_witness(source: LeibnizAlgebra, target: LeibnizAlgebra,
                   matrix: Matrix) -> str | None:
    """None when the matrix is a bijective homomorphism source -> target,
    otherwise a short description of the first failure: the target's
    products in the basis of the matrix's columns must be the source's."""
    n = source.n
    if target.n != n:
        return "algebras have different dimensions"
    if matrix.nrows != n or matrix.ncols != n:
        return "matrix shape does not match the algebras"
    try:
        moved = target.base_change(matrix)
    except SingularMatrix:
        return "matrix is singular"
    for i in range(n):
        for j in range(n):
            if moved.bracket_basis(i, j) != source.bracket_basis(i, j):
                return f"product ({i + 1},{j + 1}) is not preserved"
    return None


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


class _Poly(dict):
    """A polynomial over the integers as {monomial: coef}, a monomial
    being the sorted tuple of its variables' indices.  It has the
    arithmetic of `_brk`, `_reduce` and the search's residuals, so these
    run unchanged on vectors that mix ints and polynomials."""

    def __add__(self, other):
        out = _Poly(self)
        for mo, c in _as_poly(other).items():
            out[mo] = out.get(mo, 0) + c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -1 * self + other

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            return _Poly((mo, c * other) for mo, c in self.items())
        out = _Poly()
        for ma, ca in self.items():
            for mb, cb in other.items():
                mo = tuple(sorted(ma + mb))
                out[mo] = out.get(mo, 0) + ca * cb
        return out

    __rmul__ = __mul__

    def __mod__(self, p):
        out = _Poly((mo, c % p) for mo, c in self.items() if c % p)
        return out if any(out) else out.get((), 0)   # a constant is an int


def _as_poly(f):
    return f if isinstance(f, _Poly) else _Poly({(): f})


def _variables(k):
    return [_Poly({(i,): 1}) for i in range(k)]


def _compile(polys, k, p):
    """A test of whether any of the polynomials (ints or _Poly) in k
    variables is nonzero mod p at a point.  The polynomials are reduced
    to a basis of their span once, and a monomial of degree two or more
    takes one product from a shorter monomial's value, so a point costs
    a few dot products."""
    polys = [_as_poly(f) for f in polys]
    monos = {mo[:d] for f in polys for mo in f for d in range(2, len(mo) + 1)}
    monos = ([()] + [(i,) for i in range(k)]
             + sorted(monos, key=lambda mo: (len(mo), mo)))
    index = {mo: e for e, mo in enumerate(monos)}
    steps = [(index[mo[:-1]], mo[-1]) for mo in monos[k + 1:]]
    basis = []
    for f in polys:
        _absorb(basis, [f.get(mo, 0) % p for mo in monos], p)
    rows = [row for _, row in basis]
    if any(not any(row[1:]) for row in rows):
        return lambda point: True   # a nonzero constant

    def nonzero(point):
        vals = [1, *point]
        for e, var in steps:
            vals.append(vals[e] * point[var])
        for row in rows:
            if sum(map(operator.mul, row, vals)) % p:
                return True
        return False
    return nonzero


def _reduce(rows, v, p):
    """v less its parts along the echelon rows."""
    v = list(v)
    for piv, bv in rows:
        c = v[piv]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, bv)]
    return v


def _absorb(rows, v, p):
    """Add v to the echelon rows; False when it was already dependent."""
    v = _reduce(rows, v, p)
    piv = next((t for t in range(len(v)) if v[t]), None)
    if piv is None:
        return False
    inv = pow(v[piv], p - 2, p)
    rows.append((piv, tuple(x * inv % p for x in v)))
    return True


def _prepare(rows, u, p):
    """Gauss-Jordan once for J x = b mod p, for many right-hand sides b.

    `rows` are the equations of J over u unknowns.  Returns (tests,
    solve, null) with sparse functionals of b: b is consistent when every
    test vanishes on it, x[col] = f(b) for (col, f) in solve is then a
    solution, and the null vectors span the kernel of J.
    """
    q = len(rows)
    aug = [list(row) + [int(e == r) for e in range(q)]
           for r, row in enumerate(rows)]
    pivots = []
    for col in range(u):
        top = len(pivots)
        piv = next((r for r in range(top, q) if aug[r][col]), None)
        if piv is None:
            continue
        aug[top], aug[piv] = aug[piv], aug[top]
        inv = pow(aug[top][col], p - 2, p)
        aug[top] = [v * inv % p for v in aug[top]]
        for r in range(q):
            f = aug[r][col]
            if f and r != top:
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[top])]
        pivots.append(col)

    def functional(row):
        return tuple((e, v) for e, v in enumerate(row[u:]) if v)

    tests = [functional(row) for row in aug[len(pivots):]]
    solve = [(col, functional(row)) for col, row in zip(pivots, aug)]
    null = []
    for free in range(u):
        if free not in pivots:
            vec = [0] * u
            vec[free] = 1
            for col, row in zip(pivots, aug):
                vec[col] = -row[free] % p
            null.append(vec)
    return tests, solve, null


def _inv_mat(rows, p):
    """Inverse of a square int matrix mod p, or None when it is
    singular."""
    tests, solve, _null = _prepare(rows, len(rows), p)
    if tests:
        return None
    inv = [[0] * len(rows) for _ in rows]
    for col, f in solve:
        for e, v in f:
            inv[col][e] = v
    return inv


def _matmul(a, b, p):
    """The product of two int matrices mod p, as rows."""
    return [[sum(map(operator.mul, row, col)) % p for col in zip(*b)]
            for row in a]


def _balanced_vals(p):
    """The residues 0, 1, -1, 2, -2, ... of GF(p), one at a time."""
    yield 0
    for k in range(1, (p - 1) // 2 + 1):
        yield k
        yield p - k


def _images(k, p):
    """All nonzero vectors of GF(p)^k, sparse ones first, small entries
    first inside each block.

    Vectors of weight 1 and 2 come straight from the lazy value order, so
    a search that stops in them holds no table of size p; only the dense
    block, reached when k >= 3, lists the p values for its product.
    """
    def nonzero():
        return itertools.islice(_balanced_vals(p), 1, None)

    for pos in range(k):
        for v in nonzero():
            vec = [0] * k
            vec[pos] = v
            yield tuple(vec)
    for a in range(k):
        for b in range(a + 1, k):
            for va in nonzero():
                for vb in nonzero():
                    vec = [0] * k
                    vec[a] = va
                    vec[b] = vb
                    yield tuple(vec)
    if k < 3:
        return
    for vec in itertools.product(_balanced_vals(p), repeat=k):
        if k - vec.count(0) > 2:
            yield vec


class _Capped(Exception):
    pass


class _Done(Exception):
    pass


@dataclass
class LevelCounts:
    """What became of the candidates tried at one level of the search.

    Each candidate tried either stops at its level, under exactly one of
    the five outcome counters, or passes on to the next level; so the
    `tried` counts of all levels add up to the search's candidates.
    """
    level: str               # "class a" or "layer t"
    tried: int = 0
    dependent: int = 0       # class dependent on the earlier classes
    relations: int = 0       # a class relation, or a leaf product, fails
    inconsistent: int = 0    # the next layer's affine system has no solution
    rank: int = 0            # the leaf matrix is singular
    found: int = 0

    @property
    def passed(self) -> int:
        return self.tried - (self.dependent + self.relations
                             + self.inconsistent + self.rank + self.found)


@dataclass(frozen=True)
class SearchResult:
    status: str          # "found" | "capped" | "exhausted"
    prime: int
    candidates: int
    matrices: tuple      # row-major int matrices mod prime
    levels: tuple = ()   # LevelCounts, class levels then affine layers


def _structural_dims(alg: LeibnizAlgebra) -> tuple:
    return (alg.lower_central_dims(), alg.leib_ideal().dim, alg.center().dim)


def _mod_structure(tab, n, p):
    """(lower central dims, dim Leib, dim Z) of an int table mod p, the
    triple `_structural_dims` gives on the exact side, and the echelon
    rows of A^2, A^3, ... mod p, up to the first term that vanishes or
    repeats its predecessor."""
    units = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    dims = [n]
    series = []
    term = units
    while True:
        rows = []
        for u in units:
            for v in term:
                _absorb(rows, _brk(tab, u, v, n, p), p)
        # the terms are nested, so an equal dimension means an equal term
        if len(rows) == dims[-1]:
            break
        dims.append(len(rows))
        series.append(rows)
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
    return (tuple(dims), len(leib), n - len(images)), series


def _layers(series, n, p):
    """Basis rows adapted to the series A > A^2 > ... > 0 and the layer
    of each row: the rows of layer t complete A^(t+1) to A^t."""
    basis, layer = [], []
    above = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    for t, rows in enumerate(series, 1):
        below = list(rows)
        for v in above:
            if _absorb(below, v, p):
                basis.append(v)
                layer.append(t)
        above = [bv for _, bv in rows]
    return basis, layer


def _words(tab, gens, series, n, p):
    """Left-normed words [g_a, w] over the generators, each kept when it
    is independent modulo the next series term: with the generators, a
    basis adapted to the lower central series.  Returns the word rows
    and, for each word past the generators, its pair (a, w)."""
    rows = list(gens)
    pairs = [None] * len(gens)
    last = range(len(gens))
    for term in series[1:]:
        below = list(term)
        new = []
        for a, g in enumerate(gens):
            for w in last:
                v = _brk(tab, g, rows[w], n, p)
                if _absorb(below, v, p):
                    new.append(len(rows))
                    rows.append(tuple(v))
                    pairs.append((a, w))
        last = new
    return rows, pairs


def _rebase(tab, basis, inv, n, p):
    """The int table written in the given basis rows, whose inverse is
    `inv`."""
    out = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            (w,) = _matmul([_brk(tab, u, v, n, p)], inv, p)
            row = tuple((k, c) for k, c in enumerate(w) if c)
            if row:
                out[(i, j)] = row
    return out


def adapted_search(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
                   prime: int = 13, cap: int = DEFAULT_CAP,
                   max_found: int = 1) -> SearchResult:
    """Search for witnesses source -> target over GF(prime), layer by
    layer through the lower central series.

    The source is written in left-normed words over generators g_a that
    complete A^2, the target in a basis whose layer L_t completes
    A^(t+1) to A^t, and a witness is fixed by the images x_a of the
    generators.  First each generator's class, its L_1 part, is
    enumerated small-first; a class dependent on the earlier ones, or
    one that breaks a relation of the associated graded algebras, is
    dropped as soon as its generator completes that relation.  Then for
    t = 3, ..., c the L_t parts of all relations are affine in the
    L_(t-1) parts of the x_a, so the system's columns are the changes
    of those parts at unit steps of the x_a; it is solved mod prime and
    only its solutions are tried, free variables small-first.  The last
    layer enters no relation and is set to 0.  Each class tried and each
    affine solution tried counts as one candidate.  Every complete map
    is checked as `verify_witness` checks a witness: the target's table,
    rewritten by `_rebase` in the map's columns, must equal the source's
    (a singular map counts under `rank`).
    A node's checks (a class's dependence and relations, or the next
    layer's consistency) are polynomials over GF(prime) in its unknowns,
    the class or the kernel coefficients; they are compiled once per
    node, so a candidate costs a few dot products.

    Raises BadPrime when the reduction is undefined or drops a
    structural dimension.
    """
    n = source.n
    if target.n != n:
        raise ValueError("algebras have different dimensions")
    p = prime
    field = PrimeField(prime)
    try:
        tab_s = _int_table(source, field)
        tab_t = _int_table(target, field)
    except (DenominatorDividesP, FieldMismatch) as ex:
        raise BadPrime(f"reduction undefined mod {prime}: {ex}") from None
    dims_s, series_s = _mod_structure(tab_s, n, prime)
    dims_t, series_t = _mod_structure(tab_t, n, prime)
    if (_structural_dims(source) != dims_s
            or _structural_dims(target) != dims_t):
        raise BadPrime(f"{prime} degenerates a structural dimension")
    if dims_s[0] != dims_t[0]:
        return SearchResult("exhausted", prime, 0, ())
    if dims_s[0][-1]:
        raise ValueError("the layered search needs nilpotent algebras")

    basis, layer = _layers(series_t, n, p)
    gens = [v for v, t in zip(*_layers(series_s, n, p)) if t == 1]
    words, pairs = _words(tab_s, gens, series_s, n, p)
    if len(words) != n:
        raise BadPrime(f"{prime} breaks generation by the complement")
    inv_words = _inv_mat(words, p)
    src = _rebase(tab_s, words, inv_words, n, p)
    tgt = _rebase(tab_t, basis, _inv_mat(basis, p), n, p)
    # word k has length layer[k], and [A^i, A^j] lies in A^(i+j)
    for tab in (src, tgt):
        if any(layer[k] < layer[i] + layer[j]
               for (i, j), comps in tab.items() for k, _ in comps):
            raise BadPrime(f"{prime} breaks [A^i, A^j] <= A^(i+j)")

    m = len(gens)
    depth = layer[-1]
    span = {t: [k for k in range(n) if layer[k] == t] for t in layer}
    # at[t]: the L_t part of each target product; graded[(s, r)]: the
    # products L_s x L_r -> L_(s+r) of the associated graded algebra
    at, graded = {}, {}
    for (i, j), comps in tgt.items():
        for t in range(layer[i] + layer[j], depth + 1):
            part = tuple((k, x) for k, x in comps if layer[k] == t)
            if part:
                at.setdefault(t, {})[(i, j)] = part
                if t == layer[i] + layer[j]:
                    graded.setdefault((layer[i], layer[j]), {})[(i, j)] = part

    # the relations [b_i, b_j] = sum s_k b_k that a word's definition
    # does not already give and that can reach a nonzero layer
    defined = set(pairs[m:])
    rels = [(i, j, src.get((i, j), ())) for i in range(n) for j in range(n)
            if layer[i] + layer[j] <= depth and (i, j) not in defined]
    # the class level that completes each word and each graded relation
    last = list(range(m))
    for a, w in pairs[m:]:
        last.append(max(a, last[w]))
    new_words = [[] for _ in range(m)]
    for k in range(m, n):
        a, w = pairs[k]
        new_words[last[k]].append((k, a, w, graded.get((1, layer[w]), {})))
    checks = [[] for _ in range(m)]
    for i, j, terms in rels:
        lead = tuple((k, x) for k, x in terms
                     if layer[k] == layer[i] + layer[j])
        level = max([last[i], last[j]] + [last[k] for k, _ in lead])
        checks[level].append((i, j, lead,
                              graded.get((layer[i], layer[j]), {})))
    below = {t: [rel for rel in rels if layer[rel[0]] + layer[rel[1]] < t]
             for t in range(3, depth + 1)}

    def images(x):
        """Images of all source words in the target's adapted basis."""
        y = list(x)
        for a, w in pairs[m:]:
            y.append(_brk(tgt, y[a], y[w], n, p))
        return y

    def rhs(t, y):
        """The L_t parts of sum s_k y_k - [y_i, y_j], negated."""
        b = []
        tab = at.get(t, {})
        for i, j, terms in below[t]:
            w = _brk(tab, y[i], y[j], n, p)
            for k, x in terms:
                yk = y[k]
                for r in span[t]:
                    w[r] -= x * yk[r]
            b.extend(w[r] % p for r in span[t])
        return b

    def jacobian(t, x):
        """The L_t parts of the relations as linear maps of the L_(t-1)
        parts of the x_a: column (a, r) is rhs at x less rhs at x plus e_r
        on x_a.  The difference is exact and depends on the classes alone:
        only a step's single brackets with the L_1 parts reach L_t, since
        two steps bracket into L_(2t-2), inside L_(t+1) for t >= 3."""
        base = rhs(t, images(x))
        cols = []
        for g in range(m):
            for r in span[t - 1]:
                step = list(x)
                step[g] = [v + (k == r) for k, v in enumerate(x[g])]
                cols.append([(b - c) % p for b, c
                             in zip(base, rhs(t, images(step)))])
        return _prepare(list(zip(*cols)), len(cols), p)

    levels = [LevelCounts("class %d" % (a + 1)) for a in range(m)]
    levels += [LevelCounts("layer %d" % t) for t in range(3, depth + 1)]
    found = []
    count = [0]

    def tick(level):
        if count[0] >= cap:
            raise _Capped
        count[0] += 1
        level.tried += 1

    def leaf(y, level):
        """Check the complete map: cols[c], the image of the source's
        e_c, is the witness's column c, and the target rewritten in these
        columns must be the source's table."""
        cols = _matmul(inv_words, _matmul(y, basis, p), p)
        inv = _inv_mat(cols, p)
        if inv is None:
            level.rank += 1
        elif _rebase(tab_t, cols, inv, n, p) != tab_s:
            level.relations += 1
        else:
            level.found += 1
            found.append(tuple(zip(*cols)))
            if len(found) >= max_found:
                raise _Done

    def classes(a, x, y, cls_rows):
        """Try each class v of generator a against its checks, compiled
        once as polynomials in v: v's remainder modulo the earlier
        classes, and the residuals of the relations that v completes."""
        level = levels[a]
        pad = (0,) * (n - m)

        def grown(top):
            z = y.copy()
            z[a] = top
            for k, g, w, tab in new_words[a]:
                z[k] = _brk(tab, z[g], z[w], n, p)
            return z

        yv = grown(_variables(m) + list(pad))
        independent = _compile(_reduce(cls_rows, yv[a][:m], p), m, p)
        residuals = []
        for i, j, lead, tab in checks[a]:
            diff = _brk(tab, yv[i], yv[j], n, p)
            for k, s in lead:
                diff = [(e - s * f) % p for e, f in zip(diff, yv[k])]
            residuals += diff
        broken = _compile(residuals, m, p)
        for v in _images(m, p):
            tick(level)
            if not independent(v):
                level.dependent += 1
            elif broken(v):
                level.relations += 1
            else:
                rows2 = cls_rows.copy()
                _absorb(rows2, v, p)
                y2 = grown(v + pad)
                settle(a + 1, x + [y2[a]], y2, rows2, {})

    def settle(s, x, y, cls_rows, systems):
        """Carry a candidate that passed level s - 1 on to level s.

        At layer t the solutions are x0 + sum c_i N_i over the kernel
        vectors N_i of the layer's system.  The next layer's consistency
        tests are compiled once as polynomials in the c_i, and only the
        solutions that pass them are built."""
        if s < m:
            return classes(s, x, y, cls_rows)
        done = levels[s - 1]
        if s == len(levels):
            return leaf(images(x), done)
        t = s - m + 3
        if t not in systems:
            systems[t] = jacobian(t, x)
        tests, solve, null = systems[t]
        b = rhs(t, images(x))
        if any(sum(b[e] * v for e, v in f) % p for f in tests):
            done.inconsistent += 1
            return
        x0 = [0] * (len(solve) + len(null))
        for col, f in solve:
            x0[col] = sum(b[e] * v for e, v in f) % p
        lines = list(zip(x0, *null))
        cols = span[t - 1]
        d = len(cols)

        def solution(coef):
            """x with its L_(t-1) parts x0 + sum c_i N_i, coef = (1, c)."""
            x2 = [list(v) for v in x]
            for g in range(m):
                for q, r in enumerate(cols):
                    x2[g][r] = sum(map(operator.mul, coef,
                                       lines[g * d + q])) % p
            return x2

        rows = []
        if t < depth:
            # x's L_(t-1) parts are still 0 here, but the next system
            # depends on the classes alone
            if t + 1 not in systems:
                systems[t + 1] = jacobian(t + 1, x)
            b = rhs(t + 1, images(solution([1] + _variables(len(null)))))
            rows = [sum(b[e] * v for e, v in f) % p
                    for f in systems[t + 1][0]]
        inconsistent = _compile(rows, len(null), p)
        level = levels[s]
        for coef in itertools.chain([(0,) * len(null)],
                                    _images(len(null), p)):
            tick(level)
            if inconsistent(coef):
                level.inconsistent += 1
            else:
                settle(s + 1, solution((1, *coef)), None, None, systems)

    status = "exhausted"
    try:
        settle(0, [], [None] * n, [], None)
    except _Capped:
        status = "capped"
    except _Done:
        pass
    if found:
        status = "found"
    return SearchResult(status, prime, count[0], tuple(found), tuple(levels))


# ---------------------------------------------------------------- lifting

_LIFT_BOX = 6   # bound on |re|, |im| and the denominator of a lifted entry
_LIFT_ATTEMPTS = 25   # witnesses per prime that certify tries to lift


def _lift_scalar(e, p, i_res):
    """Smallest preimage of e in the box, ordered by (|im|, |re|, den)."""
    best = None
    for den in range(1, _LIFT_BOX + 1):
        if den % p == 0:
            continue    # no preimage has a denominator that p divides
        t = e * den % p
        for b in range(-_LIFT_BOX, _LIFT_BOX + 1):
            a = (t - b * i_res) % p
            if a > p // 2:
                a -= p
            if abs(a) > _LIFT_BOX:
                continue
            key = (abs(b), abs(a), den, b < 0, a < 0)
            if best is None or key < best[0]:
                best = (key, GaussianRational(Fraction(a, den),
                                              Fraction(b, den)))
    return None if best is None else best[1]


def lift_witness(rows, prime: int) -> Matrix | None:
    """Entry-wise lift of a mod-p matrix to Q(i); None when an entry has
    no preimage inside the search box."""
    field = PrimeField(prime)
    lifted = []
    for row in rows:
        out = []
        for e in row:
            s = _lift_scalar(e % prime, prime, field.i_residue)
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
    searches: tuple = ()     # the SearchResult of each prime searched


def _unliftable(rows, prime):
    """(row, column, residue) of the first entry, counted from 1, that
    has no preimage in `lift_witness`'s box, or None."""
    i_res = PrimeField(prime).i_residue
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            if _lift_scalar(e % prime, prime, i_res) is None:
                return r + 1, c + 1, e % prime
    return None


def certify(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
            primes=DEFAULT_PRIMES, cap: int = DEFAULT_CAP) -> Certification:
    """Decide isomorphism as far as the exact tools allow.

    Distinct invariant signatures certify non-isomorphism.  Otherwise a
    modular witness search runs prime by prime, each distinct prime once
    in the given order; its first hit is lifted to Q(i) and re-verified
    exactly, and only when that fails is the search repeated for up to
    `_LIFT_ATTEMPTS` hits.  Only an exact verification yields CERTIFIED.
    Hits at two primes without a lifting give EVIDENCE; everything else
    is INCONCLUSIVE, and so, without a search, is a pair of equal
    signatures that are not nilpotent.  When no hit lifts, the detail
    names the first matrix entry that had no preimage in the lifting
    box.
    """
    sig_s = signature(source)
    sig_t = signature(target)
    if sig_s != sig_t:
        fields = ", ".join(sig_s.diff(sig_t))
        return Certification(DISTINCT, None, 0, 0,
                             f"invariants differ: {fields}")
    if not sig_s.nilpotent:
        return Certification(INCONCLUSIVE, None, 0, 0,
                             "the layered search needs nilpotent algebras")
    total = 0
    hits = 0
    notes = []
    searches = []
    for prime in dict.fromkeys(primes):
        tried = 0
        miss = None
        try:
            # the first witness usually lifts; only when it does not is
            # the search run again for up to _LIFT_ATTEMPTS witnesses
            for want in (1, _LIFT_ATTEMPTS):
                res = adapted_search(source, target, prime=prime, cap=cap,
                                     max_found=want)
                searches.append(res)
                total += res.candidates
                for rows in res.matrices[tried:]:
                    m = lift_witness(rows, prime)
                    if m is None:
                        miss = miss or _unliftable(rows, prime)
                    elif verify_witness(source, target, m) is None:
                        return Certification(
                            CERTIFIED, m, prime, total,
                            f"witness found mod {prime} and verified exactly",
                            tuple(searches))
                tried = len(res.matrices)
                if tried < want:
                    break
        except BadPrime as ex:
            notes.append(str(ex))
            continue
        if res.matrices:
            hits += 1
            why = ("entry (%d,%d) = %d mod %d has no preimage in the box"
                   % (miss + (prime,)) if miss
                   else "every lift fails the exact check")
            notes.append(f"{len(res.matrices)} witnesses mod {prime}, "
                         f"none lifted: {why}")
        else:
            notes.append(f"search {res.status} mod {prime} without witness")
        if hits >= 2:
            return Certification(EVIDENCE, None, prime, total,
                                 "; ".join(notes), tuple(searches))
    return Certification(INCONCLUSIVE, None, 0, total,
                         "; ".join(notes) or "no usable prime",
                         tuple(searches))


# ------------------------------------------------------------- fixture file

# Holds nothing: `realize` takes the catalogue from its caller.  It stays
# because `reset_cold_caches` in perfbench/workloads.py clears it by name.
_REALIZE_CACHE = {}


def _fixture_side(side, catalogue):
    if isinstance(side, dict):
        entry = catalogue.entry(side["entry"])
        values = {p: exprs.parse_scalar(t)
                  for p, t in side.get("params", {}).items()}
        return cat_instantiate(entry, values)
    return LeibnizAlgebra(DIMENSION, product_table(side))


@dataclass(frozen=True)
class WitnessFixture:
    """One stored base change between two recorded algebras.

    `source` and `target` each hold a catalogue entry spec, a dict with
    the entry name and its parameter literals, or an inline product table
    parsed by the catalogue's reader; `matrix_text` holds the witness
    entries as scalar literals.
    """
    label: str
    source: dict | tuple
    target: dict | tuple
    matrix_text: tuple

    def realize(self, catalogue):
        """Return (source algebra, target algebra, witness matrix).

        Entries may lie in one quadratic extension of Q(i); they mix
        with the Q(i) entries and with the Q(i) algebras as they stand.
        Raises FixtureError when two entries need different radicals.
        """
        src = _fixture_side(self.source, catalogue)
        tgt = _fixture_side(self.target, catalogue)
        try:  # each literal was checked at load; only a mix can fail
            entries = exprs.parse_scalar_rows(self.matrix_text)
        except exprs.ExprSyntaxError as ex:
            raise FixtureError("%s: %s" % (self.label, ex)) from None
        return src, tgt, Matrix(entries)


def _parse_side(spec, where):
    """One side as realize takes it: the entry spec with its parameter
    literals checked, or the inline table read by the catalogue's reader,
    so that realizing it cannot fail on the file's shape."""
    if "products" in spec:
        return parse_products(spec["products"], None, where)
    _expect(spec["entry"], str, "%s entry" % where)
    for text in _expect(spec.get("params", {}), dict,
                        "%s params" % where).values():
        parse_expr_checked(text, None, "%s params" % where)
    return spec


def _parse_fixture(rec, where):
    _expect(rec, dict, where)
    for key in ("label", "source", "target", "matrix"):
        if key not in rec:
            raise FixtureError("%s: missing %r" % (where, key))
    where = "witness %s" % _expect(rec["label"], str, "%s label" % where)
    sides = []
    for side in ("source", "target"):
        spec = _expect(rec[side], dict, "%s %s" % (where, side))
        if ("entry" in spec) == ("products" in spec):
            raise FixtureError("%s: %s must name an entry or carry products"
                               % (where, side))
        sides.append(_parse_side(spec, "%s %s" % (where, side)))
    rows = _expect(rec["matrix"], list, "%s matrix" % where)
    if (len(rows) != DIMENSION
            or any(len(_expect(r, list, "%s matrix row" % where))
                   != DIMENSION for r in rows)):
        raise FixtureError("%s: matrix must be %dx%d"
                           % (where, DIMENSION, DIMENSION))
    for row in rows:
        for text in row:
            parse_expr_checked(text, None, "%s matrix" % where)
    return WitnessFixture(
        label=rec["label"],
        source=sides[0],
        target=sides[1],
        matrix_text=tuple(tuple(r) for r in rows),
    )


def load_fixtures(path=None):
    """Load the stored witness list (default: the shipped file).

    The file is decoded and shape-checked by the catalogue's readers;
    scalars and inline product tables are in the scalar-literal grammar.
    Raises FixtureError when the file is not a witness document.
    """
    _text, doc = read_document(path, "witnesses.json", FixtureError)
    try:
        records = _expect(_expect(doc, dict, "witness document")
                          .get("witnesses", []), list, "witnesses")
        fixtures = tuple(_parse_fixture(rec, "witness %d" % k)
                         for k, rec in enumerate(records))
    except CatalogueError as ex:  # a shape, a scalar or an inline table
        raise FixtureError(str(ex)) from None
    labels = set()
    for fixture in fixtures:
        if fixture.label in labels:
            raise FixtureError("duplicate witness label %r" % fixture.label)
        labels.add(fixture.label)
    return fixtures
