"""Isomorphism witnesses: exact checking, modular search, and lifting.

A witness for "A is isomorphic to B" is an invertible matrix Q whose
column j holds the image of the j-th basis vector of A written in the
basis of B.  Witnesses are verified exactly, product by product:
Q [e_i, e_j] in A must be [Q e_i, Q e_j] in B, the first pair that
differs ending the check; B's column products are taken as its
`base_change` takes them, one pass over its table's index per column.
Before any search, `certify` compares two exact invariants, the
signature and dim Der(A); a difference is a proof of non-isomorphism.
The search for new ones runs over GF(p): it reduces each algebra's
constants to GF(p) elements and sets itself up on the reduced algebra's
own methods (the lower central series, Leib and Z, its words and the
tables in them by `base_change`), row-reduces mod p through
`linalg._echelon` as the exact side does, runs its candidates on plain
ints, and checks each complete map by `verify_witness` over GF(p) in the
words.  Only a map that passes is written in the original bases, in
GF(p) alone, and lifted to Q(i) entry by entry (`scalars.lift_mod_p`)
for exact re-verification, so nothing modular is trusted on its own.

The search follows the lower central series, as the lifting step of
p-group generation does (O'Brien 1990; Eick, Leedham-Green and O'Brien
2002): it enumerates only the generators' classes modulo A^2 and solves
each deeper layer of their images as an affine system mod p.  Every
relation check, class or layer, is the L_t part of one residual over the
source's word images, a class level setting the generators still to
come to zero; a layer system's matrix is linear in the classes, so it
is read once per search off one residual over variables, and each
distinct one solved once.  Run on polynomials in a node's unknowns, the
residuals give that node's checks once.  Its candidates come in runs
that move one coordinate, along which each check is a polynomial in it;
a run is decided from the checks' roots, so the candidates it rejects
are counted in stretches rather than one by one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from .algebra import LeibnizAlgebra
from .catalogue import (DIMENSION, CatalogueError, _expect,
                        parse_expr_checked, parse_products, product_table,
                        read_document)
from .catalogue import instantiate as cat_instantiate
from .invariants import signature
from .linalg import Matrix, Subspace, _combine, _echelon, _nullspace, _support
from .scalars import (DenominatorDividesP, FieldMismatch, PrimeField,
                      lift_mod_p, mixes_radicals)

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


class Unliftable(ArithmeticError):
    """A mod-p witness entry has no preimage in the lifting box; the args
    are its row and column, counted from 1, its residue and the prime."""

    def __str__(self):
        return ("entry (%d,%d) = %d mod %d has no preimage in the box"
                % self.args)


# ---------------------------------------------------------------- exact side

_SINGULAR = "matrix is singular"


def verify_witness(source: LeibnizAlgebra, target: LeibnizAlgebra,
                   matrix: Matrix) -> str | None:
    """None when the matrix is a bijective homomorphism source -> target,
    otherwise a short description of the first failure: a singular
    matrix (`_SINGULAR`), or the first (i, j) with Q [e_i, e_j] !=
    [Q e_i, Q e_j].  It runs over any field the kernel takes, GF(p)
    included, as the search's check of a complete map; an exact verdict
    rests only on the Q(i) matrices that `lift_witness` builds."""
    n = source.n
    if target.n != n:
        return "algebras have different dimensions"
    if matrix.nrows != n or matrix.ncols != n:
        return "matrix shape does not match the algebras"
    if matrix.rref()[1] != n:
        return _SINGULAR
    cols = [_support(col) for col in matrix.transpose().rows]
    for i, j, image in target._column_products(cols):
        if _combine(cols, source.bracket_basis(i, j)) != image:
            return f"product ({i + 1},{j + 1}) is not preserved"
    return None


# ---------------------------------------------------------------- mod-p side

def _mod_p(alg: LeibnizAlgebra, field: PrimeField) -> LeibnizAlgebra:
    """The algebra over GF(p), its constants taken in by the field."""
    return LeibnizAlgebra(alg.n, {
        ij: {k: field(s) for k, s in sorted(comps.items())}
        for ij, comps in alg.table.items()})


def _int_table(alg: LeibnizAlgebra) -> dict:
    """The constants of an algebra over GF(p) as (k, int) rows."""
    return {ij: tuple((k, s.value) for k, s in comps.items())
            for ij, comps in alg.table.items()}


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
    arithmetic of `_brk` and the search's residuals, so these run
    unchanged on vectors that mix ints and polynomials."""

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


def _compile(polys, field):
    """The checks `polys` (ints or _Poly) along runs, or None when they
    span a nonzero constant and so fail everywhere.  `_echelon` reduces
    them once over their monomials, highest first; its rows, as ints
    through the field, lead with the lowest degree first.  On a run only
    variable pos moves, so each row is a polynomial in it, t:
    `along(vec, pos)` gives each row's coefficients of 1, t, t^2, ..."""
    p = field.p
    polys = [_as_poly(f) for f in polys]
    monos = {mo[:d] for f in polys for mo in f for d in range(len(mo) + 1)}
    monos = sorted(monos, key=lambda mo: (len(mo), mo))
    index = {mo: e for e, mo in enumerate(monos)}
    steps = [(index[mo[:-1]], mo[-1]) for mo in monos[1:]]
    last = len(monos) - 1   # the column of the constant monomial
    done = _echelon({last - index[mo]: field(c) for mo, c in f.items()
                     if c % p} for f in polys)
    if last in done:
        return None
    basis = [[field(row[c]).value if c in row else 0
              for c in range(last, -1, -1)]
             for _, row in sorted(done.items(), reverse=True)]
    layouts = {}

    def layout(pos):
        """Each row split by the degree in variable pos of its monomials."""
        degrees = [mo.count(pos) for mo in monos]
        return [[[c if d == deg else 0 for c, d in zip(row, degrees)]
                 for deg in range(max(degrees + [1]) + 1)]
                for row in basis]

    def along(vec, pos):
        if pos not in layouts:
            layouts[pos] = layout(pos)
        vals = [1]
        for e, var in steps:
            vals.append(vals[e] if var == pos else vals[e] * vec[var] % p)
        return [[sum(map(operator.mul, r, vals)) % p for r in row]
                for row in layouts[pos]]
    return along


def _at(f, t, p):
    """The polynomial f, its coefficients lowest degree first, at t."""
    return sum(c * t ** d for d, c in enumerate(f)) % p


def _prepare(rows, u, field):
    """Solve J x = b mod p once, for many right-hand sides b, J's rows
    the int equations over u unknowns: (tests, solve, null), as ints
    through the field, are read off one `_echelon` of the rows [J_r | e_r].
    The tests, the rows with a pivot in the identity block, are sparse
    functionals of b that all vanish exactly when b is consistent; x[col]
    = f(b) for (col, f) in solve is then a solution; the null vectors,
    `_nullspace` of the rows with a pivot col in J, span J's kernel."""
    done = _echelon({**{c: field(x) for c, x in enumerate(row) if x},
                     u + r: field(1)} for r, row in enumerate(rows))

    def functional(row):
        return tuple(sorted((c - u, field(x).value)
                            for c, x in row.items() if c >= u))
    pivots = [col for col in done if col < u]
    return ([functional(row) for col, row in done.items() if col >= u],
            [(col, functional(done[col])) for col in pivots],
            [[field(vec[c]).value if c in vec else 0 for c in range(u)]
             for vec in _nullspace(map(done.get, pivots), u)])


def _balanced_value(i, p):
    """The residue at place i of the order 0, 1, -1, 2, -2, ... of GF(p)."""
    return (i + 1) // 2 if i % 2 else -(i // 2) % p


def _balanced_place(t, p):
    """The place of the residue t in that order, `_balanced_value` undone."""
    return max(2 * t - 1, 0) if 2 * t < p else 2 * (p - t)


def _balanced_vals(p):
    """The residues of GF(p) in that order, one at a time."""
    return map(_balanced_value, range(p), itertools.repeat(p))


def _runs(k, p, zero=False):
    """The nonzero vectors of GF(p)^k, sparse ones first, small entries
    first inside each block, in runs (vec, pos, lo): vec with its entry
    pos set to each value of `_balanced_vals(p)` from the lo-th on.
    With `zero`, the zero vector opens the first run.  A run is a
    position of weight 1, a (a, b, vec[a]) of weight 2, or a head of
    k - 1 entries; only this dense block, when k >= 3, lists p values.
    """
    for pos in range(k):
        yield (0,) * k, pos, int(pos > 0 or not zero)
    for a in range(k):
        for b in range(a + 1, k):
            for va in itertools.islice(_balanced_vals(p), 1, None):
                yield (0,) * a + (va,) + (0,) * (k - a - 1), b, 1
    if k < 3:
        return
    for head in itertools.product(_balanced_vals(p), repeat=k - 1):
        weight = k - 1 - head.count(0)
        if weight > 1:
            yield head + (0,), k - 1, int(weight == 2)


class _Stop(Exception):
    pass


class _Tally:
    """The candidates tried so far, against the cap."""

    def __init__(self, cap):
        self.cap, self.count = cap, 0

    def step(self, level, outcome=None, n=1):
        """Count n candidates tried at the level and stopped by `outcome`,
        or passed on when it is None; past the cap, stop the search where
        the next candidate would be tried."""
        take = max(0, min(n, self.cap - self.count))
        self.count += take
        level.tried += take
        if outcome:
            setattr(level, outcome, getattr(level, outcome) + take)
        if take < n:
            raise _Stop


def _zeros(rows, lo, p):
    """The positions from lo on of a run where all the rows vanish,
    polynomials in its free coordinate t: all or none of them when no row
    varies, else at most the root of the first row of degree 1, or None,
    undecided, when every row that varies has degree 2 or more."""
    undecided = False
    for f in rows:
        if any(f[2:]):
            undecided = True
        elif f[1]:
            t = -f[0] * pow(f[1], -1, p) % p
            i = _balanced_place(t, p)
            return (i,) if i >= lo and not any(
                _at(g, t, p) for g in rows) else ()
        elif f[0]:
            return ()
    return None if undecided else range(lo, p)


def _sweep(tally, level, runs, checks, outcome, p, dependence=None):
    """Yield the vectors of the runs that pass the level, in order.

    A vector is dependent when all its `dependence` rows vanish, and
    stopped under `outcome` when some row of `checks` (None: a nonzero
    constant) does not; both come from `_compile`.  Along a run these
    rows vanish at one value of t, at all or at none, so each stretch of
    rejected vectors between two others is counted in one step; a run
    that `_zeros` leaves undecided is walked one vector at a time.
    """
    for vec, pos, lo in runs:
        dep = _zeros(dependence(vec, pos), lo, p) if dependence else ()
        if isinstance(dep, range):
            tally.step(level, "dependent", p - lo)
            continue
        rows = checks(vec, pos) if checks else [[1, 0]]
        ok = _zeros(rows, lo, p)
        i = lo
        while i < p:
            t = _balanced_value(i, p)
            if i in dep:
                tally.step(level, "dependent")
            elif ok is None and any(_at(f, t, p) for f in rows):
                tally.step(level, outcome)
            elif ok is not None and i not in ok:
                stop = min([j for j in (*dep, *ok) if j > i], default=p)
                tally.step(level, outcome, stop - i)
                i = stop
                continue
            else:
                tally.step(level)
                yield vec[:pos] + (t,) + vec[pos + 1:]
            i += 1


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
    relations: int = 0       # a class relation, or a leaf's product, fails
    inconsistent: int = 0    # the next layer's affine system has no solution
    rank: int = 0            # the leaf's map is singular mod p
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


def _words(alg):
    """Left-normed words [g_a, w] over the generators g_a, the unit
    vectors that complete A^2, each word kept when it is independent
    modulo the next series term: a basis adapted to the lower central
    series of an algebra over GF(p).  Returns the words as the columns of
    a matrix, for each word past the generators its pair (a, w), and each
    word's layer.  The generators hold Q(i)'s 0 and 1, which the field
    takes in as it takes in the kernel's pivots."""
    n = alg.n
    words, pairs, layer = [], [], []
    pending = [(None, tuple(int(t == i) for t in range(n))) for i in range(n)]
    for t, below in enumerate(alg.lower_central_series()[1:], 1):
        if t > 1:   # the words of length t, none past the last term
            pending = [((a, w), alg.bracket(words[a], words[w]))
                       for a in range(layer.count(1))
                       for w in range(len(words)) if layer[w] == t - 1]
        for pair, v in pending:
            grown = below + Subspace(n, [v])
            if grown.dim > below.dim:
                below = grown
                words.append(v)
                pairs.append(pair)
                layer.append(t)
    return Matrix(words).transpose(), pairs, layer


def adapted_search(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
                   prime: int = 13, cap: int = DEFAULT_CAP,
                   enough=bool) -> SearchResult:
    """Search for witnesses source -> target over GF(prime), layer by
    layer through the lower central series.

    Each algebra is written in its own left-normed words (`_words`, chosen
    mod prime) over generators that complete its square, so the words of
    length t, layer L_t, complete A^(t+1) to A^t; a witness is fixed by the
    images x_a of the source's generators g_a.  Every relation check, class or
    layer, is the L_t part of one residual [y_i, y_j] - sum s_k y_k over the
    word images y.  First each generator's class, its L_1 part, is enumerated
    small-first; a class dependent on the earlier ones, or one that breaks
    the graded part of a relation it completes (t the sum of the layers of
    b_i and b_j, the generators still to come set to zero), is dropped.  Then
    for t = 3, ..., c the L_t parts of all relations are affine in the
    L_(t-1) parts of the x_a, the system's matrix linear in the classes: it
    is read once per search (`system`) off one residual over variables for
    the classes and those parts, each distinct one is solved mod prime once,
    and only its solutions are tried, free variables small-first.  The last
    layer enters no relation and is set to 0.  Each class and each affine
    solution tried counts as one candidate.  Every complete map is checked over
    GF(prime) by `verify_witness` on the reduced algebras in their words
    (a singular map counts under `rank`, a broken product under
    `relations`), and only a witness is written in the original bases.  A
    node's checks (a class's dependence and relations, or the next layer's
    consistency) are polynomials over GF(prime) in its unknowns, the class
    or the kernel coefficients; they are compiled once per node and
    evaluated once per run of candidates (`_runs`, `_sweep`), which counts
    the rejected stretches between the candidates that vanish there in one
    step each.  The search stops once `enough(witnesses so far)` is true;
    the default, `bool`, at the first.

    Raises BadPrime when the reduction is undefined or drops a
    structural dimension.
    """
    n = source.n
    if target.n != n:
        raise ValueError("algebras have different dimensions")
    p = prime
    field = PrimeField(prime)
    try:
        mod_s, mod_t = _mod_p(source, field), _mod_p(target, field)
    except (DenominatorDividesP, FieldMismatch) as ex:
        raise BadPrime(f"reduction undefined mod {prime}: {ex}") from None
    dims_s, dims_t = _structural_dims(mod_s), _structural_dims(mod_t)
    if (_structural_dims(source) != dims_s
            or _structural_dims(target) != dims_t):
        raise BadPrime(f"{prime} degenerates a structural dimension")
    if dims_s[0] != dims_t[0]:
        return SearchResult("exhausted", prime, 0, ())
    if dims_s[0][-1]:
        raise ValueError("the layered search needs nilpotent algebras")

    # both sides in their own words; equal dims give them equal layers
    words, pairs, layer = _words(mod_s)
    basis, _, _ = _words(mod_t)
    if words.ncols != n or basis.ncols != n:
        raise BadPrime(f"{prime} breaks generation by the complement")
    in_words = mod_s.base_change(words), mod_t.base_change(basis)
    src, tgt = map(_int_table, in_words)

    def in_field(rows):
        return Matrix([map(field, row) for row in rows])
    # a witness basis Y words^-1 is multiplied in GF(prime) alone: basis
    # and the inverse, taken at the first witness, hold no Q(i) 1 or 0
    basis, invert = in_field(basis.rows), words.inv
    words_inv = functools.cache(lambda: in_field(invert().rows))
    # word k has length layer[k], and [A^i, A^j] lies in A^(i+j)
    for tab in (src, tgt):
        if any(layer[k] < layer[i] + layer[j]
               for (i, j), comps in tab.items() for k, _ in comps):
            raise BadPrime(f"{prime} breaks [A^i, A^j] <= A^(i+j)")

    m = layer.count(1)
    depth = layer[-1]
    span = {t: [k for k in range(n) if layer[k] == t] for t in layer}
    # at[t]: the L_t part of each target product; on vectors inside L_s
    # and L_r it is the graded product L_s x L_r -> L_(s+r), s + r = t
    at = {}
    for (i, j), comps in tgt.items():
        for k, x in comps:
            at.setdefault(layer[k], {}).setdefault((i, j), []).append((k, x))

    # the relations [b_i, b_j] = sum s_k b_k that a word's definition
    # does not already give and that can reach a nonzero layer
    rels = [(i, j, src.get((i, j), ())) for i in range(n) for j in range(n)
            if layer[i] + layer[j] <= depth and (i, j) not in pairs[m:]]
    # the class level that completes each word and each graded relation
    last = list(range(m))
    for a, w in pairs[m:]:
        last.append(max(a, last[w]))
    checks = [[] for _ in range(m)]
    for i, j, terms in rels:
        t = layer[i] + layer[j]
        lead = [last[k] for k, _ in terms if layer[k] == t]
        checks[max([last[i], last[j]] + lead)].append((t, i, j, terms))

    def images(x):
        """Images of all source words in the target's words, the
        generators past x set to zero."""
        y = list(x) + [(0,) * n] * (m - len(x))
        for a, w in pairs[m:]:
            y.append(_brk(tgt, y[a], y[w], n, p))
        return y

    def residual(t, y, i, j, terms):
        """The L_t coordinates of [y_i, y_j] - sum s_k y_k."""
        w = _brk(at.get(t, {}), y[i], y[j], n, p)
        return [(w[r] - sum(s * y[k][r] for k, s in terms)) % p
                for r in span[t]]

    def rhs(t, y):
        """The L_t parts of the relations that reach below L_t."""
        return [c for i, j, terms in rels if layer[i] + layer[j] < t
                for c in residual(t, y, i, j, terms)]

    linear = {}   # t -> each D_(g,i), J_t's change at unit class (g, i)
    solved = {}   # (t, J_t) -> its `_prepare`

    def system(t, x):
        """The layer-t system at x's classes, its unknowns the L_(t-1)
        parts of the x_a: sum x[g][i] D_(g,i), as an entry is one bracket
        of an unknown with an L_1 part (two unknowns bracket into
        L_(2t-2), inside L_(t+1) for t >= 3).  On first use the D_(g,i)
        are read off one rhs over variables for the classes and the
        unknowns: entry (e, k) of D_(g,i) is minus the coefficient of
        class (g, i) times unknown k in row e.  Each distinct matrix is
        `_prepare`d once."""
        u = m * len(span[t - 1])
        if t not in linear:
            var = iter(_variables(m * m + u))
            y = [[next(var) if k < m else 0 for k in range(n)]
                 for _ in range(m)]
            for g, r in itertools.product(range(m), span[t - 1]):
                y[g][r] = next(var)
            polys = [_as_poly(f) for f in rhs(t, images(y))]
            linear[t] = [(g, i, [-f.get((g * m + i, m * m + k), 0) % p
                                 for f in polys for k in range(u)])
                         for g, i in itertools.product(range(m), repeat=2)]
        flat = [0] * len(linear[t][0][2])
        for g, i, step in linear[t]:
            if x[g][i]:
                flat = [(a + x[g][i] * b) % p for a, b in zip(flat, step)]
        key = t, tuple(flat)
        if key not in solved:
            rows = [flat[e:e + u] for e in range(0, len(flat), u)]
            solved[key] = _prepare(rows, u, field)
        return solved[key]

    levels = [LevelCounts("class %d" % (a + 1)) for a in range(m)]
    levels += [LevelCounts("layer %d" % t) for t in range(3, depth + 1)]
    found = []
    tally = _Tally(cap)

    def leaf(y, level):
        """Check the map Y over GF(prime), its columns the word images y,
        in the two words tables.  A map that passes becomes the witness
        q = basis Y words^-1, its entries as ints: column c of q is the
        image of the source's e_c in the target's basis."""
        y_map = in_field(zip(*y))
        why = verify_witness(*in_words, y_map)
        if why == _SINGULAR:
            level.rank += 1
        elif why:
            level.relations += 1
        else:
            level.found += 1
            q = basis @ y_map @ words_inv()
            found.append(tuple(tuple(e.value for e in row) for row in q.rows))
            if enough(found):
                raise _Stop

    def classes(a, x):
        """Try each class v of generator a against its checks, compiled
        once as polynomials in v: the forms that `_nullspace` gives for
        the earlier classes, all zero exactly when v depends on them, and
        the residuals of the relations that v completes."""
        level = levels[a]
        pad = (0,) * (n - m)
        y = images(x + [_variables(m) + list(pad)])
        forms = _nullspace(({r: field(c) for r, c in enumerate(u[:m]) if c}
                            for u in x), m)
        dependence = _compile([_Poly({(r,): field(c).value for r, c
                                      in w.items()}) for w in forms], field)
        broken = _compile([c for t, i, j, terms in checks[a]
                           for c in residual(t, y, i, j, terms)], field)
        for v in _sweep(tally, level, _runs(m, p), broken, "relations", p,
                        dependence):
            settle(a + 1, x + [v + pad])

    def settle(s, x):
        """Carry a candidate that passed level s - 1 on to level s.

        At layer t the solutions are x0 + sum c_i N_i over the kernel
        vectors N_i of the layer's system.  The next layer's consistency
        tests are compiled once as polynomials in the c_i, and only the
        solutions that pass them are built."""
        if s < m:
            return classes(s, x)
        done = levels[s - 1]
        if s == len(levels):
            return leaf(images(x), done)
        t = s - m + 3
        tests, solve, null = system(t, x)
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
            b = rhs(t + 1, images(solution([1] + _variables(len(null)))))
            rows = [sum(b[e] * v for e, v in f) % p
                    for f in system(t + 1, x)[0]]
        inconsistent = _compile(rows, field)
        level = levels[s]
        if inconsistent is None:
            return tally.step(level, "inconsistent", p ** len(null))
        if not null:
            tally.step(level)
            return settle(s + 1, solution((1,)))
        for coef in _sweep(tally, level, _runs(len(null), p, zero=True),
                           inconsistent, "inconsistent", p):
            settle(s + 1, solution((1, *coef)))

    status = "exhausted"
    try:
        settle(0, [])
    except _Stop:
        status = "capped"
    return SearchResult("found" if found else status, prime, tally.count,
                        tuple(found), tuple(levels))


# ---------------------------------------------------------------- lifting

_LIFT_ATTEMPTS = 25   # witnesses certify lifts at one prime before it stops


def lift_witness(rows, prime: int) -> Matrix:
    """Entry-wise lift of a mod-p matrix to Q(i) by `lift_mod_p`; raises
    Unliftable, naming the first entry that has no preimage in its box."""
    field = PrimeField(prime)
    lifted = [[lift_mod_p(e, field) for e in row] for row in rows]
    for r, row in enumerate(lifted):
        for c, s in enumerate(row):
            if s is None:
                raise Unliftable(r + 1, c + 1, rows[r][c] % prime, prime)
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


def certify(source: LeibnizAlgebra, target: LeibnizAlgebra, *,
            primes=DEFAULT_PRIMES, cap: int = DEFAULT_CAP) -> Certification:
    """Decide isomorphism as far as the exact tools allow.

    Two exact invariants certify non-isomorphism: the signature and,
    when the signatures agree, dim Der(A).  Otherwise one modular
    witness search runs at each distinct prime, in the given order.
    Each witness is lifted to Q(i) and re-verified exactly as the
    search finds it, and the search stops at the first one that
    verifies, or after `_LIFT_ATTEMPTS` witnesses.  Only an exact
    verification yields CERTIFIED.  Witnesses at two primes without a
    lifting give EVIDENCE; everything else is INCONCLUSIVE, and so,
    without a search, is a pair of equal signatures that are not
    nilpotent.  When no witness lifts, the detail names the first matrix
    entry that had no preimage in the lifting box.
    """
    sig_s = signature(source)
    sig_t = signature(target)
    if sig_s != sig_t:
        fields = ", ".join(sig_s.diff(sig_t))
        return Certification(DISTINCT, None, 0, 0,
                             f"invariants differ: {fields}")
    if source.derivations().dim != target.derivations().dim:
        return Certification(DISTINCT, None, 0, 0,
                             "invariants differ: dim_der")
    if not sig_s.nilpotent:
        return Certification(INCONCLUSIVE, None, 0, 0,
                             "the layered search needs nilpotent algebras")
    total = 0
    notes = []
    searches = []
    for prime in dict.fromkeys(primes):
        exact, misses = [], []

        def enough(found):
            try:
                m = lift_witness(found[-1], prime)
            except Unliftable as ex:
                misses.append(str(ex))
            else:
                if verify_witness(source, target, m) is None:
                    exact.append(m)
            return bool(exact) or len(found) >= _LIFT_ATTEMPTS

        try:
            res = adapted_search(source, target, prime=prime, cap=cap,
                                 enough=enough)
        except BadPrime as ex:
            notes.append(str(ex))
            continue
        searches.append(res)
        total += res.candidates
        # the winning lift is checked again in certify's own frame, where
        # perfbench's iso.lift.success_ratio counts verified lifts
        if exact and verify_witness(source, target, exact[0]) is None:
            return Certification(
                CERTIFIED, exact[0], prime, total,
                f"witness found mod {prime} and verified exactly",
                tuple(searches))
        if res.matrices:
            why = misses[0] if misses else "every lift fails the exact check"
            notes.append(f"{len(res.matrices)} witnesses mod {prime}, "
                         f"none lifted: {why}")
        else:
            notes.append(f"search {res.status} mod {prime} without witness")
        if sum(bool(r.matrices) for r in searches) >= 2:
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
        return cat_instantiate(catalogue.entry(side["entry"]), side["params"])
    return LeibnizAlgebra(DIMENSION, product_table(side))


@dataclass(frozen=True)
class WitnessFixture:
    """One stored base change between two recorded algebras.

    `source` and `target` each hold a catalogue entry spec, a dict with
    the entry name and its parameter values, or an inline product table
    parsed by the catalogue's reader.  `matrix_text` holds the witness
    entries as scalar literals, and `matrix` their values, parsed once
    when the fixture is made; CatalogueError names a bad literal.
    """
    label: str
    source: dict | tuple
    target: dict | tuple
    matrix_text: tuple
    matrix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        where = "witness %s matrix" % self.label
        object.__setattr__(self, "matrix", tuple(
            tuple(parse_expr_checked(text, None, where)[1] for text in row)
            for row in self.matrix_text))

    def realize(self, catalogue):
        """Return (source algebra, target algebra, witness matrix).

        Entries and inline constants may lie in one quadratic extension
        of Q(i); they mix with the Q(i) scalars as they stand.  Raises
        FixtureError when two of them need different radicals.
        """
        src = _fixture_side(self.source, catalogue)
        tgt = _fixture_side(self.target, catalogue)
        if mixes_radicals(itertools.chain(
                *self.matrix, *(comps.values() for alg in (src, tgt)
                                for comps in alg.table.values()))):
            raise FixtureError("%s: mixed radicals in one witness"
                               % self.label)
        return src, tgt, Matrix(self.matrix)


def _parse_side(spec, where):
    """One side as realize takes it: the entry name with its parameter
    values, or the inline table read by the catalogue's reader, so that
    realizing it cannot fail on the file's shape."""
    if "products" in spec:
        return parse_products(spec["products"], None, where)
    name = _expect(spec["entry"], str, "%s entry" % where)
    params = _expect(spec.get("params", {}), dict, "%s params" % where)
    return {"entry": name,
            "params": {p: parse_expr_checked(t, None, "%s params" % where)[1]
                       for p, t in params.items()}}


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
    try:
        _text, doc = read_document(path, "witnesses.json")
        records = _expect(_expect(doc, dict, "witness document")
                          .get("witnesses", []), list, "witnesses")
        fixtures = tuple(_parse_fixture(rec, "witness %d" % k)
                         for k, rec in enumerate(records))
    except CatalogueError as ex:  # the decoding, a shape, a scalar or a table
        raise FixtureError(str(ex)) from None
    labels = set()
    for fixture in fixtures:
        if fixture.label in labels:
            raise FixtureError("duplicate witness label %r" % fixture.label)
        labels.add(fixture.label)
    return fixtures
