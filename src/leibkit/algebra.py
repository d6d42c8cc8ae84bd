"""Finite-dimensional left Leibniz algebras over exact scalar fields.

An algebra is stored by its structure constants in a fixed basis e_1..e_n,
kept sparse: table[(i, j)] is the nonzero support of [e_i, e_j] as a map
from basis index to scalar.  All indices are 0-based internally.  The
table is also indexed, once per algebra, by the component a product
consumes: for each k the pairs (x, [e_x, e_k]) and (x, [e_k, e_x]).  So
every [e_x, v] of a sparse row v (or every [v, e_x]) is read in one pass
over v's support; it is the algebra's one way to multiply, as [u, v] is
sum_x v_x [u, e_x].  So no structure pass brackets unit vectors one at
a time.  A^2 is the span of the table's own values; [A^2, A] and
[A^2, A^2] share one pass per row of A^2, and a base change (so the
witness check in `iso`) one pass per column.  Leib(A), the Leibniz
defects, the annihilators and Der(A) (the kernel of the map δ from n x n
matrices to bilinear maps) are sums of terms read off the nonzero
products, summed into sparse rows by `_sum_rows`; each kernel is one
`_solutions` call.  The center is the left annihilator cap the right one.

The defining identity is the left Leibniz identity

    [a, [b, c]] = [[a, b], c] + [b, [a, c]]

which for a=b forces [[a, a], c] = 0: squares annihilate from the left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (AmbientMismatch, Matrix, Subspace, _combine, _dense,
                     _nullspace, _support)
from .scalars import ONE, promote


@dataclass(frozen=True)
class LeibnizViolation:
    """Witness of a failed Leibniz identity on basis vectors (i, j, k)."""

    i: int
    j: int
    k: int
    defect: tuple

    def __str__(self):
        return (f"[e{self.i+1},[e{self.j+1},e{self.k+1}]] != "
                f"[[e{self.i+1},e{self.j+1}],e{self.k+1}] + "
                f"[e{self.j+1},[e{self.i+1},e{self.k+1}]]; defect {self.defect}")


def _clean_table(table):
    # promotes int and Fraction constants once, so the sparse products
    # below see field scalars only; the one place a table drops its zeros
    out = {}
    for (i, j), comps in table.items():
        row = {k: s for k, s in zip(comps, map(promote, comps.values()))
               if not s.is_zero()}
        if row:
            out[(i, j)] = row
    return out


def _sum_rows(terms) -> dict:
    """{key: sparse row} summed from (key, column, coefficient) terms, the
    keys in the order they first appear.  Every coefficient is nonzero,
    so only an entry whose sum cancels is deleted, in place; a key whose
    terms all cancel keeps an empty row."""
    rows = {}
    for key, col, s in terms:
        row = rows.get(key)
        if row is None:
            rows[key] = {col: s}
        elif col not in row:
            row[col] = s
        elif (t := row[col] + s).is_zero():
            del row[col]
        else:
            row[col] = t
    return rows


class LeibnizAlgebra:
    """Left Leibniz algebra given by sparse structure constants.

    Scalars may live in Q(i) or a quadratic extension of it, and one
    table may hold both kinds; int and Fraction constants are promoted
    to Q(i) on construction.  Instances are treated as immutable, so
    each derived subspace (series, Leib, annihilators, center,
    derivations) is computed on first use and kept on the instance.
    """

    __slots__ = ("n", "table", "_derived")

    def __init__(self, n: int, table: dict):
        # indices are checked before `_clean_table` drops the zeros
        for (i, j), comps in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"bracket index ({i},{j}) outside basis")
            for k in comps:
                if not 0 <= k < n:
                    raise IndexError(f"component index {k} outside basis")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", _clean_table(table))
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError("LeibnizAlgebra is immutable")

    def __eq__(self, other):
        if not isinstance(other, LeibnizAlgebra):
            return NotImplemented
        return self.n == other.n and self.table == other.table

    def __repr__(self):
        return f"LeibnizAlgebra(n={self.n}, products={len(self.table)})"

    # -- bracket ---------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse component map."""
        return self.table.get((i, j), {})

    def bracket(self, u, v) -> tuple:
        """Bilinear extension of the bracket to coordinate vectors; int and
        Fraction coordinates are promoted to Q(i)."""
        if len(u) != self.n or len(v) != self.n:
            raise AmbientMismatch("vector length differs from algebra dimension")
        return _dense(_combine(self._with_units(_support(map(promote, u))),
                               _support(map(promote, v))), self.n)

    def _with_units(self, u: dict) -> list:
        """[[u, e_x] for x], in one pass over the table's index; any
        [u, v] is then sum_x v_x [u, e_x], `_combine` of it with v."""
        row = self._unit_products(u, False)
        return [row.get(x, {}) for x in range(self.n)]

    def _column_products(self, cols):
        """(a, b, [c_a, c_b]) for each pair of sparse columns, a-major,
        one index pass per column a; lazy, so a check may stop early."""
        for a, u in enumerate(cols):
            rights = self._with_units(u)
            for b, v in enumerate(cols):
                yield a, b, _combine(rights, v)

    def _by_factor(self):
        """The table indexed by the component a product consumes: for
        each k, the pairs (x, [e_x, e_k]), and apart the pairs
        (x, [e_k, e_x])."""
        unit_left, unit_right = ([[] for _ in range(self.n)] for _ in range(2))
        for (i, j), comps in self.table.items():
            unit_left[j].append((i, comps))
            unit_right[i].append((j, comps))
        return unit_left, unit_right

    def _unit_products(self, v: dict, unit_left: bool) -> dict:
        """Every nonzero [e_x, v] (`unit_left`) or [v, e_x] as {x: product},
        in one pass over v's support: [e_x, v] = sum_k v_k [e_x, e_k]."""
        acc = {}
        by_factor = self._once("by_factor", self._by_factor)
        index = by_factor[0 if unit_left else 1]
        for k, c in v.items():
            for x, comps in index[k]:
                row = acc.setdefault(x, {})
                for m, s in comps.items():
                    t = row.get(m)
                    row[m] = c * s if t is None else t.muladd(c, s)
        out = {}
        for x, row in acc.items():
            row = {m: s for m, s in row.items() if not s.is_zero()}
            if row:
                out[x] = row
        return out

    # -- axioms ----------------------------------------------------------

    def check_leibniz(self) -> LeibnizViolation | None:
        """First triple of basis vectors violating the left Leibniz identity,
        or None if the identity holds throughout.

        A term of the identity at (i, j, k) is nonzero only through a
        nonzero product, so each term is summed over the table: for every
        product (a, b) and basis index x, [e_x, [e_a, e_b]] is the left
        side at (x, a, b) and the last term at (a, x, b), and
        [[e_a, e_b], e_x] the middle term at (a, b, x).  The index of the
        table by consumed component gives all n of either kind at once,
        so that is 2 passes per product in place of 3n^3 brackets over
        all triples.  The terms, the right side's negated, are summed per
        triple in the order lhs, r1, r2, so each defect entry has the
        scalar kind of lhs - r1 - r2; the least triple whose sum is not
        zero is the violation.
        """
        lhs, r1, r2 = [], [], []  # (triple, m, coefficient), right negated
        for (a, b), comps in self.table.items():
            for x, outer in self._unit_products(comps, True).items():
                lhs += [((x, a, b), m, s) for m, s in outer.items()]
                r2 += [((a, x, b), m, -s) for m, s in outer.items()]
            for x, inner in self._unit_products(comps, False).items():
                r1 += [((a, b, x), m, -s) for m, s in inner.items()]
        defects = _sum_rows(lhs + r1 + r2)
        bad = min((t for t, row in defects.items() if row), default=None)
        if bad is None:
            return None
        return LeibnizViolation(*bad, _dense(defects[bad], self.n))

    def is_lie(self) -> bool:
        # in characteristic 0, antisymmetry is equivalent to vanishing
        # squares, that is to Leib(A) = 0
        return self.leib_ideal().dim == 0

    # -- derived structure -------------------------------------------------

    def _once(self, key, compute):
        """The derived value `key`, computed by `compute` on first use."""
        derived = self._derived
        value = derived.get(key)
        if value is None:
            value = derived[key] = compute()
        return value

    def full_space(self) -> Subspace:
        return self._once("full", lambda: Subspace._span(
            self.n, [{i: ONE} for i in range(self.n)]))

    def subspace_product(self, u_space: Subspace, v_space: Subspace) -> Subspace:
        """Span of [u, v] over basis vectors of the two subspaces, read off
        the table's index: [A, V] in one pass per echelon row of V, else
        from the products [u, e_x] of u_space's rows, which give [U, A]
        as they stand and [u, v] as sum_x v_x [u, e_x]."""
        n = self.n
        if u_space.ambient != n or v_space.ambient != n:
            raise AmbientMismatch("subspace ambient differs from algebra dimension")
        if u_space.dim == n:
            return Subspace._span(n, [w for v in v_space.echelon for w in
                                      self._unit_products(v, True).values()])
        rights = self._right_products(u_space)
        if v_space.dim == n:
            return Subspace._span(n, [w for r in rights for w in r if w])
        return Subspace._span(n, [_combine(r, v) for r in rights
                                  for v in v_space.echelon])

    def _right_products(self, space: Subspace) -> list:
        """[[u, e_x] for x] per echelon row u of `space`, one pass each,
        kept per subspace; the entry holds it, so its id is not reused."""
        return self._once(("right", id(space)), lambda: (
            space, [self._with_units(u) for u in space.echelon]))[1]

    def lower_central_series(self) -> tuple[Subspace, ...]:
        """A^1 = A, A^{i+1} = [A, A^i]; stops at the first repeated term."""
        return self._once("lower_central", self._lower_central_series)

    def _lower_central_series(self):
        whole = self.full_space()

        def step(last):
            if last is whole:   # A^2 = [A, A] is spanned by the table's values
                return Subspace._span(self.n, list(self.table.values()))
            return self.subspace_product(whole, last)
        return self._series([whole], step)

    def derived_series(self) -> tuple[Subspace, ...]:
        return self._once("derived", self._derived_series)

    def _derived_series(self):
        # A^(2) = [A, A] is A^2, which the lower central series already holds
        return self._series(list(self.lower_central_series()[:2]),
                            lambda last: self.subspace_product(last, last))

    @staticmethod
    def _series(series, step):
        """Extend `series` by step(last) until a term is 0 or repeats."""
        while series[-1].dim != 0:
            nxt = step(series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return tuple(series)

    def lower_central_term(self, k: int) -> Subspace:
        """A^k (k >= 1); the series is constant past its last listed term."""
        series = self.lower_central_series()
        return series[min(k, len(series)) - 1]

    def lower_central_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.lower_central_series())

    def derived_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.derived_series())

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def leib_ideal(self) -> Subspace:
        """span{[a, a]}: the squares of e_i and of e_i + e_j."""
        return self._once("leib", self._leib_ideal)

    def _leib_ideal(self):
        # the square of e_i + e_j adds the polarised square [e_i, e_j] +
        # [e_j, e_i] to those of e_i and e_j, so the squares [e_i, e_i]
        # and the polarised squares span Leib; both are sums of products
        return Subspace._span(self.n, _sum_rows(
            ((min(i, j), max(i, j)), k, s)
            for (i, j), comps in self.table.items()
            for k, s in comps.items()).values())

    @staticmethod
    def _solutions(terms, ncols) -> Subspace:
        """The kernel in F^ncols of the rows summed from `terms`, one row
        per linear condition."""
        return Subspace._span(ncols, _nullspace(_sum_rows(terms).values(),
                                                ncols))

    def left_annihilator(self) -> Subspace:
        """{x : [x, a] = 0 for all a}, the x whose [x, e_j] has no
        component k for each (j, k); contains the squares ideal."""
        return self._once("left_ann", lambda: self._solutions(
            [((j, k), i, s) for (i, j), comps in self.table.items()
             for k, s in comps.items()], self.n))

    def right_annihilator(self) -> Subspace:
        """{x : [a, x] = 0 for all a}: no [e_i, x] has a component k."""
        return self._once("right_ann", lambda: self._solutions(
            [((i, k), j, s) for (i, j), comps in self.table.items()
             for k, s in comps.items()], self.n))

    def center(self) -> Subspace:
        return self._once("center", self._center)

    def _center(self):
        # Z(A) = {x : [x, a] = [a, x] = 0 for all a}
        return self.left_annihilator().intersect(self.right_annihilator())

    def derivations(self) -> Subspace:
        """Der(A) in F^(n^2): the matrices D (D e_b = sum_a d[a][b] e_a,
        d[a][b] at coordinate a*n + b) with D[x, y] = [Dx, y] + [x, Dy].
        Its dimension is an isomorphism invariant outside `signature`."""
        return self._once("der", self._derivations)

    def _derivations(self):
        # the kernel of delta: coordinate k of D[e_i, e_j] - [De_i, e_j]
        # - [e_i, De_j] is 0 for each (i, j, k), linear in the entries of
        # D; each product c_ab^m feeds n entries of each of the three terms
        n = self.n
        terms = []
        for (a, b), comps in self.table.items():
            for m, s in comps.items():
                t = -s
                for x in range(n):
                    terms += (((a, b, x), x * n + m, s),
                              ((x, b, m), a * n + x, t),
                              ((a, x, m), b * n + x, t))
        return self._solutions(terms, n * n)

    # -- transport ---------------------------------------------------------

    def base_change(self, p_matrix: Matrix) -> "LeibnizAlgebra":
        """Structure constants in the basis x_j = sum_i P[i][j] e_i.

        P must be invertible with columns the new basis vectors expressed
        in the old basis.
        """
        n = self.n
        if p_matrix.nrows != n or p_matrix.ncols != n:
            raise AmbientMismatch("base change matrix has wrong shape")
        cols = [_support(col) for col in p_matrix.transpose().rows]
        inv_cols = [_support(col) for col in p_matrix.inv().transpose().rows]
        # the constructor drops the products that vanish
        return LeibnizAlgebra(n, {(a, b): _combine(inv_cols, w) for a, b, w
                                  in self._column_products(cols)})
