"""Finite-dimensional left Leibniz algebras over exact scalar fields.

An algebra is stored by its structure constants in a fixed basis e_1..e_n,
kept sparse: table[(i, j)] is the nonzero support of [e_i, e_j] as a map
from basis index to scalar.  All indices are 0-based internally.

The defining identity is the left Leibniz identity

    [a, [b, c]] = [[a, b], c] + [b, [a, c]]

which for a=b forces [[a, a], c] = 0: squares annihilate from the left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import AmbientMismatch, Matrix, Subspace, one_like
from .scalars import GaussianRational, PrimeField, reduce_mod_p


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


def _clean_table(table, zero_test=lambda s: s.is_zero()):
    out = {}
    for (i, j), comps in table.items():
        row = {k: s for k, s in comps.items() if not zero_test(s)}
        if row:
            out[(i, j)] = row
    return out


class LeibnizAlgebra:
    """Left Leibniz algebra given by sparse structure constants.

    Scalars may live in Q(i), a quadratic extension, or GF(p); the `one`
    attribute pins the field when the table alone cannot (e.g. the abelian
    algebra).  Instances are treated as immutable, so each derived subspace
    (series, Leib, annihilators, center) is computed on first use and kept
    on the instance.
    """

    __slots__ = ("n", "table", "one", "zero", "_derived")

    def __init__(self, n: int, table: dict, one=None):
        one = one if one is not None else GaussianRational(1)
        table = _clean_table(table)
        for (i, j), comps in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"bracket index ({i},{j}) outside basis")
            for k in comps:
                if not 0 <= k < n:
                    raise IndexError(f"component index {k} outside basis")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "zero", one - one)
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
        """Bilinear extension of the bracket to coordinate vectors."""
        if len(u) != self.n or len(v) != self.n:
            raise AmbientMismatch("vector length differs from algebra dimension")
        acc = {}
        for (i, j), comps in self.table.items():
            c = u[i] * v[j]
            if c.is_zero():
                continue
            for k, s in comps.items():
                t = acc.get(k)
                acc[k] = c * s if t is None else t + c * s
        return tuple(acc.get(k, self.zero) for k in range(self.n))

    def _bracket_sparse(self, u: dict, v: dict) -> dict:
        acc = {}
        for i, a in u.items():
            for j, b in v.items():
                comps = self.table.get((i, j))
                if comps is None:
                    continue
                c = a * b
                for k, s in comps.items():
                    t = acc.get(k)
                    acc[k] = c * s if t is None else t + c * s
        return {k: s for k, s in acc.items() if not s.is_zero()}

    # -- axioms ----------------------------------------------------------

    def check_leibniz(self) -> LeibnizViolation | None:
        """First triple of basis vectors violating the left Leibniz identity,
        or None if the identity holds throughout."""
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self._bracket_sparse({i: self.one},
                                               self.bracket_basis(j, k))
                    r1 = self._bracket_sparse(self.bracket_basis(i, j),
                                              {k: self.one})
                    r2 = self._bracket_sparse({j: self.one},
                                              self.bracket_basis(i, k))
                    defect = dict(lhs)
                    for term in (r1, r2):
                        for m, s in term.items():
                            t = defect.get(m, self.zero) - s
                            if t.is_zero():
                                defect.pop(m, None)
                            else:
                                defect[m] = t
                    if defect:
                        vec = tuple(defect.get(m, self.zero) for m in range(n))
                        return LeibnizViolation(i, j, k, vec)
        return None

    def is_antisymmetric(self) -> bool:
        for (i, j), comps in self.table.items():
            other = self.table.get((j, i), {})
            if set(comps) != set(other):
                return False
            for k, s in comps.items():
                if not (s + other[k]).is_zero():
                    return False
        return True

    def is_lie(self) -> bool:
        # char 0 / odd char: antisymmetry is equivalent to vanishing squares
        return self.is_antisymmetric()

    # -- derived structure -------------------------------------------------

    def _once(self, key, compute):
        """The derived value `key`, computed by `compute` on first use."""
        derived = self._derived
        value = derived.get(key)
        if value is None:
            value = derived[key] = compute()
        return value

    def _basis_vec(self, i):
        return tuple(self.one if k == i else self.zero for k in range(self.n))

    def full_space(self) -> Subspace:
        return self._once("full", lambda: Subspace(
            self.n, [self._basis_vec(i) for i in range(self.n)]))

    def subspace_product(self, u_space: Subspace, v_space: Subspace) -> Subspace:
        """Span of [u, v] over basis vectors of the two subspaces."""
        vecs = [self.bracket(u, v) for u in u_space.basis for v in v_space.basis]
        return Subspace(self.n, vecs)

    def lower_central_series(self) -> tuple[Subspace, ...]:
        """A^1 = A, A^{i+1} = [A, A^i]; stops at the first repeated term."""
        return self._once("lower_central", self._lower_central_series)

    def _lower_central_series(self):
        whole = self.full_space()
        return self._series(lambda last: self.subspace_product(whole, last))

    def derived_series(self) -> tuple[Subspace, ...]:
        return self._once("derived", self._derived_series)

    def _derived_series(self):
        return self._series(lambda last: self.subspace_product(last, last))

    def _series(self, step):
        series = [self.full_space()]
        while True:
            nxt = step(series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
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
        """span{[a, a]}: squares of basis vectors plus polarizations."""
        return self._once("leib", self._leib_ideal)

    def _leib_ideal(self):
        vecs = []
        for i in range(self.n):
            e_i = self._basis_vec(i)
            vecs.append(self.bracket(e_i, e_i))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                lhs = self.bracket_basis(i, j)
                rhs = self.bracket_basis(j, i)
                comp = {}
                for k, s in lhs.items():
                    comp[k] = s
                for k, s in rhs.items():
                    comp[k] = comp.get(k, self.zero) + s
                vecs.append(tuple(comp.get(k, self.zero) for k in range(self.n)))
        return Subspace(self.n, vecs)

    def _annihilator(self, side: str) -> Subspace:
        # rows: one linear constraint per (probe basis vector j, component k)
        rows = []
        n = self.n
        for j in range(n):
            comp_rows = {}
            for i in range(n):
                pair = (i, j) if side == "left" else (j, i)
                for k, s in self.table.get(pair, {}).items():
                    comp_rows.setdefault(k, [self.zero] * n)[i] = s
            rows.extend(comp_rows.values())
        if not rows:
            return self.full_space()
        kernel = Matrix(rows).nullspace()
        return Subspace(n, kernel)

    def left_annihilator(self) -> Subspace:
        """{x : [x, a] = 0 for all a}; contains the squares ideal."""
        return self._once("left", lambda: self._annihilator("left"))

    def right_annihilator(self) -> Subspace:
        """{x : [a, x] = 0 for all a}."""
        return self._once("right", lambda: self._annihilator("right"))

    def center(self) -> Subspace:
        return self._once("center", self._center)

    def _center(self):
        return self.left_annihilator().intersect(self.right_annihilator())

    # -- transport ---------------------------------------------------------

    def base_change(self, p_matrix: Matrix) -> "LeibnizAlgebra":
        """Structure constants in the basis x_j = sum_i P[i][j] e_i.

        P must be invertible with columns the new basis vectors expressed
        in the old basis.
        """
        n = self.n
        if p_matrix.nrows != n or p_matrix.ncols != n:
            raise AmbientMismatch("base change matrix has wrong shape")
        p_inv = p_matrix.inv()
        cols = [tuple(p_matrix.rows[i][j] for i in range(n)) for j in range(n)]
        table = {}
        for a in range(n):
            for b in range(n):
                w = self.bracket(cols[a], cols[b])
                new = p_inv.apply(w)
                comps = {k: s for k, s in enumerate(new) if not s.is_zero()}
                if comps:
                    table[(a, b)] = comps
        return LeibnizAlgebra(n, table, one=one_like(p_matrix.rows[0][0]) if n else self.one)

    def map_scalars(self, fn, one) -> "LeibnizAlgebra":
        table = {}
        for (i, j), comps in self.table.items():
            row = {k: fn(s) for k, s in comps.items()}
            table[(i, j)] = row
        return LeibnizAlgebra(self.n, table, one=one)

    def reduce_mod(self, field: PrimeField) -> "LeibnizAlgebra":
        """Reduce all structure constants mod p (raises DenominatorDividesP
        when a denominator vanishes mod p)."""
        return self.map_scalars(lambda s: reduce_mod_p(s, field), field.one)
