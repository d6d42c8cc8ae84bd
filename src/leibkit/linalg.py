"""Exact dense linear algebra over the scalar tower.

Everything here is written for small fixed dimension (ambient spaces of
dimension 5, matrices at most 10 x 10 or so) and exact scalars, so the
implementation favors clarity and determinism over asymptotics.  Row
echelon uses the first nonzero entry in column order as pivot, which makes
reduced forms canonical for a given row space.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational


class AmbientMismatch(ValueError):
    """Two subspaces (or a matrix and a vector) disagree on ambient dimension."""


class SingularMatrix(ArithmeticError):
    """Inversion was requested for a matrix without full rank."""


def _coerce_scalar(x):
    # the exact type test first: isinstance against Fraction goes through
    # the numbers ABCs, and nearly every scalar here is already in Q(i)
    if type(x) is GaussianRational:
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return x


class Matrix:
    """Immutable dense matrix; rows is a tuple of tuples of scalars.

    Scalars may be GaussianRational, QuadExtElem or PrimeFieldElem; the
    only requirement is field arithmetic plus is_zero()/inv() duck typing
    through the usual operators.  int and Fraction entries are promoted to
    GaussianRational on construction.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(_coerce_scalar(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n, one=None):
        one = one if one is not None else GaussianRational(1)
        zero = one - one
        return Matrix([[one if r == c else zero for c in range(n)] for r in range(n)])

    @staticmethod
    def zero(nrows, ncols, zero=None):
        z = zero if zero is not None else GaussianRational(0)
        return Matrix([[z] * ncols for _ in range(nrows)])

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise AmbientMismatch("matrix shapes differ")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise AmbientMismatch("matrix shapes differ")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-a for a in row] for row in self.rows])

    def scale(self, c):
        c = _coerce_scalar(c)
        return Matrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise AmbientMismatch("inner dimensions differ")
            ot = other.transpose().rows
            return Matrix([[_dot(row, col) for col in ot] for row in self.rows])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.__matmul__(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self):
        return Matrix([[self.rows[r][c] for r in range(self.nrows)]
                       for c in range(self.ncols)])

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of scalars."""
        vec = [_coerce_scalar(x) for x in vec]
        if len(vec) != self.ncols:
            raise AmbientMismatch("vector length differs from column count")
        return tuple(_dot(row, vec) for row in self.rows)

    def rref(self):
        """Reduced row echelon form.

        Returns (matrix, rank, pivots) where pivots is the tuple of pivot
        column indices.  Pivot choice is the first row with a nonzero entry
        in the current column, so the result is canonical for the row space.
        """
        rows = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        rank = 0
        for col in range(nc):
            pivot_row = None
            for r in range(rank, nr):
                if not rows[r][col].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            inv = rows[rank][col].inv()
            rows[rank] = [inv * x for x in rows[rank]]
            for r in range(nr):
                if r != rank and not rows[r][col].is_zero():
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            pivots.append(col)
            rank += 1
        return Matrix(rows), rank, tuple(pivots)

    def rank(self):
        return self.rref()[1]

    def inv(self):
        if self.nrows != self.ncols:
            raise SingularMatrix("not square")
        n = self.nrows
        one = _find_one(self)
        zero = one - one
        aug = Matrix([list(self.rows[r]) + [one if c == r else zero for c in range(n)]
                      for r in range(n)])
        red, _, pivots = aug.rref()
        # [A|I] always has rank n; A is invertible iff no pivot spills into
        # the identity block
        if pivots[:n] != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix([row[n:] for row in red.rows])

    def nullspace(self):
        """Basis of the right kernel as a tuple of vectors (tuples).

        Basis vectors carry 1 in their free coordinate and are produced in
        increasing free-column order, so the result is canonical.
        """
        red, rank, pivots = self.rref()
        nc = self.ncols
        one = _find_one(self)
        zero = one - one
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            vec = [zero] * nc
            vec[fc] = one
            for i, pc in enumerate(pivots):
                vec[pc] = -red.rows[i][fc]
            basis.append(tuple(vec))
        return tuple(basis)


def _dot(u, v):
    it = iter(zip(u, v))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def one_like(x):
    """Multiplicative identity of the field an entry lives in (works on zero)."""
    field = getattr(x, "field", None)
    if field is not None:
        return field.one
    return GaussianRational(1)


def _find_one(m: Matrix):
    for row in m.rows:
        for x in row:
            return one_like(x)
    return GaussianRational(1)


class Subspace:
    """Subspace of F^n held as the RREF of a spanning set (zero rows dropped).

    Two Subspace objects are equal iff they are literally the same subspace;
    the canonical RREF basis makes that a tuple comparison.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors):
        rows = [tuple(_coerce_scalar(x) for x in v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise AmbientMismatch("vector length differs from ambient dimension")
        if rows:
            red, rank, _ = Matrix(rows).rref()
            basis = tuple(red.rows[:rank])
        else:
            basis = ()
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F^{self.ambient})"

    def contains(self, vec) -> bool:
        vec = tuple(_coerce_scalar(x) for x in vec)
        if len(vec) != self.ambient:
            raise AmbientMismatch("vector length differs from ambient dimension")
        if all(x.is_zero() for x in vec):
            return True
        if not self.basis:
            return False
        stacked = Matrix(list(self.basis) + [list(vec)])
        return stacked.rank() == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        return all(self.contains(v) for v in other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        if not self.basis or not other.basis:
            return Subspace(self.ambient, [])
        # solve c*U = d*V: kernel of [U^T | -V^T]
        u = Matrix(self.basis).transpose()
        v = Matrix(other.basis).transpose()
        cols = [list(row) + [-x for x in vrow]
                for row, vrow in zip(u.rows, v.rows)]
        kernel = Matrix(cols).nullspace()
        k = self.dim
        vecs = []
        for sol in kernel:
            coeffs = sol[:k]
            vec = [_dot(coeffs, [b[j] for b in self.basis])
                   for j in range(self.ambient)]
            vecs.append(vec)
        return Subspace(self.ambient, vecs)
