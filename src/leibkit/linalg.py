"""Exact dense linear algebra over the scalar tower.

Everything here is written for small fixed dimension (ambient spaces of
dimension 5, matrices at most 10 x 10 or so) and exact scalars, so the
implementation favors clarity and determinism over asymptotics.  Row
echelon uses the first nonzero entry in column order as pivot, which makes
reduced forms canonical for a given row space.  Q(i) entries and entries
of one quadratic extension may share a matrix or a subspace.

The public constructors ``Matrix(rows)`` and ``Subspace(ambient, vectors)``
put caller entries through ``scalars.promote``; ``Matrix.apply`` leaves
its vector to the scalar operators, which promote an int or Fraction
operand themselves.  What the kernel builds from its own scalars (the
results of ``rref``, ``transpose``, ``@``, ``inv`` and ``identity``, and
the spans of kernel vectors) goes through ``Matrix._of`` and
``Subspace._span``, which trust their entries and skip the promotion.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, promote


class AmbientMismatch(ValueError):
    """Two subspaces (or a matrix and a vector) disagree on ambient dimension."""


class SingularMatrix(ArithmeticError):
    """Inversion was requested for a matrix without full rank."""


class Matrix:
    """Immutable dense matrix; rows is a tuple of tuples of scalars.

    Entries may be GaussianRational or QuadExtElem, and one matrix may
    hold both: the two kinds mix in arithmetic and in equality.  The only
    requirement is field arithmetic plus is_zero()/inv() duck typing
    through the usual operators.  int and Fraction entries are promoted
    to GaussianRational on construction.  Identity blocks and kernel
    vectors are built from ONE and ZERO.  A matrix with no rows may still
    have columns: the transpose of an n x 0 matrix is 0 x n.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(map(promote, row)) for row in rows)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
        self._set(rows, width)

    @classmethod
    def _of(cls, rows, ncols):
        """A matrix on rows of field scalars the kernel built, each of
        length ncols; entries are trusted, not promoted."""
        m = object.__new__(cls)
        m._set(tuple(map(tuple, rows)), ncols)
        return m

    def _set(self, rows, ncols):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n):
        return Matrix._of([[ONE if r == c else ZERO for c in range(n)]
                           for r in range(n)], n)

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(repr(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise AmbientMismatch("inner dimensions differ")
            ot = other.transpose().rows
            return Matrix._of([[_dot(row, col) for col in ot]
                               for row in self.rows], other.ncols)
        return NotImplemented

    def transpose(self):
        if not self.rows:
            return Matrix._of([()] * self.ncols, 0)
        return Matrix._of(zip(*self.rows), self.nrows)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of scalars."""
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
        return Matrix._of(rows, nc), rank, tuple(pivots)

    def inv(self):
        if self.nrows != self.ncols:
            raise SingularMatrix("not square")
        n = self.nrows
        aug = Matrix._of([self.rows[r] + tuple(ONE if c == r else ZERO
                                               for c in range(n))
                          for r in range(n)], 2 * n)
        red, _, pivots = aug.rref()
        # [A|I] always has rank n; A is invertible iff no pivot spills into
        # the identity block
        if pivots[:n] != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix._of([row[n:] for row in red.rows], n)

    def nullspace(self):
        """Basis of the right kernel as a tuple of vectors (tuples).

        Basis vectors carry 1 in their free coordinate and are produced in
        increasing free-column order, so the result is canonical.
        """
        red, rank, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            vec = [ZERO] * nc
            vec[fc] = ONE
            for i, pc in enumerate(pivots):
                vec[pc] = -red.rows[i][fc]
            basis.append(tuple(vec))
        return tuple(basis)


def _dot(u, v):
    it = iter(zip(u, v))
    first = next(it, None)
    if first is None:
        return ZERO
    a, b = first
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


class Subspace:
    """Subspace of F^n held as the RREF of a spanning set (zero rows dropped).

    Two Subspace objects are equal iff they are literally the same subspace;
    the canonical RREF basis makes that a tuple comparison.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors):
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise AmbientMismatch("vector length differs from ambient dimension")
        self._reduce(ambient, Matrix(vectors))  # Matrix promotes the entries

    @classmethod
    def _span(cls, ambient, vectors):
        """The span of vectors of field scalars the kernel built, each of
        length ambient; entries are trusted, not promoted."""
        space = object.__new__(cls)
        space._reduce(ambient, Matrix._of(vectors, ambient))
        return space

    def _reduce(self, ambient, spanning):
        basis = ()
        if spanning.nrows:
            red, rank, _ = spanning.rref()
            basis = red.rows[:rank]
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

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace._span(self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        if not self.basis or not other.basis:
            return Subspace(self.ambient, [])
        # solve c*U = d*V: kernel of [U^T | -V^T]
        cols = [urow + tuple(-x for x in vrow)
                for urow, vrow in zip(zip(*self.basis), zip(*other.basis))]
        kernel = Matrix._of(cols, self.dim + other.dim).nullspace()
        k = self.dim
        vecs = []
        for sol in kernel:
            coeffs = sol[:k]
            vec = [_dot(coeffs, [b[j] for b in self.basis])
                   for j in range(self.ambient)]
            vecs.append(vec)
        return Subspace._span(self.ambient, vecs)
