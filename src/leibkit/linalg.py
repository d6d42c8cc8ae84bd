"""Exact linear algebra over the scalar tower.

Everything here is written for small fixed dimension (ambient spaces of
dimension 5, matrices at most 10 x 10 or so) and exact scalars, so the
implementation favors clarity and determinism over asymptotics.  Every
row reduction (``rref``, ``inv``, every span and, through ``_nullspace``,
every kernel) goes through one incremental echelon, ``_echelon``, on
sparse rows {column: nonzero scalar}: it keeps the rows taken so far in
reduced row echelon form, which is unique, so reduced forms are canonical
for a given row space.  Every multiply-accumulate t + f*y of the kernel
is the scalar's one ``muladd(f, y)``, in four loops: eliminations,
combinations and dot products here, and the algebra's pass over its
table's index.  A subspace keeps its echelon's sparse rows, so
dense vectors appear only at the public edge (``Matrix``,
``Subspace(ambient, vectors)``, ``Subspace.basis``).  Q(i) entries and
entries of one quadratic extension may share a matrix or a subspace.

The public constructors ``Matrix(rows)`` and ``Subspace(ambient, vectors)``
put caller entries through ``scalars.promote``.  What the kernel builds
from its own scalars (the results of ``rref``, ``transpose``, ``@``,
``inv`` and ``identity``, and its subspaces) goes through ``Matrix._of``
and ``Subspace._of``, which trust their entries and skip the promotion.
``Subspace._of``, the one place rows become a subspace, also trusts them
to be reduced: ``_span`` is ``_of`` after ``_echelon``, and reduced rows
(unit rows, Zassenhaus rows, a kernel) are taken as they stand.
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
    requirement is field arithmetic through the usual operators plus
    is_zero(), is_one(), inv() and muladd(f, y) = self + f*y duck typing.
    int and Fraction entries are promoted to GaussianRational on
    construction.  Identity blocks and kernel vectors are built from ONE
    and ZERO.  A matrix with no rows may still have columns: the
    transpose of an n x 0 matrix is 0 x n.
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

    def rref(self):
        """Reduced row echelon form.

        Returns (matrix, rank, pivots) where pivots is the tuple of pivot
        column indices and the zero rows come last.  The RREF is unique,
        so the result is canonical for the row space.
        """
        done = _echelon(map(_support, self.rows))
        pivots = tuple(sorted(done))
        nc = self.ncols
        rows = [_dense(done[c], nc) for c in pivots]
        rows += [(ZERO,) * nc] * (self.nrows - len(rows))
        return Matrix._of(rows, nc), len(pivots), pivots

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


def _dot(u, v):
    it = iter(zip(u, v))
    first = next(it, None)
    if first is None:
        return ZERO
    a, b = first
    acc = a * b
    for a, b in it:
        acc = acc.muladd(a, b)
    return acc


def _support(vec) -> dict:
    """The sparse row {coordinate: nonzero scalar} of a dense vector."""
    return {i: x for i, x in enumerate(vec) if not x.is_zero()}


def _dense(row, n) -> tuple:
    return tuple(row.get(k, ZERO) for k in range(n))


def _combine(cols, coefs) -> dict:
    """sum_k coefs[k] cols[k] over sparse rows, in increasing index order."""
    acc = {}
    for k, c in coefs.items():
        for r, y in cols[k].items():
            acc[r] = acc[r].muladd(y, c) if r in acc else y * c
    return {r: acc[r] for r in sorted(acc) if not acc[r].is_zero()}


def _sub_multiple(row, f, pivot_row, pivot):
    """row -= f * pivot_row in place, outside pivot_row's pivot column."""
    if len(pivot_row) == 1:
        return      # the pivot alone: nothing to subtract, f not negated
    f = -f
    for c, y in pivot_row.items():
        if c != pivot:
            t = row.get(c)
            t = f * y if t is None else t.muladd(f, y)
            if t.is_zero():
                del row[c]
            else:
                row[c] = t


def _echelon(rows) -> dict:
    """The RREF of the span of sparse rows, as {pivot column: row}.

    Rows are taken one at a time.  A new row is reduced at the earlier
    pivots it touches, scaled at its first column (unless that entry is
    already 1) and that column is cleared from the earlier rows.  Each
    row keeps 1 at its pivot and 0 at every other pivot, so the result is
    the unique RREF.  Pivots hold ONE, and zeros are dropped, so in any
    field a pivot or a zero entry made dense is Q(i)'s ONE or ZERO.
    """
    done = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in done]:
            _sub_multiple(row, row.pop(c), done[c], c)
        if not row:
            continue
        lead = min(row)
        x = row[lead]
        if not x.is_one():
            inv = x.inv()
            row = {c: inv * y for c, y in row.items()}
        row[lead] = ONE
        for other in done.values():
            if lead in other:
                _sub_multiple(other, other.pop(lead), row, lead)
        done[lead] = row
    return done


def _nullspace(rows, ncols) -> list:
    """The right kernel of sparse rows of length ncols: one sparse row per
    free column of their echelon, in increasing order, holding 1 there and
    at each pivot the negated entry of that pivot's row in the column."""
    done = _echelon(rows)
    return [{fc: ONE, **{p: -row[fc] for p, row in done.items() if fc in row}}
            for fc in range(ncols) if fc not in done]


class Subspace:
    """Subspace of F^n held as the RREF of a spanning set (zero rows dropped).

    ``echelon`` is ``_echelon``'s tuple of sparse rows, in pivot order, and
    ``basis`` makes them dense.  ``_of``, the one constructor, trusts its
    {pivot: row} to be an RREF: 1 at each pivot, 0 at the other pivots.
    The rows are shared, not copied (safe only because ``_echelon`` copies
    every row it takes): nothing may mutate them.  Two Subspace objects
    are equal iff they are literally the same subspace; the canonical RREF
    makes that a comparison of rows.
    """

    __slots__ = ("ambient", "echelon")

    def __new__(cls, ambient: int, vectors):
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise AmbientMismatch("vector length differs from ambient dimension")
        return cls._span(ambient, [_support(map(promote, v)) for v in vectors])

    @classmethod
    def _of(cls, ambient, done):
        """The subspace of F^ambient whose RREF is `done`, as it stands."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "echelon", tuple(map(done.get, sorted(done))))
        return sub

    @classmethod
    def _span(cls, ambient, rows):
        """The span of sparse rows the kernel built; trusted, not promoted."""
        return cls._of(ambient, _echelon(rows))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def basis(self):
        """The RREF rows as dense tuples, in pivot order."""
        return tuple(_dense(row, self.ambient) for row in self.echelon)

    @property
    def dim(self):
        return len(self.echelon)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.echelon == other.echelon

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F^{self.ambient})"

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        return Subspace._span(self.ambient, self.echelon + other.echelon)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise AmbientMismatch("ambient dimensions differ")
        # Zassenhaus: the echelon of the rows (u | u) and (v | 0) holds
        # U + V at pivots left of n and U cap V in its rows right of them
        n = self.ambient
        done = _echelon([{**u, **{n + k: x for k, x in u.items()}}
                         for u in self.echelon] + list(other.echelon))
        return Subspace._of(n, {p - n: {k - n: x for k, x in row.items()}
                                for p, row in done.items() if p >= n})
