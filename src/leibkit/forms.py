"""Bilinear form on a complement of the derived subalgebra, and congruence
canonicalization of 2x2 forms.

For a nilpotent non-Lie algebra with dim A^2 = n-2 and dim Leib(A) = 1,
pick e_n spanning Leib(A), extend to a basis of A^2, and a complement
V = span{v1, v2}.  Products of V-vectors stay in A^2; the coefficient of
e_n defines a bilinear form f on V.  Under congruence every 2x2 form is
equivalent to exactly one of

    (i)   [[0,1],[-1,0]]       (pure skew)
    (ii)  [[1,0],[0,0]]        (symmetric, rank 1)
    (iii) [[1,0],[0,1]]        (symmetric, rank 2)
    (iv)  [[0,1],[-1,1]]       (mixed, degenerate symmetric part)
    (v)   [[0,1],[c,0]]        (mixed, c determined up to c <-> 1/c, c != 1, -1)

plus the zero form.  The classification hangs on two facts: congruence
scales the skew part K = kappa*[[0,1],[-1,0]] by det(Q), and in the mixed
case det(S)/kappa^2 is a full congruence invariant (0 exactly for (iv),
and -(1+c)^2/(1-c)^2 for (v)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LeibnizAlgebra
from .linalg import Matrix
from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    QuadExtElem,
    QuadExtField,
    gaussian_sqrt,
    quadext_sqrt,
)


class HypothesisViolation(ValueError):
    """The algebra does not satisfy the dimension hypotheses of the setup."""


class ExtensionTowerNeeded(ArithmeticError):
    """An exact witness would need a second quadratic extension; the scalar
    tower stops at one, so canonicalization reports instead of guessing."""


_HALF = GaussianRational(1) / 2


@dataclass(frozen=True)
class BilinearForm2:
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.nrows != 2 or self.matrix.ncols != 2:
            raise ValueError("form matrix must be 2x2")

    def symmetric_part(self) -> Matrix:
        m = self.matrix
        half_sum = (m[0, 1] + m[1, 0]) * _HALF
        return Matrix([[m[0, 0], half_sum], [half_sum, m[1, 1]]])

    def skew_scale(self):
        """kappa with skew part kappa*[[0,1],[-1,0]]."""
        m = self.matrix
        return (m[0, 1] - m[1, 0]) * _HALF

    def is_zero(self) -> bool:
        m = self.matrix
        return all(m[a, b].is_zero() for a in range(2) for b in range(2))


@dataclass(frozen=True)
class CanonicalKind:
    """One of the congruence classes; `c` is set only for tag "mixed_v"."""

    tag: str
    c: object = None

    LABELS = {"zero": "zero", "skew_i": "(i)", "sym_rank1_ii": "(ii)",
              "sym_rank2_iii": "(iii)", "mixed_iv": "(iv)", "mixed_v": "(v)"}

    def __post_init__(self):
        if self.tag not in self.LABELS:
            raise ValueError(f"unknown kind tag {self.tag!r}")
        if self.tag == "mixed_v":
            if self.c is None or self.c == 1 or self.c == -1:
                raise ValueError("mixed_v needs c outside {1, -1}")
        elif self.c is not None:
            raise ValueError(f"kind {self.tag} carries no parameter")

    def rep_matrix(self) -> Matrix:
        if self.tag == "zero":
            return Matrix([[0, 0], [0, 0]])
        if self.tag == "skew_i":
            return Matrix([[0, 1], [-1, 0]])
        if self.tag == "sym_rank1_ii":
            return Matrix([[1, 0], [0, 0]])
        if self.tag == "sym_rank2_iii":
            return Matrix([[1, 0], [0, 1]])
        if self.tag == "mixed_iv":
            return Matrix([[0, 1], [-1, 1]])
        return Matrix([[0, 1], [self.c, 0]])

    @property
    def label(self) -> str:
        """The kind's name in the classification, (i) to (v), or zero."""
        return self.LABELS[self.tag]

    def __str__(self):
        label = self.label
        if self.tag == "mixed_v":
            label += f" c={self.c!r}"
        return label


@dataclass(frozen=True)
class CanonicalResult:
    kind: CanonicalKind
    q: Matrix
    extension_d: object = None  # generator of the QuadExt Q lives in, if any


def _sqrt_in_field(x):
    if isinstance(x, GaussianRational):
        return gaussian_sqrt(x)
    if isinstance(x, QuadExtElem):
        return quadext_sqrt(x)
    raise TypeError(f"no square-root rule for {type(x).__name__}")


def _sqrt_allowing_extension(x):
    """(root, extension generator or None); raises ExtensionTowerNeeded when
    x already lives in an extension and has no root there."""
    r = _sqrt_in_field(x)
    if r is not None:
        return r, None
    if isinstance(x, GaussianRational):
        fld = QuadExtField(x)
        return fld.sqrt_d, x
    raise ExtensionTowerNeeded(f"sqrt of {x!r} leaves its quadratic extension")


def _form_value(s: Matrix, u, v):
    return (u[0] * s[0, 0] + u[1] * s[1, 0]) * v[0] + (u[0] * s[0, 1] + u[1] * s[1, 1]) * v[1]


def _diagonalize_candidates(s: Matrix):
    """Yield (u, v', a0, b0) with [u v'] diagonalizing s to diag(a0, b0),
    one per choice of u in a fixed order; there is a first when s != 0.
    Every [u v'] has determinant +-1, so a0*b0 = det s for each of them."""
    basis_pairs = (((ONE, ZERO), (ZERO, ONE)),
                   ((ZERO, ONE), (ONE, ZERO)),
                   ((ONE, ONE), (ZERO, ONE)))
    for u, v in basis_pairs:
        a0 = _form_value(s, u, u)
        if a0.is_zero():
            continue
        t = _form_value(s, u, v) * a0.inv()
        v_prime = (v[0] - t * u[0], v[1] - t * u[1])
        b0 = _form_value(s, v_prime, v_prime)
        yield u, v_prime, a0, b0


def congruence_canonical(form: BilinearForm2) -> CanonicalResult:
    """Canonical congruence class of a 2x2 form with an exact witness Q.

    Q^T M Q equals the representative matrix exactly.  Q has entries in
    Q(i) or in a single quadratic extension (extension_d records the
    generator); two stacked extensions raise ExtensionTowerNeeded.

    Every witness starts from the first diagonalization [u v'] of the
    symmetric part S.  As a0*b0 = det S, b0 = 0 there exactly when S has
    rank 1, which separates kinds (ii) and (iv) from (iii) and (v).
    """
    m = form.matrix
    if form.is_zero():
        return CanonicalResult(CanonicalKind("zero"), Matrix.identity(2))
    s = form.symmetric_part()
    kappa = form.skew_scale()

    if all(s[a, b].is_zero() for a in range(2) for b in range(2)):
        # Q^T (kappa J) Q = kappa det(Q) J; fix the determinant
        q = Matrix([[kappa.inv(), 0], [0, 1]])
        result = CanonicalResult(CanonicalKind("skew_i"), q)
    else:
        candidates = _diagonalize_candidates(s)
        u, v_prime, a0, b0 = first = next(candidates)
        if b0.is_zero():
            result = _canonical_rank_one(u, v_prime, a0, kappa)
        elif kappa.is_zero():
            result = _canonical_sym_rank2([first, *candidates])
        else:
            result = _canonical_mixed_v([first, *candidates], kappa)

    if result.q.transpose() @ m @ result.q != result.kind.rep_matrix():
        raise AssertionError("internal error: witness fails to reproduce the "
                             "canonical representative")
    return result


def _canonical_rank_one(u, v_prime, a0, kappa) -> CanonicalResult:
    """Kinds (ii) and (iv), S of rank 1: v' spans its kernel, and
    q1 = u/sqrt(a0) has S(q1, q1) = 1.  [q1 v'] takes S to diag(1, 0);
    Q = [nu*v' q1] takes S + kappa*J to [[0, 1], [-1, 1]] once nu makes
    kappa*det(Q) = 1."""
    r, ext = _sqrt_allowing_extension(a0)
    inv_r = r.inv()
    q1 = (u[0] * inv_r, u[1] * inv_r)
    if kappa.is_zero():
        q = Matrix([[q1[0], v_prime[0]], [q1[1], v_prime[1]]])
        return CanonicalResult(CanonicalKind("sym_rank1_ii"), q, ext)
    nu = (kappa * (v_prime[0] * q1[1] - v_prime[1] * q1[0])).inv()
    q = Matrix([[nu * v_prime[0], q1[0]], [nu * v_prime[1], q1[1]]])
    return CanonicalResult(CanonicalKind("mixed_iv"), q, ext)


def _canonical_sym_rank2(candidates) -> CanonicalResult:
    # prefer a diagonalization whose a0 and b0 both have roots in the field
    for u, v_prime, a0, b0 in candidates:
        ra = _sqrt_in_field(a0)
        rb = _sqrt_in_field(b0)
        if ra is not None and rb is not None:
            q = Matrix([[u[0] * ra.inv(), v_prime[0] * rb.inv()],
                        [u[1] * ra.inv(), v_prime[1] * rb.inv()]])
            return CanonicalResult(CanonicalKind("sym_rank2_iii"), q)
    # a0*b0 = det S on every candidate, so its root lies in the field for
    # all or for none: rescale the first to a0*I, then use a sum-of-two-
    # squares rotation, adjoining sqrt(det S) only when it must
    u, v_prime, a0, b0 = candidates[0]
    root, ext = _sqrt_allowing_extension(a0 * b0)
    q = _isotropic_rescale(u, v_prime, a0, a0 * root.inv())
    return CanonicalResult(CanonicalKind("sym_rank2_iii"), q, ext)


def _isotropic_rescale(u, v_prime, a0, scale2):
    """Q = [u v']*diag(1, scale2)*R2 with R2 a rotation by a two-squares
    solution of x^2 + y^2 = 1/a0; maps diag(a0, b0) to the identity when
    scale2^2 * b0 = a0."""
    inv_a = a0.inv()
    x = (1 + inv_a) * _HALF
    y = (1 - inv_a) * _HALF * GaussianRational(0, -1)  # divide by 2i
    p1 = Matrix([[u[0], v_prime[0] * scale2], [u[1], v_prime[1] * scale2]])
    r2 = Matrix([[x, -y], [y, x]])
    return p1 @ r2


def _canonical_mixed_v(candidates, kappa) -> CanonicalResult:
    """Kind (v): -det S / kappa^2 = ((1+c)/(1-c))^2 fixes c up to c <-> 1/c,
    and the canonical c is the lex-smaller of the two.  A witness for
    either one whose root rho1 lies in the working field is swapped down
    to the canonical c; failing that, the first candidate adjoins it."""
    _, _, a0, b0 = candidates[0]
    root, ext = _sqrt_allowing_extension(-(a0 * b0) * (kappa * kappa).inv())
    cs = sorted(((sg - 1) / (sg + 1) for sg in (root, -root)
                 if not (sg + 1).is_zero()), key=lambda c: c.lex_key())
    c_min = cs[0]
    for c in cs:
        for u, v_prime, a0, _ in candidates:
            r1 = _sqrt_in_field((1 + c) * _HALF * (2 * a0).inv())
            if r1 is not None:
                q = _mixed_v_witness(u, v_prime, kappa, c, r1)
                if c != c_min:
                    q = q @ Matrix([[0, 1], [c.inv(), 0]])
                return CanonicalResult(CanonicalKind("mixed_v", c_min), q, ext)
    # no root in the field; adjoining one raises if c_min already needed one
    u, v_prime, a0, _ = candidates[0]
    r1, ext = _sqrt_allowing_extension((1 + c_min) * _HALF * (2 * a0).inv())
    q = _mixed_v_witness(u, v_prime, kappa, c_min, r1)
    return CanonicalResult(CanonicalKind("mixed_v", c_min), q, ext)


def _mixed_v_witness(u, v_prime, kappa, c, r1) -> Matrix:
    """Q = [r1*u r2*v'] [[1, 1], [1, -1]] with Q^T(S + kappa J)Q equal to
    [[0, 1], [c, 0]], for r1^2 = (1+c)/(4*a0).

    det Q = -2*r1*r2*det[u v'], and the skew part needs
    det(Q)*kappa = (1-c)/2; that fixes r2, sign included.  With it the
    symmetric part comes out as (1+c)/2 * [[0, 1], [1, 0]] because
    det S / kappa^2 = -(1+c)^2/(1-c)^2.
    """
    det_p1 = u[0] * v_prime[1] - u[1] * v_prime[0]
    r2 = (c - 1) * (4 * det_p1 * kappa).inv() * r1.inv()
    p1r = Matrix([[u[0] * r1, v_prime[0] * r2],
                  [u[1] * r1, v_prime[1] * r2]])
    return p1r @ Matrix([[1, 1], [1, -1]])


def congruent(f1: BilinearForm2, f2: BilinearForm2) -> bool:
    """Same congruence class.  The canonical kind already fixes c as the
    lex-smaller of c and 1/c, so the forms are congruent exactly when
    their canonical kinds are equal."""
    return congruence_canonical(f1).kind == congruence_canonical(f2).kind


@dataclass(frozen=True)
class AdaptedBasis:
    """Record of the basis choices behind an extracted form: the
    complement vectors, and `matrix`, whose columns are the complement
    vectors and then a basis of A^2 with the Leib generator last."""

    complement: tuple
    matrix: Matrix


def _section_two_violation(algebra: LeibnizAlgebra) -> str | None:
    """Which hypothesis of Section 2 (nilpotent, dim A^2 = n - 2,
    dim Leib = 1) the algebra breaks, or None when it meets them all."""
    if not algebra.is_nilpotent():
        return "algebra is not nilpotent"
    sq = algebra.lower_central_term(2)
    if sq.dim != algebra.n - 2:
        return f"dim A^2 = {sq.dim}, need {algebra.n - 2}"
    leib = algebra.leib_ideal()
    if leib.dim != 1:
        return f"dim Leib = {leib.dim}, need 1"
    return None


def section_two_eligible(algebra: LeibnizAlgebra) -> bool:
    return _section_two_violation(algebra) is None


def extract_v_form(algebra: LeibnizAlgebra) -> tuple[BilinearForm2, AdaptedBasis]:
    """The form f(u, v) = (coefficient of the Leib generator in [u, v]) on
    the RREF-complement of A^2, with the basis record.

    Requires dim A^2 = n - 2, dim Leib = 1 and nilpotency.  The RREF rows
    of A^2 carry 1 at their own pivot and 0 at the others, so w in A^2 is
    the sum of w[p_r] times row r.  Let s be the last row whose pivot p_s
    is a nonzero coordinate of the Leib generator l.  The other rows and l
    form a basis of A^2, in which the coefficient of l in w is
    w[p_s] / l[p_s].  The complement is spanned by the unit vectors at
    the non-pivot coordinates.  Every choice is canonical, so the result
    is reproducible, and the canonical kind does not depend on it.
    """
    reason = _section_two_violation(algebra)
    if reason is not None:
        raise HypothesisViolation(reason)
    n = algebra.n
    rows = algebra.lower_central_term(2).basis
    ell = algebra.leib_ideal().basis[0]
    pivots = [next(c for c, x in enumerate(row) if not x.is_zero())
              for row in rows]
    s = max(r for r, p in enumerate(pivots) if not ell[p].is_zero())
    p_s = pivots[s]
    free = [c for c in range(n) if c not in pivots]
    comp = [tuple(ONE if k == c else ZERO for k in range(n)) for c in free]
    cols = list(rows[:s] + rows[s + 1:]) + [ell]
    entries = [[algebra.bracket(u, v)[p_s] / ell[p_s] for v in comp]
               for u in comp]
    form = BilinearForm2(Matrix(entries))
    basis_matrix = Matrix([[vec[r] for vec in (comp + cols)] for r in range(n)])
    record = AdaptedBasis(tuple(comp), basis_matrix)
    return form, record
