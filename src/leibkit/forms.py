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
_ONE = GaussianRational(1)
_ZERO = GaussianRational(0)


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
    """Yield (u, v', a0, b0) with [u v'] diagonalizing s to diag(a0, b0);
    one candidate per choice of u in a fixed order."""
    basis_pairs = (((_ONE, _ZERO), (_ZERO, _ONE)),
                   ((_ZERO, _ONE), (_ONE, _ZERO)),
                   ((_ONE, _ONE), (_ZERO, _ONE)))
    for u, v in basis_pairs:
        a0 = _form_value(s, u, u)
        if a0.is_zero():
            continue
        t = _form_value(s, u, v) * a0.inv()
        v_prime = (v[0] - t * u[0], v[1] - t * u[1])
        b0 = _form_value(s, v_prime, v_prime)
        yield u, v_prime, a0, b0


def _verify(m: Matrix, q: Matrix, rep: Matrix) -> bool:
    return q.transpose() @ m @ q == rep


def congruence_canonical(form: BilinearForm2) -> CanonicalResult:
    """Canonical congruence class of a 2x2 form with an exact witness Q.

    Q^T M Q equals the representative matrix exactly.  Q has entries in
    Q(i) or in a single quadratic extension (extension_d records the
    generator); two stacked extensions raise ExtensionTowerNeeded.
    """
    m = form.matrix
    if form.is_zero():
        return CanonicalResult(CanonicalKind("zero"), Matrix.identity(2))
    s = form.symmetric_part()
    kappa = form.skew_scale()
    s_is_zero = all(s[a, b].is_zero() for a in range(2) for b in range(2))

    if kappa.is_zero():
        result = _canonical_symmetric(s)
    elif s_is_zero:
        # Q^T (kappa J) Q = kappa det(Q) J; fix the determinant
        q = Matrix([[kappa.inv(), 0], [0, 1]])
        result = CanonicalResult(CanonicalKind("skew_i"), q)
    else:
        result = _canonical_mixed(s, kappa)

    if not _verify(m, result.q, result.kind.rep_matrix()):
        raise AssertionError("internal error: witness fails to reproduce the "
                             "canonical representative")
    return result


def _canonical_symmetric(s: Matrix) -> CanonicalResult:
    rank = s.rank()
    if rank == 1:
        for u, v_prime, a0, b0 in _diagonalize_candidates(s):
            assert b0.is_zero()
            r, ext = _sqrt_allowing_extension(a0)
            inv_r = r.inv()
            q = Matrix([[u[0] * inv_r, v_prime[0]], [u[1] * inv_r, v_prime[1]]])
            return CanonicalResult(CanonicalKind("sym_rank1_ii"), q, ext)
        raise AssertionError("rank-1 symmetric form with no anisotropic vector")

    # rank 2: diagonalize, prefer witnesses needing no extension
    candidates = list(_diagonalize_candidates(s))
    for u, v_prime, a0, b0 in candidates:
        ra = _sqrt_in_field(a0)
        rb = _sqrt_in_field(b0)
        if ra is not None and rb is not None:
            q = Matrix([[u[0] * ra.inv(), v_prime[0] * rb.inv()],
                        [u[1] * ra.inv(), v_prime[1] * rb.inv()]])
            return CanonicalResult(CanonicalKind("sym_rank2_iii"), q)
    for u, v_prime, a0, b0 in candidates:
        d = a0 * b0
        rd = _sqrt_in_field(d)
        if rd is None:
            continue
        # b0 = d/a0 and sqrt(d) is rational: rescale to a0*I, then use a
        # sum-of-two-squares rotation, all without leaving the base field
        q = _isotropic_rescale(u, v_prime, a0, a0 * rd.inv())
        return CanonicalResult(CanonicalKind("sym_rank2_iii"), q)
    # single extension: adjoin sqrt(a0*b0) for the first candidate
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


def _canonical_mixed(s: Matrix, kappa) -> CanonicalResult:
    det_s = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    if det_s.is_zero():
        return _canonical_mixed_iv(s, kappa)
    inv = det_s * (kappa * kappa).inv()
    minus_inv = -inv
    root, ext_for_c = _sqrt_allowing_extension(minus_inv)
    cands = []
    for sg in (root, -root):
        den = sg + 1
        if not den.is_zero():
            cands.append((sg - 1) / den)
    assert cands, "both roots of -inv equal -1, impossible for inv != 0"
    cands.sort(key=lambda c: c.lex_key())
    c_min = cands[0]
    # build a witness for whichever representative admits an in-field root,
    # then swap down to the canonical one
    for c_target in cands:
        got = _mixed_v_witness(s, kappa, c_target, allow_extension=False)
        if got is not None:
            q, ext = got
            if c_target != c_min:
                q = q @ Matrix([[0, 1], [c_target.inv(), 0]])
            return CanonicalResult(CanonicalKind("mixed_v", c_min), q,
                                   ext_for_c if ext is None else ext)
    got = _mixed_v_witness(s, kappa, c_min, allow_extension=True)
    q, ext = got
    return CanonicalResult(CanonicalKind("mixed_v", c_min), q,
                           ext_for_c if ext is None else ext)


def _mixed_v_witness(s: Matrix, kappa, c, allow_extension: bool):
    """Q with Q^T(S + kappa J)Q = [[0,1],[c,0]], or None if every
    diagonalization needs a root outside the working field."""
    mu = (1 + c) * _HALF
    kappa_n = (1 - c) * _HALF
    for u, v_prime, a0, b0 in _diagonalize_candidates(s):
        rho1 = mu * (2 * a0).inv()
        if allow_extension:
            r1, ext = _sqrt_allowing_extension(rho1)
        else:
            r1 = _sqrt_in_field(rho1)
            if r1 is None:
                continue
            ext = None
        det_p1 = u[0] * v_prime[1] - u[1] * v_prime[0]
        t = (1 - c) * (4 * det_p1 * kappa).inv()
        r2 = t * r1.inv()
        for r2_signed in (r2, -r2):
            p1r = Matrix([[u[0] * r1, v_prime[0] * r2_signed],
                          [u[1] * r1, v_prime[1] * r2_signed]])
            q = p1r @ Matrix([[1, 1], [1, -1]])
            det_q = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
            if det_q * kappa == kappa_n:
                return q, ext
        raise AssertionError("determinant cannot be matched with either sign")
    return None


def _canonical_mixed_iv(s: Matrix, kappa) -> CanonicalResult:
    kernel = Matrix(s.rows).nullspace()
    assert len(kernel) == 1
    u = kernel[0]
    # any vector outside the kernel is anisotropic for a rank-1 form
    w = (_ONE, _ZERO)
    a0 = _form_value(s, w, w)
    if a0.is_zero():
        w = (_ZERO, _ONE)
        a0 = _form_value(s, w, w)
    r, ext = _sqrt_allowing_extension(a0)
    q2 = (w[0] * r.inv(), w[1] * r.inv())
    det_uq2 = u[0] * q2[1] - u[1] * q2[0]
    nu = (kappa * det_uq2).inv()
    q = Matrix([[nu * u[0], q2[0]], [nu * u[1], q2[1]]])
    return CanonicalResult(CanonicalKind("mixed_iv"), q, ext)


def congruent(f1: BilinearForm2, f2: BilinearForm2) -> bool:
    """Same congruence class; for kind (v) the parameters must agree up to
    the c <-> 1/c flip (the stored representative already fixes one)."""
    k1 = congruence_canonical(f1).kind
    k2 = congruence_canonical(f2).kind
    if k1.tag != k2.tag:
        return False
    if k1.tag != "mixed_v":
        return True
    if k1.c == k2.c:
        return True
    return not k2.c.is_zero() and k1.c == k2.c.inv()


@dataclass(frozen=True)
class AdaptedBasis:
    """Record of the basis choices behind an extracted form: complement
    vectors first, then the derived-subalgebra basis with the squares
    generator last; `matrix` has these as columns."""

    complement: tuple
    derived_basis: tuple
    matrix: Matrix


def section_two_eligible(algebra: LeibnizAlgebra) -> bool:
    if not algebra.is_nilpotent():
        return False
    sq = algebra.lower_central_term(2)
    return sq.dim == algebra.n - 2 and algebra.leib_ideal().dim == 1


def extract_v_form(algebra: LeibnizAlgebra) -> tuple[BilinearForm2, AdaptedBasis]:
    """The form f(u, v) = (coefficient of the Leib generator in [u, v]) on
    the RREF-complement of A^2, with the basis record.

    Requires dim A^2 = n - 2, dim Leib = 1 and nilpotency; the complement
    and basis extension are chosen canonically so the result is
    reproducible, and the canonical kind does not depend on the choices.
    """
    n = algebra.n
    if not algebra.is_nilpotent():
        raise HypothesisViolation("algebra is not nilpotent")
    sq = algebra.lower_central_term(2)
    if sq.dim != n - 2:
        raise HypothesisViolation(f"dim A^2 = {sq.dim}, need {n - 2}")
    leib = algebra.leib_ideal()
    if leib.dim != 1:
        raise HypothesisViolation(f"dim Leib = {leib.dim}, need 1")
    ell = leib.basis[0]

    # extend span{ell} to A^2 greedily along the RREF basis of A^2
    chosen = []
    span_rows = [list(ell)]
    current = 1
    for row in sq.basis:
        trial = Matrix(span_rows + [list(row)])
        if trial.rank() > current:
            chosen.append(row)
            span_rows.append(list(row))
            current += 1
    assert current == sq.dim

    # complement: standard basis vectors at the non-pivot coordinates of A^2
    _, _, pivots = Matrix(sq.basis).rref()
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 2
    one = algebra.one
    zero = algebra.zero
    comp = [tuple(one if k == c else zero for k in range(n)) for c in free]

    cols = chosen + [ell]
    entries = []
    for a in range(2):
        row_entries = []
        for b in range(2):
            w = algebra.bracket(comp[a], comp[b])
            coeffs = _solve_in_span(cols, w, zero)
            row_entries.append(coeffs[-1])
        entries.append(row_entries)
    form = BilinearForm2(Matrix(entries))
    basis_matrix = Matrix([[vec[r] for vec in (comp + cols)] for r in range(n)])
    record = AdaptedBasis(tuple(comp), tuple(cols), basis_matrix)
    return form, record


def _solve_in_span(cols, target, zero):
    """Coefficients expressing target in the given (independent) columns."""
    k = len(cols)
    aug = Matrix([[c[r] for c in cols] + [target[r]] for r in range(len(target))])
    red, rank, pivots = aug.rref()
    if k in pivots:
        raise HypothesisViolation("product falls outside the derived subalgebra")
    coeffs = [zero] * k
    for i, p in enumerate(pivots):
        coeffs[p] = red.rows[i][k]
    return coeffs
