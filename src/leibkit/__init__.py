"""Exact-arithmetic verification kernel for nilpotent left Leibniz algebras.

The package ships a machine-readable catalogue of the 5-dimensional complex
non-split non-Lie nilpotent left Leibniz algebras together with tooling to
re-verify every checkable claim about it: the left Leibniz identity, claimed
dimensional invariants, dimension-bound inequalities, canonical forms of the
associated 2x2 bilinear form, and explicit isomorphism witnesses.

All arithmetic is exact: rationals, Gaussian rationals Q(i) and
one-generator quadratic extensions.  The witness search runs over GF(p)
on plain ints, and every witness it finds is re-verified over Q(i).
"""

__version__ = "0.1.0"

from .scalars import GaussianRational, QuadExtField, PrimeField
from .linalg import Matrix, Subspace
from .algebra import LeibnizAlgebra

__all__ = [
    "GaussianRational",
    "QuadExtField",
    "PrimeField",
    "Matrix",
    "Subspace",
    "LeibnizAlgebra",
]
