"""Dimension-bound checks for nilpotent Leibniz algebras with dim Leib = 1.

Two families of bounds are mechanized here.

Center bound: if dim Z(A) = n - k and dim Leib(A) = 1 then
    dim A^2 <= (k^2 - k + 2) / 2.

Derived bound: if dim A^2 = n - k, dim Leib(A) = 1 and dim A^3 = t then
    (i)  n <= t + (k^2 + k + 2) / 2, and
    (ii) n <= t + (k^2 + k) / 2      when Leib(A) is contained in A^3.

Part (ii) at k = 2, t = 1 gives the bound 4, which rules out any
5-dimensional algebra with dim A^2 = 3, dim A^3 = 1 and Leib(A) = Z(A) = A^3.

The checks read only an algebra's `InvariantSignature`: every hypothesis
and every quantity in these bounds is a dimension recorded there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import InvariantSignature


def center_bound(k: int) -> int:
    """Upper bound for dim A^2 given codim of the center; exact integer."""
    return (k * k - k + 2) // 2


def derived_bound_i(k: int, t: int) -> int:
    return t + (k * k + k + 2) // 2


def derived_bound_ii(k: int, t: int) -> int:
    return t + (k * k + k) // 2


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of applying one bound lemma to a concrete algebra."""

    name: str
    applicable: bool
    reason: str
    bound: int | None = None
    observed: int | None = None

    @property
    def holds(self) -> bool | None:
        if not self.applicable:
            return None
        return self.observed <= self.bound

    def __str__(self):
        if not self.applicable:
            return f"{self.name}: not applicable ({self.reason})"
        verdict = "holds" if self.holds else "VIOLATED"
        return f"{self.name}: {self.observed} <= {self.bound} {verdict}"


def _inapplicable(sig: InvariantSignature) -> str | None:
    """Why neither bound applies to an algebra with signature `sig`, or
    None when both lemmas' hypotheses hold."""
    if not sig.nilpotent:
        return "algebra is not nilpotent"
    if sig.dim_leib != 1:
        return f"dim Leib = {sig.dim_leib}, need 1"
    return None


def check_center_bound(sig: InvariantSignature) -> BoundsReport:
    name = "center-bound"
    reason = _inapplicable(sig)
    if reason is not None:
        return BoundsReport(name, False, reason)
    k = sig.dim - sig.dim_center
    return BoundsReport(name, True, f"k={k}", bound=center_bound(k),
                        observed=sig.lower_central_dims[1])


def check_derived_bound(sig: InvariantSignature) -> tuple[BoundsReport, BoundsReport]:
    """Reports for parts (i) and (ii); part (ii) is inapplicable unless
    Leib(A) lies inside A^3."""
    name_i, name_ii = "derived-bound-i", "derived-bound-ii"
    reason = _inapplicable(sig)
    if reason is not None:
        return (BoundsReport(name_i, False, reason),
                BoundsReport(name_ii, False, reason))
    # nilpotent with A^2 != 0, so the series lists A^2 and A^3
    n = sig.dim
    k = n - sig.lower_central_dims[1]
    t = sig.lower_central_dims[2]
    rep_i = BoundsReport(name_i, True, f"k={k}, t={t}",
                         bound=derived_bound_i(k, t), observed=n)
    if sig.dim_leib_cap_cube == sig.dim_leib:
        rep_ii = BoundsReport(name_ii, True, f"k={k}, t={t}, Leib in A^3",
                              bound=derived_bound_ii(k, t), observed=n)
    else:
        rep_ii = BoundsReport(name_ii, False, "Leib(A) not contained in A^3")
    return rep_i, rep_ii
