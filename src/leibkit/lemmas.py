"""Dimension-bound checks for nilpotent Leibniz algebras with dim Leib = 1.

Two families of bounds are mechanized here.

Center bound: if dim Z(A) = n - k and dim Leib(A) = 1 then
    dim A^2 <= (k^2 - k + 2) / 2.

Derived bound: if dim A^2 = n - k, dim Leib(A) = 1 and dim A^3 = t then
    (i)  n <= t + (k^2 + k + 2) / 2, and
    (ii) n <= t + (k^2 + k) / 2      when Leib(A) is contained in A^3.

Part (ii) at k = 2, t = 1 gives the bound 4, which rules out any
5-dimensional algebra with dim A^2 = 3, dim A^3 = 1 and Leib(A) = Z(A) = A^3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LeibnizAlgebra


def center_bound(k: int) -> int:
    """Upper bound for dim A^2 given codim of the center; exact integer."""
    num = k * k - k + 2
    assert num % 2 == 0
    return num // 2


def derived_bound_i(k: int, t: int) -> int:
    num = k * k + k + 2
    assert num % 2 == 0
    return t + num // 2


def derived_bound_ii(k: int, t: int) -> int:
    num = k * k + k
    assert num % 2 == 0
    return t + num // 2


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


def check_center_bound(algebra: LeibnizAlgebra) -> BoundsReport:
    name = "center-bound"
    if not algebra.is_nilpotent():
        return BoundsReport(name, False, "algebra is not nilpotent")
    if algebra.leib_ideal().dim != 1:
        return BoundsReport(name, False,
                            f"dim Leib = {algebra.leib_ideal().dim}, need 1")
    n = algebra.n
    k = n - algebra.center().dim
    sq = algebra.lower_central_term(2).dim
    return BoundsReport(name, True, f"k={k}", bound=center_bound(k), observed=sq)


def check_derived_bound(algebra: LeibnizAlgebra) -> tuple[BoundsReport, BoundsReport]:
    """Reports for parts (i) and (ii); part (ii) is inapplicable unless
    Leib(A) lies inside A^3."""
    name_i, name_ii = "derived-bound-i", "derived-bound-ii"
    if not algebra.is_nilpotent():
        rep = BoundsReport(name_i, False, "algebra is not nilpotent")
        return rep, BoundsReport(name_ii, False, "algebra is not nilpotent")
    leib = algebra.leib_ideal()
    if leib.dim != 1:
        reason = f"dim Leib = {leib.dim}, need 1"
        return (BoundsReport(name_i, False, reason),
                BoundsReport(name_ii, False, reason))
    n = algebra.n
    sq = algebra.lower_central_term(2)
    cube = algebra.lower_central_term(3)
    k = n - sq.dim
    t = cube.dim
    rep_i = BoundsReport(name_i, True, f"k={k}, t={t}",
                         bound=derived_bound_i(k, t), observed=n)
    if cube.contains_space(leib):
        rep_ii = BoundsReport(name_ii, True, f"k={k}, t={t}, Leib in A^3",
                              bound=derived_bound_ii(k, t), observed=n)
    else:
        rep_ii = BoundsReport(name_ii, False, "Leib(A) not contained in A^3")
    return rep_i, rep_ii


def exclusion_instance() -> BoundsReport:
    """The k=2, t=1 instance of part (ii): bound 4 rules out dimension 5."""
    return BoundsReport("derived-bound-ii", True, "k=2, t=1, Leib in A^3",
                        bound=derived_bound_ii(2, 1), observed=5)
