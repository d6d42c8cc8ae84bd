"""Isomorphism-invariant signature of a Leibniz algebra.

Every number collected here is preserved by bijective algebra morphisms,
so differing signatures certify non-isomorphism while equal signatures
prove nothing.  All dimensions are computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .algebra import LeibnizAlgebra


@dataclass(frozen=True)
class InvariantSignature:
    dim: int
    lower_central_dims: tuple[int, ...]
    derived_dims: tuple[int, ...]
    dim_leib: int
    dim_center: int
    dim_left_ann: int
    dim_right_ann: int
    dim_center_cap_sq: int
    dim_leib_cap_cube: int
    dim_sq_bracket_whole: int
    dim_sq_bracket_sq: int
    is_lie: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, other: "InvariantSignature") -> list[str]:
        """Names of fields where the two signatures disagree."""
        return [f.name for f in fields(self)
                if getattr(self, f.name) != getattr(other, f.name)]


def signature(algebra: LeibnizAlgebra) -> InvariantSignature:
    whole = algebra.full_space()
    sq = algebra.lower_central_term(2)
    cube = algebra.lower_central_term(3)
    leib = algebra.leib_ideal()
    center = algebra.center()
    return InvariantSignature(
        dim=algebra.n,
        lower_central_dims=algebra.lower_central_dims(),
        derived_dims=algebra.derived_dims(),
        dim_leib=leib.dim,
        dim_center=center.dim,
        dim_left_ann=algebra.left_annihilator().dim,
        dim_right_ann=algebra.right_annihilator().dim,
        dim_center_cap_sq=center.intersect(sq).dim,
        dim_leib_cap_cube=leib.intersect(cube).dim,
        dim_sq_bracket_whole=algebra.subspace_product(sq, whole).dim,
        dim_sq_bracket_sq=algebra.subspace_product(sq, sq).dim,
        is_lie=algebra.is_lie(),
    )
