"""Basis-free signature: values on known algebras, invariance, diff."""

import random

from leibkit.algebra import LeibnizAlgebra
from leibkit.catalogue import instantiate, sample_params
from leibkit.invariants import signature
from leibkit.linalg import Matrix, SingularMatrix
from leibkit.scalars import GaussianRational


def test_abelian_signature():
    sig = signature(LeibnizAlgebra(5, {}))
    assert sig.dim == 5
    assert sig.lower_central_dims == (5, 0)
    assert sig.dim_leib == 0
    assert sig.dim_center == 5
    assert sig.is_lie


def test_catalogue_entry_signatures(catalogue):
    sig = signature(instantiate(catalogue.entry("A_1")))
    assert sig.lower_central_dims == (5, 3, 2, 1, 0)
    assert sig.dim_leib == 1
    assert sig.dim_center == 1
    assert not sig.is_lie
    sig16 = signature(instantiate(catalogue.entry("A_16")))
    assert sig16.lower_central_dims == (5, 4, 3, 2, 1, 0)
    assert sig16.dim_leib == 4


def test_structural_constraints(catalogue):
    for name in ("A_1", "A_16", "A_42", "A_233", "R_5"):
        entry = catalogue.entry(name)
        values = sample_params(entry, 1)[0] if entry.is_parametric else {}
        sig = signature(instantiate(entry, values))
        assert sig.derived_dims[1] == sig.lower_central_dims[1]
        assert sig.dim_center <= min(sig.dim_left_ann, sig.dim_right_ann)
        assert all(0 <= d <= sig.dim for d in sig.lower_central_dims)


def test_as_dict_and_diff(catalogue):
    a = signature(instantiate(catalogue.entry("A_1")))
    b = signature(instantiate(catalogue.entry("A_16")))
    assert a.diff(a) == []
    delta = a.diff(b)
    assert "dim_leib" in delta and "lower_central_dims" in delta
    assert set(a.as_dict()) == set(b.as_dict())
    assert a.as_dict()["dim_leib"] == 1


def test_base_change_invariance_sample(catalogue):
    rng = random.Random(42)
    for name in ("A_1", "A_17", "R_5"):
        entry = catalogue.entry(name)
        values = sample_params(entry, 1)[0] if entry.is_parametric else {}
        alg = instantiate(entry, values)
        sig = signature(alg)
        for _ in range(3):
            while True:
                p = Matrix([[rng.randint(-3, 3) for _ in range(5)]
                            for _ in range(5)])
                try:
                    p.inv()
                    break
                except SingularMatrix:
                    continue
            assert signature(alg.base_change(p)) == sig


def _antisymmetric(alg):
    for (i, j), comps in alg.table.items():
        other = alg.table.get((j, i), {})
        if set(comps) != set(other):
            return False
        if any(not (s + other[k]).is_zero() for k, s in comps.items()):
            return False
    return True


# not nilpotent, Z(A) outside A^2 and Leib(A) outside A^3; then a Lie algebra
STALLED = LeibnizAlgebra(5, {(0, 1): {1: GaussianRational(1)},
                             (2, 2): {3: GaussianRational(1)}})
HEISENBERG = LeibnizAlgebra(5, {(0, 1): {2: GaussianRational(1)},
                                (1, 0): {2: GaussianRational(-1)}})


def test_signature_facts_match_direct_computation(catalogue):
    rng = random.Random(8)
    algebras = [STALLED, HEISENBERG]
    for entry in catalogue:
        alg = instantiate(entry, sample_params(entry, 1)[0])
        algebras.append(alg)
        if rng.random() < 0.25:  # about a quarter also get a base change
            while True:
                p = Matrix([[rng.randint(-2, 2) for _ in range(5)]
                            for _ in range(5)])
                try:
                    p.inv()
                    break
                except SingularMatrix:
                    continue
            algebras.append(alg.base_change(p))
    seen = set()
    for alg in algebras:
        sig = signature(alg)
        sq = alg.lower_central_term(2)
        cube = alg.lower_central_term(3)
        center, leib = alg.center(), alg.leib_ideal()
        facts = (sig.nilpotent,
                 sig.dim_center_cap_sq == sig.dim_center,
                 sig.dim_leib_cap_cube == sig.dim_leib,
                 alg.is_lie())
        assert facts == (alg.is_nilpotent(), (sq + center) == sq,
                         (cube + leib) == cube, _antisymmetric(alg))
        seen.add(facts)
    # each fact is seen both true and false
    assert all({f[k] for f in seen} == {True, False} for k in range(4))
