"""Structure-constant algebras: bracket, identities, series, base change."""

import random

import pytest

from leibkit.algebra import LeibnizAlgebra, LeibnizViolation
from leibkit.linalg import Matrix, SingularMatrix, Subspace
from leibkit.scalars import GaussianRational


# [e1,e1] = e2: the smallest non-Lie left Leibniz algebra
SQUARE2 = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(1)}})

# Heisenberg: [e1,e2] = -[e2,e1] = e3
HEIS = LeibnizAlgebra(3, {(0, 1): {2: GaussianRational(1)},
                          (1, 0): {2: GaussianRational(-1)}})


def small_invertible(rng, n, lo=-3, hi=3):
    while True:
        m = Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        try:
            m.inv()
            return m
        except SingularMatrix:
            continue


def a1():
    one = GaussianRational(1)
    return LeibnizAlgebra(5, {
        (0, 0): {4: one}, (0, 1): {2: one}, (0, 2): {3: one},
        (0, 3): {4: one}, (1, 0): {2: -one}, (2, 0): {3: -one},
        (3, 0): {4: -one},
    })


def gvec(*entries):
    return tuple(GaussianRational(x) for x in entries)


def test_bracket_basics():
    assert HEIS.bracket(gvec(1, 0, 0), gvec(0, 1, 0)) == HEIS._basis_vec(2)
    z = GaussianRational(0)
    assert SQUARE2.bracket(gvec(1, 0), gvec(1, 0)) == (z, GaussianRational(1))
    assert SQUARE2.bracket(gvec(0, 1), gvec(1, 0)) == (z, z)
    assert SQUARE2.bracket_basis(0, 0) == {1: GaussianRational(1)}
    assert SQUARE2.bracket_basis(0, 1) == {}


def test_bracket_bilinear():
    rng = random.Random(5)
    alg = a1()
    for _ in range(10):
        u, v, w = ([GaussianRational(rng.randint(-3, 3)) for _ in range(5)]
                   for _ in range(3))
        lhs = alg.bracket([a + b for a, b in zip(u, v)], w)
        rhs = [a + b for a, b in zip(alg.bracket(u, w), alg.bracket(v, w))]
        assert list(lhs) == rhs
        c = GaussianRational(rng.randint(-3, 3))
        assert list(alg.bracket(u, [c * x for x in v])) == [c * x for x in alg.bracket(u, v)]


def test_check_leibniz():
    assert SQUARE2.check_leibniz() is None
    assert HEIS.check_leibniz() is None
    assert a1().check_leibniz() is None
    bad = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(1)},
                             (0, 1): {0: GaussianRational(1)}})
    violation = bad.check_leibniz()
    assert isinstance(violation, LeibnizViolation)
    assert "e" in str(violation)


def test_lie_flags():
    # for an algebra satisfying the left Leibniz identity, being Lie is
    # the same as having an antisymmetric bracket
    assert HEIS.is_lie()
    assert not SQUARE2.is_lie()
    assert not a1().is_lie()
    near_skew = LeibnizAlgebra(3, {(0, 1): {2: GaussianRational(1)},
                                   (1, 0): {2: GaussianRational(-1)},
                                   (0, 0): {2: GaussianRational(1)}})
    assert near_skew.check_leibniz() is None
    assert not near_skew.is_lie()


def test_series_and_nilpotency():
    alg = a1()
    assert alg.lower_central_dims() == (5, 3, 2, 1, 0)
    assert alg.derived_dims() == (5, 3, 0)
    assert alg.is_nilpotent()
    assert HEIS.lower_central_dims() == (3, 1, 0)
    abelian = LeibnizAlgebra(4, {})
    assert abelian.lower_central_dims() == (4, 0)
    loop = LeibnizAlgebra(1, {(0, 0): {0: GaussianRational(1)}})
    assert not loop.is_nilpotent()


def test_leib_ideal_and_annihilators():
    assert SQUARE2.leib_ideal() == Subspace(2, [(0, 1)])
    assert HEIS.leib_ideal().dim == 0
    alg = a1()
    assert alg.leib_ideal().dim == 1
    assert alg.center() == Subspace(5, [(0, 0, 0, 0, 1)])
    assert alg.center() == alg.left_annihilator().intersect(alg.right_annihilator())
    assert SQUARE2.left_annihilator() == Subspace(2, [(0, 1)])


def test_base_change_identity_and_relabel():
    alg = SQUARE2
    assert alg.base_change(Matrix.identity(2)) == alg
    swap = Matrix([[0, 1], [1, 0]])
    relabeled = alg.base_change(swap)
    assert relabeled.table == {(1, 1): {0: GaussianRational(1)}}
    with pytest.raises(SingularMatrix):
        alg.base_change(Matrix([[1, 1], [1, 1]]))


def test_base_change_composition():
    rng = random.Random(6)
    alg = a1()
    for _ in range(6):
        p = small_invertible(rng, 5)
        q = small_invertible(rng, 5)
        assert alg.base_change(p).base_change(q) == alg.base_change(p @ q)
        moved = alg.base_change(p)
        assert moved.base_change(p.inv()) == alg
        assert moved.check_leibniz() is None


def test_scaling_a_generator_rescales_products():
    # x1 = 2*e1 divides [x1, e2] coefficients by 2 in the new coordinates
    alg = SQUARE2
    p = Matrix([[2, 0], [0, 1]])
    scaled = alg.base_change(p)
    assert scaled.table == {(0, 0): {1: GaussianRational(4)}}


def test_constructor_drops_zero_products():
    alg = LeibnizAlgebra(2, {(0, 0): {1: GaussianRational(0)}})
    assert alg.table == {}
