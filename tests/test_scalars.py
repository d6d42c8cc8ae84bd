"""Exact scalar domains: Q(i), quadratic extensions, GF(p)."""

import random
from fractions import Fraction
from math import gcd

import pytest

from leibkit.exprs import format_scalar, parse_scalar
from leibkit.scalars import (
    DenominatorDividesP,
    FieldMismatch,
    GaussianRational,
    PrimeField,
    QuadExtField,
    gaussian_sqrt,
    is_rational_square,
    quadext_sqrt,
    rational_sqrt,
    reduce_mod_p,
)


def rand_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_gaussian_arithmetic_concrete():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)
    assert -a == GaussianRational(-1, -2)
    assert a.conj() == GaussianRational(1, -2)


def test_gaussian_mixed_operands():
    a = GaussianRational(1, 1)
    assert a + 1 == GaussianRational(2, 1)
    assert 2 - a == GaussianRational(1, -1)
    assert Fraction(1, 2) * a == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 2 / a == GaussianRational(1, -1)
    assert GaussianRational(3) == 3
    assert a != "1+i"


def test_gaussian_inv_and_pow():
    a = GaussianRational(1, 1)
    assert a.inv() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert a * a.inv() == GaussianRational(1)
    assert a ** 2 == GaussianRational(0, 2)
    assert a ** 0 == GaussianRational(1)
    assert a ** -2 == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inv()


def test_gaussian_immutable_and_hashable():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(a) == hash(GaussianRational(1, 2))
    assert len({a, GaussianRational(1, 2)}) == 1


def test_gaussian_field_axioms_random():
    rng = random.Random(101)
    for _ in range(40):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == GaussianRational(1)


def test_rational_square_helpers():
    assert is_rational_square(Fraction(9, 4))
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(-1))
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt_concrete():
    assert gaussian_sqrt(GaussianRational(0, 2)) in (
        GaussianRational(1, 1), GaussianRational(-1, -1))
    r = gaussian_sqrt(GaussianRational(-4))
    assert r is not None and r * r == GaussianRational(-4)
    r = gaussian_sqrt(GaussianRational(5, 12))
    assert r is not None and r * r == GaussianRational(5, 12)
    assert gaussian_sqrt(GaussianRational(Fraction(9, 4))) == GaussianRational(Fraction(3, 2))
    assert gaussian_sqrt(GaussianRational(2)) is None
    assert gaussian_sqrt(GaussianRational(0, 1)) is None  # sqrt(i) leaves Q(i)


def test_gaussian_sqrt_random_squares():
    rng = random.Random(202)
    for _ in range(30):
        g = rand_gaussian(rng)
        r = gaussian_sqrt(g * g)
        assert r is not None and r * r == g * g


def test_quadext_field_rejects_squares():
    with pytest.raises(ValueError):
        QuadExtField(4)
    with pytest.raises(ValueError):
        QuadExtField(Fraction(9, 4))
    with pytest.raises(ValueError):
        QuadExtField(0)
    assert QuadExtField(2) == QuadExtField(2)
    assert QuadExtField(2) != QuadExtField(3)


def test_quadext_arithmetic():
    f = QuadExtField(2)
    s = f.sqrt_d
    one = f.one
    assert s * s == f.embed(2)
    assert (one + s) * (one - s) == f.embed(-1)
    x = one + s
    assert x.inv() == -one + s  # (1+s)(-1+s) = 2-1
    assert x * x.inv() == one
    assert x ** 2 == f.embed(3) + s * 2
    assert (x ** -1) * x == one


def test_quadext_sqrt():
    f = QuadExtField(2)
    x = f.embed(3) + f.sqrt_d * 2  # (1+sqrt2)^2
    r = quadext_sqrt(x)
    assert r is not None and r * r == x
    assert quadext_sqrt(f.embed(3)) is None
    assert quadext_sqrt(f.zero) == f.zero
    assert quadext_sqrt(f.embed(Fraction(1, 4))) == f.embed(Fraction(1, 2))


def test_quadext_field_mismatch():
    a = QuadExtField(2).sqrt_d
    b = QuadExtField(3).sqrt_d
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


def test_prime_field_construction():
    f = PrimeField(13)
    assert f.i_residue == 5 and (5 * 5) % 13 == 12
    assert PrimeField(29).i_residue == 12
    with pytest.raises(ValueError):
        PrimeField(7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        PrimeField(15)


def test_prime_field_elements():
    f = PrimeField(13)
    a = f.elem(5)
    assert a.inv() == f.elem(8)
    assert a + 10 == f.elem(2)
    assert (a / f.elem(2)) * 2 == a
    assert a ** -1 == f.elem(8)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()


def test_reduce_mod_p_values():
    f = PrimeField(13)
    x = GaussianRational(Fraction(1, 2), 1)
    assert reduce_mod_p(x, f) == f.elem(7 + 5)
    with pytest.raises(DenominatorDividesP):
        reduce_mod_p(GaussianRational(Fraction(1, 13)), f)
    with pytest.raises(DenominatorDividesP):
        reduce_mod_p(GaussianRational(0, Fraction(2, 39)), f)


def test_reduce_mod_p_is_homomorphism():
    f = PrimeField(29)
    rng = random.Random(303)
    for _ in range(30):
        a, b = rand_gaussian(rng), rand_gaussian(rng)
        assert reduce_mod_p(a + b, f) == reduce_mod_p(a, f) + reduce_mod_p(b, f)
        assert reduce_mod_p(a * b, f) == reduce_mod_p(a, f) * reduce_mod_p(b, f)


# -- the integer triple against a Fraction-pair reference ----------------

def _pair(x):
    return (x.re, x.im)


def _ref_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _ref_inv(u):
    n = u[0] * u[0] + u[1] * u[1]
    return (u[0] / n, -u[1] / n)


def _ref_pow(u, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _ref_mul(out, u)
    return _ref_inv(out) if k < 0 else out


def _triple(x):
    return tuple(getattr(x, slot) for slot in GaussianRational.__slots__)


def _assert_normal(x):
    a, b, d = _triple(x)
    assert d > 0 and gcd(a, b, d) == 1


def _rand_fraction(rng, dens=(1, 2, 3, 4, 6, 9, 12, 13, 26)):
    return Fraction(rng.randint(-30, 30), rng.choice(dens))


def test_gaussian_normalisation():
    x = GaussianRational(Fraction(2, 4), Fraction(3, 6))
    y = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert _triple(x) == _triple(y) == (1, 1, 2)
    assert _triple(GaussianRational(Fraction(1, 6), Fraction(1, 4))) == (2, 3, 12)
    assert _triple(GaussianRational(Fraction(-4, 6))) == (-2, 0, 3)
    assert _triple(x - y) == _triple(GaussianRational(0)) == (0, 0, 1)
    assert _triple(x + x) == _triple(GaussianRational(1, 1))
    assert _triple(GaussianRational(0, 2).inv()) == (0, -1, 2)
    with pytest.raises(TypeError):
        GaussianRational(1.5)
    with pytest.raises(AttributeError):
        x.im = Fraction(1)


def test_gaussian_matches_fraction_pairs():
    rng = random.Random(404)
    field = PrimeField(13)
    r = field.i_residue
    for _ in range(300):
        u = (_rand_fraction(rng), _rand_fraction(rng))
        v = (_rand_fraction(rng), _rand_fraction(rng))
        x, y = GaussianRational(*u), GaussianRational(*v)
        assert _pair(x) == u and _pair(y) == v
        q = _rand_fraction(rng)
        k = rng.randint(-3, 3)
        results = {
            "add": (x + y, (u[0] + v[0], u[1] + v[1])),
            "sub": (x - y, (u[0] - v[0], u[1] - v[1])),
            "mul": (x * y, _ref_mul(u, v)),
            "neg": (-x, (-u[0], -u[1])),
            "conj": (x.conj(), (u[0], -u[1])),
            "add int": (x + 3, (u[0] + 3, u[1])),
            "rsub int": (2 - x, (2 - u[0], -u[1])),
            "mul frac": (q * x, (q * u[0], q * u[1])),
            "sub frac": (x - q, (u[0] - q, u[1])),
        }
        if any(v):
            results["div"] = (x / y, _ref_mul(u, _ref_inv(v)))
            results["inv"] = (y.inv(), _ref_inv(v))
        if q:
            results["div frac"] = (x / q, (u[0] / q, u[1] / q))
            results["rdiv frac"] = (q / GaussianRational(q, 1),
                                    _ref_mul((q, Fraction(0)),
                                             _ref_inv((q, Fraction(1)))))
        if any(u) or k >= 0:
            results["pow"] = (x ** k, _ref_pow(u, k))
        for name, (got, want) in results.items():
            assert _pair(got) == want, name
            _assert_normal(got)

        assert (x == y) == (u == v)
        assert x == GaussianRational(*u) and hash(x) == hash(GaussianRational(*u))
        assert x.is_zero() == (u == (0, 0))
        assert x.is_rational() == (u[1] == 0)
        assert x.lex_key() == u
        assert (x.lex_key() < y.lex_key()) == (u < v)
        assert parse_scalar(format_scalar(x)) == x

        # a rational value is interchangeable with its Fraction (and int)
        real = GaussianRational(u[0])
        assert real == u[0] and u[0] == real
        assert hash(real) == hash(u[0])
        assert {u[0]: "f"}[real] == "f" and {real: "g"}[u[0]] == "g"
        if u[0].denominator == 1:
            n = int(u[0])
            assert real == n and hash(real) == hash(n)
            assert {n: "i"}[real] == "i"
        assert (x == u[0]) == (u[1] == 0)
        if u[1]:
            assert hash(x) == hash(u)

        if u[0].denominator % 13 == 0 or u[1].denominator % 13 == 0:
            with pytest.raises(DenominatorDividesP):
                reduce_mod_p(x, field)
        else:
            want = (u[0].numerator * pow(u[0].denominator, -1, 13)
                    + u[1].numerator * pow(u[1].denominator, -1, 13) * r)
            assert reduce_mod_p(x, field) == field.elem(want)

