"""Exact scalar domains: Q(i), quadratic extensions, GF(p)."""

import hashlib
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibkit.exprs import format_scalar, parse_scalar
from leibkit.scalars import (
    ONE,
    DenominatorDividesP,
    ExtensionTowerNeeded,
    FieldMismatch,
    GaussianRational,
    PrimeField,
    PrimeFieldElem,
    QuadExtElem,
    QuadExtField,
    adjoin_sqrt,
    field_sqrt,
    lift_mod_p,
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


def test_gaussian_mixed_operands():
    a = GaussianRational(1, 1)
    assert a + 1 == GaussianRational(2, 1)
    assert 2 - a == GaussianRational(1, -1)
    assert Fraction(1, 2) * a == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 2 / a == GaussianRational(1, -1)
    assert GaussianRational(3) == 3
    assert a != "1+i"


rationals = st.fractions(-1000, 1000, max_denominator=50)
ints_or_fractions = st.one_of(st.integers(-1000, 1000), rationals)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, ints_or_fractions)
def test_operators_promote_ints_and_fractions(re, im, k):
    a, gk = GaussianRational(re, im), GaussianRational(k)
    ops = [lambda x, y: y - x, operator.sub, operator.mul]
    if not a.is_zero():
        ops.append(lambda x, y: y / x)
    for op in ops:
        value = op(a, k)
        assert type(value) is GaussianRational and value == op(a, gk)
        if not a.is_zero():
            with pytest.raises(TypeError):
                op(a, float(k))


def test_gaussian_inv():
    a = GaussianRational(1, 1)
    assert a.inv() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert a * a.inv() == GaussianRational(1)
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
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt_concrete():
    assert field_sqrt(GaussianRational(0, 2)) in (
        GaussianRational(1, 1), GaussianRational(-1, -1))
    r = field_sqrt(GaussianRational(-4))
    assert r is not None and r * r == GaussianRational(-4)
    r = field_sqrt(GaussianRational(5, 12))
    assert r is not None and r * r == GaussianRational(5, 12)
    assert field_sqrt(GaussianRational(Fraction(9, 4))) == GaussianRational(Fraction(3, 2))
    assert field_sqrt(GaussianRational(2)) is None
    assert field_sqrt(GaussianRational(0, 1)) is None  # sqrt(i) leaves Q(i)


def test_gaussian_sqrt_random_squares():
    rng = random.Random(202)
    for _ in range(30):
        g = rand_gaussian(rng)
        r = field_sqrt(g * g)
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
    one = f.embed(1)
    assert s * s == f.embed(2)
    assert (one + s) * (one - s) == f.embed(-1)
    x = one + s
    assert x.inv() == -one + s  # (1+s)(-1+s) = 2-1
    assert x * x.inv() == one
    assert x * x == f.embed(3) + s * 2


def test_quadext_sqrt():
    f = QuadExtField(2)
    x = f.embed(3) + f.sqrt_d * 2  # (1+sqrt2)^2
    r = field_sqrt(x)
    assert r is not None and r * r == x
    assert field_sqrt(f.embed(3)) is None
    assert field_sqrt(f.embed(0)) == f.embed(0)
    assert field_sqrt(f.embed(Fraction(1, 4))) == f.embed(Fraction(1, 2))


gaussians = st.builds(GaussianRational, rationals, rationals)


@settings(max_examples=100, deadline=None)
@given(gaussians, st.booleans())
def test_adjoin_sqrt_over_gaussians(x, square):
    # a root in Q(i) when there is one, else sqrt(x) adjoined to Q(i)
    x = x * x if square else x
    root, generator = adjoin_sqrt(x)
    assert root * root == x
    assert (generator is None) == (field_sqrt(x) is not None)
    assert generator in (None, x)


@settings(max_examples=100, deadline=None)
@given(gaussians, gaussians, st.booleans(),
       st.sampled_from((2, 3, -2, GaussianRational(1, 2))))
def test_adjoin_sqrt_in_an_extension(a, b, square, d):
    # inside an extension nothing more is adjoined
    x = QuadExtElem(a, b, QuadExtField(d))
    x = x * x if square else x
    if field_sqrt(x) is None:
        with pytest.raises(ExtensionTowerNeeded) as ex:
            adjoin_sqrt(x)
        assert str(ex.value) == f"sqrt of {x!r} leaves its quadratic extension"
    else:
        root, generator = adjoin_sqrt(x)
        assert root * root == x and generator is None


# -- the tower's square roots and printed text, pinned ----------------------

TOWER_GENERATORS = (2, -3, Fraction(-1, 2), GaussianRational(0, 1),
                    GaussianRational(1, 2))
TOWER_DIGEST = "90c1d79c2a57421d4f7638f1d4190d1a9347cec1dbbfc84ae71eacbdaba849cc"


def _small_gaussian(rng):
    # small parts, so that 0, 1, -1 and non-atomic a + b*i all come up
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _tower_corpus(rng, count):
    """Q(i) values and values of each extension, every other one a square,
    after each extension's own zero, units and generator."""
    fields = [QuadExtField(d) for d in TOWER_GENERATORS]
    for f in fields:
        yield from (f.embed(0), f.embed(1), f.sqrt_d, -f.sqrt_d, f.embed(f.d))
    for k in range(count):
        x = _small_gaussian(rng)
        y = QuadExtElem(_small_gaussian(rng), _small_gaussian(rng),
                        fields[k % len(fields)])
        yield from ((x * x, y * y) if k % 2 else (x, y))


def _root_line(x):
    """x's text, then None or its root's text, type and component types."""
    r = field_sqrt(x)
    if r is None:
        return f"{format_scalar(x)} None"
    parts = (r.a, r.b) if type(r) is QuadExtElem else _triple(r)
    return " ".join([format_scalar(x), format_scalar(r), type(r).__name__]
                    + [type(c).__name__ for c in parts])


def test_tower_digest():
    # the root field_sqrt finds, or None, and the printed text of every
    # value and root, over Q(i) and five extensions of it
    lines = [_root_line(x) for x in _tower_corpus(random.Random(4141), 1500)]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == TOWER_DIGEST


@pytest.mark.parametrize("q", ("0", "2", "-2", "-4", "9/4", "1/3"))
def test_sqrt_literal_is_adjoin_sqrt(q):
    assert parse_scalar(f"sqrt({q})") == adjoin_sqrt(parse_scalar(q))[0]


def test_quadext_field_mismatch():
    a = QuadExtField(2).sqrt_d
    b = QuadExtField(3).sqrt_d
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


_BOX = 6   # |re|, |im| and the denominator of a lifted value


@pytest.mark.parametrize("p", (5, 13, 17, 29, 1009))
def test_lift_mod_p_is_the_least_preimage_in_the_box(p):
    # brute force over the box: every (a + b*i)/den that reduces to e,
    # least under (|im|, |re|, den, im < 0, re < 0)
    field = PrimeField(p)
    r = field.i_residue
    residues = range(p) if p < 1009 else random.Random(p).sample(range(p), 200)
    for e in residues:
        hits = sorted((abs(b), abs(a), den, b < 0, a < 0, a, b)
                      for den in range(1, _BOX + 1) if den % p
                      for a in range(-_BOX, _BOX + 1)
                      for b in range(-_BOX, _BOX + 1)
                      if (a + b * r - e * den) % p == 0)
        lifted = lift_mod_p(e, field)
        if not hits:
            assert lifted is None, e
            continue
        _, _, den, _, _, a, b = hits[0]
        assert lifted == GaussianRational(Fraction(a, den),
                                          Fraction(b, den)), e
        _assert_normal(lifted)
        assert reduce_mod_p(lifted, field) == e


def test_prime_field_construction():
    f = PrimeField(13)
    assert f.i_residue == 5 and (5 * 5) % 13 == 12
    assert PrimeField(29).i_residue == 12
    with pytest.raises(ValueError):
        PrimeField(7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        PrimeField(15)


def test_reduce_mod_p_values():
    f = PrimeField(13)
    x = GaussianRational(Fraction(1, 2), 1)
    assert reduce_mod_p(x, f) == 7 + 5
    with pytest.raises(DenominatorDividesP):
        reduce_mod_p(GaussianRational(Fraction(1, 13)), f)
    with pytest.raises(DenominatorDividesP):
        reduce_mod_p(GaussianRational(0, Fraction(2, 39)), f)


def test_reduce_mod_p_is_homomorphism():
    f = PrimeField(29)
    rng = random.Random(303)
    for _ in range(30):
        a, b = rand_gaussian(rng), rand_gaussian(rng)
        ra, rb = reduce_mod_p(a, f), reduce_mod_p(b, f)
        assert 0 <= ra < 29 and 0 <= rb < 29
        assert reduce_mod_p(a + b, f) == (ra + rb) % 29
        assert reduce_mod_p(a * b, f) == ra * rb % 29


# -- GF(p) elements: the image of Q(i) under reduce_mod_p -------------------

gaussians = st.builds(GaussianRational, rationals, rationals)


@settings(max_examples=200, deadline=None)
@given(a=gaussians, b=gaussians, p=st.sampled_from((5, 13, 29)))
def test_reduce_mod_p_is_a_ring_homomorphism_onto_gf_p(a, b, p):
    field = PrimeField(p)
    try:
        x, y = field(a), field(b)
    except DenominatorDividesP:
        return
    assert (type(x), x.value) == (PrimeFieldElem, reduce_mod_p(a, field))
    assert x + y == field(a + b) and (x + y).value == (x.value + y.value) % p
    assert x - y == field(a - b) and -x == field(-a)
    assert x * y == field(a * b) and (x * y).value == x.value * y.value % p
    if not x.is_zero():
        assert (x * x.inv()).value == 1
        try:
            assert x.inv() == field(a.inv())
        except DenominatorDividesP:
            pass    # a's conjugate reduces to 0, so 1/a has no image
    # onto: every residue is the image of an int
    assert [field(k).value for k in range(p)] == list(range(p))


@pytest.mark.parametrize("p", (5, 13, 1000000009))
def test_ints_enter_gf_p_as_residues(p):
    field = PrimeField(p)
    rng = random.Random(p)
    ints = [0, p, -p, 10**30, -10**30] + [rng.randint(-10**12, 10**12)
                                         for _ in range(200)]
    for k in ints:
        assert field(k).value == k % p == reduce_mod_p(GaussianRational(k),
                                                       field), k


def test_gf_p_mixes_with_q_i_only():
    field = PrimeField(13)
    x = field(GaussianRational(Fraction(1, 2), 1))    # 7 + 5 = 12
    assert x.value == 12 and x == -1 and x != 1 and field(x) is x
    i = GaussianRational(0, 1)
    mixes = (ONE * x, x * i, i * x, x + ONE, ONE + x, x - ONE, ONE - x,
             x * Fraction(1, 2), 3 + x)
    assert all(type(m) is PrimeFieldElem for m in mixes), mixes
    assert [m.value for m in mixes] == [12, 8, 8, 0, 0, 11, 2, 6, 2]
    # nothing maps back to Q(i), and no other field mixes with GF(p)
    with pytest.raises(FieldMismatch):
        reduce_mod_p(x, field)
    with pytest.raises(FieldMismatch):
        GaussianRational.coerce(x)
    sqrt2 = QuadExtField(2).sqrt_d
    for other in (sqrt2, PrimeField(29)(1)):
        with pytest.raises(FieldMismatch):
            x * other
    with pytest.raises(FieldMismatch):
        sqrt2 + x
    with pytest.raises(TypeError):
        hash(x)


# -- the integer triple against a Fraction-pair reference ----------------

def _pair(x):
    return (x.re, x.im)


def _ref_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _ref_inv(u):
    n = u[0] * u[0] + u[1] * u[1]
    return (u[0] / n, -u[1] / n)


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
        results = {
            "add": (x + y, (u[0] + v[0], u[1] + v[1])),
            "sub": (x - y, (u[0] - v[0], u[1] - v[1])),
            "mul": (x * y, _ref_mul(u, v)),
            "neg": (-x, (-u[0], -u[1])),
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
            assert reduce_mod_p(x, field) == want % 13



# -- the fused multiply-add ------------------------------------------------

int_gaussians = st.builds(GaussianRational, st.integers(-10**6, 10**6),
                          st.integers(-10**6, 10**6))
any_gaussians = st.one_of(int_gaussians, gaussians)
SQRT3 = QuadExtField(3)
with_root = st.builds(lambda a, b: SQRT3.embed(a) + SQRT3.sqrt_d * b,
                      any_gaussians, any_gaussians)


@settings(max_examples=200, deadline=None)
@given(any_gaussians, any_gaussians, any_gaussians)
def test_gaussian_muladd_is_x_plus_f_times_y(x, f, y):
    got = x.muladd(f, y)
    assert type(got) is GaussianRational
    assert _triple(got) == _triple(x + f * y)
    _assert_normal(got)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(any_gaussians, with_root), min_size=3,
                max_size=3))
def test_quadext_muladd_mixes_with_q_i(operands):
    x, f, y = operands
    got, want = x.muladd(f, y), x + f * y
    assert type(got) is type(want) and got == want
    for part in (got.a, got.b) if type(got) is QuadExtElem else (got,):
        _assert_normal(part)


GF13 = PrimeField(13)
in_gf13 = st.integers(-100, 100).map(GF13)
gf13_operands = st.one_of(in_gf13, st.integers(-100, 100), st.just(ONE))


@settings(max_examples=200, deadline=None)
@given(st.one_of(in_gf13, st.just(ONE)), gf13_operands, gf13_operands)
def test_prime_field_muladd_with_ints_and_one(x, f, y):
    got, want = x.muladd(f, y), x + f * y
    assert type(got) is type(want) and got == want
    if type(got) is PrimeFieldElem:
        assert 0 <= got.value < 13 and got.value == want.value


def test_prime_field_muladd_keeps_the_field_check():
    x = GF13(3)
    for other in (PrimeField(29)(1), QuadExtField(2).sqrt_d):
        with pytest.raises(FieldMismatch):
            x.muladd(other, x)
        with pytest.raises(FieldMismatch):
            x.muladd(x, other)
    # the same prime under another PrimeField takes the plain arithmetic
    assert x.muladd(PrimeField(13)(2), x).value == 9
