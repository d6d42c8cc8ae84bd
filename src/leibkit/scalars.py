"""Exact scalar arithmetic: Q(i), quadratic extensions of it, and the
prime fields of the witness search.

Two element kinds cover every exact coefficient the kernel manipulates:

* ``GaussianRational`` -- (a + b*i)/d with integers a, b, d, kept in normal
  form (d > 0, gcd(a, b, d) = 1) so arithmetic runs on plain ints.  This
  is the workhorse field; every catalogue coefficient lives here.
* ``QuadExtElem`` -- a + b*sqrt(d) with Gaussian-rational a, b and a fixed
  non-square d.  Exactly one square-root generator is supported; nested
  radicals are out of scope by design.

The tower's rules are each written once here: ``promote`` turns an int
or a ``fractions.Fraction`` into Q(i), ``mixes_radicals`` tells scalars
that need two different radicals, which no one object holds, and
``field_sqrt`` and ``adjoin_sqrt`` take square roots, the second one
adjoining sqrt(x) to Q(i) when x has none in its own field.  One root
formula, ``_root_over``, serves both floors, since Q(i) is Q(sqrt(-1))
over Q just as an extension is Q(i)(sqrt(d)) over Q(i).
Q(i) values mix freely with extension values: arithmetic and equality
coerce the Q(i) operand into the extension, and an extension value with
no sqrt(d) part hashes like its Q(i) value, so a matrix or a table may
hold both kinds.  The kernel's constants are ``ONE`` and ``ZERO``
whatever field the entries live in.  Both types are immutable and
hashable.

``PrimeField`` checks that p is a prime with p = 1 (mod 4) and fixes the
residue r with r*r = -1 (mod p) that plays the role of i, taking the
smaller root so that reductions are deterministic.  ``reduce_mod_p`` maps
Q(i) into GF(p) as ints in [0, p), ``lift_mod_p`` lifts those back into a
small box of Q(i), and a ``PrimeField`` called on an int (as its residue
mod p) or a Q(i) value gives its ``PrimeFieldElem``: GF(p) scalars that
the exact kernel takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


class FieldMismatch(TypeError):
    """Raised when two scalars from different field instances are mixed."""


class DenominatorDividesP(ArithmeticError):
    """Raised when reducing a rational whose denominator vanishes mod p."""


class ExtensionTowerNeeded(ArithmeticError):
    """A square root would need a second quadratic extension; the tower
    stops at one, so its callers report instead of guessing."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rational_sqrt(f: Fraction) -> Fraction | None:
    """The nonnegative rational square root of f, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """An element (a + b*i)/d of Q(i), held as a normalised integer triple.

    The triple satisfies d > 0 and gcd(a, b, d) = 1, so every value has
    exactly one representation and equality is a comparison of triples.
    Like ``Fraction``, the integers live in private slots and the public
    components ``re`` and ``im`` are read-only ``Fraction`` properties.
    A value with b = 0 equals, and hashes like, the ``Fraction`` (or int)
    a/d.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        # over d = lcm of the two lowest-terms denominators, gcd(a, b, d) = 1
        g = gcd(re.denominator, im.denominator)
        self._a = re.numerator * (im.denominator // g)
        self._b = im.numerator * (re.denominator // g)
        self._d = re.denominator // g * im.denominator

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        o = promote(x)
        if type(o) is not GaussianRational:
            raise FieldMismatch(f"cannot coerce {x!r} into Q(i)")
        return o

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _normalised(self._a + other._a, self._b + other._b, d1)
        return _normalised(self._a * d2 + other._a * d1,
                           self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _normalised(self._a - other._a, self._b - other._b, d1)
        return _normalised(self._a * d2 - other._a * d1,
                           self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _normalised(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                           self._d * other._d)

    __rmul__ = __mul__

    def muladd(self, f, y):
        """self + f*y, read straight off the three triples and normalised
        once; other operands take the arithmetic above."""
        if type(f) is not GaussianRational or type(y) is not GaussianRational:
            return self + f * y
        fa, fb, ya, yb = f._a, f._b, y._a, y._b
        pa, pb, pd = fa * ya - fb * yb, fa * yb + fb * ya, f._d * y._d
        d = self._d
        if d == pd:
            return _normalised(self._a + pa, self._b + pb, d)
        return _normalised(self._a * pd + pa * d, self._b * pd + pb * d,
                           d * pd)

    def inv(self) -> "GaussianRational":
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _normalised(d * a, -d * b, n)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    # -- predicates and ordering ----------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def is_rational(self) -> bool:
        return self._b == 0

    def lex_key(self):
        """Total order key (re, then im); used only for canonical choices."""
        return (self.re, self.im)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        from .exprs import format_scalar

        return format_scalar(self)


_new_object = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already in normal form."""
    x = _new_object(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def _normalised(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from any triple with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    x = _new_object(GaussianRational)
    x._a, x._b, x._d = a, b, d
    return x


def promote(x):
    """x as a scalar of the tower: an int or a Fraction becomes a
    GaussianRational, and anything else comes back unchanged for the
    caller to take or refuse."""
    if type(x) is GaussianRational:
        return x
    if type(x) is int:
        return _triple(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return x


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class QuadExtField:
    """Q(i) extended by one square root sqrt(d), arithmetic mod x^2 - d."""

    __slots__ = ("d",)

    def __init__(self, d):
        d = GaussianRational.coerce(d)
        if d.is_zero():
            raise ValueError("extension generator d must be nonzero")
        if field_sqrt(d) is not None:
            raise ValueError(f"d = {d!r} is already a square in Q(i)")
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtField is immutable")

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and self.d == other.d

    def __hash__(self):
        return hash(("QuadExt", self.d))

    def __repr__(self):
        return f"QuadExtField(d={self.d!r})"

    def embed(self, a) -> "QuadExtElem":
        return QuadExtElem(GaussianRational.coerce(a), ZERO, self)

    @property
    def sqrt_d(self):
        return QuadExtElem(ZERO, ONE, self)


class QuadExtElem:
    """a + b*sqrt(d) with Gaussian-rational a, b."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b, field: QuadExtField):
        object.__setattr__(self, "a", GaussianRational.coerce(a))
        object.__setattr__(self, "b", GaussianRational.coerce(b))
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExtElem is immutable")

    def _coerce(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.field != self.field:
                raise FieldMismatch("mixing distinct quadratic extensions")
            return other
        return self.field.embed(other)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExtElem(self.a + o.a, self.b + o.b, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadExtElem(self.a - o.a, self.b - o.b, self.field)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.field.d
        return QuadExtElem(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            self.field,
        )

    __rmul__ = __mul__

    def muladd(self, f, y):
        return self + f * y

    def inv(self) -> "QuadExtElem":
        # Norm a^2 - d b^2 vanishes only at zero since d is not a square.
        n = self.a * self.a - self.field.d * self.b * self.b
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero in quadratic extension")
        ninv = n.inv()
        return QuadExtElem(self.a * ninv, -self.b * ninv, self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __neg__(self):
        return QuadExtElem(-self.a, -self.b, self.field)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_one(self) -> bool:
        return self.a.is_one() and self.b.is_zero()

    def lex_key(self):
        return (self.a.re, self.a.im, self.b.re, self.b.im)

    def __eq__(self, other):
        if type(other) is not QuadExtElem:
            other = promote(other)
            if type(other) is not GaussianRational:
                return NotImplemented
            other = self.field.embed(other)
        return (other.field == self.field and self.a == other.a
                and self.b == other.b)

    def __hash__(self):
        if self.b.is_zero():
            return hash(self.a)
        return hash((self.a, self.b, self.field))

    def __repr__(self):
        from .exprs import format_scalar

        return format_scalar(self)


def mixes_radicals(scalars) -> bool:
    """Whether scalars need two different radicals, which no one object
    of the tower can hold."""
    return len({x.field for x in scalars if type(x) is QuadExtElem}) > 1


def _root_over(a, b, d, root):
    """A root (u, v) of a + b*sqrt(d) in F(sqrt(d)), u + v*sqrt(d), for a,
    b in a field F whose square roots `root` finds; None when it has none.

    With b = 0 the root is sqrt(a) or sqrt(a/d)*sqrt(d).  Otherwise
    u^2 = (a + n)/2 or (a - n)/2, with n a root of the norm a^2 - d*b^2,
    and v = b/(2u); u = 0 would make b = 0.  At most one of the two is a
    square in F, as their product d*b^2/4 is not.
    """
    if b == 0:
        r = root(a)
        if r is not None:
            return r, b
        r = root(a / d)
        return None if r is None else (b, r)
    n = root(a * a - d * b * b)
    if n is None:
        return None
    for s in (n, -n):
        u = root((a + s) / 2)
        if u is not None:
            return u, b / (2 * u)
    return None


def field_sqrt(x):
    """A square root of x in x's own field, Q(i) or its quadratic
    extension, or None."""
    if type(x) is QuadExtElem:
        r = _root_over(x.a, x.b, x.field.d, field_sqrt)
        return None if r is None else QuadExtElem(*r, x.field)
    r = _root_over(x.re, x.im, -1, rational_sqrt)
    return None if r is None else GaussianRational(*r)


def adjoin_sqrt(x):
    """(root, generator): a square root of x in x's own field with
    generator None, or else sqrt(x) adjoined to Q(i) with generator x.

    Raises ExtensionTowerNeeded when x already lies in an extension and
    has no root there.
    """
    r = field_sqrt(x)
    if r is not None:
        return r, None
    if type(x) is QuadExtElem:
        raise ExtensionTowerNeeded(
            f"sqrt of {x!r} leaves its quadratic extension")
    fld = QuadExtField(x)
    return fld.sqrt_d, fld.d


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """A prime p = 1 (mod 4) and `i_residue`, the smaller square root of -1
    mod p; called on a scalar, it gives that scalar's `PrimeFieldElem`."""

    __slots__ = ("p", "i_residue")

    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if p % 4 != 1:
            raise ValueError(f"p = {p} must be 1 mod 4 so that -1 is a square")
        r = None
        for a in range(2, p):
            t = pow(a, (p - 1) // 4, p)
            if t * t % p == p - 1:
                r = min(t, p - t)
                break
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "i_residue", r)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __call__(self, x) -> "PrimeFieldElem":
        """x in GF(p): its own elements as they are, an int as x % p, else
        by `reduce_mod_p`."""
        if type(x) is int:
            return PrimeFieldElem(x, self)
        if type(x) is PrimeFieldElem and x.field.p == self.p:
            return x
        return PrimeFieldElem(reduce_mod_p(promote(x), self), self)


def _mod_p_op(op):
    # op on two residues, the second operand taken into GF(p) by the field
    return lambda x, y: PrimeFieldElem(op(x.value, x.field(y).value), x.field)


class PrimeFieldElem:
    """An element of GF(p): an int `value` in [0, p) and its PrimeField,
    with the arithmetic the exact kernel asks of a scalar.  The field takes
    in an int or Q(i) operand, such as ONE, and refuses any other."""

    __slots__ = ("value", "field")
    __hash__ = None   # it equals every scalar that reduces to it

    def __init__(self, value: int, field: PrimeField):
        self.value, self.field = value % field.p, field

    __add__ = __radd__ = _mod_p_op(int.__add__)
    __sub__ = _mod_p_op(int.__sub__)
    __rsub__ = _mod_p_op(int.__rsub__)
    __mul__ = __rmul__ = _mod_p_op(int.__mul__)

    def muladd(self, f, y):
        """self + f*y, reduced once when all three share the field."""
        fld = self.field
        if type(f) is type(y) is PrimeFieldElem and f.field is fld is y.field:
            return PrimeFieldElem(self.value + f.value * y.value, fld)
        return self + f * y

    def __neg__(self):
        return PrimeFieldElem(-self.value, self.field)

    def inv(self) -> "PrimeFieldElem":
        return PrimeFieldElem(pow(self.value, -1, self.field.p), self.field)

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        return self.value == self.field(other).value

    def __repr__(self):
        return f"{self.value} mod {self.field.p}"


def reduce_mod_p(a: GaussianRational, field: PrimeField) -> int:
    """Ring-homomorphism image of a in GF(p), sending i to the residue r,
    as an int in [0, p).

    Raises DenominatorDividesP when either component's denominator is
    divisible by p (the homomorphism is undefined there).  With a in
    normal form (x + y*i)/d that happens exactly when p divides d.
    Raises FieldMismatch for a scalar outside Q(i), such as sqrt(2).
    """
    if not isinstance(a, GaussianRational):
        raise FieldMismatch(f"{a!r} does not lie in Q(i)")
    p = field.p
    if a._d % p == 0:
        raise DenominatorDividesP(f"denominator of {a!r} vanishes mod {p}")
    return (a._a + a._b * field.i_residue) * pow(a._d, p - 2, p) % p


_LIFT_BOX = 6   # bound on |re|, |im| and the denominator of a lifted value


def lift_mod_p(e: int, field: PrimeField) -> GaussianRational | None:
    """The least preimage of the residue e under reduce_mod_p whose |re|,
    |im| and denominator are at most _LIFT_BOX, in the order (|im|, |re|,
    denominator, im < 0, re < 0); None when there is none."""
    p, i_res = field.p, field.i_residue
    for level in range(_LIFT_BOX + 1):      # |im| leads the order
        keys = []
        for den in range(1, _LIFT_BOX + 1):
            if den % p:     # no preimage has a denominator that p divides
                for b in {level, -level}:
                    a = (e * den - b * i_res) % p
                    a = a - p if a > p // 2 else a
                    if abs(a) <= _LIFT_BOX:
                        keys.append((abs(a), den, b < 0, a < 0, a, b))
        if keys:
            _, den, _, _, a, b = min(keys)
            return _normalised(a, b, den)
    return None
