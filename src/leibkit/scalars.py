"""Exact scalar arithmetic: Q(i), quadratic extensions of it, and GF(p).

Three element kinds cover every coefficient the kernel manipulates:

* ``GaussianRational`` -- (a + b*i)/d with integers a, b, d, kept in normal
  form (d > 0, gcd(a, b, d) = 1) so arithmetic runs on plain ints.  This
  is the workhorse field; every catalogue coefficient lives here.
* ``QuadExtElem`` -- a + b*sqrt(d) with Gaussian-rational a, b and a fixed
  non-square d.  Exactly one square-root generator is supported; nested
  radicals are out of scope by design (witnesses needing them are checked
  over prime fields instead).
* ``PrimeFieldElem`` -- GF(p) with p = 1 (mod 4), used for witness search.
  A designated residue r with r*r = -1 (mod p) plays the role of i; we fix
  r as the smaller of the two roots so reductions are deterministic.

Plain rationals are ``fractions.Fraction`` values; they coerce into any of
the element kinds.  All types are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


class FieldMismatch(TypeError):
    """Raised when two scalars from different field instances are mixed."""


class DenominatorDividesP(ArithmeticError):
    """Raised when reducing a rational whose denominator vanishes mod p."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def is_rational_square(f: Fraction) -> bool:
    """True iff f is the square of a rational."""
    if f < 0:
        return False
    n, d = f.numerator, f.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


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
        o = GaussianRational._try_coerce(x)
        if o is None:
            raise FieldMismatch(f"cannot coerce {x!r} into Q(i)")
        return o

    @staticmethod
    def _try_coerce(x):
        """Like coerce, but yields None for foreign types so that binary
        operators can return NotImplemented and defer to the other operand
        (e.g. to QuadExtElem, which knows how to embed Q(i))."""
        if type(x) is GaussianRational:
            return x
        if type(x) is int:
            return _triple(x, 0, 1)
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else \
            GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _normalised(self._a + o._a, self._b + o._b, d1)
        return _normalised(self._a * d2 + o._a * d1,
                           self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else \
            GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _normalised(self._a - o._a, self._b - o._b, d1)
        return _normalised(self._a * d2 - o._a * d1,
                           self._b * d2 - o._b * d1, d1 * d2)

    def __rsub__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else \
            GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return _normalised(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                           self._d * o._d)

    __rmul__ = __mul__

    def inv(self) -> "GaussianRational":
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _normalised(d * a, -d * b, n)

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else \
            GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = GaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    # -- predicates and ordering ----------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def lex_key(self):
        """Total order key (re, then im); used only for canonical choices."""
        return (self.re, self.im)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

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


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gaussian_sqrt(a: GaussianRational) -> GaussianRational | None:
    """A square root of a inside Q(i), or None when no such root exists.

    For a = x + yi with y != 0, any root u + vi satisfies
    u^2 = (x + s)/2 with s = sqrt(x^2 + y^2) and v = y/(2u); the root exists
    in Q(i) exactly when both s and (x + s)/2 are rational squares.
    """
    x, y = a.re, a.im
    if y == 0:
        r = rational_sqrt(x) if x >= 0 else rational_sqrt(-x)
        if r is None:
            return None
        return GaussianRational(r) if x >= 0 else GaussianRational(0, r)
    s = rational_sqrt(x * x + y * y)
    if s is None:
        return None
    u = rational_sqrt((x + s) / 2)
    if u is None or u == 0:
        return None
    return GaussianRational(u, y / (2 * u))


class QuadExtField:
    """Q(i) extended by one square root sqrt(d), arithmetic mod x^2 - d."""

    __slots__ = ("d",)

    def __init__(self, d):
        d = GaussianRational.coerce(d)
        if d.is_zero():
            raise ValueError("extension generator d must be nonzero")
        if gaussian_sqrt(d) is not None:
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
    def zero(self):
        return self.embed(0)

    @property
    def one(self):
        return self.embed(1)

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

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def lex_key(self):
        return (self.a.re, self.a.im, self.b.re, self.b.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.field.embed(other)
        if not isinstance(other, QuadExtElem):
            return NotImplemented
        if other.field != self.field:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b.is_zero():
            return hash(self.a)
        return hash((self.a, self.b, self.field))

    def __repr__(self):
        from .exprs import format_scalar

        return format_scalar(self)


def quadext_sqrt(q: QuadExtElem) -> QuadExtElem | None:
    """A square root of q inside its own quadratic extension, or None.

    Writing q = a + b*sqrt(d), a root u + v*sqrt(d) exists in the same
    extension iff the norm a^2 - d b^2 has a Gaussian square root n and
    (a +/- n)/2 is a Gaussian square (then v = b/(2u)); both signs are tried.
    """
    fld = q.field
    if q.is_zero():
        return fld.zero
    if q.b.is_zero():
        r = gaussian_sqrt(q.a)
        if r is not None:
            return fld.embed(r)
        # sqrt(a) = sqrt(a/d) * sqrt(d) when a/d is a Gaussian square.
        r = gaussian_sqrt(q.a / fld.d)
        if r is not None:
            return QuadExtElem(ZERO, r, fld)
        return None
    n = gaussian_sqrt(q.a * q.a - fld.d * q.b * q.b)
    if n is None:
        return None
    for sign in (1, -1):
        u = gaussian_sqrt((q.a + n * sign) / 2)
        if u is not None and not u.is_zero():
            return QuadExtElem(u, q.b / (u * 2), fld)
    return None


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
    """GF(p) with p = 1 (mod 4); r is the smaller square root of -1."""

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

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def elem(self, v: int) -> "PrimeFieldElem":
        return PrimeFieldElem(v % self.p, self)

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)


class PrimeFieldElem:
    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        object.__setattr__(self, "value", value % field.p)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldElem is immutable")

    def _coerce(self, other) -> "PrimeFieldElem":
        if isinstance(other, PrimeFieldElem):
            if other.field != self.field:
                raise FieldMismatch("mixing distinct prime fields")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        raise FieldMismatch(f"cannot coerce {other!r} into GF({self.field.p})")

    def __add__(self, other):
        o = self._coerce(other)
        return PrimeFieldElem(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return PrimeFieldElem(self.value - o.value, self.field)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return PrimeFieldElem(self.value * o.value, self.field)

    __rmul__ = __mul__

    def inv(self) -> "PrimeFieldElem":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.field.p})")
        return PrimeFieldElem(pow(self.value, self.field.p - 2, self.field.p), self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __neg__(self):
        return PrimeFieldElem(-self.value, self.field)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        return PrimeFieldElem(pow(self.value, k, self.field.p), self.field)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        if not isinstance(other, PrimeFieldElem):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.field))

    def __repr__(self):
        return f"{self.value}"


def reduce_mod_p(a: GaussianRational, field: PrimeField) -> PrimeFieldElem:
    """Ring-homomorphism image of a in GF(p), sending i to the residue r.

    Raises DenominatorDividesP when either component's denominator is
    divisible by p (the homomorphism is undefined there).  With a in
    normal form (x + y*i)/d that happens exactly when p divides d.
    """
    p = field.p
    if a._d % p == 0:
        raise DenominatorDividesP(f"denominator of {a!r} vanishes mod {p}")
    return field.elem((a._a + a._b * field.i_residue) * pow(a._d, p - 2, p))
