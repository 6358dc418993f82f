"""Exact scalar fields: rationals and Gaussian rationals.

Every coefficient in the engine is either a rational (field tag ``rational``)
or a `GaussianRational` (field tag ``gaussian-rational``).  A rational is a
plain `int` when it is integral and a reduced `fractions.Fraction` otherwise,
so that arithmetic on the many small integral values stays in ints.
`to_field`, `field_zero`, `field_one` and `parse_scalar` return that form, as
do a superfunction's value at a point and the kernel vectors of
`linalg.solve_graded`; `linalg.SparseEchelon` puts its input and its quotients
in it, and every coefficient of a superfunction is in it: no superfunction
holds an integral `Fraction`.  A sum or product of Fractions may be an
integral `Fraction`, since `fractions` never returns an int, so the
superfunction kernels pass what they produce through `canonical`; any other
integral `Fraction` equals its int and prints the same.  A true division must
go through a `Fraction` (or a `GaussianRational`), since int / int is a float,
and no float is ever a scalar.  Both fields support +, -, *, ==, bool and
canonical string printing, so all higher layers are generic over the two.
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL = "rational"
GAUSSIAN = "gaussian-rational"

FIELDS = (RATIONAL, GAUSSIAN)

# Largest bit length of a numerator or denominator that a literal may name or
# a `*` or `^` may produce: nested constant powers multiply it by up to 16 a
# level.
MAX_COEFFICIENT_BITS = 1024
# Longest run of digits the tokenizers read, leading zeros included: without
# them, a longer number is above MAX_COEFFICIENT_BITS, the superfunction
# parser's MAX_EXPONENT and any coordinate index, and int() never meets its
# own length limit.
MAX_DIGITS = len(str(2**MAX_COEFFICIENT_BITS))
# A run of the digits (and underscores) that `Fraction` reads, with the
# exponent marker before it when there is one.
_NUMERAL = re.compile(r"([eE][-+]?)?([\d_]+)")


class GaussianRational:
    """Element a + b*i with a, b exact rationals, stored in reduced form."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (self.re, self.im)

    def __str__(self):
        return scalar_str(self)


I_UNIT = GaussianRational(0, 1)


def field_zero(field):
    return 0 if field == RATIONAL else GaussianRational(0)


def field_one(field):
    return 1 if field == RATIONAL else GaussianRational(1)


def canonical(value):
    """A rational `Fraction` with denominator 1 as its int; any other scalar
    as it is."""
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def scalar_bits(value) -> int:
    """Largest bit length of a numerator or denominator of a scalar, over
    both parts of a Gaussian one."""
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in parts)


def to_field(value, field):
    """Coerce an int/Fraction/GaussianRational into the given field: over the
    rationals an int when the value is integral, else a reduced Fraction.  A
    float is not exact and raises TypeError."""
    cls = value.__class__
    if field == RATIONAL:
        if cls is int:
            return value
        if cls is Fraction:
            return value.numerator if value.denominator == 1 else value
        if cls is GaussianRational:
            if value.im != 0:
                raise ValueError("imaginary value over the rational field")
            return canonical(value.re)
    elif cls is GaussianRational:
        return value
    if isinstance(value, float):
        raise TypeError("a float is not an exact scalar: %r" % (value,))
    value = Fraction(value)
    return canonical(value) if field == RATIONAL else GaussianRational(value)


class NotRealError(ValueError):
    """A real float was asked of a scalar with an imaginary part."""


def scalar_float(value):
    """Body float of a scalar; imaginary parts must be absent."""
    if isinstance(value, GaussianRational):
        if value.im != 0:
            raise NotRealError("cannot take a real float of %s" % value)
        return float(value.re)
    return float(value)


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def scalar_str(value) -> str:
    """Canonical printing: "a/b" or "a/b+c/d i" (minus folded into c)."""
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return _frac_str(value.re)
        if value.re == 0:
            return "%s i" % _frac_str(value.im)
        if value.im > 0:
            return "%s+%s i" % (_frac_str(value.re), _frac_str(value.im))
        return "%s-%s i" % (_frac_str(value.re), _frac_str(-value.im))
    return _frac_str(value)


def parse_scalar(text: str, field: str):
    """Inverse of scalar_str for the given field.  A text with a run of more
    than MAX_DIGITS digits, or an exponent above MAX_DIGITS, raises
    ValueError before it is built, since building it may cost without bound."""
    s = text.strip()
    for e, d in _NUMERAL.findall(s):
        if len(d) > MAX_DIGITS or e and int(d.replace("_", "") or 0) > MAX_DIGITS:
            raise ValueError("a number above the limit of %d bits" % MAX_COEFFICIENT_BITS)
    if field == RATIONAL:
        return canonical(Fraction(s))
    if s.endswith("i"):
        body = s[:-1].strip()
        # split into real and imaginary pieces at the last top-level +/-
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part = body[:k]
                im_part = body[k:] or "1"
                if im_part in ("+", "-"):
                    im_part += "1"
                return GaussianRational(Fraction(re_part), Fraction(im_part))
        if body in ("", "+", "-"):
            body += "1"
        return GaussianRational(0, Fraction(body))
    return GaussianRational(Fraction(s))
