"""Exact scalar fields: rationals and Gaussian rationals.

Every coefficient in the engine is either a `fractions.Fraction` (field tag
``rational``) or a `GaussianRational` (field tag ``gaussian-rational``).  Both
support +, -, *, /, ==, bool and canonical string printing, so all higher
layers are generic over the two.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
GAUSSIAN = "gaussian-rational"

FIELDS = (RATIONAL, GAUSSIAN)


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
    return Fraction(0) if field == RATIONAL else GaussianRational(0)


def field_one(field):
    return Fraction(1) if field == RATIONAL else GaussianRational(1)


def to_field(value, field):
    """Coerce an int/Fraction/GaussianRational into the given field."""
    if field == RATIONAL:
        if isinstance(value, GaussianRational):
            if value.im != 0:
                raise ValueError("imaginary value over the rational field")
            return value.re
        return Fraction(value)
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(Fraction(value))


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
    """Inverse of scalar_str for the given field."""
    s = text.strip()
    if field == RATIONAL:
        return Fraction(s)
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
