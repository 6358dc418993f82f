"""Superfunctions on a chart: polynomial coefficients times odd generators.

A chart has n even coordinates x1..xn and m odd coordinates xi1..xim over an
exact field.  A superfunction is stored as a table keyed by the set of odd
generators present (a bitmask), each entry an exact multivariate polynomial in
the even coordinates.  Storage is canonical: odd index sets sorted, signs
absorbed into coefficients, no zero entries.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import (
    FIELDS,
    GAUSSIAN,
    MAX_COEFFICIENT_BITS,
    MAX_DIGITS,
    RATIONAL,
    GaussianRational,
    canonical,
    field_one,
    field_zero,
    scalar_bits,
    scalar_str,
    to_field,
)

# Largest exponent the parser accepts after `^`: it multiplies the base that
# many times, so an unbounded exponent is an unbounded run.
MAX_EXPONENT = 16
# Largest even total degree of a parsed product or power: nested powers
# multiply their exponents, so the exponent bound alone does not bound the work.
MAX_DEGREE = 16
# Deepest parenthesis nesting the parser accepts: each level costs a few
# Python stack frames, and the recursion limit must not be the bound.
MAX_NESTING = 64


class ChartSignature:
    """n even coordinates, m odd coordinates, over an exact field."""

    __slots__ = ("n", "m", "field")

    def __init__(self, n: int, m: int, field: str = RATIONAL):
        if n < 0 or m < 0:
            raise ValueError("coordinate counts must be nonnegative")
        if field not in FIELDS:
            raise ValueError("unknown field %r" % (field,))
        self.n = n
        self.m = m
        self.field = field

    def __eq__(self, other):
        return (
            isinstance(other, ChartSignature)
            and self.n == other.n
            and self.m == other.m
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.n, self.m, self.field))

    def __repr__(self):
        return "ChartSignature(n=%d, m=%d, field=%r)" % (self.n, self.m, self.field)

    @property
    def total(self) -> int:
        return self.n + self.m

    def coerce_point(self, point):
        """The even coordinates of a point, checked and coerced into the field."""
        if len(point) != self.n:
            raise ValueError("point must have %d even coordinates" % self.n)
        return [to_field(c, self.field) for c in point]


def mask_to_indices(mask: int):
    out = []
    alpha = 1
    while mask:
        if mask & 1:
            out.append(alpha)
        mask >>= 1
        alpha += 1
    return tuple(out)


def indices_to_mask(indices) -> int:
    mask = 0
    for alpha in indices:
        bit = 1 << (alpha - 1)
        if mask & bit:
            return -1  # repeated generator annihilates
        mask |= bit
    return mask


def merge_sign(left_mask: int, right_mask: int) -> int:
    """Sign of sorting the concatenation (sorted left)(sorted right).

    Counts pairs (i in left, j in right) with i > j; each costs one swap.
    """
    sign = 1
    rest = left_mask
    while rest:
        low_i = rest & -rest
        below = low_i - 1
        if bin(right_mask & below).count("1") % 2:
            sign = -sign
        rest &= rest - 1
    return sign


def _poly_scale(p, c):
    if not c:
        return {}
    return {k: canonical(c * v) for k, v in p.items()}


def _poly_value(poly, point, field, d=None):
    """An even polynomial {exps: coef} at even coordinates in the field, or
    with a 0-based even index d its x_d-derivative there, as
    `scalars.canonical` gives it."""
    total = field_zero(field)
    for exps, coef in poly.items():
        if d is not None:
            e = exps[d]
            if not e:
                continue
            coef = coef * e
            exps = exps[:d] + (e - 1,) + exps[d + 1 :]
        term = coef
        for c, e in zip(point, exps):
            if e and not c:
                break  # a zero coordinate to a positive power
            for _ in range(e):
                term = term * c
        else:
            total = total + term
    return canonical(total)


def mul_into(acc, f, g, sign=1):
    """Add sign·f·g into `acc`, a raw {mask: {exps: coef}} accumulator.

    No intermediate superfunction is built: each product of terms lands in
    its slot with the sign of `merge_sign` folded in.  Coefficients that
    cancel stay in `acc` as zeros until `accumulated` drops them.
    """
    for mi, pi in f.terms.items():
        for mj, pj in g.terms.items():
            if mi & mj:
                continue
            out = acc.setdefault(mi | mj, {})
            negate = sign * merge_sign(mi, mj) < 0
            for ke, ve in pi.items():
                if negate:
                    ve = -ve
                for kf, vf in pj.items():
                    k = tuple(map(add, ke, kf))
                    v = ve * vf
                    w = out.get(k)
                    out[k] = v if w is None else w + v


def add_into(acc, terms, sign=1):
    """Add sign·f into `acc`, a raw accumulator as for `mul_into`, for f
    given by its terms {mask: {exps: coef}}: a superfunction's `terms`, or
    a raw accumulator."""
    for mask, poly in terms.items():
        out = acc.setdefault(mask, {})
        for k, v in poly.items():
            if sign < 0:
                v = -v
            w = out.get(k)
            out[k] = v if w is None else w + v


def partials_into(accs, key, f, stop):
    """Put the left partial ∂_c f into accs[c][key], a raw accumulator as for
    `mul_into`, for every 0-based coordinate index c < stop, from one pass
    over the terms of f: no derivative is built as a superfunction.  No
    accs[c] may hold `key` yet."""
    n = f.sig.n
    even = range(min(stop, n))
    odd = [(accs[c], 1 << (c - n)) for c in range(n, stop)]
    for mask, poly in f.terms.items():
        ders = {}
        for exps, coef in poly.items():
            for c in even:
                e = exps[c]
                if e:
                    der = ders.get(c)
                    if der is None:
                        der = ders[c] = {}
                    der[exps[:c] + (e - 1,) + exps[c + 1 :]] = coef * e
        for c, der in ders.items():
            accs[c].setdefault(key, {})[mask] = der
        for acc, bit in odd:
            if mask & bit:
                # left derivative: sign (-1)^(s-1) with s the position of the bit
                negate = bin(mask & (bit - 1)).count("1") % 2
                acc.setdefault(key, {})[mask ^ bit] = {k: -v for k, v in poly.items()} if negate else dict(poly)


def accumulated(sig: ChartSignature, acc) -> "Superfunction":
    """The superfunction an accumulator holds, its zero coefficients dropped
    and each coefficient in `scalars.canonical` form: a sum or product of
    rationals may be an integral `Fraction`, and it is stored as its int, so
    that no superfunction holds an integral `Fraction`."""
    terms = {}
    for mask, poly in acc.items():
        poly = {
            k: v.numerator if v.__class__ is Fraction and v.denominator == 1 else v
            for k, v in poly.items()
            if v
        }
        if poly:
            terms[mask] = poly
    return Superfunction(sig, terms, _normalized=True)


class Superfunction:
    """Immutable superfunction over a chart signature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: ChartSignature, terms=None, _normalized=False):
        self.sig = sig
        if terms is None:
            terms = {}
        if not _normalized:
            for mask, poly in terms.items():
                if mask < 0 or mask >= (1 << sig.m):
                    raise ValueError("odd index set out of range for m=%d" % sig.m)
                for exps in poly:
                    if len(exps) != sig.n:
                        raise ValueError("exponent tuple %r must have n=%d entries" % (exps, sig.n))
            terms = accumulated(sig, terms).terms
        self.terms = terms

    # ------------------------------------------------------------------ basic

    @staticmethod
    def zero(sig: ChartSignature) -> "Superfunction":
        return Superfunction(sig, {}, _normalized=True)

    @staticmethod
    def constant(sig: ChartSignature, value) -> "Superfunction":
        value = to_field(value, sig.field)
        if not value:
            return Superfunction.zero(sig)
        return Superfunction(sig, {0: {(0,) * sig.n: value}}, _normalized=True)

    @staticmethod
    def even_var(sig: ChartSignature, i: int) -> "Superfunction":
        if not 1 <= i <= sig.n:
            raise IndexError("even coordinate x%d out of range" % i)
        exps = tuple(1 if j == i - 1 else 0 for j in range(sig.n))
        return Superfunction(sig, {0: {exps: field_one(sig.field)}}, _normalized=True)

    @staticmethod
    def odd_var(sig: ChartSignature, alpha: int) -> "Superfunction":
        if not 1 <= alpha <= sig.m:
            raise IndexError("odd coordinate xi%d out of range" % alpha)
        return Superfunction(
            sig,
            {1 << (alpha - 1): {(0,) * sig.n: field_one(sig.field)}},
            _normalized=True,
        )

    @staticmethod
    def coordinate(sig: ChartSignature, a: int) -> "Superfunction":
        """Coordinate by global index a in 1..n+m."""
        if a <= sig.n:
            return Superfunction.even_var(sig, a)
        return Superfunction.odd_var(sig, a - sig.n)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Superfunction):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        items = tuple(
            (mask, tuple(sorted(poly.items())))
            for mask, poly in sorted(self.terms.items())
        )
        return hash((self.sig, items))

    # ------------------------------------------------------------- arithmetic

    def _check(self, other):
        if self.sig != other.sig:
            raise ValueError("signature mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Superfunction.constant(self.sig, other)
        self._check(other)
        acc = {}
        add_into(acc, self.terms)
        add_into(acc, other.terms)
        return accumulated(self.sig, acc)

    __radd__ = __add__

    def __neg__(self):
        return Superfunction(
            self.sig,
            {mask: {k: -v for k, v in poly.items()} for mask, poly in self.terms.items()},
            _normalized=True,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Superfunction.constant(self.sig, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Superfunction":
        c = to_field(c, self.sig.field)
        if not c:
            return Superfunction.zero(self.sig)
        return Superfunction(
            self.sig,
            {mask: _poly_scale(poly, c) for mask, poly in self.terms.items()},
            _normalized=True,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        acc = {}
        mul_into(acc, self, other)
        return accumulated(self.sig, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    # ------------------------------------------------------------ derivatives

    def partial(self, a: int) -> "Superfunction":
        """Left partial derivative by coordinate index a in 1..n+m: the
        ∂_a accumulator of `partials_into` with stop a, which forms the
        lower directions too."""
        if not 1 <= a <= self.sig.total:
            raise IndexError("coordinate index %d out of range" % a)
        accs = [{} for _ in range(a)]
        partials_into(accs, 0, self, a)
        return accumulated(self.sig, accs[a - 1].get(0, {}))

    # ------------------------------------------------------------- evaluation

    def value(self, point):
        """Value at a point: the body polynomial evaluated at even coords."""
        return self.body_value(self.sig.coerce_point(point))

    def body_value(self, point):
        """The body polynomial at even coordinates already in the field."""
        return _poly_value(self.terms.get(0, {}), point, self.sig.field)

    def partial_bodies(self, point):
        """The bodies at even coordinates already in the field of the left
        partials ∂_1 f, ..., ∂_{n+m} f, as a list by 0-based coordinate
        index, without building a derivative: the even ones are the
        `_poly_value` x_i-derivatives of the body, and the one of an odd ξ_α
        is the `_poly_value` of the ξ_α-coefficient (its sign is +1: no
        generator comes before ξ_α)."""
        sig = self.sig
        n, field = sig.n, sig.field
        out = [field_zero(field)] * sig.total
        for mask, poly in self.terms.items():
            if mask & (mask - 1):
                continue  # two or more generators: no body in any first partial
            if mask:
                out[n + mask.bit_length() - 1] = _poly_value(poly, point, field)
            else:
                out[:n] = [_poly_value(poly, point, field, i) for i in range(n)]
        return out

    def coefficient(self, indices) -> dict:
        """Polynomial coefficient of a given odd index tuple (sorted)."""
        mask = indices_to_mask(indices)
        if mask < 0:
            return {}
        return dict(self.terms.get(mask, {}))

    def parity(self) -> str:
        """'even' / 'odd' / 'mixed' / 'zero' by odd index set sizes."""
        if not self.terms:
            return "zero"
        seen = {bin(mask).count("1") % 2 for mask in self.terms}
        if seen == {0}:
            return "even"
        if seen == {1}:
            return "odd"
        return "mixed"

    def sign_split(self, exponent: int) -> "Superfunction":
        """Apply (-1)^(exponent * parity) termwise.

        Mixed-parity functions split into homogeneous parts: the even part is
        kept, the odd part flips sign when exponent is odd.
        """
        if exponent % 2 == 0:
            return self
        out = {}
        for mask, poly in self.terms.items():
            if bin(mask).count("1") % 2:
                out[mask] = {k: -v for k, v in poly.items()}
            else:
                out[mask] = poly
        return Superfunction(self.sig, out, _normalized=True)

    # --------------------------------------------------------------- printing

    def __str__(self):
        return sf_to_str(self)

    def __repr__(self):
        return "Superfunction(%r)" % sf_to_str(self)


# ------------------------------------------------------------------ printing


def _monomial_str(exps, coef, odd_indices) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append("x%d" % (i + 1))
        elif e > 1:
            factors.append("x%d^%d" % (i + 1, e))
    for alpha in odd_indices:
        factors.append("xi%d" % alpha)
    cs = scalar_str(coef)
    if not factors:
        return cs
    if cs == "1":
        return "*".join(factors)
    if cs == "-1":
        return "-" + "*".join(factors)
    if isinstance(coef, GaussianRational) and coef.im != 0 and coef.re != 0:
        cs = "(%s)" % cs
    elif isinstance(coef, GaussianRational) and coef.im != 0:
        cs = cs.replace(" ", "*")
    return cs + "*" + "*".join(factors)


def sf_to_str(f: Superfunction) -> str:
    """Terms in lexicographic odd-index-set order, monomials graded-lex."""
    if not f.terms:
        return "0"
    pieces = []
    for mask in sorted(f.terms, key=mask_to_indices):
        odd = mask_to_indices(mask)
        poly = f.terms[mask]
        for exps in sorted(poly, key=lambda e: (-sum(e), tuple(-x for x in e))):
            pieces.append(_monomial_str(exps, poly[exps], odd))
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


# -------------------------------------------------------------------- parser


class SyntaxErrorAt(ValueError):
    """Expression syntax error carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^()/":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdecimal():
            j = _digits_end(text, i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if text.startswith("xi", i):
            j = _digits_end(text, i + 2)
            if j == i + 2:
                raise SyntaxErrorAt("odd variable needs an index", i)
            tokens.append(("oddvar", text[i + 2 : j], i))
            i = j
            continue
        if c == "x":
            j = _digits_end(text, i + 1)
            if j == i + 1:
                raise SyntaxErrorAt("even variable needs an index", i)
            tokens.append(("evenvar", text[i + 1 : j], i))
            i = j
            continue
        if c == "i":
            tokens.append(("imag", "i", i))
            i += 1
            continue
        raise SyntaxErrorAt("unexpected character %r" % c, i)
    tokens.append(("end", "", len(text)))
    return tokens


def _digits_end(text, i):
    """End of the run of decimal digits from i, which `int` reads: at most
    MAX_DIGITS of them."""
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    if j - i > MAX_DIGITS:
        raise SyntaxErrorAt("a number of more than %d digits" % MAX_DIGITS, i)
    return j


def _even_degree(f: Superfunction) -> int:
    """Largest total degree in the even coordinates over the terms of f."""
    return max((sum(exps) for poly in f.terms.values() for exps in poly), default=0)


class _Parser:
    """Recursive descent over: expr := ['+'|'-'] term (('+'|'-') term)*
    term := factor ('*' factor)*; factor := atom ('^' nat)?, nat <= MAX_EXPONENT;
    atom := rational | 'i' | evenvar | oddvar | '(' expr ')'.

    A `*` or `^` whose factors' even degrees add up to more than MAX_DEGREE,
    a literal or a multiplication that gives a coefficient of more than
    MAX_COEFFICIENT_BITS bits, and a `(` nested deeper than MAX_NESTING, are
    syntax errors at that token.

    A literal or a variable, and a power of one, is a monomial: a tuple
    (coefficient, even exponents, odd mask), the coefficient zero for a zero
    one, whatever its exponents and mask.  A product of monomials is one
    monomial, its sign from `merge_sign`, and a repeated odd variable makes
    it zero.  A term is a `Superfunction` only from its first parenthesized
    or `i` factor on.  `expr` adds its terms into one raw accumulator.
    """

    def __init__(self, tokens, sig):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0
        self.one = field_one(sig.field)
        self.zero = field_zero(sig.field)
        self.body = (0,) * sig.n

    def check_degree(self, degree, tok):
        if degree > MAX_DEGREE:
            raise SyntaxErrorAt("degree %d is above the limit %d" % (degree, MAX_DEGREE), tok[2])

    def check_coefficient(self, c, tok):
        bits = c.bit_length() if c.__class__ is int else scalar_bits(c) if c else 0
        if bits > MAX_COEFFICIENT_BITS:
            raise SyntaxErrorAt("a coefficient is above the limit of %d bits" % MAX_COEFFICIENT_BITS, tok[2])
        return c

    def check_coefficients(self, f, tok):
        for poly in f.terms.values():
            for c in poly.values():
                self.check_coefficient(c, tok)
        return f

    def degree(self, f):
        """The even degree of a monomial or a superfunction, 0 when it is zero."""
        if f.__class__ is tuple:
            return sum(f[1]) if f[0] else 0
        return _even_degree(f)

    def superfunction(self, f):
        """A monomial or a superfunction, as a superfunction."""
        if f.__class__ is not tuple:
            return f
        c, exps, mask = f
        return Superfunction(self.sig, {mask: {exps: c}} if c else {}, _normalized=True)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxErrorAt("expected %s, found %r" % (kind, tok[1]), tok[2])
        return tok

    def parse(self):
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SyntaxErrorAt("trailing input %r" % tok[1], tok[2])
        return f

    def expr(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            if self.next()[0] == "-":
                sign = -1
        acc = {}
        while True:
            add_into(acc, self.superfunction(self.term()).terms, sign)
            if self.peek()[0] not in ("+", "-"):
                return accumulated(self.sig, acc)
            sign = 1 if self.next()[0] == "+" else -1

    def term(self):
        f = self.factor()
        while self.peek()[0] == "*":
            op = self.next()
            g = self.factor()
            self.check_degree(self.degree(f) + self.degree(g), op)
            if f.__class__ is not tuple or g.__class__ is not tuple:
                f = self.check_coefficients(self.superfunction(f) * self.superfunction(g), op)
            elif not f[0] or not g[0] or f[2] & g[2]:
                f = (self.zero, f[1], f[2])
            else:
                c = canonical(f[0] * g[0])
                if merge_sign(f[2], g[2]) < 0:
                    c = -c
                f = (self.check_coefficient(c, op), tuple(map(add, f[1], g[1])), f[2] | g[2])
        return f

    def factor(self):
        f = self.atom()
        if self.peek()[0] == "^":
            op = self.next()
            tok = self.expect("int")
            power = int(tok[1])
            if power > MAX_EXPONENT:
                raise SyntaxErrorAt("exponent %d is above the limit %d" % (power, MAX_EXPONENT), tok[2])
            self.check_degree(power * self.degree(f), op)
            if f.__class__ is tuple:
                c, exps, mask = f
                if mask and power > 1:
                    return (self.zero, exps, mask)
                out = self.one
                for _ in range(power):
                    out = self.check_coefficient(canonical(out * c), op)
                return (out, tuple(e * power for e in exps), mask if power else 0)
            out = Superfunction.constant(self.sig, 1)
            for _ in range(power):
                out = self.check_coefficients(out * f, op)
            return out
        return f

    def atom(self):
        tok = self.next()
        kind, text, pos = tok
        if kind == "int":
            num = int(text)
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("int")
                d = int(den[1])
                if d == 0:
                    raise SyntaxErrorAt("zero denominator", den[2])
                num = Fraction(num, d)
            return (self.check_coefficient(to_field(num, self.sig.field), tok), self.body, 0)
        if kind == "imag":
            if self.sig.field != GAUSSIAN:
                raise SyntaxErrorAt("'i' is only valid over the gaussian-rational field", pos)
            return Superfunction.constant(self.sig, GaussianRational(0, 1))
        if kind == "evenvar":
            i = int(text)
            if not 1 <= i <= self.sig.n:
                raise SyntaxErrorAt("even variable x%d out of range (n=%d)" % (i, self.sig.n), pos)
            return (self.one, self.body[: i - 1] + (1,) + self.body[i:], 0)
        if kind == "oddvar":
            alpha = int(text)
            if not 1 <= alpha <= self.sig.m:
                raise SyntaxErrorAt("odd variable xi%d out of range (m=%d)" % (alpha, self.sig.m), pos)
            return (self.one, self.body, 1 << (alpha - 1))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise SyntaxErrorAt("parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.depth += 1
            f = self.expr()
            self.expect(")")
            self.depth -= 1
            return f
        raise SyntaxErrorAt("unexpected token %r" % text, pos)


def parse_superfunction(text: str, sig: ChartSignature) -> Superfunction:
    """Parse an expression string into canonical form."""
    return _Parser(_tokenize(text), sig).parse()
