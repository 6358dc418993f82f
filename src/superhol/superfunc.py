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

    def index_parity(self, a: int) -> int:
        """Parity of coordinate index a in 1..n+m (1-based)."""
        if not 1 <= a <= self.n + self.m:
            raise IndexError("coordinate index %d out of range" % a)
        return 0 if a <= self.n else 1


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


def _poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _poly_scale(p, c):
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def _poly_value(poly, point, field):
    """An even polynomial {exps: coef} at even coordinates in the field, as
    `scalars.canonical` gives it."""
    total = field_zero(field)
    for exps, coef in poly.items():
        term = coef
        for c, e in zip(point, exps):
            for _ in range(e):
                term = term * c
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


def add_into(acc, f, sign=1):
    """Add sign·f into `acc`, a raw accumulator as for `mul_into`."""
    for mask, poly in f.terms.items():
        out = acc.setdefault(mask, {})
        for k, v in poly.items():
            if sign < 0:
                v = -v
            w = out.get(k)
            out[k] = v if w is None else w + v


def accumulated(sig: ChartSignature, acc) -> "Superfunction":
    """The superfunction an accumulator holds, its zero coefficients dropped."""
    terms = {}
    for mask, poly in acc.items():
        poly = {k: v for k, v in poly.items() if v}
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
            clean = {}
            for mask, poly in terms.items():
                if mask < 0 or mask >= (1 << sig.m):
                    raise ValueError("odd index set out of range for m=%d" % sig.m)
                poly = {k: v for k, v in poly.items() if v}
                if poly:
                    clean[mask] = poly
            terms = clean
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
        out = dict(self.terms)
        for mask, poly in other.terms.items():
            if mask in out:
                s = _poly_add(out[mask], poly)
                if s:
                    out[mask] = s
                else:
                    del out[mask]
            else:
                out[mask] = poly
        return Superfunction(self.sig, out, _normalized=True)

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
        """Left partial derivative by coordinate index a in 1..n+m."""
        sig = self.sig
        if not 1 <= a <= sig.total:
            raise IndexError("coordinate index %d out of range" % a)
        if a <= sig.n:
            i = a - 1
            out = {}
            for mask, poly in self.terms.items():
                der = {}
                for exps, coef in poly.items():
                    e = exps[i]
                    if e:
                        k = exps[:i] + (e - 1,) + exps[i + 1 :]
                        v = coef * e
                        w = der.get(k)
                        der[k] = v if w is None else w + v
                der = {k: v for k, v in der.items() if v}
                if der:
                    out[mask] = der
            return Superfunction(sig, out, _normalized=True)
        alpha = a - sig.n
        bit = 1 << (alpha - 1)
        out = {}
        for mask, poly in self.terms.items():
            if not mask & bit:
                continue
            # left derivative: sign (-1)^(s-1) with s the position of alpha
            below = bin(mask & (bit - 1)).count("1")
            sign = 1 if below % 2 == 0 else -1
            # distinct masks holding the bit stay distinct once it is cleared
            out[mask & ~bit] = dict(poly) if sign > 0 else {k: -v for k, v in poly.items()}
        return Superfunction(sig, out, _normalized=True)

    # ------------------------------------------------------------- evaluation

    def value(self, point):
        """Value at a point: the body polynomial evaluated at even coords."""
        return self.body_value(self.sig.coerce_point(point))

    def body_value(self, point):
        """The body polynomial at even coordinates already in the field."""
        return _poly_value(self.terms.get(0, {}), point, self.sig.field)

    def partial_body_value(self, a: int, point):
        """The body at even coordinates already in the field of the left
        partial derivative by coordinate index a in 1..n+m, without building
        the derivative.  For an odd a that body is the xi_a-coefficient (its
        sign is +1: no generator comes before xi_a); for an even a it is the
        x_a-derivative of the body."""
        sig = self.sig
        if a > sig.n:
            return _poly_value(self.terms.get(1 << (a - sig.n - 1), {}), point, sig.field)
        i = a - 1
        derivative = {
            exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: coef * exps[i]
            for exps, coef in self.terms.get(0, {}).items()
            if exps[i]
        }
        return _poly_value(derivative, point, sig.field)

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


def _coefficient_bits(f: Superfunction) -> int:
    """Largest bit length of a numerator or denominator of f's coefficients,
    over both parts of a Gaussian one."""
    return max((scalar_bits(c) for poly in f.terms.values() for c in poly.values()), default=0)


class _Parser:
    """Recursive descent over: expr := ['+'|'-'] term (('+'|'-') term)*
    term := factor ('*' factor)*; factor := atom ('^' nat)?, nat <= MAX_EXPONENT;
    atom := rational | 'i' | evenvar | oddvar | '(' expr ')'.

    A `*` or `^` whose factors' even degrees add up to more than MAX_DEGREE,
    a literal or a multiplication that gives a coefficient of more than
    MAX_COEFFICIENT_BITS bits, and a `(` nested deeper than MAX_NESTING, are
    syntax errors at that token.
    """

    def __init__(self, tokens, sig):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def check_degree(self, degree, tok):
        if degree > MAX_DEGREE:
            raise SyntaxErrorAt("degree %d is above the limit %d" % (degree, MAX_DEGREE), tok[2])

    def check_coefficients(self, f, tok):
        if _coefficient_bits(f) > MAX_COEFFICIENT_BITS:
            raise SyntaxErrorAt("a coefficient is above the limit of %d bits" % MAX_COEFFICIENT_BITS, tok[2])
        return f

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
        f = self.term()
        if sign < 0:
            f = -f
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self):
        f = self.factor()
        while self.peek()[0] == "*":
            op = self.next()
            g = self.factor()
            self.check_degree(_even_degree(f) + _even_degree(g), op)
            f = self.check_coefficients(f * g, op)
        return f

    def factor(self):
        f = self.atom()
        if self.peek()[0] == "^":
            op = self.next()
            tok = self.expect("int")
            power = int(tok[1])
            if power > MAX_EXPONENT:
                raise SyntaxErrorAt("exponent %d is above the limit %d" % (power, MAX_EXPONENT), tok[2])
            self.check_degree(power * _even_degree(f), op)
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
                return self.check_coefficients(Superfunction.constant(self.sig, Fraction(num, d)), tok)
            return self.check_coefficients(Superfunction.constant(self.sig, num), tok)
        if kind == "imag":
            if self.sig.field != GAUSSIAN:
                raise SyntaxErrorAt("'i' is only valid over the gaussian-rational field", pos)
            return Superfunction.constant(self.sig, GaussianRational(0, 1))
        if kind == "evenvar":
            i = int(text)
            if not 1 <= i <= self.sig.n:
                raise SyntaxErrorAt("even variable x%d out of range (n=%d)" % (i, self.sig.n), pos)
            return Superfunction.even_var(self.sig, i)
        if kind == "oddvar":
            alpha = int(text)
            if not 1 <= alpha <= self.sig.m:
                raise SyntaxErrorAt("odd variable xi%d out of range (m=%d)" % (alpha, self.sig.m), pos)
            return Superfunction.odd_var(self.sig, alpha)
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
