import random
from collections import Counter
from fractions import Fraction

import pytest

from superhol.scalars import MAX_DIGITS, GAUSSIAN, RATIONAL, GaussianRational, parse_scalar, scalar_bits, scalar_str, to_field
from superhol.superfunc import (
    ChartSignature,
    Superfunction,
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    SyntaxErrorAt,
    _even_degree,
    _tokenize,
    accumulated,
    merge_sign,
    parse_superfunction,
    partials_into,
    sf_to_str,
)

from conftest import (
    is_canonical_rational,
    random_superfunction,
    reference_partial,
    reference_partial_bodies,
    reference_sum,
    reference_terms,
)


SIG = ChartSignature(2, 2)


def sf(text, sig=SIG):
    return parse_superfunction(text, sig)


class TestParser:
    def test_zero(self):
        assert sf("0").is_zero()
        assert sf("0").terms == {}

    def test_transposition_sign(self):
        f = sf("xi2*xi1")
        assert f.terms == {0b11: {(0, 0): Fraction(-1)}}

    def test_mixed_expression(self):
        f = sf("3/2*x1^2 + x1*xi1")
        assert f.terms[0] == {(2, 0): Fraction(3, 2)}
        assert f.terms[0b01] == {(1, 0): Fraction(1)}

    def test_parentheses_and_power(self):
        assert sf("(x1 + x2)^2") == sf("x1^2 + 2*x1*x2 + x2^2")

    def test_unary_minus(self):
        assert sf("-x1 + x1").is_zero()

    def test_syntax_error_position(self):
        with pytest.raises(SyntaxErrorAt) as err:
            sf("x1 + @")
        assert err.value.pos == 5

    def test_exponent_bound(self):
        assert MAX_EXPONENT == 16
        assert sf("x1^16").terms == {0: {(16, 0): Fraction(1)}}
        with pytest.raises(SyntaxErrorAt) as err:
            sf("x1 + (1+x2)^17")
        assert err.value.pos == 12

    def test_degree_bound(self):
        assert MAX_DEGREE >= 16
        assert sf("x1^8*x2^8") == sf("x2^8*x1^8")
        assert sf("(x1*xi1)^16").is_zero()
        with pytest.raises(SyntaxErrorAt) as err:
            sf("x1^16 * x2")
        assert err.value.pos == 6
        with pytest.raises(SyntaxErrorAt) as err:
            sf("((1+x1)^4)^5")
        assert err.value.pos == 10

    def test_coefficient_bound(self):
        assert MAX_COEFFICIENT_BITS == 1024
        f = sf("((2^16)^16)^3 * x1 + ((1/3)^16)^16")
        assert f.terms[0] == {(1, 0): Fraction(2 ** 768), (0, 0): Fraction(1, 3 ** 256)}
        # the fourth multiplication of the last `^` reaches 2^1024, 1025 bits
        with pytest.raises(SyntaxErrorAt) as err:
            sf("((2^16)^16)^16 * x1")
        assert err.value.pos == 11
        with pytest.raises(SyntaxErrorAt) as err:
            sf("x1 + (2^16)^16 * (2^16)^16 * (2^16)^16 * (2^16)^16")
        assert err.value.pos == 39
        # denominators, and imaginary parts over the Gaussian field
        with pytest.raises(SyntaxErrorAt) as err:
            sf("((1/3)^16)^16 * ((1/3)^16)^16 * ((1/3)^16)^16")
        assert err.value.pos == 30
        with pytest.raises(SyntaxErrorAt) as err:
            sf("(((2^16)^16)^3 * i) * (2^16)^16", ChartSignature(2, 2, GAUSSIAN))
        assert err.value.pos == 20

    def test_long_numbers_and_non_decimal_digits(self):
        # a literal is held to MAX_COEFFICIENT_BITS as a product is, and no
        # digit run reaches int()'s own length limit or a non-decimal digit
        big = str(2**MAX_COEFFICIENT_BITS)
        assert sf(str(2**MAX_COEFFICIENT_BITS - 1) + "*x1").terms[0] == {(1, 0): 2**MAX_COEFFICIENT_BITS - 1}
        for text, pos in (("x1 + " + big, 5), ("1/" + big, 0), ("x1 + " + "0" * 400 + "1", 5),
                          ("x1^" + "1" * 5000, 3), ("x" + "1" * 5000, 1), ("xi" + "1" * 5000, 2),
                          ("x²", 0), ("2²", 1)):
            with pytest.raises(SyntaxErrorAt) as err:
                sf(text)
            assert err.value.pos == pos, text

    def test_nesting_bound(self):
        deep = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        assert sf(deep) == sf("x1")
        with pytest.raises(SyntaxErrorAt) as err:
            sf("x2 + (" + deep + ")")
        assert err.value.pos == 5 + MAX_NESTING

    def test_out_of_range_variable(self):
        with pytest.raises(SyntaxErrorAt):
            sf("x3")
        with pytest.raises(SyntaxErrorAt):
            sf("xi5")

    def test_imaginary_needs_gaussian_field(self):
        with pytest.raises(SyntaxErrorAt):
            sf("i*x1")
        gsig = ChartSignature(1, 0, "gaussian-rational")
        f = parse_superfunction("i*x1", gsig)
        assert f.terms[0][(1,)] == GaussianRational(0, 1)


class ReferenceParser:
    """The parser as it was before products of atoms became monomials: every
    factor a `Superfunction`, every `*` and `^` a superfunction product and
    every `+` a superfunction sum."""

    def __init__(self, tokens, sig):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def check_degree(self, degree, tok):
        if degree > MAX_DEGREE:
            raise SyntaxErrorAt("degree %d is above the limit %d" % (degree, MAX_DEGREE), tok[2])

    def check_coefficients(self, f, tok):
        bits = max((scalar_bits(c) for poly in f.terms.values() for c in poly.values()), default=0)
        if bits > MAX_COEFFICIENT_BITS:
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


def parse_outcome(parse, text, sig):
    """What a parser makes of a text: the terms of its superfunction, each
    coefficient with its type, or the message and position of its error."""
    try:
        f = parse(text, sig)
    except SyntaxErrorAt as exc:
        return "error", str(exc), exc.pos
    return "ok", {mask: {e: (c, type(c)) for e, c in poly.items()} for mask, poly in f.terms.items()}


def reference_parse(text, sig):
    return ReferenceParser(_tokenize(text), sig).parse()


def random_atom(rng, sig, depth):
    roll = rng.random()
    if roll < 0.12 and depth < 3:
        return "(" + random_expression(rng, sig, depth + 1) + ")"
    if roll < (0.2 if sig.field == GAUSSIAN else 0.14):
        return "i"
    if roll < 0.35:
        literals = [
            str(rng.randint(0, 3)),
            "%d/%d" % (rng.randint(0, 6), rng.randint(1, 6)),
            "2^%d" % rng.randint(0, 16),
            str(2 ** rng.choice([300, 1023, 1024]) - rng.randint(0, 1)),
            "1/" + str(3 ** rng.randint(600, 647)),
        ]
        if rng.random() < 0.05:
            literals.append("1" + "0" * MAX_DIGITS)  # one digit too many
        return rng.choice(literals)
    if roll < 0.7:
        return "x%d" % rng.randint(1, sig.n + (rng.random() < 0.05))
    return "xi%d" % rng.randint(1, sig.m + (rng.random() < 0.05))


def random_factor(rng, sig, depth):
    atom = random_atom(rng, sig, depth)
    if rng.random() < 0.3:
        atom += "^%d" % rng.choice([0, 1, 2, 3, 5, 8, 8, 16, 16, 17])
    return atom


def random_expression(rng, sig, depth=0):
    out = rng.choice(["", "", "-", "+"])
    for k in range(rng.randint(1, 3)):
        if k:
            out += rng.choice([" + ", " - ", "-"])
        out += "*".join(random_factor(rng, sig, depth) for _ in range(rng.randint(1, 5)))
    return out


def mutated(rng, text):
    """The text with one character dropped, doubled or replaced."""
    k = rng.randrange(len(text))
    return text[:k] + rng.choice(["", text[k] * 2, rng.choice("+-*^()/ix1@ ")]) + text[k + 1 :]


class TestMonomialParser:
    """The parser against `ReferenceParser`: equal superfunctions, or the
    same error at the same position."""

    FIELDS = [RATIONAL, GAUSSIAN]
    BIG = str(2**MAX_COEFFICIENT_BITS)
    CASES = [
        # powers and products at the degree limit, and zero factors whose
        # degree counts as 0
        "x1^16", "x1^17", "x1^16*x2", "x1^8*x2^8*x1", "x2*x1^16", "(x1^2)^9", "((1+x1)^4)^5",
        "0*x1^16*x1^16", "x1^16*0*x1", "0^0*x1^16*x1", "xi1*xi1*x1^16*x1^16", "x1^16*xi2^2*x2^16",
        "x1^0", "x1^0*x2^16", "0^0", "0^3", "xi1^0", "xi1^1", "xi1^2", "xi1^17", "(xi1)^2", "(x1*xi1)^16",
        # odd variables: signs and repeats
        "xi2*xi1", "xi3*xi1*xi2", "xi1*x1*xi3*xi2", "xi1*xi2*xi1", "x1*xi2*x2*xi2", "-xi2*xi1 - xi1*xi2",
        # coefficients at the bit limit: literals, products and powers
        str(2**MAX_COEFFICIENT_BITS - 1) + "*x1", BIG, "x1 + " + BIG, "1/" + BIG, "0*" + BIG,
        "2^16^2", "((2^16)^16)^16 * x1", "((2^16)^16)^3 * x1 + ((1/3)^16)^16", "2^1024",
        "2^512*2^512", "2^512*2^511*x1", "2^600*xi1*xi1*2^600", "(2^600*xi1)*(xi1*2^600)",
        "x1 + (2^16)^16 * (2^16)^16 * (2^16)^16 * (2^16)^16", "((1/3)^16)^16 * ((1/3)^16)^16 * ((1/3)^16)^16",
        "(((2^16)^16)^3 * i) * (2^16)^16", "i*2^600*2^600", "2^600*i*x1*2^600", "(2^600)^2",
        # i, parentheses and cancellation
        "i", "i*x1", "2*i*x1*xi1", "i^2 + 1", "i*i*i", "(1 + i)^16", "-(x1 - x1)", "x1 - x1 + x2 + x1",
        "(x1 + xi1)*(x2 - xi1)", "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
        "x2 + (" + "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING + ")",
        # syntax errors
        "", "+", "x1 +", "x1^", "x1^x2", "x1^" + "1" * 5000, "x4", "xi9", "x0", "xi0", "x1 x2", "x1 + @",
        "1/0", "3/", "(x1", "x1)", "x1**2", "2²", "x²", "x", "xi", "-(-x1)", "--x1", "x1^-1",
    ]

    @pytest.mark.parametrize("field", FIELDS)
    def test_cases(self, field):
        sig = ChartSignature(2, 3, field)
        for text in self.CASES:
            assert parse_outcome(parse_superfunction, text, sig) == parse_outcome(reference_parse, text, sig), text

    @pytest.mark.parametrize("field", FIELDS)
    def test_seeded_expressions(self, field):
        sig = ChartSignature(2, 3, field)
        rng = random.Random("monomial parser %s" % field)
        kinds = Counter()
        limits = ("degree", "a coefficient", "exponent", "a number")
        for _ in range(600):
            text = random_expression(rng, sig)
            if rng.random() < 0.25:
                text = mutated(rng, text)
            want = parse_outcome(reference_parse, text, sig)
            assert parse_outcome(parse_superfunction, text, sig) == want, text
            kinds[want[0] if want[0] == "ok" else next((w for w in limits if want[1].startswith(w)), "other")] += 1
        # results, and errors at every limit, occur
        assert kinds["ok"] >= 150 and kinds["other"] >= 50, kinds
        for limit in limits:
            assert kinds[limit] >= 10, kinds


class TestMul:
    def test_sorted_product(self):
        assert sf("xi1") * sf("xi2") == sf("xi1*xi2")

    def test_repeated_generator_annihilates(self):
        assert (sf("xi1*xi2") * sf("xi1")).is_zero()

    def test_transposition(self):
        assert sf("xi2") * sf("xi1") == -sf("xi1*xi2")

    def test_merge_sign_matches_bubble_sort(self):
        # oracle: parity of the permutation sorting the concatenation
        rng = random.Random(1)
        for _ in range(200):
            m = 6
            left = sorted(rng.sample(range(m), rng.randint(0, 3)))
            right = sorted(rng.sample(range(m), rng.randint(0, 3)))
            if set(left) & set(right):
                continue
            seq = left + right
            swaps = 0
            arr = list(seq)
            for i in range(len(arr)):
                for j in range(len(arr) - 1 - i):
                    if arr[j] > arr[j + 1]:
                        arr[j], arr[j + 1] = arr[j + 1], arr[j]
                        swaps += 1
            lm = sum(1 << i for i in left)
            rm = sum(1 << i for i in right)
            assert merge_sign(lm, rm) == (-1) ** swaps

    def test_signature_mismatch(self):
        other = ChartSignature(1, 1)
        with pytest.raises(ValueError):
            sf("x1") * parse_superfunction("x1", other)


class TestPartial:
    def test_leading_odd_derivative(self):
        assert sf("xi1*xi2").partial(3) == sf("xi2")

    def test_second_position_sign(self):
        assert sf("xi1*xi2").partial(4) == -sf("xi1")

    def test_even_derivative(self):
        assert sf("x1^2*xi1").partial(1) == sf("2*x1*xi1")

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sf("x1").partial(5)

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_body_value_of_the_derivative(self, field):
        # the body at a point of every partial from one pass, without
        # building a partial: at the origin, at a point with one zero
        # coordinate, and at a point with none, for exponents up to 3
        sig = ChartSignature(2, 2, field)
        rng = random.Random("partial body %s" % field)
        far = [to_field(Fraction(3, 7), field), to_field(Fraction(-5, 11), field)]
        if field == GAUSSIAN:
            far[1] = GaussianRational(Fraction(-5, 11), Fraction(1, 2))
        zero = to_field(0, field)
        for _ in range(20):
            f = random_superfunction(rng, sig, maxdeg=3).scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            for point in ([zero] * 2, [zero, far[1]], far):
                bodies = f.partial_bodies(point)
                assert len(bodies) == sig.total
                for a in range(1, sig.total + 1):
                    assert bodies[a - 1] == reference_partial(f, a).body_value(point)
                    assert field == GAUSSIAN or is_canonical_rational(bodies[a - 1])

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    def test_every_partial_from_one_pass(self, field):
        # partials_into puts each ∂_c f below the bound into its own raw
        # accumulator, and nothing at or past the bound
        sig = ChartSignature(2, 3, field)
        rng = random.Random("one-pass partials %s" % field)
        for _ in range(20):
            f = random_superfunction(rng, sig, maxdeg=3, density=2).scale(Fraction(rng.randint(1, 5), 3))
            for stop in range(sig.total + 1):
                accs = [{} for _ in range(sig.total)]
                partials_into(accs, "key", f, stop)
                for c in range(sig.total):
                    if c < stop:
                        assert accumulated(sig, accs[c].get("key", {})) == reference_partial(f, c + 1)
                    else:
                        assert accs[c] == {}


def typed(values):
    """Scalars with their types, so that an integral `Fraction` does not
    compare equal to its int: a superfunction's terms, or a list."""
    if isinstance(values, Superfunction):
        return {mask: {k: (type(v), v) for k, v in poly.items()} for mask, poly in values.terms.items()}
    return [(type(v), v) for v in values]


def raw_terms(rng, sig):
    """Seeded raw terms {mask: {exps: coef}} over every mask from no odd
    generator to all m: exponents up to 2 and coefficients in halves, so that
    sums and derivatives meet integral `Fraction`s, zeros included; over the
    Gaussian field the coefficients are Gaussian."""

    def coefficient():
        c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        if sig.field == GAUSSIAN:
            return GaussianRational(c, Fraction(rng.randint(-1, 1), rng.choice([1, 2])))
        return c

    terms = {}
    for mask in range(1 << sig.m):
        if rng.random() < 0.8:
            terms[mask] = {tuple(rng.randint(0, 2) for _ in range(sig.n)): coefficient() for _ in range(3)}
    return terms


class TestKernelsAgainstReferences:
    """Every `Superfunction` operation that calls into a kernel, against the
    test-side references written apart from those kernels, with the types of
    the coefficients compared too."""

    @pytest.mark.parametrize("field", [RATIONAL, GAUSSIAN])
    @pytest.mark.parametrize("nm", [(2, 3), (1, 2), (0, 2), (2, 0)], ids=lambda d: "%d|%d" % d)
    def test_operations_match_the_references(self, nm, field):
        sig = ChartSignature(*nm, field)
        rng = random.Random("kernels %d|%d %s" % (nm + (field,)))
        half = to_field(Fraction(1, 2), field)
        third = to_field(Fraction(-1, 3), field)
        if field == GAUSSIAN:
            third = GaussianRational(Fraction(-1, 3), Fraction(2, 5))
        points = [[to_field(0, field)] * sig.n, [half] * sig.n, [third] + [to_field(0, field)] * (sig.n - 1)]
        sizes = set()
        for _ in range(25):
            terms = [raw_terms(rng, sig) for _ in range(2)]
            f, g = (Superfunction(sig, t) for t in terms)
            for t, h in zip(terms, (f, g)):
                assert typed(h) == typed(reference_terms(sig, t))
            sizes |= {bin(mask).count("1") for mask in f.terms}
            assert typed(f + g) == typed(reference_sum(f, g))
            assert typed(f - g) == typed(reference_sum(f, -g))
            assert typed(f + f) == typed(reference_sum(f, f))
            assert (f - f).terms == {}
            for a in range(1, sig.total + 1):
                assert typed(f.partial(a)) == typed(reference_partial(f, a))
            for point in points:
                assert typed(f.partial_bodies(point)) == typed(reference_partial_bodies(f, point))
        assert sizes == set(range(sig.m + 1))

    def test_sums_and_derivatives_store_integral_values_as_ints(self):
        sig = ChartSignature(1, 1)
        half = Superfunction(sig, {0: {(2,): Fraction(1, 2)}, 1: {(0,): Fraction(1, 2)}})
        for f in (half + half, half.partial(1), Superfunction(sig, {1: {(1,): Fraction(4, 2)}})):
            assert f.terms and all(type(v) is int for poly in f.terms.values() for v in poly.values())
        assert typed(half.partial_bodies([1])) == [(int, 1), (Fraction, Fraction(1, 2))]

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_a_mask_out_of_range_is_refused(self, m):
        sig = ChartSignature(1, m)
        for mask in (-1, 1 << m):
            with pytest.raises(ValueError, match="odd index set out of range"):
                Superfunction(sig, {mask: {(0,): 1}})
        assert Superfunction(sig, {(1 << m) - 1: {(0,): 1}}).terms == {(1 << m) - 1: {(0,): 1}}

    @pytest.mark.parametrize("exps", [(1, 2), ()])
    def test_an_exponent_tuple_of_the_wrong_length_is_refused(self, exps):
        # (1, 2) would print as x1*x2^2 on a chart with no x2; () would fail
        # only later, in partial
        for coef in (1, 0):
            with pytest.raises(ValueError, match="exponent tuple .* must have n=1 entries"):
                Superfunction(ChartSignature(1, 0), {0: {exps: coef}})
        with pytest.raises(ValueError, match="must have n=2 entries"):
            Superfunction(ChartSignature(2, 1), {1: {(0, 0): 1, exps[:1]: 5}})


class TestValueAndParity:
    def test_body_projection(self):
        assert sf("x1^2 + x1*xi1").value([3, 0]) == 9

    def test_no_body_term(self):
        assert sf("xi1*xi2").value([5, 7]) == 0

    def test_exact_rational(self):
        assert sf("1/2*x1").value([Fraction(1, 3), 0]) == Fraction(1, 6)

    def test_parity_classification(self):
        assert sf("x1 + xi1*xi2").parity() == "even"
        assert sf("xi1").parity() == "odd"
        assert sf("x1 + xi1").parity() == "mixed"
        assert sf("0").parity() == "zero"


class TestProperties:
    def test_supercommutativity(self):
        rng = random.Random(11)
        sig = ChartSignature(2, 3)
        for _ in range(300):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = random_superfunction(rng, sig, pf)
            g = random_superfunction(rng, sig, pg)
            assert f * g == (g * f).scale((-1) ** (pf * pg))

    def test_super_leibniz(self):
        rng = random.Random(12)
        sig = ChartSignature(2, 3)
        for _ in range(60):
            pf = rng.randint(0, 1)
            f = random_superfunction(rng, sig, pf)
            g = random_superfunction(rng, sig)
            for a in range(1, sig.total + 1):
                pa = int(a > sig.n)
                lhs = (f * g).partial(a)
                rhs = f.partial(a) * g + (f * g.partial(a)).scale((-1) ** (pa * pf))
                assert lhs == rhs

    def test_odd_derivatives_anticommute(self):
        rng = random.Random(13)
        sig = ChartSignature(1, 3)
        for _ in range(60):
            f = random_superfunction(rng, sig)
            for al in range(sig.n + 1, sig.total + 1):
                assert f.partial(al).partial(al).is_zero()
                for be in range(sig.n + 1, sig.total + 1):
                    assert f.partial(al).partial(be) == -f.partial(be).partial(al)

    def test_print_parse_idempotent(self):
        rng = random.Random(14)
        for _ in range(150):
            f = random_superfunction(rng, SIG, maxdeg=2, density=2)
            assert parse_superfunction(sf_to_str(f), SIG).terms == f.terms

    def test_body_evaluation_is_multiplicative(self):
        rng = random.Random(15)
        sig = ChartSignature(2, 2)
        pt = [Fraction(1, 2), Fraction(-2)]
        for _ in range(100):
            f = random_superfunction(rng, sig)
            g = random_superfunction(rng, sig)
            assert (f * g).value(pt) == f.value(pt) * g.value(pt)
            assert (f + g).value(pt) == f.value(pt) + g.value(pt)


class TestScalars:
    def test_gaussian_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(0, 1)
        assert a * b == GaussianRational(-3, Fraction(1, 2))
        assert (a / a) == 1
        assert scalar_str(a) == "1/2+3 i"

    def test_scalar_round_trip(self):
        for text in ("3", "-7/2", "0"):
            assert scalar_str(parse_scalar(text, "rational")) == text
        for text in ("1/2+3 i", "-2-1/3 i", "5 i", "4"):
            v = parse_scalar(text, "gaussian-rational")
            assert scalar_str(v) == text

    @pytest.mark.parametrize(
        "text, field",
        [
            ("1e1000000", "rational"),
            ("1E-400", "rational"),
            ("1_0e3_000", "rational"),
            ("7" * (MAX_DIGITS + 1), "rational"),
            ("1/" + "1" * (MAX_DIGITS + 1), "rational"),
            ("2+1e1000000 i", "gaussian-rational"),
        ],
    )
    def test_parse_scalar_refuses_unbounded_numbers(self, text, field):
        # refused from the text, before a number of a million digits is built
        with pytest.raises(ValueError, match="above the limit of %d bits" % MAX_COEFFICIENT_BITS):
            parse_scalar(text, field)

    def test_parse_scalar_reads_up_to_the_digit_limit(self):
        assert parse_scalar("9" * MAX_DIGITS, "rational") == 10 ** MAX_DIGITS - 1
        assert parse_scalar("1e%d" % MAX_DIGITS, "rational") == 10 ** MAX_DIGITS

    def test_to_field_rational(self):
        q = Fraction(-3, 4)
        assert to_field(q, RATIONAL) is q
        for value in (2, Fraction(4, 2), GaussianRational(2), GaussianRational(Fraction(1, 3))):
            got = to_field(value, RATIONAL)
            assert is_canonical_rational(got) and got == value
        with pytest.raises(ValueError, match="imaginary"):
            to_field(GaussianRational(0, 1), RATIONAL)
