import random
from fractions import Fraction

import pytest

from superhol.scalars import MAX_DIGITS, GAUSSIAN, RATIONAL, GaussianRational, parse_scalar, scalar_str, to_field
from superhol.superfunc import (
    ChartSignature,
    Superfunction,
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    SyntaxErrorAt,
    merge_sign,
    parse_superfunction,
    sf_to_str,
)

from conftest import is_canonical_rational, random_superfunction


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
        # the body at a point of every partial, without building the partial
        sig = ChartSignature(2, 2, field)
        rng = random.Random("partial body %s" % field)
        far = [to_field(Fraction(3, 7), field), to_field(Fraction(-5, 11), field)]
        if field == GAUSSIAN:
            far[1] = GaussianRational(Fraction(-5, 11), Fraction(1, 2))
        for _ in range(20):
            f = random_superfunction(rng, sig, maxdeg=3)
            for point in ([to_field(0, field)] * 2, far):
                for a in range(1, sig.total + 1):
                    assert f.partial_body_value(a, point) == f.partial(a).body_value(point)


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
                pa = sig.index_parity(a)
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
