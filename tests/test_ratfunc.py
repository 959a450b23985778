import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placeforge import BaseField, ParseError, Poly, RatFunc, eq_zero, parse_expr
from placeforge.ordgroup import MAX_LITERAL_DIGITS
from placeforge.parsing import format_ratfunc

from gen import random_ratfunc

QQ = BaseField(0)
F5 = BaseField(5)


class TestBaseField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            BaseField(4)
        with pytest.raises(ValueError):
            BaseField(2**61 + 1)
        assert BaseField(2**61 - 1).p == 2**61 - 1  # Mersenne prime

    def test_coerce(self):
        assert F5.coerce(7) == 2
        assert F5.coerce(Fraction(1, 2)) == 3
        assert QQ.coerce(3) == Fraction(3)


class TestParser:
    def test_monomial_quotient(self):
        f = parse_expr("x1^2/x2", 2, QQ)
        assert f.num.terms == {(2, 0): Fraction(1)}
        assert f.den.terms == {(0, 1): Fraction(1)}

    def test_product_expansion(self):
        f = parse_expr("(x1+x2)*(x1-x2)", 2, QQ)
        g = parse_expr("x1^2 - x2^2", 2, QQ)
        assert eq_zero(f - g)

    def test_zero_denominator(self):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_expr("1/0", 2, QQ)

    def test_rational_literal(self):
        # canonical form scales the denominator to 1
        f = parse_expr("3/2", 1, QQ)
        assert f.num.terms == {(0,): Fraction(3, 2)}
        assert f.den.terms == {(0,): Fraction(1)}
        assert f == RatFunc.const(QQ, 1, Fraction(3, 2))

    def test_negative_exponent(self):
        f = parse_expr("x1^-2", 2, QQ)
        assert f == parse_expr("1/x1^2", 2, QQ)

    def test_unary_minus(self):
        assert eq_zero(parse_expr("-x1 + x1", 1, QQ))

    def test_custom_names(self):
        f = parse_expr("t*s", 2, QQ, names=("t", "s"))
        assert f.num.terms == {(1, 1): Fraction(1)}

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_expr("y1", 2, QQ)

    def test_repeated_names_refused(self):
        # With a repeated name, the later variable would shadow the earlier.
        with pytest.raises(ValueError, match="'a' repeats"):
            parse_expr("a", 2, QQ, names=("a", "a"))
        with pytest.raises(ValueError, match="'t' repeats"):
            parse_expr("s", 3, QQ, names=["t", "s", "t"])

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + ?", 2, QQ)
        assert "position" in str(err.value)

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_expr(f"x1^{2**62}", 1, QQ)

    def test_literal_budget(self):
        digits = "7" * MAX_LITERAL_DIGITS
        assert parse_expr(digits, 1, QQ) == RatFunc.const(QQ, 1, int(digits))
        with pytest.raises(ParseError, match="MAX_LITERAL_DIGITS") as err:
            parse_expr("x1 + 7" + digits, 1, QQ)
        assert err.value.pos == 5


class TestArith:
    def test_add_neg_cancels(self):
        x1 = parse_expr("x1", 2, QQ)
        assert eq_zero(x1 + -x1)

    def test_cross_cancellation(self):
        f = parse_expr("x1/x2", 2, QQ) * parse_expr("x2/x1", 2, QQ)
        assert f == RatFunc.const(QQ, 2, 1)

    def test_exact_division_gf5(self):
        f = parse_expr("x1^5 + x1", 1, F5, names=("x1",)) / parse_expr("x1", 1, F5, names=("x1",))
        assert f == parse_expr("x1^4 + 1", 1, F5, names=("x1",))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            parse_expr("1", 1, QQ) / RatFunc.zero(QQ, 1)


class TestEqZero:
    def test_zero(self):
        assert eq_zero(RatFunc.zero(QQ, 2))

    def test_expansion_difference(self):
        f = parse_expr("(x1^2 - x2^2) - (x1+x2)*(x1-x2)", 2, QQ)
        assert eq_zero(f)

    def test_nonzero(self):
        assert not eq_zero(parse_expr("x1/x2", 2, QQ))


class TestCanonicalForm:
    def test_content_removed(self):
        f = parse_expr("(x1^2*x2)/(x1*x2^2)", 2, QQ)
        assert f.num.terms == {(1, 0): Fraction(1)}
        assert f.den.terms == {(0, 1): Fraction(1)}

    def test_denominator_normalized(self):
        f = parse_expr("x1/(2*x2)", 2, QQ)
        assert f.den.terms == {(0, 1): Fraction(1)}
        assert f.num.terms == {(1, 0): Fraction(1, 2)}

    def test_different_routes_same_function(self):
        rng = random.Random(21)
        for field in (QQ, F5):
            for _ in range(40):
                f = random_ratfunc(rng, field, 2)
                g = random_ratfunc(rng, field, 2, nonzero=True)
                lhs = (f + g) * (f - g)
                rhs = f * f - g * g
                assert eq_zero(lhs - rhs)


@st.composite
def ratfuncs(draw, field, arity=2):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    return random_ratfunc(rng, field, arity, max_degree=4, max_terms=4)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(f=ratfuncs(QQ), g=ratfuncs(QQ), h=ratfuncs(QQ))
    def test_ring_axioms_rationals(self, f, g, h):
        assert eq_zero((f + g) - (g + f))
        assert eq_zero((f + (g + h)) - ((f + g) + h))
        assert eq_zero((f * (g * h)) - ((f * g) * h))
        assert eq_zero(f * (g + h) - (f * g + f * h))
        assert eq_zero(f + (-f))

    @settings(max_examples=60, deadline=None)
    @given(f=ratfuncs(F5))
    def test_inverse_gf5(self, f):
        if not f.is_zero():
            assert (f * f.inverse()) == RatFunc.const(F5, 2, 1)


class TestPrinter:
    def test_round_trip_idempotent(self):
        rng = random.Random(33)
        for field in (QQ, F5):
            for _ in range(100):
                f = random_ratfunc(rng, field, rng.randint(1, 3))
                text = format_ratfunc(f)
                g = parse_expr(text, f.arity, field)
                assert eq_zero(f - g), text
                assert format_ratfunc(g) == text

    def test_parenthesization(self):
        f = parse_expr("(x1+x2)/(x1*x2)", 2, QQ)
        assert format_ratfunc(f) == "(x1 + x2)/(x1*x2)"


class TestJson:
    def test_round_trip(self):
        rng = random.Random(44)
        for field in (QQ, F5):
            for _ in range(40):
                f = random_ratfunc(rng, field, 2)
                blob = json.dumps(f.to_json(), sort_keys=True)
                g = RatFunc.from_json(json.loads(blob), field, 2)
                assert f.num == g.num and f.den == g.den
                assert json.dumps(g.to_json(), sort_keys=True) == blob

    def test_poly_json_shape(self):
        p = Poly.make(QQ, 2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1)})
        assert p.to_json() == [{"e": [1, 0], "c": "3/2"}, {"e": [0, 0], "c": "-1"}]


class TestOverflow:
    def test_exponent_overflow_detected(self):
        p = Poly.make(QQ, 1, {(2**61,): 1})
        with pytest.raises(OverflowError):
            p * p
