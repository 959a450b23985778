import json
import operator
import pathlib
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import placeforge as pf
from placeforge import BaseField, ParseError, Poly, RatFunc, parse_expr, parsing
from placeforge.ordgroup import MAX_LITERAL_DIGITS
from placeforge.parsing import MAX_POWER_BITS, format_ratfunc
from placeforge.ratfunc import EXP_LIMIT

import oracles
from gen import random_ratfunc

QQ = BaseField(0)
F5 = BaseField(5)


def monic_terms(f):
    """f's numerator and denominator as term dicts in the monic form that
    reports print, read off the stored terms in their stored order: each
    coefficient divided by the denominator's lexicographically largest
    one (1 over GF(p))."""
    _, lead = f.den.lex_leading()
    return tuple({e: Fraction(c, lead) for e, c in p.terms.items()} for p in (f.num, f.den))


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
        # over Q an integral value is an int, any other a Fraction
        assert type(QQ.coerce(3)) is int and type(QQ.coerce(Fraction(6, 2))) is int
        assert QQ.coerce(Fraction(3, 2)) == Fraction(3, 2)

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("value", [0.5, 2.7, 3.0, "3", "1/2", None])
    def test_inexact_coefficients_refused(self, field, value):
        message = f"^coefficient {re.escape(repr(value))} is not an int or a Fraction$"
        for build in (lambda: field.coerce(value), lambda: Poly.make(field, 1, {(1,): value}),
                      lambda: RatFunc.const(field, 1, value),
                      lambda: RatFunc.monomial(field, 2, (1, -1), value)):
            with pytest.raises(TypeError, match=message):
                build()

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("e", [(1.5, 2.9), (2.0, 0), ("1", 0), (1, None)])
    def test_inexact_exponents_refused(self, field, e):
        for build in (lambda: Poly.make(field, 2, {e: 1}), lambda: RatFunc.monomial(field, 2, e)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                build()
        # exact integers of any int type are taken as they are
        assert Poly.make(field, 2, {(True, 2): 1}).terms == {(1, 2): 1}

    def test_inv_over_gf_p(self):
        assert F5.inv(2) == 3
        big = BaseField(2**61 - 1)
        assert big.inv(12345) * 12345 % big.p == 1
        with pytest.raises(ZeroDivisionError):
            F5.inv(10)


class TestParser:
    def test_monomial_quotient(self):
        f = parse_expr("x1^2/x2", 2, QQ)
        assert monic_terms(f) == ({(2, 0): 1}, {(0, 1): 1})

    def test_product_expansion(self):
        f = parse_expr("(x1+x2)*(x1-x2)", 2, QQ)
        g = parse_expr("x1^2 - x2^2", 2, QQ)
        assert (f - g).is_zero()

    def test_zero_denominator(self):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_expr("1/0", 2, QQ)

    def test_rational_literal(self):
        # the monic view scales the denominator to 1
        f = parse_expr("3/2", 1, QQ)
        assert monic_terms(f) == ({(0,): Fraction(3, 2)}, {(0,): 1})
        assert f == RatFunc.const(QQ, 1, Fraction(3, 2))

    def test_negative_exponent(self):
        f = parse_expr("x1^-2", 2, QQ)
        assert f == parse_expr("1/x1^2", 2, QQ)

    def test_parsed_monomials_store_what_monomial_stores(self, monkeypatch):
        """A parsed monomial and RatFunc.monomial store the same terms, and
        parsing builds no Fraction: coefficients stay (n, d) int pairs."""
        cases = [("5/2*x1^3*x2^-2", (3, -2), Fraction(5, 2)), ("-x2^-1/6", (0, -1), Fraction(-1, 6)),
                 ("4/6", (0, 0), Fraction(2, 3)), ("0*x1^-4", (-4, 0), 0), ("x1*x2", (1, 1), 1)]
        for field in (QQ, BaseField(5)):
            want = [RatFunc.monomial(field, 2, e, c) for _, e, c in cases]
            built, new = [], Fraction.__new__
            monkeypatch.setattr(Fraction, "__new__",
                                lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
            got = [parse_expr(text, 2, field) for text, _, _ in cases]
            monkeypatch.undo()
            assert built == []
            assert [(f.num.terms, f.den.terms) for f in got] == [(f.num.terms, f.den.terms) for f in want]

    def test_unary_minus(self):
        assert parse_expr("-x1 + x1", 1, QQ).is_zero()

    def test_custom_names(self):
        f = parse_expr("t*s", 2, QQ, names=("t", "s"))
        assert monic_terms(f)[0] == {(1, 1): 1}

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_expr("y1", 2, QQ)

    def test_repeated_names_refused(self):
        # With a repeated name, the later variable would shadow the earlier.
        with pytest.raises(ValueError, match="'a' repeats"):
            parse_expr("a", 2, QQ, names=("a", "a"))
        with pytest.raises(ValueError, match="'t' repeats"):
            parse_expr("s", 3, QQ, names=["t", "s", "t"])

    def test_names_must_be_identifiers(self):
        # the tokenizer reads no other name, so an element could never use it
        for names in (("a-b", "c"), ("", "c"), ("c", "x 1"), ("1a", "c"), ("c", "é"), ("c", 1)):
            with pytest.raises(ValueError, match="is not an identifier"):
                parse_expr("c", 2, QQ, names=names)
        assert parse_expr("_a + B_9", 2, QQ, names=("_a", "B_9")) == parse_expr("x1 + x2", 2, QQ)

    def test_name_tables_are_built_once_per_name_set(self, monkeypatch):
        """parse_expr checks a set of names and builds its index once per
        (names, arity), a list and a tuple of the same names alike."""
        checked = []
        check_names = parsing.check_names
        monkeypatch.setattr(parsing, "check_names",
                            lambda names, arity: checked.append(names) or check_names(names, arity))
        names = ["alpha_pf", "beta_pf"]
        for _ in range(3):
            assert monic_terms(parse_expr("alpha_pf*beta_pf", 2, QQ, names=names))[0] == {(1, 1): 1}
            assert monic_terms(parse_expr("beta_pf", 2, QQ, names=tuple(names)))[0] == {(0, 1): 1}
        assert checked == [tuple(names)]

    @pytest.mark.parametrize("names, arity, message", [
        (["a", "a"], 2, "variable names must be distinct; 'a' repeats"),
        (("a", "b", "a"), 3, "variable names must be distinct; 'a' repeats"),
        (["a"], 2, "need one name per variable"),
        ((1, "b"), 2, "variable name 1 is not an identifier"),
        (["a", ["b"]], 2, r"variable name \['b'\] is not an identifier"),
        (["a", {"b": 1}], 2, r"variable name \{'b': 1\} is not an identifier"),
        ([None, "b"], 2, "variable name None is not an identifier"),
        (("a", "b\n"), 2, r"variable name 'b\\n' is not an identifier"),
    ])
    def test_bad_names_are_refused_on_every_call(self, names, arity, message):
        """A bad name set, hashable or not, meets check_names' own error on
        every call; no failure is cached."""
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                parse_expr("a", arity, QQ, names=names)

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

    def test_power_budget(self):
        # x1^k and 1^k cost nothing; over Q, 3^k has about 1.6*k bits
        assert monic_terms(parse_expr(f"x1^{2**62 - 1}", 1, QQ))[0] == {(2**62 - 1,): 1}
        assert parse_expr(f"(-1)^{2**62 - 1}*1^{2**62 - 1}", 1, QQ) == RatFunc.const(QQ, 1, -1)
        assert parse_expr(f"2^{MAX_POWER_BITS}", 1, QQ) == RatFunc.const(QQ, 1, 2**MAX_POWER_BITS)
        for text in ("3^10000000", f"2^{MAX_POWER_BITS + 1}", f"(x1 + 1/2)^-{MAX_POWER_BITS + 1}"):
            with pytest.raises(ParseError, match="MAX_POWER_BITS"):
                parse_expr(text, 1, QQ)
        # residues mod p do not grow
        assert parse_expr("3^10000000", 1, F5) == RatFunc.const(F5, 1, pow(3, 10**7, 5))


def _over_budget(k, pos):
    return (f"power {k} makes coefficients of about {abs(k) * (4097 // abs(k))} bits, "
            f"over MAX_POWER_BITS = 4096 (at position {pos})")


# (text, message or None), over Q: |k| * bits at MAX_POWER_BITS = 4096 and
# one past it, bits read off the base's monic coefficients.  The int form of
# x1/2^16 + 1/118098 is (59049*x1 + 32768)/3869835264: its 31 bits would
# refuse the power 256 that the monic coefficients' 16 bits allow.
POWER_BITS_EDGE = [
    ("3^4096", None),
    ("3^4097", _over_budget(4097, 2)),
    ("65536^256", None),
    ("131072^241", _over_budget(241, 7)),
    ("x1*2^-4096", None),
    ("x1*3^-4097", _over_budget(-4097, 6)),
    ("(x1/3)^4096", None),
    ("(x1/3)^-4097", _over_budget(-4097, 8)),
    ("(x1/2^16 + 1/118098)^256", None),
    ("(x1/2^16 + 1/118098)^-256", None),
    ("(x1/2^17 + 1/3^11)^241", _over_budget(241, 19)),
    ("(x1/2^17 + 1/3^11)^-241", _over_budget(-241, 20)),
]


class TestPowerBudget:
    @pytest.mark.parametrize("text, message", POWER_BITS_EDGE, ids=[t for t, _ in POWER_BITS_EDGE])
    def test_decision_and_position(self, text, message):
        if message is None:
            assert not parse_expr(text, 2, QQ).is_zero()
            return
        with pytest.raises(ParseError) as err:
            parse_expr(text, 2, QQ)
        assert str(err.value) == message


# (text, message or None for a clean parse), the same over Q and GF(5): the
# exact message and position of each refusal.  An unexpected character is
# placed at the end of the token before it, ahead of any whitespace.
PARSE_ERRORS = [
    ("x1 + $", "unexpected character '$' (at position 4)"),
    ("x1 +  $", "unexpected character '$' (at position 4)"),
    ("  $", "unexpected character '$' (at position 0)"),
    ("x1\t\n$", "unexpected character '$' (at position 2)"),
    ("x1 + x2   ", None),
    ("x1\t+\nx2 \t\n", None),
    ("1" * 1001,
     "integer literal of 1001 digits exceeds MAX_LITERAL_DIGITS = 1000 (at position 0)"),
    ("x1^" + "1" * 1001,
     "integer literal of 1001 digits exceeds MAX_LITERAL_DIGITS = 1000 (at position 3)"),
    ("x1^", "expected an integer exponent (at position 3)"),
    ("x1^-", "expected an integer exponent (at position 4)"),
    ("x1^(2)", "expected an integer exponent (at position 3)"),
    ("x1^2^3", "trailing input '^' (at position 4)"),
    ("y1", "unknown variable 'y1' (at position 0)"),
    ("(x1", "expected ')' (at position 3)"),
    ("x1)", "trailing input ')' (at position 2)"),
    ("x1 x2", "trailing input 'x2' (at position 3)"),
    ("   ", "expected a number, variable or parenthesis (at position 3)"),
    ("3/0", "division by zero (at position 1)"),
    ("2^-1/0", "division by zero (at position 4)"),
]


class TestParseErrors:
    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("text, message", PARSE_ERRORS,
                             ids=lambda x: repr(x[:12]) if isinstance(x, str) else None)
    def test_message_and_position(self, text, message, field):
        if message is None:
            assert format_ratfunc(parse_expr(text, 2, field)) == "x1 + x2"
            return
        with pytest.raises(ParseError) as err:
            parse_expr(text, 2, field)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["3/0", "1/3", "x1 + 2*x2/3"])
    def test_literal_zero_mod_p_divides(self, text):
        with pytest.raises(ParseError) as err:
            parse_expr(text, 2, BaseField(3))
        assert str(err.value) == f"division by zero (at position {text.rindex('/')})"


class TestArith:
    def test_add_neg_cancels(self):
        x1 = parse_expr("x1", 2, QQ)
        assert (x1 + -x1).is_zero()

    def test_cross_cancellation(self):
        f = parse_expr("x1/x2", 2, QQ) * parse_expr("x2/x1", 2, QQ)
        assert f == RatFunc.const(QQ, 2, 1)

    def test_exact_division_gf5(self):
        f = parse_expr("x1^5 + x1", 1, F5, names=("x1",)) / parse_expr("x1", 1, F5, names=("x1",))
        assert f == parse_expr("x1^4 + 1", 1, F5, names=("x1",))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            parse_expr("1", 1, QQ) / RatFunc.zero(QQ, 1)

    @staticmethod
    def polynomial(rng, field, n, d):
        """A random polynomial over the constant d, in canonical form."""
        terms = {tuple(rng.randint(0, 3) for _ in range(n)): rng.randint(-6, 6)
                 for _ in range(rng.randint(0, 4))}
        return RatFunc.make(Poly.make(field, n, terms), Poly.const(field, n, d))

    def test_polynomial_sum_stores_the_terms_make_gives(self):
        """The sum of two polynomials over constants stores exactly the
        terms of the general formula, for + and -, cancellation included."""
        rng = random.Random(7)
        count = 0
        for field in (QQ, F5, BaseField(2**61 - 1)):
            for n in range(4):
                for da, db in ((1, 1), (6, 6), (4, 9), (3, 1), (12, 18), (1, 7)):
                    for _ in range(6):
                        a = self.polynomial(rng, field, n, da)
                        b = self.polynomial(rng, field, n, db)
                        for lhs, rhs in ((a, b), (a, -a), (a, a), (-a, a)):
                            for got, sign in ((lhs + rhs, 1), (lhs - rhs, -1)):
                                other = rhs.num.scaled(sign) * lhs.den
                                want = RatFunc.make(lhs.num * rhs.den + other, lhs.den * rhs.den)
                                for g, w in ((got.num, want.num), (got.den, want.den)):
                                    assert g.terms == w.terms, (field, n, lhs, rhs, sign)
                                    assert all(type(c) is int for c in g.terms.values())
                                    assert (g.field, g.arity) == (field, n)
                                count += 1
        assert count == 3 * 4 * 6 * 6 * 8
        # a cancelling sum is 0/1, whatever the constants
        half = RatFunc.const(QQ, 2, Fraction(1, 2))
        assert (half - half).den.terms == {(0, 0): 1}

    def test_polynomial_sum_over_different_rings(self):
        pairs = [(RatFunc.const(QQ, 2, 3), RatFunc.const(F5, 2, 1)),
                 (RatFunc.const(QQ, 2, Fraction(1, 2)), RatFunc.const(QQ, 3, Fraction(1, 3))),
                 (RatFunc.variable(F5, 1, 0), RatFunc.variable(QQ, 1, 0))]
        for a, b in pairs:
            for op in (operator.add, operator.sub):
                with pytest.raises(ValueError, match="^polynomials over different rings$"):
                    op(a, b)
        # a ring mismatch later in a run of polynomials is refused too
        with pytest.raises(ValueError, match="^polynomials over different rings$"):
            RatFunc.sum([RatFunc.const(QQ, 2, 3), RatFunc.const(QQ, 2, 4), RatFunc.const(QQ, 1, 1)])

    def test_equality_over_different_rings_is_false(self):
        """== answers False on a field or an arity mismatch, as Poly's does."""
        pairs = [(RatFunc.zero(QQ, 1), RatFunc.zero(F5, 1)),
                 (RatFunc.const(F5, 2, 1), RatFunc.const(QQ, 2, 1)),
                 (RatFunc.zero(QQ, 1), RatFunc.zero(QQ, 2)),
                 (RatFunc.variable(F5, 2, 0), RatFunc.variable(F5, 3, 0))]
        for a, b in pairs:
            assert a.num != b.num
            assert not a == b and a != b
            assert not b == a and b != a

    def test_sum_stores_the_terms_of_the_folded_formula(self):
        """RatFunc.sum over a mix of polynomials over constants and other
        functions stores exactly the terms of the left fold of
        make(a.num * b.den + b.num * a.den, a.den * b.den)."""
        rng = random.Random(11)
        for field in (QQ, F5):
            for n in (1, 2):
                for _ in range(25):
                    items = []
                    for _ in range(rng.randint(1, 7)):
                        f = self.polynomial(rng, field, n, rng.choice((1, 2, 3, 6)))
                        if rng.random() < 0.3:
                            f = f / (RatFunc.variable(field, n, 0) + RatFunc.const(field, n, 1))
                        items += [f, -f] if rng.random() < 0.2 else [f]
                    want = items[0]
                    for t in items[1:]:
                        want = RatFunc.make(want.num * t.den + t.num * want.den, want.den * t.den)
                    got = RatFunc.sum(items)
                    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms), items

    def test_a_long_sum_parses_in_linear_work(self, monkeypatch):
        """The terms stored over all the polynomials that parsing a sum of k
        monomials builds stay under 6k: the running sum is not copied at
        each + or -, which would store about k^2 / 2."""
        stored = []
        init = Poly.__init__

        def counting(self, field, arity, terms):
            stored.append(len(terms))
            init(self, field, arity, terms)

        monkeypatch.setattr(Poly, "__init__", counting)
        for k in (200, 400):
            text = "".join(f" {'+-'[i % 2]} {i % 7 + 1}/{i % 5 + 1}*x1^{i}*x2" for i in range(k))
            stored.clear()
            f = parse_expr(text.lstrip(" +"), 2, QQ)
            assert len(f.num.terms) == k
            assert sum(stored) < 6 * k, sum(stored)

    def test_a_long_laurent_sum_parses_in_linear_work(self, monkeypatch):
        """A sum of Laurent monomials adds in one run over its monomial
        denominators: parsing x1^-1 + x1 + ... + x1^-k + x1^k stores under
        8 terms per pair, not the about k^2 that a running sum through
        make() stores, and gives what that left fold gives."""
        stored = []
        init = Poly.__init__

        def counting(self, field, arity, terms):
            stored.append(len(terms))
            init(self, field, arity, terms)

        for field in (QQ, F5):
            for k in (100, 200):
                text = " + ".join(f"{i % 4 + 1}*x1^-{i} + x1^{i}*x2/{i % 3 + 1}"
                                  for i in range(1, k + 1))
                monkeypatch.setattr(Poly, "__init__", counting)
                stored.clear()
                f = parse_expr(text, 2, field)
                monkeypatch.setattr(Poly, "__init__", init)
                assert sum(stored) < 8 * k, sum(stored)
                summands = [parse_expr(t, 2, field) for t in text.split(" + ")]
                want = summands[0]
                for t in summands[1:]:
                    want = RatFunc.make(want.num * t.den + t.num * want.den, want.den * t.den)
                assert (f.num.terms, f.den.terms) == (want.num.terms, want.den.terms)
                assert len(f.num.terms) == 2 * k and list(f.den.terms) == [(k, 0)]

    def test_laurent_runs_match_the_make_fold(self):
        """RatFunc.sum over Laurent monomials, polynomials over constants and
        quotients by x1 + 1 stores the terms of the left fold through make(),
        or raises its error, also with exponents near EXP_LIMIT, where the
        fold's products overflow."""
        rng = random.Random(13)
        near = (EXP_LIMIT - 1, 1 - EXP_LIMIT, EXP_LIMIT >> 2, (EXP_LIMIT >> 2) - 1, -(EXP_LIMIT >> 2))
        outcomes = set()
        for field in (QQ, F5, BaseField(7)):
            for _ in range(300):
                n = rng.randint(1, 3)
                items = []
                for _ in range(rng.randint(1, 7)):
                    e = [rng.randint(-3, 3) for _ in range(n)]
                    huge = rng.random() < 0.15
                    if huge:
                        e[0] = rng.choice(near)
                    f = RatFunc.monomial(field, n, e, rng.randint(-4, 4))
                    if not huge and rng.random() < 0.3:
                        f = f * self.polynomial(rng, field, n, rng.choice((1, 2, 3)))
                    if not huge and rng.random() < 0.15:
                        f = f / (RatFunc.variable(field, n, 0) + RatFunc.const(field, n, 1))
                    items += [f, -f] if rng.random() < 0.2 else [f]

                def fold():
                    want = items[0]
                    for t in items[1:]:
                        want = RatFunc.make(want.num * t.den + t.num * want.den, want.den * t.den)
                    return want

                got = outcome(lambda: RatFunc.sum(items))
                assert got == outcome(fold), items
                outcomes.add(got[0] if type(got[0]) is type else "ok")
        assert outcomes == {"ok", OverflowError}


class TestEqZero:
    def test_zero(self):
        assert RatFunc.zero(QQ, 2).is_zero()

    def test_expansion_difference(self):
        f = parse_expr("(x1^2 - x2^2) - (x1+x2)*(x1-x2)", 2, QQ)
        assert f.is_zero()

    def test_nonzero(self):
        assert not parse_expr("x1/x2", 2, QQ).is_zero()


class TestCanonicalForm:
    def test_content_removed(self):
        f = parse_expr("(x1^2*x2)/(x1*x2^2)", 2, QQ)
        assert monic_terms(f) == ({(1, 0): 1}, {(0, 1): 1})

    def test_denominator_normalized(self):
        f = parse_expr("x1/(2*x2)", 2, QQ)
        assert monic_terms(f) == ({(1, 0): Fraction(1, 2)}, {(0, 1): 1})

    @pytest.mark.parametrize("text, num, den", [
        ("x1/2 + 1/3", {(1, 0): 3, (0, 0): 2}, {(0, 0): 6}),
        ("x1/(2*x2)", {(1, 0): 1}, {(0, 1): 2}),
        ("-x1/(2*x2)", {(1, 0): -1}, {(0, 1): 2}),
        # the lex-leading denominator coefficient (at x1) is made positive
        ("1/(x2 - 2*x1)", {(0, 0): -1}, {(0, 1): -1, (1, 0): 2}),
        ("(6*x1 + 4)/(2*x2)", {(1, 0): 3, (0, 0): 2}, {(0, 1): 1}),
        ("0/(3*x2)", {}, {(0, 0): 1}),
        # a sum's int coefficients over one denominator are reduced at the end
        ("x1/2 + x1/2 - 1/3 + 1/3", {(1, 0): 1}, {(0, 0): 1}),
        ("1/2 - 1/2", {}, {(0, 0): 1}),
        # and so is a run of atoms that is taken as it is
        ("2/4/x2", {(0, 0): 1}, {(0, 1): 2}),
    ])
    def test_stored_form_over_q(self, text, num, den):
        # int numerator and denominator, joint content 1, positive lead
        f = parse_expr(text, 2, QQ)
        assert (f.num.terms, f.den.terms) == (num, den)
        assert all(type(c) is int for p in (f.num, f.den) for c in p.terms.values())

    def test_different_routes_same_function(self):
        rng = random.Random(21)
        for field in (QQ, F5):
            for _ in range(40):
                f = random_ratfunc(rng, field, 2)
                g = random_ratfunc(rng, field, 2, nonzero=True)
                lhs = (f + g) * (f - g)
                rhs = f * f - g * g
                assert (lhs - rhs).is_zero()


@st.composite
def ratfuncs(draw, field, arity=2):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    return random_ratfunc(rng, field, arity, max_degree=4, max_terms=4)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(f=ratfuncs(QQ), g=ratfuncs(QQ), h=ratfuncs(QQ))
    def test_ring_axioms_rationals(self, f, g, h):
        assert ((f + g) - (g + f)).is_zero()
        assert ((f + (g + h)) - ((f + g) + h)).is_zero()
        assert ((f * (g * h)) - ((f * g) * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()
        assert (f + (-f)).is_zero()

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
                assert (f - g).is_zero(), text
                assert format_ratfunc(g) == text

    def test_parenthesization(self):
        f = parse_expr("(x1+x2)/(x1*x2)", 2, QQ)
        assert format_ratfunc(f) == "(x1 + x2)/(x1*x2)"


def terms_text(terms) -> str:
    """A sum of (exponent, coefficient) terms as text the parser reads,
    every term as (c)*x1^e1*x2^e2...; printed here, not by the library."""
    return " + ".join(
        "*".join([f"({c})", *(f"x{i + 1}^{x}" for i, x in enumerate(e))]) for e, c in terms
    ) or "0"


def json_text(obj) -> str:
    """An expression for RatFunc.to_json output."""
    num, den = ([(t["e"], t["c"]) for t in obj[key]] for key in ("num", "den"))
    return f"({terms_text(num)})/({terms_text(den)})"


class TestJson:
    def test_print_parse_round_trip(self):
        rng = random.Random(44)
        for field in (QQ, F5):
            for _ in range(40):
                f = random_ratfunc(rng, field, 2)
                blob = json.dumps(f.to_json(), sort_keys=True)
                g = parse_expr(json_text(json.loads(blob)), 2, field)
                assert f == g
                assert json.dumps(g.to_json(), sort_keys=True) == blob

    def test_ratfunc_json_is_monic(self):
        f = parse_expr("(x1/2 + 1/3)/(3*x2)", 2, QQ)
        assert f.to_json() == {"num": [{"e": [1, 0], "c": "1/6"}, {"e": [0, 0], "c": "1/9"}],
                               "den": [{"e": [0, 1], "c": "1"}]}
        # over GF(p) each coefficient is an int residue
        f = parse_expr("(x1/2 + 4)/(3*x2)", 2, F5)
        assert f.to_json() == {"num": [{"e": [1, 0], "c": 1}, {"e": [0, 0], "c": 3}],
                               "den": [{"e": [0, 1], "c": 1}]}

    def test_poly_json_shape(self):
        # a hand-built polynomial with Fraction coefficients prints over denominator 1
        p = Poly.make(QQ, 2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1)})
        f = RatFunc.make(p, Poly.const(QQ, 2, 1))
        assert f.to_json() == {"num": [{"e": [1, 0], "c": "3/2"}, {"e": [0, 0], "c": "-1"}],
                               "den": [{"e": [0, 0], "c": "1"}]}


class TestOverflow:
    def test_exponent_overflow_detected(self):
        p = Poly.make(QQ, 1, {(2**61,): 1})
        with pytest.raises(OverflowError):
            p * p


def canonical_terms(num: dict, den: dict, field: BaseField):
    """The canonical form of num/den by its definition: divide both by their
    common monomial content, then scale both so that the denominator's
    lexicographically largest coefficient is 1.  Returns two term lists."""
    if not num:
        return [[], [((0,) * len(next(iter(den))), 1)]]
    exps = list(num) + list(den)
    content = tuple(min(column) for column in zip(*exps))
    lead = den[max(den)]
    if field.p:
        scale = pow(lead, -1, field.p)
        times = lambda c: c * scale % field.p  # noqa: E731
    else:
        times = lambda c: Fraction(c) / lead  # noqa: E731
    return [
        [(tuple(x - y for x, y in zip(e, content)), times(c)) for e, c in terms.items()]
        for terms in (num, den)
    ]


@st.composite
def poly_terms(draw, field, arity, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 4)) for _ in range(arity))
        c = field.coerce(draw(st.integers(-9, 9)) if field.p else
                         Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5))))
        if c:
            terms[e] = c
    return terms


class TestMake:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), field=st.sampled_from([QQ, F5]))
    def test_make_matches_definition(self, data, field):
        num = data.draw(poly_terms(field, 3))
        dens = [{(0, 0, 0): field.coerce(1)}]
        den = data.draw(poly_terms(field, 3))
        if den:
            dens.append(den)
        for den in dens:
            f = RatFunc.make(Poly(field, 3, dict(num)), Poly(field, 3, dict(den)))
            expected = canonical_terms(num, den, field)
            assert [list(t.items()) for t in monic_terms(f)] == expected
            # the stored form: int coefficients; over Q joint content 1 and
            # a positive lead, over GF(p) a lead of 1
            coeffs = [*f.num.terms.values(), *f.den.terms.values()]
            assert all(type(c) is int for c in coeffs)
            lead = f.den.lex_leading()[1]
            assert lead == 1 if field.p else (lead > 0 and gcd(*coeffs) == 1)


class TestConstants:
    """zero, const and variable build their canonical form directly; it
    must be exactly what make() gives, coefficient types included."""

    FIELDS = (QQ, F5, BaseField(2**61 - 1))
    VALUES = (0, 1, -3, 12, Fraction(2, 3), Fraction(7, 4), Fraction(-5, 6), Fraction(-4, 10))

    @staticmethod
    def stored(build):
        try:
            f = build()
        except Exception as exc:  # the same error type and message
            return type(exc), str(exc)
        sides = [[(e, c, type(c)) for e, c in p.terms.items()] for p in (f.num, f.den)]
        return sides, f.num.field, f.den.field, f.num.arity, f.den.arity

    def test_constants_store_the_terms_make_gives(self):
        count = 0
        for field in self.FIELDS:
            for n in range(4):
                zero, one = (0,) * n, Poly.const(field, n, 1)

                def made(terms):
                    return lambda: RatFunc.make(Poly.make(field, n, terms), one)

                assert self.stored(lambda: RatFunc.zero(field, n)) == self.stored(made({}))
                for value in self.VALUES:
                    assert (self.stored(lambda: RatFunc.const(field, n, value))
                            == self.stored(made({zero: value}))), (field, n, value)
                    count += 1
                for i in range(n):
                    e = tuple(int(k == i) for k in range(n))
                    assert self.stored(lambda: RatFunc.variable(field, n, i)) == self.stored(made({e: 1}))
                    count += 1
        assert count == 3 * (4 * len(self.VALUES) + 6)
        # GF(5) refuses a denominator divisible by 5, as make() does
        assert self.stored(lambda: RatFunc.const(F5, 2, Fraction(-4, 10)))[0] is ZeroDivisionError

    @pytest.mark.parametrize("n,index", [(0, 0), (2, -1), (2, 2), (3, 7)])
    def test_variable_index_out_of_range(self, n, index):
        with pytest.raises(ValueError, match="^variable index out of range$"):
            RatFunc.variable(QQ, n, index)


# Differential parser test.  An expression tree is rendered to text that the
# grammar reads back as the same tree; the reference folds the tree with
# RatFunc.const/variable and the operators, left to right, which is what the
# parser's result must equal term for term in the monic view (insertion
# order included), or fail with the same exception class and message.

HUGE = 2**62 - 1  # the largest exponent a literal "^" accepts


def N(v):
    return ("num", v)


def P(t):
    """t in parentheses, even when it is a number or a variable."""
    return ("par", t)


def V(i):
    return ("var", i)


def render(tree):
    """Text of an expression tree, and the positions of every "/" and every
    exponent's digits, in the order the reference meets them."""
    parts, spots = [], []
    size = 0

    def put(text):
        nonlocal size
        parts.append(text)
        size += len(text)

    def expr(t):
        if t[0] in ("+", "-"):
            expr(t[1])
            put(f" {t[0]} ")
            term(t[2])
        elif t[0] == "neg":
            put("-")
            term(t[1])
        else:
            term(t)

    def term(t):
        if t[0] in ("*", "/"):
            term(t[1])
            if t[0] == "/":
                spots.append(size)
            put(t[0])
            factor(t[2])
        else:
            factor(t)

    def factor(t):
        if t[0] == "pow":
            base(t[1])
            put("^-" if t[2] < 0 else "^")
            spots.append(size)
            put(str(abs(t[2])))
        else:
            base(t)

    def base(t):
        if t[0] == "num":
            put(str(t[1]))
        elif t[0] == "var":
            put(f"x{t[1] + 1}")
        else:
            put("(")
            expr(t[1] if t[0] == "par" else t)
            put(")")

    expr(tree)
    return "".join(parts), spots


def fold(tree, field, arity, spots):
    spots = iter(spots)

    def ev(t):
        tag = t[0]
        if tag == "num":
            return RatFunc.const(field, arity, t[1])
        if tag == "var":
            return RatFunc.variable(field, arity, t[1])
        if tag == "neg":
            return -ev(t[1])
        if tag == "par":
            return ev(t[1])
        if tag == "pow":
            x = ev(t[1])
            pos = next(spots)
            if t[2] < 0 and x.is_zero():
                raise ParseError("negative power of zero", pos)
            return x ** t[2]
        lhs = ev(t[1])
        pos = next(spots) if tag == "/" else None
        rhs = ev(t[2])
        if tag == "+":
            return lhs + rhs
        if tag == "-":
            return lhs - rhs
        if tag == "*":
            return lhs * rhs
        if rhs.is_zero():
            raise ParseError("division by zero", pos)
        return lhs / rhs

    return ev(tree)


def outcome(thunk):
    try:
        f = thunk()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return [list(t.items()) for t in monic_terms(f)]


def parses_like_fold(tree, field, arity=2):
    text, spots = render(tree)
    expected = outcome(lambda: fold(tree, field, arity, spots))
    assert outcome(lambda: parse_expr(text, arity, field)) == expected, text
    return expected


@st.composite
def trees(draw, arity=2, depth=4):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.sampled_from(["num", "var", "var", "huge"]))
        if kind == "num":
            return N(draw(st.integers(0, 12)))
        var = V(draw(st.integers(0, arity - 1)))
        if kind == "huge":
            return ("pow", var, draw(st.sampled_from([2**61, HUGE, -HUGE])))
        return var
    op = draw(st.sampled_from(["+", "-", "*", "*", "/", "/", "neg", "pow"]))
    if op == "neg":
        return ("neg", draw(trees(arity, depth - 1)))
    if op == "pow":
        return ("pow", draw(trees(arity, depth - 1)), draw(st.integers(-3, 3)))
    return (op, draw(trees(arity, depth - 1)), draw(trees(arity, depth - 1)))


# (tree, the outcome's kind: "ok" or the exception class), over Q and GF(5)
EDGE_CASES = [
    # a literal that is 0 mod 5 as a divisor: division by zero over GF(5) only
    (("/", V(0), N(5)), {QQ: "ok", F5: ParseError}),
    (("/", ("*", N(2), V(0)), N(10)), {QQ: "ok", F5: ParseError}),
    (("/", N(3), ("+", N(2), N(3))), {QQ: "ok", F5: ParseError}),
    (("pow", N(0), -1), ParseError),
    (("*", V(0), ("pow", N(5), -2)), {QQ: "ok", F5: ParseError}),
    (("/", V(1), ("pow", N(0), 0)), "ok"),
    (("*", ("pow", V(0), HUGE), V(0)), OverflowError),
    (("/", ("pow", V(0), HUGE), V(0)), "ok"),
    (("/", ("pow", V(0), HUGE), ("pow", V(0), -1)), OverflowError),
    (("/", ("pow", V(0), -HUGE), V(0)), OverflowError),
    (("*", ("*", ("pow", V(0), HUGE), V(0)), ("pow", V(0), -1)), OverflowError),
    (("*", ("*", ("pow", V(0), -1), ("pow", V(0), HUGE)), V(0)), "ok"),
    # a zero coefficient first: the product stays 0 whatever the exponents
    (("*", ("*", N(0), ("pow", V(0), HUGE)), ("pow", V(0), HUGE)), "ok"),
    (("*", ("*", N(10), ("pow", V(0), HUGE)), ("pow", V(0), HUGE)), {QQ: OverflowError, F5: "ok"}),
    # repeated and negative variable powers
    (("/", ("/", ("*", ("*", V(0), ("pow", V(0), -2)), ("pow", V(1), 3)), V(1)),
      ("pow", V(0), -1)), "ok"),
    (("*", ("/", ("pow", V(1), -3), ("pow", V(1), -3)), ("pow", V(0), 0)), "ok"),
    # atoms on both sides of a parenthesised factor
    (("*", ("/", ("*", ("*", N(2), V(0)), ("+", V(0), N(1))), V(1)), ("pow", V(0), -1)), "ok"),
    (("*", ("/", ("*", ("pow", V(0), 2), ("-", V(0), V(1))), ("pow", V(0), 3)), N(2)), "ok"),
    (("/", ("/", ("*", N(3), ("+", V(0), V(1))), N(2)), ("pow", V(1), 2)), "ok"),
    # after a parenthesised factor every atom meets the running value: the
    # first product overflows, although the atoms after it cancel
    (("*", ("*", ("+", ("pow", V(0), HUGE), N(1)), V(0)), ("pow", V(0), -1)), OverflowError),
    (("neg", ("*", ("/", N(3), N(4)), V(1))), "ok"),
    # sums: a key that cancels and comes back, a sum that stops being a
    # polynomial midway, sums that open with a quotient, one that is a
    # polynomial again after a cancellation
    (("+", ("+", ("-", ("+", V(0), ("*", N(4), V(0))), V(1)), V(1)), V(0)), "ok"),
    (("+", ("+", V(0), ("/", N(1), V(1))), ("pow", V(0), 2)), "ok"),
    (("+", ("/", P(V(0)), P(V(1))), V(0)), "ok"),
    (("+", ("neg", ("/", V(0), V(1))), V(0)), "ok"),
    (("-", ("+", ("/", N(1), V(1)), ("-", N(0), ("/", N(1), V(1)))), ("*", N(2), V(0))), "ok"),
]


@st.composite
def atom_runs(draw, arity):
    """A product of atoms as it opens a term: a literal, maybe rational,
    then variables with powers from -3 to 3, joined by * and /."""
    run = N(draw(st.integers(0, 9)))
    if draw(st.booleans()):
        run = ("/", run, N(draw(st.integers(1, 9))))
    for _ in range(draw(st.integers(0, 3))):
        var = V(draw(st.integers(0, arity - 1)))
        k = draw(st.integers(-3, 3))
        run = (draw(st.sampled_from("*/")), run, var if k == 1 else ("pow", var, k))
    return run


@st.composite
def long_sums(draw, arity):
    """A + / - chain of 2 to 12 atom runs, maybe with a leading -."""
    runs = draw(st.lists(atom_runs(arity), min_size=2, max_size=12))
    tree = ("neg", runs[0]) if draw(st.booleans()) else runs[0]
    for run in runs[1:]:
        tree = (draw(st.sampled_from("+-")), tree, run)
    return tree


class TestParserDifferential:
    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    @pytest.mark.parametrize("tree, kind", EDGE_CASES, ids=lambda x: render(x)[0]
                             if isinstance(x, tuple) else getattr(x, "__name__", "by_field"))
    def test_edge_cases(self, tree, kind, field):
        if isinstance(kind, dict):
            kind = kind[field]
        got = parses_like_fold(tree, field)
        assert (got[0] if isinstance(got, tuple) else "ok") == kind, got

    @settings(max_examples=400, deadline=None)
    @given(tree=trees(), field=st.sampled_from([QQ, F5]))
    def test_parse_matches_operator_fold(self, tree, field):
        parses_like_fold(tree, field)

    @settings(max_examples=300, deadline=None)
    @given(tree=long_sums(3), field=st.sampled_from([QQ, F5, BaseField(7)]))
    def test_long_sums_match_operator_fold(self, tree, field):
        parses_like_fold(tree, field, arity=3)


# The library against tests/oracles.py's reference, which computes on
# unreduced pairs of coefficient dicts.  Operands reach the library both as
# parsed text (printed here, not by the library) and through Poly.make and
# RatFunc.make; every result is compared by cross multiplication.


@st.composite
def ref_ratfuncs(draw, p, arity=2):
    def poly(min_terms):
        terms = {}
        for _ in range(draw(st.integers(min_terms, 3))):
            e = tuple(draw(st.integers(0, 3)) for _ in range(arity))
            terms[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        return oracles.ref_poly(terms, p)

    num = poly(0)
    den = poly(1)
    while not den:
        den = oracles.ref_poly({(0,) * arity: draw(st.integers(1, 4))}, p)
    return num, den


def from_ref(f, field, arity=2):
    return RatFunc.make(Poly.make(field, arity, f[0]), Poly.make(field, arity, f[1]))


def to_ref(f, field):
    return oracles.ref_poly(f.num.terms, field.p), oracles.ref_poly(f.den.terms, field.p)


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), field=st.sampled_from([QQ, F5]), k=st.integers(-2, 3))
    def test_operators_and_parser(self, data, field, k):
        p = field.p
        f, g = data.draw(ref_ratfuncs(p)), data.draw(ref_ratfuncs(p))
        texts = [f"({terms_text(h[0].items())})/({terms_text(h[1].items())})" for h in (f, g)]
        lf = parse_expr(texts[0], 2, field)
        lg = from_ref(g, field)
        assert oracles.ref_eq(to_ref(lf, field), f, p)
        assert oracles.ref_eq(to_ref(lg, field), g, p)
        cases = [("+", operator.add, oracles.ref_add), ("-", operator.sub, oracles.ref_sub),
                 ("*", operator.mul, oracles.ref_mul), ("/", operator.truediv, oracles.ref_div)]
        for op, lib, ref in cases:
            if op == "/" and not g[0]:
                continue
            expected = ref(f, g, p)
            got = lib(lf, lg)
            assert oracles.ref_eq(to_ref(got, field), expected, p), op
            parsed = parse_expr(f"({texts[0]}) {op} ({texts[1]})", 2, field)
            assert oracles.ref_eq(to_ref(parsed, field), expected, p), op
        if f[0] or k >= 0:
            expected = oracles.ref_pow(f, k, p)
            assert oracles.ref_eq(to_ref(lf**k, field), expected, p)
            assert oracles.ref_eq(to_ref(parse_expr(f"({texts[0]})^{k}", 2, field), field),
                                  expected, p)
        assert (lf == lg) == oracles.ref_eq(f, g, p)
        if g[0]:
            assert lf * lg / lg == lf


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def int_coefficients(f) -> bool:
    return all(type(c) is int for p in (f.num, f.den) for c in p.terms.values())


class TestRepresentation:
    def test_benchmark_inputs_and_residues_are_int(self, monkeypatch):
        # the evaluate and replace inputs of seed 1, over Q and GF(5)
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        spec = workloads.evaluate_inputs(pf, 1)
        fields = set()
        for obj, texts in zip(spec["places"], spec["elems"]):
            place = pf.place_from_json(obj)
            fields.add(place.field)
            for text in texts:
                f = parse_expr(text, place.arity, place.field)
                assert int_coefficients(f), text
                r = place.residue(f)
                assert r is pf.INFINITY or int_coefficients(r), text
        for op in workloads.replace_inputs(pf, 1)["ops"]:
            place = pf.place_from_json(op["place"])
            fields.add(place.field)
            for text in op.get("elems", []) + op.get("A", []) + op.get("B", []):
                assert int_coefficients(parse_expr(text, place.arity, place.field)), text
        assert fields == {QQ, F5}
