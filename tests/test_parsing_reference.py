"""The parser against a frozen copy of the one before it, as an oracle.

`reference_tokenize` and `ReferenceParser` below are the tokenizer and
recursive-descent parser that `parsing.py` had before its token list became
one `re.findall`: a regex match and a (kind, value, position) triple per
token, and every product after a parenthesised factor on the RatFunc
operators.  Like `naive_term_mins` in test_kernels.py it is a reference and
does not change with the library.  Every input must give equal term dicts,
or the same exception type and message: the seeded `evaluate` and `replace`
elements of perfbench/workloads.py (seeds 1 and 2, read only), every element
of tests/jobs, and hypothesis mutations of short texts.
"""

import json
import pathlib
import re
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import placeforge as pf
from placeforge import BaseField, parse_expr
from placeforge.ordgroup import MAX_LITERAL_DIGITS
from placeforge.parsing import MAX_POWER_BITS, ParseError, default_names
from placeforge.ratfunc import EXP_LIMIT, Poly, RatFunc, monic

HERE = pathlib.Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
JOBS = sorted((HERE / "jobs").glob("*.json"))

# One match per token: an integer, a name, an operator, any other visible
# character (an error), or the end of the text with its trailing whitespace.
_REF_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S)|\Z)")


_ATOMS = ("num", "name")


def reference_tokenize(text: str):
    tokens = []
    for m in _REF_TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            number = m.group(1)
            if len(number) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(number)} digits exceeds "
                    f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}", m.start(1)
                )
            tokens.append(("num", int(number), m.start(1)))
        elif group == 2:
            tokens.append(("name", m.group(2), m.start(2)))
        elif group == 3:
            tokens.append(("op", m.group(3), m.start(3)))
        elif group == 4:
            # reported at the end of the previous token, before the whitespace
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        else:
            break
    tokens.append(("end", None, len(text)))
    return tokens


class ReferenceParser:
    # Each parenthesis level costs three stack frames (expr, term, factor);
    # this keeps deep inputs well inside the interpreter's limit.
    MAX_DEPTH = 128

    def __init__(self, tokens, field: BaseField, arity: int, names):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.field = field
        self.arity = arity
        self.index_of = {name: k for k, name in enumerate(names)}
        self.zero_e = (0,) * arity

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> RatFunc:
        out = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos)
        return out

    def monomial(self, n, d, e) -> RatFunc:
        """n/d * x^e in canonical form, for a pair (n, d) from `ratio`; e may
        have negative entries."""
        field, arity = self.field, self.arity
        if not n:
            return RatFunc.zero(field, arity)
        up = tuple(x if x > 0 else 0 for x in e)
        down = tuple(-x if x < 0 else 0 for x in e)
        return RatFunc(Poly(field, arity, {up: n}), Poly(field, arity, {down: d}))

    def ratio(self, n: int, d: int):
        """The coefficient n/d (d > 0 over Q, nonzero mod p) as the pair a
        canonical monomial stores: in lowest terms over Q, the residue over
        1 over GF(p)."""
        if d == 1:
            return n, 1
        p = self.field.p
        if p:
            return n * pow(d, -1, p) % p, 1
        g = gcd(n, d)
        return n // g, d // g

    def polynomial(self, terms, d) -> RatFunc:
        """The polynomial with int coefficients `terms` over the positive
        integer d, in canonical form."""
        if d != 1:
            g = gcd(d, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                d //= g
        return RatFunc(Poly(self.field, self.arity, terms),
                       Poly(self.field, self.arity, {self.zero_e: d}))

    def poly_items(self, t):
        """The (exponent, coefficient) pairs of a term that is a polynomial
        and their common denominator, or None for a term whose denominator
        is not a constant."""
        if type(t) is tuple:
            n, d, e = t
            if not n:
                return (), 1
            return (((tuple(e), n),), d) if min(e, default=0) >= 0 else None
        den = t.den.terms
        if len(den) == 1 and self.zero_e in den:
            return t.num.terms.items(), den[self.zero_e]
        return None

    def expr(self) -> RatFunc:
        """A sum, folded left to right as the RatFunc operators would.

        While the running sum is a polynomial its terms stay in one dict of
        int coefficients over one denominator, `acc`; otherwise it is the
        RatFunc `out` (see add_term).  A first term that is not a polynomial
        monomial is taken as it is, not added to an empty sum.
        """
        sign = "+"
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = "-"
        t = self.term()
        if type(t) is tuple and self.poly_items(t) is not None:
            acc, out = self.add_term(({}, 1), None, sign, t)
        else:
            if type(t) is tuple:
                t = self.monomial(*t)
            acc, out = None, (-t if sign == "-" else t)
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                return out if acc is None else self.polynomial(*acc)
            self.advance()
            acc, out = self.add_term(acc, out, value, self.term())

    def add_term(self, acc, out, sign: str, t):
        """The running sum (acc, out) plus or minus the term t.

        A polynomial term is added into `acc` = (terms, d) by
        Poly.__add__'s rules: add in place, delete a key that cancels,
        append a new key.  When the term's denominator does not divide d,
        every coefficient is first scaled up to their lcm.  Any other term
        meets the running sum through the operators, and the sum goes back
        to a dict as soon as it is a polynomial and a polynomial term
        follows.
        """
        items = self.poly_items(t)
        if items is not None and acc is None:
            running = self.poly_items(out)
            if running is not None:
                acc, out = (dict(running[0]), running[1]), None
        if items is None or acc is None:
            if acc is not None:
                acc, out = None, self.polynomial(*acc)
            if type(t) is tuple:
                t = self.monomial(*t)
            return None, (out + t if sign == "+" else out - t)
        (terms, d), (items, dt) = acc, items
        scale = 1
        if dt != d:
            m = lcm(d, dt)
            if m != d:
                up = m // d
                for key in terms:
                    terms[key] *= up
                d = m
            scale = d // dt
        field = self.field
        for key, c in items:
            if scale != 1:
                c *= scale
            if sign == "-":
                c = field.neg(c)
            if key in terms:
                v = field.add(terms[key], c)
                if v:
                    terms[key] = v
                else:
                    del terms[key]
            else:
                terms[key] = c
        return (terms, d), None

    def term(self):
        """A product: the monomial (n, d, e) when it is one run of atoms,
        else a RatFunc."""
        if self.peek()[0] in _ATOMS:
            n, d, e = self.atom_run()
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/":
                return n, d, e
            out = self.monomial(n, d, e)
        else:
            out = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                if value == "*":
                    out = out * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", pos)
                    out = out / rhs
            else:
                return out

    def atom_run(self):
        """The atoms that open a term, joined by * and /, as one monomial
        n/d*x^e: the coefficient as a pair from `ratio` and the list of
        exponents.

        This is the product the operators would give: the running value
        stays n/d*x^e, and a step overflows exactly when a polynomial
        product would.  The run ends before the first parenthesised factor;
        from there on every factor meets the running value through the
        operators.
        """
        field, tokens = self.field, self.tokens
        n, d, idx, k = self.atom()
        e = [0] * self.arity
        if idx is not None:
            e[idx] = k
        while True:
            kind, value, pos = tokens[self.i]
            if kind != "op" or value not in "*/" or tokens[self.i + 1][0] not in _ATOMS:
                return (*self.ratio(n, d), e)
            self.i += 1
            an, ad, idx, k = self.atom()
            if idx is None:
                if value == "/":
                    if not an:
                        raise ParseError("division by zero", pos)
                    an, ad = ad, an
                n = field.mul(n, an)
                d = field.mul(d, ad)
            elif n:  # a zero product stays 0, whatever exponents follow
                x = e[idx] + k if value == "*" else e[idx] - k
                if abs(x) >= EXP_LIMIT:
                    raise OverflowError("exponent overflow in polynomial product")
                e[idx] = x

    def atom(self):
        """A literal or a declared variable with an optional power, as
        (n, d, index, k): n/d*x_index^k with ints n and d > 0 (residues over
        GF(p)), and index None for a literal."""
        kind, value, pos = self.advance()
        if kind == "name":
            idx = self.index_of.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            k, pos = self.exponent()
            return 1, 1, idx, 1 if k is None else k
        p = self.field.p
        c = value % p if p else value
        k, pos = self.exponent()
        if k is None:
            return c, 1, None, 0
        self.check_power(k, pos, not c, ((c, 1),))
        if p:
            return pow(c, k, p), 1, None, 0
        return (c**k, 1, None, 0) if k >= 0 else (1, c**-k, None, 0)

    def exponent(self):
        """The optional "^ [-]integer" after a base, as (k, position) or (None, None)."""
        kind, value, pos = self.peek()
        if kind != "op" or value != "^":
            return None, None
        self.advance()
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
        kind, value, pos = self.peek()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        if value >= 2**62:
            raise ParseError("exponent overflow", pos)
        return sign * value, pos

    def check_power(self, k: int, pos: int, zero: bool, pairs):
        """Refuse a negative power of zero, and over Q a power past
        MAX_POWER_BITS; `pairs` are the base's coefficients in the monic
        form, as (n, d) pairs."""
        if k < 0 and zero:
            raise ParseError("negative power of zero", pos)
        if not self.field.p:
            bits = max((max(abs(n), d).bit_length() - 1 for n, d in pairs), default=0)
            if abs(k) * bits > MAX_POWER_BITS:
                raise ParseError(
                    f"power {k} makes coefficients of about {abs(k) * bits} bits, "
                    f"over MAX_POWER_BITS = {MAX_POWER_BITS}", pos
                )

    def factor(self) -> RatFunc:
        kind, value, pos = self.peek()
        if kind in _ATOMS:
            n, d, idx, k = self.atom()
            return self.monomial(n, d, [k if j == idx else 0 for j in range(self.arity)])
        self.advance()
        if kind != "op" or value != "(":
            raise ParseError("expected a number, variable or parenthesis", pos)
        if self.depth == self.MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {self.MAX_DEPTH}", pos)
        self.depth += 1
        out = self.expr()
        self.expect_op(")")
        self.depth -= 1
        k, pos = self.exponent()
        if k is None:
            return out
        _, lead = out.den.lex_leading()
        pairs = (monic(c, lead) for poly in (out.num, out.den) for c in poly.terms.values())
        self.check_power(k, pos, out.is_zero(), pairs)
        return out**k



def reference_parse(text, arity, field, names=None):
    names = default_names(arity) if names is None else names
    return ReferenceParser(reference_tokenize(text), field, arity, names).parse()


def outcome(parse, text, arity, field, names=None):
    try:
        f = parse(text, arity, field, names)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return f.num.terms, f.den.terms


def assert_same(text, arity, field, names=None):
    got = outcome(parse_expr, text, arity, field, names)
    assert got == outcome(reference_parse, text, arity, field, names), text
    return got


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["evaluate", "replace"])
def test_seeded_workload_elements(workload, seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    spec = getattr(workloads, f"{workload}_inputs")(pf, seed)
    if workload == "evaluate":
        cases = zip(spec["places"], spec["elems"])
    else:
        cases = ((op["place"], op.get("A", []) + op.get("B", []) + op.get("elems", []))
                 for op in spec["ops"])
    count = 0
    for obj, texts in cases:
        place = pf.place_from_json(obj)
        for text in texts:
            assert type(assert_same(text, place.arity, place.field)[0]) is dict
            count += 1
    assert count == {"evaluate": 840, "replace": 1039}[workload]


def job_elements():
    for path in JOBS:
        spec = json.loads(path.read_text())
        place = pf.place_from_json(spec["place"])
        for key in ("elems", "A", "B"):
            for text in spec.get(key, []):
                yield text, place.arity, place.field, spec.get("vars")


def test_job_elements():
    elements = list(job_elements())
    assert len(elements) == 28
    for element in elements:
        assert type(assert_same(*element)[0]) is dict


# Products by atoms after a parenthesised factor, at the exponent bound and
# past it, with zero factors and exponents that go down.
FOLDS = [
    f"(x1 + 1)*x1^{EXP_LIMIT - 2}*x1",
    f"(x1 + 1)*x1^{EXP_LIMIT - 3}*x2*x1",
    f"(x1 + 1)*x1^{EXP_LIMIT - 2}*x1^-1*x1",
    f"(x1 + 1)*x1^{EXP_LIMIT - 1}*x1^-1",
    f"(x1 + 1)/x1^-{EXP_LIMIT - 2}*x1",
    f"(x1 + 1)*0*x1^{EXP_LIMIT - 1}*x1^{EXP_LIMIT - 1}",
    f"(x1 + 1)*x1^{EXP_LIMIT - 1}*0*x1",
    f"(x1 - x1)*x1^{EXP_LIMIT - 1}*x1^{EXP_LIMIT - 1}",
    f"(x1^3 + x1^2)*x1^-2*x1^{EXP_LIMIT - 3}*x1",
    f"(x1^3 + x1^2)*x1^-3*x1^{EXP_LIMIT - 3}",
    "(x1^2 + x2)/x1*x2*3/5*x1^2/x2^-1",
    "(x1 + 2*x2)*2^-3*x2/4*x1/0",
    "(x1 + 2*x2)*5*x1/x2*(x1 - 1)*x2^2/((x2 + 1)*x1^2)",
    "(x1/x2 + 1)*x2*x1^2",
    "(1/3 + x1/2)*6*x1*x2^2 - (x1 + 1)*x1^-1*x2",
    "x1*(x2 + 1)*x1^3*y*x2",
    f"(x1 + 1)^3*x2^{MAX_POWER_BITS}*x1^2*3^-4097",
]


@pytest.mark.parametrize("field", [BaseField(0), BaseField(5)], ids=str)
@pytest.mark.parametrize("text", FOLDS)
def test_trailing_atoms(text, field):
    assert_same(text, 2, field)


# The grammar's alphabet, characters outside it (one of them a decimal digit
# that is not ASCII), an over-long literal and an exponent of 2**62.
PIECES = ["x1", "x2", "x3", "y", "0", "1", "2", "5", "+", "-", "*", "/", "^", "(", ")",
          " ", "\t", "$", "é", "٣", "7" * (MAX_LITERAL_DIGITS + 1), "x1^4611686018427387904"]
TEXTS = sorted({text for text, *_ in job_elements()} | set(FOLDS))
EXPONENT = re.compile(r"\^\s*-?\s*(\d+)")


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, len(text)))
        b = draw(st.integers(a, min(len(text), a + 4)))
        text = text[:a] + "".join(draw(st.lists(st.sampled_from(PIECES), max_size=3))) + text[b:]
    return text


@settings(max_examples=100, deadline=None)
@given(text=mutants(), arity=st.integers(1, 3),
       field=st.sampled_from([BaseField(0), BaseField(2), BaseField(5)]))
def test_mutations(text, arity, field):
    # a power between 20 and 2**62 of a parenthesised sum costs seconds on both sides
    assume(all(not 20 <= int(k) < 2**62 for k in EXPONENT.findall(text) if len(k) < 4000))
    assert_same(text, arity, field)
