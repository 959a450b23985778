"""Expression parsing and printing for rational functions.

Grammar (whitespace insignificant):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := base ("^" ["-"] integer)?
    base     := integer | variable | "(" expr ")"
    variable := "x" positive-integer, or an identifier declared in context

Rational literals like 3/2 need no special casing: "/" is ordinary
division.  The printer emits this grammar, so print-parse round trips are
exact.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .ordgroup import MAX_LITERAL_DIGITS
from .ratfunc import EXP_LIMIT, BaseField, Poly, RatFunc, monic

# Over Q, c^k has about |k| * log2|c| bits.  A "^" is refused when |k| times
# the largest floor(log2) of a coefficient numerator or denominator of its
# base, in the monic form that reports print, exceeds this, so one power
# stays under 2 * 4096 bits, printable in full.  Coefficients +-1 cost
# nothing: x1^k is cheap.
MAX_POWER_BITS = 4096


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# One match per token: an integer, a name, an operator, any other visible
# character (an error), or the end of the text with its trailing whitespace.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()])|(\S)|\Z)")


_ATOMS = ("num", "name")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
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


def default_names(arity: int, prefix: str = "x"):
    return tuple(f"{prefix}{i}" for i in range(1, arity + 1))


class _Parser:
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


def parse_expr(text: str, arity: int, field: BaseField, names=None) -> RatFunc:
    """Parse an expression into a canonical rational function."""
    if names is None:
        names = default_names(arity)
    if len(names) != arity:
        raise ValueError("need one name per variable")
    if len(set(names)) != arity:
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"variable names must be distinct; {repeated!r} repeats")
    return _Parser(_tokenize(text), field, arity, names).parse()


def _format_monomial(e, names):
    parts = []
    for k, x in enumerate(e):
        if x == 1:
            parts.append(names[k])
        elif x:
            parts.append(f"{names[k]}^{x}")
    return "*".join(parts)


def _format_terms(items, lead, names) -> str:
    """Terms (exponent, coefficient), highest first, each coefficient
    divided by `lead` as `monic` does."""
    chunks = []
    for e, c in items:
        n, d = monic(c, lead)
        negative = n < 0
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        mono = _format_monomial(e, names)
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def format_poly(p: Poly, names=None) -> str:
    if names is None:
        names = default_names(p.arity)
    if not p.terms:
        return "0"
    return _format_terms(sorted(p.terms.items(), reverse=True), 1, names)


def format_ratfunc(f: RatFunc, names=None) -> str:
    """f in the monic form, printed straight from its int coefficients."""
    if names is None:
        names = default_names(f.arity)
    den = sorted(f.den.terms.items(), reverse=True)
    top, lead = den[0]
    num = _format_terms(sorted(f.num.terms.items(), reverse=True), lead, names) or "0"
    if len(den) == 1 and not any(top):
        return num
    if len(f.num.terms) > 1:
        num = f"({num})"
    text = _format_terms(den, lead, names)
    # a one-term denominator prints as a monic monomial
    if len(den) > 1 or sum(1 for x in top if x) > 1:
        text = f"({text})"
    return f"{num}/{text}"
