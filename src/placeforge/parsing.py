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

from .ordgroup import MAX_LITERAL_DIGITS
from .ratfunc import EXP_LIMIT, BaseField, Poly, RatFunc

# Over Q, c^k has about |k| * log2|c| bits.  A "^" is refused when |k| times
# the largest floor(log2) of a coefficient numerator or denominator of its
# base exceeds this, so one power stays under 2 * 4096 bits, printable in
# full.  Coefficients +-1 cost nothing: x1^k is cheap.
MAX_POWER_BITS = 4096


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


_ATOMS = ("num", "name")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        number, name, op = m.groups()
        if number is not None:
            if len(number) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(number)} digits exceeds "
                    f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}", m.start(1)
                )
            tokens.append(("num", int(number), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
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

    def expr(self) -> RatFunc:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def term(self) -> RatFunc:
        out = self.atom_run() if self.peek()[0] in _ATOMS else self.factor()
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

    def atom_run(self) -> RatFunc:
        """The atoms that open a term, joined by * and /, as one monomial.

        This is the product the operators would give: the running value
        stays c*x^e, and a step overflows exactly when a polynomial product
        would.  The run ends before the first parenthesised factor; from
        there on every factor meets the running value through the operators.
        """
        field = self.field
        c, e = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/" or self.tokens[self.i + 1][0] not in _ATOMS:
                return RatFunc.monomial(field, self.arity, e, c)
            self.advance()
            ca, a = self.atom()
            if value == "/":
                if not ca:
                    raise ParseError("division by zero", pos)
                ca = field.inv(ca)
                a = tuple(-x for x in a)
            if c and ca:  # a zero product stays 0, whatever exponents follow
                e = tuple(x + y for x, y in zip(e, a))
                if any(abs(x) >= EXP_LIMIT for x in e):
                    raise OverflowError("exponent overflow in polynomial product")
            c = field.mul(c, ca)

    def atom(self):
        """A literal or a declared variable with an optional power, as (c, e)."""
        kind, value, pos = self.advance()
        if kind == "name":
            idx = self.index_of.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
        k, pos = self.exponent()
        if kind == "name":
            k = 1 if k is None else k
            return self.field.coerce(1), tuple(k if j == idx else 0 for j in range(self.arity))
        c = self.field.coerce(value)
        if k is not None:
            self.check_power(k, pos, not c, (c,))
            c = pow(c, k, self.field.p) if self.field.p else c**k
        return c, (0,) * self.arity

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

    def check_power(self, k: int, pos: int, zero: bool, coeffs):
        if k < 0 and zero:
            raise ParseError("negative power of zero", pos)
        if not self.field.p:
            bits = max((max(abs(c.numerator), c.denominator).bit_length() - 1 for c in coeffs),
                       default=0)
            if abs(k) * bits > MAX_POWER_BITS:
                raise ParseError(
                    f"power {k} makes coefficients of about {abs(k) * bits} bits, "
                    f"over MAX_POWER_BITS = {MAX_POWER_BITS}", pos
                )

    def factor(self) -> RatFunc:
        kind, value, pos = self.peek()
        if kind in _ATOMS:
            c, e = self.atom()
            return RatFunc.monomial(self.field, self.arity, e, c)
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
        self.check_power(k, pos, out.is_zero(), [*out.num.terms.values(), *out.den.terms.values()])
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


def _format_coeff(field: BaseField, c) -> str:
    if field.p:
        return str(int(c))
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_monomial(e, names):
    parts = []
    for k, x in enumerate(e):
        if x == 1:
            parts.append(names[k])
        elif x:
            parts.append(f"{names[k]}^{x}")
    return "*".join(parts)


def format_poly(p: Poly, names=None) -> str:
    if names is None:
        names = default_names(p.arity)
    if not p.terms:
        return "0"
    field = p.field
    chunks = []
    for e, c in sorted(p.terms.items(), reverse=True):
        mono = _format_monomial(e, names)
        cs = _format_coeff(field, c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def _is_plain_monomial(p: Poly) -> bool:
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c == p.field.coerce(1) and sum(1 for x in e if x) <= 1


def format_ratfunc(f: RatFunc, names=None) -> str:
    if names is None:
        names = default_names(f.arity)
    num = format_poly(f.num, names)
    if f.den.is_one():
        return num
    den = format_poly(f.den, names)
    if len(f.num.terms) > 1:
        num = f"({num})"
    if not _is_plain_monomial(f.den):
        den = f"({den})"
    return f"{num}/{den}"
