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
        self.one = field.coerce(1)
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

    def monomial(self, c, e) -> RatFunc:
        return RatFunc.monomial(self.field, self.arity, tuple(e), c)

    def polynomial(self, terms) -> RatFunc:
        return RatFunc(Poly(self.field, self.arity, terms),
                       Poly(self.field, self.arity, {self.zero_e: self.one}))

    @staticmethod
    def poly_items(t):
        """The (exponent, coefficient) pairs of a term that is a polynomial,
        or None for a term with a denominator."""
        if type(t) is tuple:
            c, e = t
            if not c:
                return ()
            return ((tuple(e), c),) if min(e, default=0) >= 0 else None
        return t.num.terms.items() if t.den.is_one() else None

    def expr(self) -> RatFunc:
        """A sum, folded left to right as the RatFunc operators would.

        While the running sum is a polynomial its terms stay in one dict,
        `acc`; otherwise it is the RatFunc `out` (see add_term).  A first
        term that is not a polynomial monomial is taken as it is, not added
        to an empty sum.
        """
        sign = "+"
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = "-"
        t = self.term()
        if type(t) is tuple and self.poly_items(t) is not None:
            acc, out = self.add_term({}, None, sign, t)
        else:
            if type(t) is tuple:
                t = self.monomial(*t)
            acc, out = None, (-t if sign == "-" else t)
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                return out if acc is None else self.polynomial(acc)
            self.advance()
            acc, out = self.add_term(acc, out, value, self.term())

    def add_term(self, acc, out, sign: str, t):
        """The running sum (acc, out) plus or minus the term t.

        A polynomial term is added into `acc` by Poly.__add__'s rules: add
        in place, delete a key that cancels, append a new key.  Any other
        term meets the running sum through the operators, and the sum goes
        back to a dict as soon as it is a polynomial and a polynomial term
        follows.
        """
        items = self.poly_items(t)
        if items is not None and acc is None and out.den.is_one():
            acc, out = dict(out.num.terms), None
        if items is None or acc is None:
            if acc is not None:
                acc, out = None, self.polynomial(acc)
            if type(t) is tuple:
                t = self.monomial(*t)
            return None, (out + t if sign == "+" else out - t)
        field = self.field
        for key, c in items:
            if sign == "-":
                c = field.neg(c)
            if key in acc:
                v = field.add(acc[key], c)
                if v:
                    acc[key] = v
                else:
                    del acc[key]
            else:
                acc[key] = c
        return acc, None

    def term(self):
        """A product: the monomial (c, e) when it is one run of atoms, else
        a RatFunc."""
        if self.peek()[0] in _ATOMS:
            c, e = self.atom_run()
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/":
                return c, e
            out = self.monomial(c, e)
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
        c*x^e: the coefficient and the list of exponents.

        This is the product the operators would give: the running value
        stays c*x^e, and a step overflows exactly when a polynomial product
        would.  The run ends before the first parenthesised factor; from
        there on every factor meets the running value through the operators.
        """
        field, tokens = self.field, self.tokens
        c, idx, k = self.atom()
        e = [0] * self.arity
        if idx is not None:
            e[idx] = k
        while True:
            kind, value, pos = tokens[self.i]
            if kind != "op" or value not in "*/" or tokens[self.i + 1][0] not in _ATOMS:
                return c, e
            self.i += 1
            ca, idx, k = self.atom()
            if idx is None:
                if value == "/":
                    if not ca:
                        raise ParseError("division by zero", pos)
                    ca = field.inv(ca)
                c = field.mul(c, ca)
            elif c:  # a zero product stays 0, whatever exponents follow
                x = e[idx] + k if value == "*" else e[idx] - k
                if abs(x) >= EXP_LIMIT:
                    raise OverflowError("exponent overflow in polynomial product")
                e[idx] = x

    def atom(self):
        """A literal or a declared variable with an optional power, as
        (c, index, k): c*x_index^k, with index None for a literal."""
        kind, value, pos = self.advance()
        if kind == "name":
            idx = self.index_of.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            k, pos = self.exponent()
            return self.one, idx, 1 if k is None else k
        c = self.field.coerce(value)
        k, pos = self.exponent()
        if k is not None:
            self.check_power(k, pos, not c, (c,))
            c = pow(c, k, self.field.p) if self.field.p else c**k
        return c, None, 0

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
            c, idx, k = self.atom()
            return self.monomial(c, [k if j == idx else 0 for j in range(self.arity)])
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
    return c == 1 and sum(1 for x in e if x) <= 1


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
