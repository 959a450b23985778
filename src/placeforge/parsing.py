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
from functools import lru_cache
from math import gcd

from .ordgroup import MAX_LITERAL_DIGITS, check_type
from .ratfunc import EXP_LIMIT, MAX_TERM_PAIRS, BaseField, RatFunc, monic

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


# A name as the tokenizer reads it; every declared variable name must be one.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# One match per token: an integer, a name, an operator, or any other visible
# character (an error).  A text is parsed as the list of its token strings.
_TOKEN = re.compile(rf"\d+|{_NAME.pattern}|[-+*/^()]|\S")
# A character that begins none of the grammar's tokens.
_STRAY = re.compile(r"[^\s\dA-Za-z_()*/^+-]")
# The tokens that are not atoms (a literal or a name): the operators and "",
# which ends every token list.
_NOT_ATOM = frozenset(("+", "-", "*", "/", "^", "(", ")", ""))


def _span(text: str, i: int):
    """The (start, end) of token i of `text`, (len, len) past the last one."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == i:
            return m.span()
    return len(text), len(text)


@lru_cache(maxsize=64)
def default_names(arity: int, prefix: str = "x"):
    return tuple(f"{prefix}{i}" for i in range(1, arity + 1))


class _Parser:
    """Recursive descent over a token list that ends in "", read by index."""

    # Each parenthesis level costs three stack frames (expr, term, factor);
    # this keeps deep inputs well inside the interpreter's limit.
    MAX_DEPTH = 128

    def __init__(self, text: str, tokens, field: BaseField, arity: int, index_of):
        self.text = text
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.field = field
        self.arity = arity
        self.index_of = index_of  # shared between parses: read only

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, _span(self.text, i)[0])

    def parse(self) -> RatFunc:
        out = self.expr()
        t = self.tokens[self.i]
        if t:
            value = int(t) if t.isdecimal() else t
            raise self.error(f"trailing input {value!r}", self.i)
        return out

    def ratio(self, n: int, d: int):
        """The coefficient n/d (d > 0 over Q, nonzero mod p) as the pair
        `RatFunc.reduced_monomial` takes: in lowest terms over Q, the
        residue over 1 over GF(p)."""
        if d == 1:
            return n, 1
        p = self.field.p
        if p:
            return n * pow(d, -1, p) % p, 1
        g = gcd(n, d)
        return n // g, d // g

    def expr(self) -> RatFunc:
        """A sum, folded left to right by RatFunc.sum."""
        return RatFunc.sum(self.summands())

    def summands(self):
        """The terms of a sum, each with its sign applied, parsed one at a
        time as the fold asks for them."""
        tokens = self.tokens
        sign = tokens[self.i]
        self.i += sign == "-"
        while True:
            t = self.term()
            yield -t if sign == "-" else t
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                return
            self.i += 1

    def term(self) -> RatFunc:
        """A product, folded left to right; see atom_run for the runs of
        atoms that fold into one monomial."""
        tokens = self.tokens
        if tokens[self.i] in _NOT_ATOM:
            out = self.factor()
        else:
            out = RatFunc.reduced_monomial(self.field, self.arity, *self.atom_run())
        while True:
            i = self.i
            op = tokens[i]
            if op != "*" and op != "/":
                return out
            self.i = i + 1
            num = out.num.terms
            # Atoms after a polynomial fold into one product (see atom_run); a
            # parenthesised factor, or any factor after a numerator too large
            # for one product (MAX_TERM_PAIRS), meets it through the operators.
            if (tokens[i + 1] not in _NOT_ATOM and num and len(num) <= MAX_TERM_PAIRS
                    and out.den.constant()):
                run = self.atom_run(op, [max(c) for c in zip(*num)])
                out = out * RatFunc.reduced_monomial(self.field, self.arity, *run)
                continue
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                if rhs.is_zero():
                    raise self.error("division by zero", i)
                out = out / rhs

    def atom_run(self, op="*", top=None):
        """The atoms from here on joined by * and /, the first one taken with
        `op`, as one monomial n/d*x^e: the coefficient as a pair from `ratio`
        and the list of exponents.  The run ends before a parenthesised
        factor.

        This is the product the operators would give, one atom at a time.
        For the atoms that open a term (`top` None) the running value stays
        n/d*x^e, and a step overflows exactly when a polynomial product
        would.  Atoms that multiply a nonzero polynomial over a constant,
        whose numerator has the top exponents `top`, keep that numerator
        times n*x^e: a step overflows exactly when top plus e reaches
        EXP_LIMIT, and one that lowers an exponent, after which the
        denominator need not be a constant, ends the run.
        """
        p, tokens = self.field.p, self.tokens
        n, d, e = 1, 1, [0] * self.arity
        i = self.i - 1
        while True:
            an, ad, idx, k = self.atom()
            last = False
            if idx is None:
                if op == "/":
                    if not an:
                        raise self.error("division by zero", i)
                    an, ad = ad, an
                n, d = (n * an % p, d * ad % p) if p else (n * an, d * ad)
            elif n:  # a zero product stays 0, whatever exponents follow
                x = e[idx] + k if op == "*" else e[idx] - k
                if abs(x) >= EXP_LIMIT if top is None else top[idx] + x >= EXP_LIMIT:
                    raise OverflowError("exponent overflow in polynomial product")
                last = top is not None and x < e[idx]
                e[idx] = x
            i = self.i
            op = tokens[i]
            if last or (op != "*" and op != "/") or tokens[i + 1] in _NOT_ATOM:
                return (*self.ratio(n, d), e)
            self.i = i + 1

    def atom(self):
        """A literal or a declared variable with an optional power, as
        (n, d, index, k): n/d*x_index^k with ints n and d > 0 (residues over
        GF(p)), and index None for a literal."""
        tokens = self.tokens
        i = self.i
        t = tokens[i]
        self.i = i + 1
        idx = self.index_of.get(t)
        if idx is not None:
            return 1, 1, idx, (self.exponent() if tokens[i + 1] == "^" else 1)
        if not t.isdecimal():
            raise self.error(f"unknown variable {t!r}", i)
        p = self.field.p
        c = int(t) % p if p else int(t)
        if tokens[i + 1] != "^":
            return c, 1, None, 0
        k = self.exponent()
        self.check_power(k, self.i - 1, not c, ((c, 1),))
        if p:
            return pow(c, k, p), 1, None, 0
        return (c**k, 1, None, 0) if k >= 0 else (1, c**-k, None, 0)

    def exponent(self) -> int:
        """The "[-]integer" after the "^" that is the next token; the
        integer is the last token read."""
        tokens = self.tokens
        negative = tokens[self.i + 1] == "-"
        i = self.i + 1 + negative
        t = tokens[i]
        if not t.isdecimal():
            raise self.error("expected an integer exponent", i)
        self.i = i + 1
        k = int(t)
        if k >= 2**62:
            raise self.error("exponent overflow", i)
        return -k if negative else k

    def check_power(self, k: int, i: int, zero: bool, pairs):
        """Refuse a negative power of zero, and over Q a power past
        MAX_POWER_BITS, at token i; `pairs` are the base's coefficients in
        the monic form, as (n, d) pairs."""
        if k < 0 and zero:
            raise self.error("negative power of zero", i)
        if not self.field.p:
            bits = max((max(abs(n), d).bit_length() - 1 for n, d in pairs), default=0)
            if abs(k) * bits > MAX_POWER_BITS:
                raise self.error(f"power {k} makes coefficients of about {abs(k) * bits} bits, "
                                 f"over MAX_POWER_BITS = {MAX_POWER_BITS}", i)

    def factor(self) -> RatFunc:
        tokens = self.tokens
        i = self.i
        t = tokens[i]
        if t not in _NOT_ATOM:
            n, d, idx, k = self.atom()
            return RatFunc.reduced_monomial(self.field, self.arity, n, d,
                                            [k if j == idx else 0 for j in range(self.arity)])
        if t != "(":
            raise self.error("expected a number, variable or parenthesis", i)
        if self.depth == self.MAX_DEPTH:
            raise self.error(f"parentheses nested deeper than {self.MAX_DEPTH}", i)
        self.i = i + 1
        self.depth += 1
        out = self.expr()
        if tokens[self.i] != ")":
            raise self.error("expected ')'", self.i)
        self.i += 1
        self.depth -= 1
        if tokens[self.i] != "^":
            return out
        k = self.exponent()
        _, lead = out.den.lex_leading()
        pairs = (monic(c, lead) for poly in (out.num, out.den) for c in poly.terms.values())
        self.check_power(k, self.i - 1, out.is_zero(), pairs)
        return out**k


def check_names(names, arity: int):
    """`names`, or x1..xn when it is None: a list or tuple of `arity`
    distinct identifiers [A-Za-z_][A-Za-z0-9_]*, else a TypeError (not a
    list or tuple) or a ValueError."""
    if names is None:
        return default_names(arity)
    if type(names) not in (list, tuple):
        raise TypeError(f"names must be a list or tuple, got {type(names).__name__}")
    if len(names) != arity:
        raise ValueError("need one name per variable")
    for name in names:
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise ValueError(f"variable name {name!r} is not an identifier")
    if len(set(names)) != arity:
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"variable names must be distinct; {repeated!r} repeats")
    return names


@lru_cache(maxsize=64)
def _cached_index(names, arity: int):
    return {name: k for k, name in enumerate(check_names(names, arity))}


def _name_index(names, arity: int):
    """{name: position} of the names `check_names` accepts, built once per
    distinct (names, arity); a list of names is looked up as a tuple.  Names
    that cannot be a cache key are checked on every call, so every bad input
    meets check_names' own error."""
    try:
        return _cached_index(tuple(names) if type(names) is list else names, arity)
    except TypeError:
        return _cached_index.__wrapped__(names, arity)


def parse_expr(text: str, arity: int, field: BaseField, names=None) -> RatFunc:
    """Parse an expression into a canonical rational function in the
    variables `names`, checked by `check_names`."""
    check_type(field, BaseField)
    if type(arity) is not int:  # a bool is not one
        raise TypeError(f"arity must be an int, got {type(arity).__name__}")
    if arity < 0:
        raise ValueError(f"arity must be >= 0, got {arity}")
    index_of = _name_index(names, arity)
    tokens = _TOKEN.findall(text)
    if _STRAY.search(text) or max(map(len, tokens), default=0) > MAX_LITERAL_DIGITS:
        # a token's own refusal comes before any other, left to right
        for i, t in enumerate(tokens):
            if _STRAY.match(t):  # placed at the end of the previous token
                raise ParseError(f"unexpected character {t!r}", _span(text, i - 1)[1] if i else 0)
            if len(t) > MAX_LITERAL_DIGITS and t.isdecimal():
                raise ParseError(f"integer literal of {len(t)} digits exceeds MAX_LITERAL_DIGITS"
                                 f" = {MAX_LITERAL_DIGITS}", _span(text, i)[0])
    tokens.append("")
    return _Parser(text, tokens, field, arity, index_of).parse()


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


def format_ratfunc(f: RatFunc, names=None) -> str:
    """f in the monic form, printed straight from its int coefficients, in
    the variables `names`, checked by `check_names`."""
    den = sorted(check_type(f, RatFunc).den.terms.items(), reverse=True)
    names = check_names(names, f.arity)
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
