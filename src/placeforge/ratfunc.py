"""Sparse multivariate polynomials and rational functions over Q and GF(p).

Coefficients are exact integers on both fields: a rational function over
the rationals keeps numerator and denominator as integer polynomials, one
over a prime field (p < 2**61) as polynomials of residues mod p.  Fractions
of polynomials are reduced only by monomial content and a scalar
normalization; equality is decided by cross multiplication, so no
multivariate gcd is ever needed.  The monic form that reports print, with
the denominator's lexicographically largest coefficient 1, is read off the
integers only when printing (see `monic`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, index, sub

from ._kernels import EXP_LIMIT, mul_terms
from .ordgroup import Record

# Largest number of term pairs one polynomial product may multiply out.
MAX_TERM_PAIRS = 10**6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class BaseField(Record):
    """The rationals (p == 0) or a prime field GF(p) with p < 2**61."""

    _fields = ("p",)

    def __init__(self, p: int = 0):
        if type(p) is not int:  # a bool or a float is not one here
            raise ValueError(f"field characteristic must be an int, got {p!r:.40}")
        if p:
            if p >= 2**61:
                raise ValueError("prime field characteristic must be < 2**61")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.__dict__["p"] = p

    def coerce(self, value):
        """The int or Fraction `value` as a field element: a residue mod p,
        or over Q an int when the value is integral and a Fraction
        otherwise."""
        if isinstance(value, int):
            return value % self.p if self.p else int(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"coefficient {value!r} is not an int or a Fraction")
        if self.p:
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by the characteristic")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return value.numerator if value.denominator == 1 else value

    def add(self, x, y):
        return (x + y) % self.p if self.p else x + y

    def mul(self, x, y):
        return (x * y) % self.p if self.p else x * y

    def neg(self, x):
        return (-x) % self.p if self.p else -x

    def inv(self, x):
        """The inverse of a residue mod p, over GF(p) only: RatFunc.make
        divides a Q function by the integer content instead."""
        if x % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return pow(x, -1, self.p)

    def to_json(self):
        return {"p": self.p} if self.p else "Q"

    @staticmethod
    def from_json(obj) -> "BaseField":
        """The field the schemas spell "Q", p or {"p": p}, for an int p >= 2
        (a bool or a float is not one here)."""
        if obj == "Q":
            return BaseField(0)
        p = obj.get("p") if isinstance(obj, dict) and obj.keys() == {"p"} else obj
        if type(p) is not int or p < 2:
            raise ValueError(f'base field must be "Q", a prime p or {{"p": p}}, got {obj!r:.40}')
        return BaseField(p)

    def __str__(self):
        return f"GF({self.p})" if self.p else "Q"


QQ = BaseField(0)


def monic(c, lead):
    """A coefficient c of a canonical RatFunc divided by the denominator's
    lexicographically largest coefficient `lead`, as the reduced pair
    (n, d), d > 0, that reports print.  Over GF(p) `lead` is 1."""
    if lead == 1:
        return c, 1
    g = gcd(c, lead)
    return c // g, lead // g


def _add_into(terms: dict, other: dict, k: int, field: BaseField) -> dict:
    """`terms` plus k times the terms `other`, in place: a key whose
    coefficient cancels is deleted, a new key goes last."""
    for e, v in other.items():
        v = field.add(terms[e], v * k) if e in terms else v * k
        if v:
            terms[e] = v
        else:
            del terms[e]
    return terms


class Poly:
    """Sparse polynomial: a map from exponent vectors to nonzero coefficients.

    Immutable by convention; all operations return new instances.  The
    polynomials of a RatFunc over Q have int coefficients; one built by hand
    may also hold Fractions (see BaseField.coerce).
    """

    __slots__ = ("field", "arity", "terms")

    def __init__(self, field: BaseField, arity: int, terms: dict):
        self.field = field
        self.arity = arity
        self.terms = terms

    @staticmethod
    def make(field: BaseField, arity: int, items) -> "Poly":
        terms = {}
        for e, c in dict(items).items():
            e = tuple(map(index, e))
            if len(e) != arity:
                raise ValueError("exponent vector length must equal the arity")
            if any(x < 0 for x in e):
                raise ValueError("polynomial exponents must be nonnegative")
            if any(x >= EXP_LIMIT for x in e):
                raise OverflowError("exponent overflow")
            c = field.coerce(c)
            if c:
                terms[e] = field.add(terms[e], c) if e in terms else c
                if not terms[e]:
                    del terms[e]
        return Poly(field, arity, terms)

    @staticmethod
    def zero(field: BaseField, arity: int) -> "Poly":
        return Poly(field, arity, {})

    @staticmethod
    def const(field: BaseField, arity: int, value) -> "Poly":
        c = field.coerce(value)
        return Poly(field, arity, {(0,) * arity: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def constant(self):
        """The coefficient when this is a nonzero constant, else None."""
        terms = self.terms
        return terms.get((0,) * self.arity) if len(terms) == 1 else None

    def _check(self, other: "Poly"):
        if (self.field is not other.field and self.field != other.field) or self.arity != other.arity:
            raise ValueError("polynomials over different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.field, self.arity, _add_into(dict(self.terms), other.terms, 1, self.field))

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, self.arity, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.field, self.arity)
        ea, eb = list(self.terms), list(other.terms)
        if len(ea) * len(eb) > MAX_TERM_PAIRS:
            raise ValueError(
                f"product of {len(ea)} by {len(eb)} terms exceeds "
                f"MAX_TERM_PAIRS = {MAX_TERM_PAIRS}"
            )
        ca, cb = list(self.terms.values()), list(other.terms.values())
        return Poly(self.field, self.arity, mul_terms(ea, ca, eb, cb, self.field.p))

    def scaled(self, c) -> "Poly":
        f = self.field
        c = f.coerce(c)
        if not c:
            return Poly.zero(f, self.arity)
        return Poly(f, self.arity, {e: f.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.field, self.arity, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    def content_exponent(self):
        """Componentwise minimum exponent over the terms (the monomial content)."""
        if not self.terms:
            return (0,) * self.arity
        its = iter(self.terms)
        acc = list(next(its))
        for e in its:
            for k in range(self.arity):
                if e[k] < acc[k]:
                    acc[k] = e[k]
        return tuple(acc)

    def lex_leading(self):
        """(exponent, coefficient) of the lexicographically largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.arity, frozenset(self.terms.items())))


def _integral(num: Poly, den: Poly):
    """num and den over Q times the lcm of their coefficient denominators,
    so that both have int coefficients."""
    polys = (num, den)
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return tuple(
        Poly(p.field, p.arity, {e: c.numerator * (scale // c.denominator) for e, c in p.terms.items()})
        for p in polys
    )


def _content_free(num: Poly, den: Poly, lead) -> "RatFunc":
    """num/den over Q, int coefficients, divided by the gcd of all their
    coefficients taken with the sign of `lead`: the last step of the
    canonical form."""
    g = gcd(*den.terms.values(), *num.terms.values())
    if lead < 0:
        g = -g
    if g != 1:
        field, arity = num.field, num.arity
        num = Poly(field, arity, {e: c // g for e, c in num.terms.items()})
        den = Poly(field, arity, {e: c // g for e, c in den.terms.items()})
    return RatFunc(num, den)


# In a run of RatFunc.sum that has met a monomial denominator, every
# exponent of the running sum and of each summand, as a Laurent monomial,
# stays below this in absolute value.  Then no partial sum, and no product
# that the fold through make() forms, reaches EXP_LIMIT, so the run raises
# nowhere and the fold would not either; a summand past it meets the
# running sum through make(), as in the fold.
_LAURENT_BOUND = EXP_LIMIT >> 2


def _laurent_terms(terms: dict, a):
    """The terms of a polynomial over x^a as Laurent terms c*x^(e - a), or
    None when an exponent reaches _LAURENT_BOUND in absolute value."""
    out = {}
    for e, c in terms.items():
        e = tuple(map(sub, e, a))
        if max(e) >= _LAURENT_BOUND or min(e) <= -_LAURENT_BOUND:
            return None
        out[e] = c
    return out


def _polynomial(ring: Poly, terms: dict, d: int, laurent: bool = False) -> "RatFunc":
    """The Laurent polynomial with int coefficients `terms` over the
    positive int d, in the ring of `ring`, in canonical form; over GF(p) d
    is 1 and so is the content.  Exponents may be negative only when
    `laurent`: the denominator is then d*x^D, for D the least exponent that
    clears every negative one, and no monomial content is left to remove."""
    field, arity = ring.field, ring.arity
    low = (0,) * arity
    if laurent and terms:
        low = tuple(-x if x < 0 else 0 for x in map(min, zip(*terms)))
        if any(low):
            terms = {tuple(map(add, e, low)): c for e, c in terms.items()}
    return _content_free(Poly(field, arity, terms), Poly(field, arity, {low: d}), d)


class RatFunc:
    """Quotient of two polynomials in canonical form.

    Canonical means: nonzero denominator, zero is 0/1, and the common
    monomial content of numerator and denominator is removed.  Over Q both
    have int coefficients whose joint gcd is 1, and the denominator's
    lexicographically largest coefficient is positive; over GF(p) that
    coefficient is 1.  `to_json` gives the form with it 1 over Q too.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        # Internal: inputs must already be canonical.  Use make().
        self.num = num
        self.den = den

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        field, arity = num.field, num.arity
        if num.is_zero():
            return RatFunc(num, Poly.const(field, arity, 1))
        cd = den.content_exponent()
        if any(cd):
            common = tuple(map(min, num.content_exponent(), cd))
            if any(common):
                # x^common divides every term, so no exponent leaves the range
                num, den = (Poly(field, arity, {tuple(map(sub, e, common)): c for e, c in p.terms.items()})
                            for p in (num, den))
        _, lead = den.lex_leading()
        if field.p:
            if lead != 1:
                inv = field.inv(lead)
                num = num.scaled(inv)
                den = den.scaled(inv)
            return RatFunc(num, den)
        try:
            return _content_free(num, den, lead)
        except TypeError:  # a Fraction coefficient, from a polynomial built by hand
            return _content_free(*_integral(num, den), lead)

    @staticmethod
    def zero(field: BaseField, arity: int) -> "RatFunc":
        return RatFunc(Poly(field, arity, {}), Poly(field, arity, {(0,) * arity: 1}))

    @staticmethod
    def const(field: BaseField, arity: int, value) -> "RatFunc":
        return RatFunc.monomial(field, arity, (0,) * arity, value)

    @staticmethod
    def variable(field: BaseField, arity: int, index: int) -> "RatFunc":
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        return RatFunc.monomial(field, arity, tuple(int(k == index) for k in range(arity)))

    @staticmethod
    def monomial(field: BaseField, arity: int, evec, coeff=1) -> "RatFunc":
        """c * x^evec as a rational function; evec is a tuple of integers,
        negative entries included.  Built in canonical form directly."""
        evec = tuple(map(index, evec))
        if len(evec) != arity:
            raise ValueError("exponent vector length must equal the arity")
        if any(abs(x) >= EXP_LIMIT for x in evec):
            raise OverflowError("exponent overflow")
        c = field.coerce(coeff)
        # a residue mod p is an int, whose denominator is 1
        return RatFunc.reduced_monomial(field, arity, c.numerator, c.denominator, evec)

    @staticmethod
    def reduced_monomial(field: BaseField, arity: int, n: int, d: int, evec) -> "RatFunc":
        """n/d * x^evec in canonical form, for ints n and d > 0 in lowest
        terms (over GF(p), n a residue and d = 1) and integer exponents,
        negative entries included.  Nothing is checked or coerced: the
        caller has done that (`monomial`, the parser)."""
        if not n:
            return RatFunc.zero(field, arity)
        up = tuple(x if x > 0 else 0 for x in evec)
        down = tuple(-x if x < 0 else 0 for x in evec)
        return RatFunc(Poly(field, arity, {up: n}), Poly(field, arity, {down: d}))

    @property
    def field(self) -> BaseField:
        return self.num.field

    @property
    def arity(self) -> int:
        return self.num.arity

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @staticmethod
    def sum(summands) -> "RatFunc":
        """The sum of one or more RatFuncs, folded left to right.  A run of
        summands whose denominators have one term c*x^a, c a positive
        integer (1 over GF(p)), adds in place into one dict over the lcm of
        their constants, in time linear in its terms, and is put in
        canonical form once.  While every a is 0 the dict holds the
        polynomial itself; once one is not, it holds Laurent exponents e - a
        (see _LAURENT_BOUND).  Canonical form over a monomial is unique, so
        this is what make() would give.  Any other summand meets the
        running sum through make()."""
        summands = iter(summands)
        out = next(summands)
        terms = None  # while a run lasts, the running sum is terms over d
        for t in summands:
            den = t.den.terms
            items = None
            if len(den) == 1:
                ((a, c),) = den.items()
                if terms is None and len(out.den.terms) == 1:
                    ((shift, d),) = out.den.terms.items()
                    laurent = any(shift)
                    terms = _laurent_terms(out.num.terms, shift) if laurent else dict(out.num.terms)
                if terms is not None and not (laurent or any(a)):
                    items = t.num.terms  # a polynomial into a polynomial run
                elif terms is not None and (laurent or all(max(e) < _LAURENT_BOUND for e in terms)):
                    # a run turns Laurent only while every exponent is in bounds
                    items = _laurent_terms(t.num.terms, a)
                    laurent = laurent or items is not None
            if items is None:
                if terms is not None:
                    out, terms = _polynomial(out.num, terms, d, laurent), None
                out = RatFunc.make(out.num * t.den + t.num * out.den, out.den * t.den)
                continue
            out.num._check(t.num)
            m = lcm(d, c)
            if m != d:
                up, d = m // d, m
                for e in terms:
                    terms[e] *= up
            _add_into(terms, items, d // c, out.field)
        return out if terms is None else _polynomial(out.num, terms, d, laurent)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.sum((self, other))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + -other

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        # a non-canonical reciprocal is fine: the product goes through make()
        return self * RatFunc(other.den, other.num)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RatFunc.make(self.den, self.num)

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return self.inverse() ** (-k)
        return RatFunc.make(self.num**k, self.den**k)

    def __eq__(self, other) -> bool:
        """Equality as functions.  Functions over different fields or
        arities are unequal, as polynomials are; + and - refuse the pair."""
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.field != other.field or self.arity != other.arity:
            return False
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    def to_json(self):
        """The monic form that reports print, with the denominator's
        lexicographically largest coefficient 1, as lists of {"e":
        exponents, "c": coefficient} terms, lexicographically largest first:
        each coefficient an int over GF(p), an "n" or "n/d" string over Q."""
        _, lead = self.den.lex_leading()
        p = self.field.p

        def terms(poly):
            out = []
            for e, c in sorted(poly.terms.items(), reverse=True):
                n, d = monic(c, lead)
                out.append({"e": list(e), "c": n if p else (str(n) if d == 1 else f"{n}/{d}")})
            return out

        return {"num": terms(self.num), "den": terms(self.den)}

    def __str__(self):
        from .parsing import format_ratfunc

        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({self})"
