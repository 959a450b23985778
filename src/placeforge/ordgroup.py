"""Exact scalars and finitely generated ordered abelian groups.

Scalars are real quadratic irrationals a + b*sqrt(d) with rational a, b and a
fixed squarefree radicand d per level.  Group elements live in lexicographic
products of such levels, level 1 dominant, stored as integer rows over one
denominator.  All comparisons are decided exactly by integer case analysis;
no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm

from . import lattice

# Largest radicand accepted: squarefreeness is decided by trial division up
# to sqrt(d), about half a million steps at this bound.
MAX_RADICAND = 10**12

# Most digits a number literal may carry; checked before any conversion, so
# a huge literal is refused instead of built.  Below CPython's own
# int-string limit of 4300 digits.
MAX_LITERAL_DIGITS = 1000


def ratio_str(num: int, den: int) -> str:
    """The literal of num / den (den > 0) in lowest terms: "n" or "n/d"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# The place schema's literal form: an integer, or a fraction whose
# denominator is not zero; [0-9] keeps it ASCII.
_LITERAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def rat_from_str(s: str) -> Fraction:
    """The rational a literal of the place schema's form "n" or "n/d" spells."""
    m = _LITERAL.fullmatch(s)
    shown = s if len(s) <= 24 else s[:20] + "..."
    if m is None:
        raise ValueError(f"literal {shown!r} is not of the form n or n/d with d > 0")
    num, den = m.groups()
    # every character but a sign and a slash is a digit
    if len(s) - s.startswith("-") - (den is not None) > MAX_LITERAL_DIGITS:
        raise ValueError(
            f"literal {shown!r} has more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits"
        )
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


@lru_cache(maxsize=256)
def is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


def check_radicand(d: int):
    """Refuse a radicand above MAX_RADICAND or one that is not squarefree."""
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} exceeds MAX_RADICAND = {MAX_RADICAND}")
    if not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and >= 2, got {d}")


def quad_sign_int(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and nonsquare d >= 2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    return sa if a * a > b * b * d else sb


@dataclass(frozen=True)
class QuadScalar:
    """a + b*sqrt(d), exact: one level of a group element, for input and printing."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def rational(a, d: int = 2) -> "QuadScalar":
        return QuadScalar(Fraction(a), Fraction(0), d)

    @staticmethod
    def sqrt(d: int, scale=1) -> "QuadScalar":
        return QuadScalar(Fraction(0), Fraction(scale), d)

    def __post_init__(self):
        check_radicand(self.d)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        tail = f"{self.b}*sqrt({self.d})"
        if self.a == 0:
            return tail
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


@dataclass(frozen=True)
class AmbientGroup:
    """Lexicographic product of archimedean levels, each with its radicand."""

    ds: tuple

    def __post_init__(self):
        if not self.ds:
            raise ValueError("ambient group needs at least one level")
        for d in self.ds:
            check_radicand(d)

    @property
    def num_levels(self) -> int:
        return len(self.ds)

    def zero(self) -> "GroupElem":
        return GroupElem.from_row(self, (0,) * (2 * len(self.ds)))

    def elem(self, *coords) -> "GroupElem":
        """Build an element from per-level scalars; bare numbers become rationals."""
        if len(coords) != self.num_levels:
            raise ValueError("coordinate count must match level count")
        return GroupElem(self, tuple(
            c if isinstance(c, QuadScalar) else QuadScalar.rational(c, d)
            for c, d in zip(coords, self.ds)
        ))

    def to_json(self):
        return {"levels": [{"d": d} for d in self.ds]}

    @staticmethod
    def from_json(obj) -> "AmbientGroup":
        return AmbientGroup(tuple(level["d"] for level in obj["levels"]))


def align_rows(pairs):
    """(row, den) pairs of integer rows in lowest terms, rescaled to the lcm
    of their denominators: (rows, den), in lowest terms as a whole."""
    pairs = list(pairs)
    den = lcm(*(d for _, d in pairs))
    return [tuple(row) if d == den else tuple(den // d * x for x in row) for row, d in pairs], den


def rows_from_json(objs, ambient: AmbientGroup):
    """JSON coordinate lists as integer rows over one denominator: (rows, den)."""
    values = []
    for obj in objs:
        if len(obj) != ambient.num_levels:
            raise ValueError("coordinate count must match level count")
        values.append([rat_from_str(c[key]) for c in obj for key in ("a", "b")])
    return lattice.clear_denominators(values)


@dataclass(frozen=True, init=False)
class GroupElem:
    """Level i is (a_i + b_i*sqrt(d_i)) / den for the integer row
    (a_1, b_1, a_2, b_2, ...) over the positive den, in lowest terms."""

    ambient: AmbientGroup
    row: tuple
    den: int

    def __init__(self, ambient: AmbientGroup, coords):
        """The element with the per-level scalars `coords`."""
        if len(coords) != ambient.num_levels:
            raise ValueError("coordinate count must match level count")
        if any(c.d != d for c, d in zip(coords, ambient.ds)):
            raise ValueError("scalar radicand does not match level")
        (row,), den = lattice.clear_denominators([[x for c in coords for x in (c.a, c.b)]])
        # the class is frozen, so its constructors fill the fields through __dict__
        self.__dict__.update(ambient=ambient, row=row, den=den)

    @classmethod
    def from_row(cls, ambient: AmbientGroup, row, den: int = 1) -> "GroupElem":
        """The element row / den for an integer row and a positive den."""
        if len(row) != 2 * ambient.num_levels:
            raise ValueError("coordinate count must match level count")
        g = gcd(den, *row)
        elem = cls.__new__(cls)
        elem.__dict__.update(ambient=ambient, row=tuple(x // g for x in row), den=den // g)
        return elem

    @property
    def coords(self) -> tuple:
        """The per-level scalars, built on each call."""
        r, den = self.row, self.den
        return tuple(QuadScalar(Fraction(a, den), Fraction(b, den), d)
                     for a, b, d in zip(r[::2], r[1::2], self.ambient.ds))

    def _check(self, other: "GroupElem"):
        if self.ambient != other.ambient:
            raise ValueError("elements live in different ambient groups")

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        (x, y), den = align_rows(((self.row, self.den), (other.row, other.den)))
        return GroupElem.from_row(self.ambient, [a + b for a, b in zip(x, y)], den)

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        return self + -other

    def __neg__(self) -> "GroupElem":
        return GroupElem.from_row(self.ambient, [-x for x in self.row], self.den)

    def is_zero(self) -> bool:
        return not any(self.row)

    def sign(self) -> int:
        return row_sign(self.row, self.ambient.ds)

    def to_json(self):
        r, den = self.row, self.den
        return [{"a": ratio_str(a, den), "b": ratio_str(b, den)} for a, b in zip(r[::2], r[1::2])]

    def __str__(self):
        coords = [str(x) for x in self.coords]
        return coords[0] if len(coords) == 1 else "(" + ", ".join(coords) + ")"


def _add_combination(start, coeffs, rows):
    """start + sum of c_k * row_k over the coefficients and rows, as a tuple."""
    m = list(start)
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                m[j] += c * x
    return tuple(m)


def combine(elems, coeffs, ambient: AmbientGroup) -> GroupElem:
    """The integer linear combination sum_k coeffs[k] * elems[k] of elements
    of `ambient`: every caller passes an exponent vector or a lattice
    relation.  The rows are aligned once and one element is built."""
    terms = [(e, c) for e, c in zip(elems, coeffs) if c]
    if any(e.ambient != ambient for e, _ in terms):
        raise ValueError("elements live in different ambient groups")
    rows, den = align_rows((e.row, e.den) for e, _ in terms)
    row = _add_combination((0,) * (2 * ambient.num_levels), (c for _, c in terms), rows)
    return GroupElem.from_row(ambient, row, den)


def row_sign(row, ds) -> int:
    """Lexicographic sign of a group value's integer row (a_1, b_1, ...)
    over any positive denominator: the first level's nonzero a + b*sqrt(d)
    decides."""
    for lv, d in enumerate(ds):
        s = quad_sign_int(row[2 * lv], row[2 * lv + 1], d)
        if s:
            return s
    return 0


def combination_sign(rows, coeffs, ds) -> int:
    """Lexicographic sign of sum_k coeffs[k] * rows[k], level by level."""
    for lv, d in enumerate(ds):
        a = b = 0
        for row, c in zip(rows, coeffs):
            if c:
                a += c * row[2 * lv]
                b += c * row[2 * lv + 1]
        s = quad_sign_int(a, b, d)
        if s:
            return s
    return 0


@dataclass(frozen=True, init=False)
class Subgroup:
    """The subgroup generated by the integer rows over the positive den,
    in lowest terms as a whole."""

    ambient: AmbientGroup
    rows: tuple
    den: int

    def __init__(self, ambient: AmbientGroup, generators):
        """The subgroup generated by the group elements `generators`."""
        if any(g.ambient != ambient for g in generators):
            raise ValueError("generator outside the ambient group")
        rows, den = align_rows((g.row, g.den) for g in generators)
        self.__dict__.update(ambient=ambient, rows=tuple(rows), den=den)

    @classmethod
    def from_rows(cls, ambient: AmbientGroup, rows, den: int = 1) -> "Subgroup":
        g = gcd(den, *(x for r in rows for x in r))
        s = cls.__new__(cls)
        rows = tuple(tuple(x // g for x in r) for r in rows)
        s.__dict__.update(ambient=ambient, rows=rows, den=den // g)
        return s

    @property
    def generators(self) -> tuple:
        return tuple(GroupElem.from_row(self.ambient, r, self.den) for r in self.rows)

    @cached_property
    def rank_profile(self) -> list:
        """The pivot columns of the rows (`lattice.rank_profile`), found on
        first use; `rational_rank` and `convex_rank` both read them."""
        return lattice.rank_profile(self.rows)


def rational_rank(s: Subgroup) -> int:
    """Dimension of the rational span of the generators: the rank of their
    integer rows, the length of their rank profile (no HNF)."""
    return len(s.rank_profile)


def convex_rank(s: Subgroup) -> int:
    """Number of levels where the subgroup jumps.

    A jump at level i means the subgroup has an element vanishing on all
    earlier levels with a nonzero level-i coordinate; equivalently the rank
    of the projection to levels 1..i exceeds that to levels 1..i-1.  In an
    echelon form of the rows that projection's rank is the number of pivots
    in its first 2i columns, so the jumps are the levels holding a pivot
    column: one rank profile (fraction-free elimination, no HNF) decides
    every level.
    """
    return len({c // 2 for c in s.rank_profile})


@dataclass(frozen=True)
class EmbeddingVerdict:
    status: str  # "ok" | "ill_defined" | "order_violated"
    witness: tuple = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _common_rows(elems):
    """The elements' rows over one positive denominator, and the radicands
    of their common ambient group."""
    if not elems:
        return [], ()
    group = Subgroup(elems[0].ambient, elems)
    return group.rows, group.ambient.ds


def order_embedding_check(sources, images, witnesses) -> EmbeddingVerdict:
    """Bounded verification that sources -> images extends to an order embedding.

    First every integer relation among the sources must map to zero
    (otherwise the assignment is not even well defined); then each witness
    combination must have the same sign on both sides.  Order preservation
    is checked only on the witness set.  Each side's rows are aligned over
    one denominator, and every sign is decided on those integers with each
    side's own radicands; no group element is built.
    """
    if len(sources) != len(images):
        raise ValueError("sources and images must have equal length")
    src_rows, src_ds = _common_rows(sources)
    img_rows, img_ds = _common_rows(images)
    for rel in lattice.row_kernel(src_rows):
        if combination_sign(img_rows, rel, img_ds):
            return EmbeddingVerdict("ill_defined", tuple(rel))
    for w in witnesses:
        if len(w) != len(sources):
            raise ValueError("witness length must match the number of sources")
        if combination_sign(src_rows, w, src_ds) != combination_sign(img_rows, w, img_ds):
            return EmbeddingVerdict("order_violated", tuple(w))
    return EmbeddingVerdict("ok")


def sqrt_convergents(d: int):
    """The continued-fraction convergents (p, q) of sqrt(d), in order: an exact
    integer recurrence on the periodic expansion of a quadratic surd."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while True:
        yield p, q
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
