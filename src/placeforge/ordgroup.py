"""Exact scalars and finitely generated ordered abelian groups.

Scalars are real quadratic irrationals a + b*sqrt(d) with rational a, b and a
fixed squarefree radicand d per level.  Group elements live in lexicographic
products of such levels, level 1 dominant.  All comparisons are decided
exactly by integer case analysis; no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import lattice

Rat = Fraction

# Largest radicand accepted: squarefreeness is decided by trial division up
# to sqrt(d), about half a million steps at this bound.
MAX_RADICAND = 10**12

# Most digits a number literal may carry, counting the digits an exponent
# ("1e5") adds; checked before any conversion, so a huge literal is refused
# instead of built.  Below CPython's own int-string limit of 4300 digits.
MAX_LITERAL_DIGITS = 1000


def rat_to_str(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _literal_digits(s: str) -> int:
    """Upper bound on the digits of the integers Fraction(s) would build:
    the mantissa's digits plus the exponent's magnitude."""
    mantissa, _, exponent = s.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    magnitude = exponent.strip().lstrip("+-").replace("_", "")
    if magnitude.isdecimal():
        # a longer exponent is over the budget without converting it
        digits += int(magnitude) if len(magnitude) <= 9 else MAX_LITERAL_DIGITS + 1
    return digits


# The place schema's literal form; [0-9] keeps it ASCII.
_SCHEMA_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(s: str) -> Fraction:
    if not isinstance(s, str):
        return Fraction(s)
    # Without an exponent a literal has at most len(s) digits; only longer
    # or exponent literals need counting.
    if len(s) > MAX_LITERAL_DIGITS or "e" in s or "E" in s:
        if _literal_digits(s) > MAX_LITERAL_DIGITS:
            shown = s if len(s) <= 24 else s[:20] + "..."
            raise ValueError(
                f"literal {shown!r} has more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits"
            )
    # The schema's form converts by int; anything else (spaces, "+", "_",
    # decimals, exponents, other scripts' digits) is left to Fraction.
    m = _SCHEMA_LITERAL.fullmatch(s)
    if m is None:
        return Fraction(s)
    num, den = m.groups()
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
    """a + b*sqrt(d), exact."""

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

    def _check(self, other: "QuadScalar"):
        if self.d != other.d:
            raise ValueError("mixed radicands in one level")

    def __add__(self, other: "QuadScalar") -> "QuadScalar":
        self._check(other)
        return QuadScalar(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "QuadScalar") -> "QuadScalar":
        self._check(other)
        return QuadScalar(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b, self.d)

    def scale(self, c) -> "QuadScalar":
        c = Fraction(c)
        return QuadScalar(self.a * c, self.b * c, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        num = self.a.numerator * self.b.denominator
        bnum = self.b.numerator * self.a.denominator
        return quad_sign_int(num, bnum, self.d)

    def to_json(self):
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b)}

    @staticmethod
    def from_json(obj, d: int) -> "QuadScalar":
        return QuadScalar(rat_from_str(obj["a"]), rat_from_str(obj["b"]), d)

    def __str__(self):
        if self.b == 0:
            return rat_to_str(self.a)
        tail = f"{rat_to_str(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return tail
        op = "+" if self.b > 0 else "-"
        btail = f"{rat_to_str(abs(self.b))}*sqrt({self.d})"
        return f"{rat_to_str(self.a)} {op} {btail}"


def quad_sign(s: QuadScalar) -> int:
    """Sign of a quadratic scalar as a real number: -1, 0 or +1."""
    return s.sign()


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
        return GroupElem(self, tuple(QuadScalar.rational(0, d) for d in self.ds))

    def elem(self, *coords) -> "GroupElem":
        """Build an element from per-level scalars; bare numbers become rationals."""
        if len(coords) != self.num_levels:
            raise ValueError("coordinate count must match level count")
        out = []
        for c, d in zip(coords, self.ds):
            if isinstance(c, QuadScalar):
                if c.d != d:
                    raise ValueError("scalar radicand does not match level")
                out.append(c)
            else:
                out.append(QuadScalar.rational(c, d))
        return GroupElem(self, tuple(out))

    def to_json(self):
        return {"levels": [{"d": d} for d in self.ds]}

    @staticmethod
    def from_json(obj) -> "AmbientGroup":
        return AmbientGroup(tuple(level["d"] for level in obj["levels"]))


def concat_ambients(first: AmbientGroup, second: AmbientGroup) -> AmbientGroup:
    return AmbientGroup(first.ds + second.ds)


@dataclass(frozen=True)
class GroupElem:
    ambient: AmbientGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.ambient.num_levels:
            raise ValueError("coordinate count must match level count")

    def _check(self, other: "GroupElem"):
        if self.ambient != other.ambient:
            raise ValueError("elements live in different ambient groups")

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        return GroupElem(self.ambient, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        self._check(other)
        return GroupElem(self.ambient, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElem":
        return GroupElem(self.ambient, tuple(-x for x in self.coords))

    def scale(self, c) -> "GroupElem":
        return GroupElem(self.ambient, tuple(x.scale(c) for x in self.coords))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def sign(self) -> int:
        for x in self.coords:
            s = x.sign()
            if s != 0:
                return s
        return 0

    def qvec(self):
        """Coordinates over the per-level rational basis {1, sqrt(d)}."""
        out = []
        for x in self.coords:
            out.append(x.a)
            out.append(x.b)
        return tuple(out)

    def to_json(self):
        return [x.to_json() for x in self.coords]

    @staticmethod
    def from_json(obj, ambient: AmbientGroup) -> "GroupElem":
        if len(obj) != ambient.num_levels:
            raise ValueError("coordinate count must match level count")
        coords = tuple(QuadScalar.from_json(c, d) for c, d in zip(obj, ambient.ds))
        return GroupElem(ambient, coords)

    def __str__(self):
        if self.ambient.num_levels == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def combine(elems, coeffs, ambient: AmbientGroup) -> GroupElem:
    """Integer (or rational) linear combination of group elements."""
    acc = ambient.zero()
    for e, c in zip(elems, coeffs):
        if c:
            acc = acc + e.scale(c)
    return acc


def cmp_elem(x: GroupElem, y: GroupElem) -> int:
    """Lexicographic comparison: -1, 0 or +1."""
    x._check(y)
    return (x - y).sign()


def row_sign(row, ds) -> int:
    """Lexicographic sign of a group value's integer row, its qvec over any
    positive denominator: the first level's nonzero a + b*sqrt(d) decides."""
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


def row_elem(ambient: AmbientGroup, row, den: int) -> GroupElem:
    """The group element of an integer qvec row over `den`."""
    return GroupElem(ambient, tuple(
        QuadScalar(Fraction(row[2 * lv], den), Fraction(row[2 * lv + 1], den), d)
        for lv, d in enumerate(ambient.ds)
    ))


@dataclass(frozen=True)
class Subgroup:
    """The subgroup generated by `generators`.

    `rows` are the generators' qvecs as integers over the one positive
    denominator `den`.  A place passes the rows it already holds; without
    them they are cleared once here.
    """

    ambient: AmbientGroup
    generators: tuple
    rows: tuple = field(default=None, compare=False, repr=False)
    den: int = field(default=1, compare=False, repr=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ambient != self.ambient:
                raise ValueError("generator outside the ambient group")
        if self.rows is None:
            rows, den = lattice.clear_denominators(self.qrows())
            object.__setattr__(self, "rows", tuple(rows))
            object.__setattr__(self, "den", den)

    def qrows(self):
        return [g.qvec() for g in self.generators]

    def to_json(self):
        return {
            "levels": self.ambient.to_json()["levels"],
            "coords": [g.to_json() for g in self.generators],
        }

    @staticmethod
    def from_json(obj) -> "Subgroup":
        ambient = AmbientGroup.from_json(obj)
        gens = tuple(GroupElem.from_json(c, ambient) for c in obj["coords"])
        return Subgroup(ambient, gens)


def rational_rank(s: Subgroup) -> int:
    """Dimension of the rational span of the generators: the rank of their
    integer rows, read off the rows' rank profile (no HNF)."""
    return lattice.int_rank(s.rows)


def _basis_and_target(s: Subgroup, x: GroupElem):
    """The HNF basis of the generator rows and x's row, over one common
    denominator; the basis is None when there are no generators."""
    if x.ambient != s.ambient:
        raise ValueError("element outside the ambient group")
    rows, _ = lattice.clear_denominators(s.qrows() + [x.qvec()])
    gen_rows, target = rows[:-1], rows[-1]
    return (lattice.hnf(gen_rows) if gen_rows else None), target


def subgroup_member(s: Subgroup, x: GroupElem) -> bool:
    """Is x an integer combination of the generators?"""
    basis, target = _basis_and_target(s, x)
    if basis is None:
        return not any(target)
    return lattice.express_int(basis, target) is not None


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
    return len({c // 2 for c in lattice.rank_profile(s.rows)})


def in_p_divisible_hull(x: GroupElem, s: Subgroup, p: int) -> bool:
    """Is p**k * x in the subgroup for some k >= 0?

    Decided by expressing x rationally over the HNF basis of the generator
    lattice and checking every coordinate denominator is a power of p.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    basis, target = _basis_and_target(s, x)
    if basis is None:
        return not any(target)
    coeffs = lattice.express_rat(basis, target)
    if coeffs is None:
        return False
    for c in coeffs:
        q = c.denominator
        while q % p == 0:
            q //= p
        if q != 1:
            return False
    return True


@dataclass(frozen=True)
class EmbeddingVerdict:
    status: str  # "ok" | "ill_defined" | "order_violated"
    witness: tuple = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _cleared_rows(elems):
    """The elements' qvecs as integer rows over one positive denominator,
    and the radicands of their common ambient group."""
    if not elems:
        return [], ()
    for e in elems:
        e._check(elems[0])
    rows, _ = lattice.clear_denominators([e.qvec() for e in elems])
    return rows, elems[0].ambient.ds


def order_embedding_check(sources, images, witnesses) -> EmbeddingVerdict:
    """Bounded verification that sources -> images extends to an order embedding.

    First every integer relation among the sources must map to zero
    (otherwise the assignment is not even well defined); then each witness
    combination must have the same sign on both sides.  Order preservation
    is checked only on the witness set.  Both sides are cleared to integer
    rows once, and every sign is decided on those integers with each side's
    own radicands; no group element is built.
    """
    if len(sources) != len(images):
        raise ValueError("sources and images must have equal length")
    src_rows, src_ds = _cleared_rows(sources)
    img_rows, img_ds = _cleared_rows(images)
    for rel in lattice.row_kernel(src_rows):
        if combination_sign(img_rows, rel, img_ds):
            return EmbeddingVerdict("ill_defined", tuple(rel))
    for w in witnesses:
        if len(w) != len(sources):
            raise ValueError("witness length must match the number of sources")
        if combination_sign(src_rows, w, src_ds) != combination_sign(img_rows, w, img_ds):
            return EmbeddingVerdict("order_violated", tuple(w))
    return EmbeddingVerdict("ok")


def sqrt_convergent(d: int, min_den: int) -> Fraction:
    """First continued-fraction convergent of sqrt(d) with denominator >= min_den.

    Exact integer recurrence on the periodic expansion of a quadratic surd.
    """
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a perfect square")
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while q < min_den:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return Fraction(p, q)
