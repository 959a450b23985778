"""Exact scalars and finitely generated ordered abelian groups.

Scalars are real quadratic irrationals a + b*sqrt(d) with rational a, b and a
fixed squarefree radicand d per level.  Group elements live in lexicographic
products of such levels, level 1 dominant.  Elements and subgroups are built
only from integer rows over one positive denominator, and every comparison
is decided on those integers by exact case analysis; no floating point
anywhere, and no arithmetic on elements: sums are taken on rows.
"""

from __future__ import annotations

import re
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


def rat_from_str(s: str):
    """The rational a literal of the place schema's form "n" or "n/d" spells,
    as the pair (num, den) in lowest terms with den > 0."""
    m = _LITERAL.fullmatch(s) if isinstance(s, str) else None
    if m is None or len(s) > MAX_LITERAL_DIGITS:
        shown = s[:20] + "..." if isinstance(s, str) and len(s) > 24 else s
        if m is None:
            raise ValueError(f"literal {shown!r:.40} is not of the form n or n/d with d > 0")
        # every character but a sign and a slash is a digit
        if len(s) - s.startswith("-") - (m[2] is not None) > MAX_LITERAL_DIGITS:
            raise ValueError(f"literal {shown!r} has more than MAX_LITERAL_DIGITS = "
                             f"{MAX_LITERAL_DIGITS} digits")
    if m[2] is None:
        return int(m[1]), 1
    num, den = int(m[1]), int(m[2])
    g = gcd(num, den)
    return num // g, den // g


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
    """Refuse a radicand that is not an int (a bool is not one here), one
    above MAX_RADICAND, or one that is not squarefree."""
    if type(d) is not int:
        raise ValueError(f"radicand must be a squarefree int >= 2, got {d!r:.40}")
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} exceeds MAX_RADICAND = {MAX_RADICAND}")
    if not is_squarefree(d):
        raise ValueError(f"radicand must be squarefree and >= 2, got {d}")


def check_type(value, kind):
    """`value` if it is an instance of `kind`, else one TypeError line."""
    if not isinstance(value, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


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


class Record:
    """Base of the package's value records.  A subclass lists its fields in
    `_fields` and its constructor stores them in `__dict__`.  Two records of
    one class are equal when their fields are (another class gives
    NotImplemented), a record hashes as the tuple of its fields and prints
    as `Name(field=value, ...)`, and assigning or deleting an attribute
    raises AttributeError.  A mutable record restores `object.__setattr__`
    and `object.__delattr__` and sets `__hash__ = None`."""

    def _key(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    __delattr__ = __setattr__


class QuadScalar(Record):
    """a + b*sqrt(d) for rationals a and b: one level of a group element, as
    `GroupElem.coords` reads it out."""

    _fields = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        f = self.__dict__
        f["a"], f["b"], f["d"] = a, b, d
        self.__post_init__()

    def __post_init__(self):
        # a method of its own, so that perfbench's tracer can count
        # constructions by wrapping it
        check_radicand(self.d)


class AmbientGroup(Record):
    """Lexicographic product of archimedean levels, each with its radicand (`ds`, a tuple)."""

    _fields = ("ds",)

    def __init__(self, ds):
        ds = tuple(ds)
        if not ds:
            raise ValueError("ambient group needs at least one level")
        for d in ds:
            check_radicand(d)
        self.__dict__["ds"] = ds

    @property
    def num_levels(self) -> int:
        return len(self.ds)

    def to_json(self):
        return {"levels": [{"d": d} for d in self.ds]}


def align_rows(pairs):
    """(row, den) pairs of integer rows in lowest terms, rescaled to the lcm
    of their denominators: (rows, den), in lowest terms as a whole."""
    pairs = list(pairs)
    den = lcm(*(d for _, d in pairs))
    return [tuple(row) if d == den else tuple(den // d * x for x in row) for row, d in pairs], den


class GroupElem(Record):
    """Level i is (a_i + b_i*sqrt(d_i)) / den for the integer row
    (a_1, b_1, a_2, b_2, ...) over the positive den, in lowest terms.
    Built only by `from_row`; read as row/den, sign, coords, JSON or text."""

    _fields = ("ambient", "row", "den")

    @classmethod
    def from_row(cls, ambient: AmbientGroup, row, den: int = 1) -> "GroupElem":
        """The element row / den for an integer row and a positive den."""
        if len(row) != 2 * len(check_type(ambient, AmbientGroup).ds):
            raise ValueError("coordinate count must match level count")
        if type(den) is not int or den < 1:  # a bool is not one
            raise ValueError(f"denominator must be a positive int, got {den!r:.40}")
        g = gcd(den, *row)
        row = tuple([x // g for x in row]) if g > 1 else tuple(row)
        elem = cls.__new__(cls)
        # a record refuses assignment, so its fields go straight into __dict__
        f = elem.__dict__
        f["ambient"], f["row"], f["den"] = ambient, row, den // g
        return elem

    @property
    def coords(self) -> tuple:
        """The per-level scalars of Fractions, built on each call."""
        from fractions import Fraction  # kept off the import path
        r, den = self.row, self.den
        return tuple(QuadScalar(Fraction(a, den), Fraction(b, den), d)
                     for a, b, d in zip(r[::2], r[1::2], self.ambient.ds))

    def sign(self) -> int:
        return row_sign(self.row, self.ambient.ds)

    def to_json(self):
        r, den = self.row, self.den
        return [{"a": ratio_str(a, den), "b": ratio_str(b, den)} for a, b in zip(r[::2], r[1::2])]

    def __str__(self):
        r, den = self.row, self.den
        levels = []
        for a, b, d in zip(r[::2], r[1::2], self.ambient.ds):
            if not b:
                levels.append(ratio_str(a, den))
            elif not a:
                levels.append(f"{ratio_str(b, den)}*sqrt({d})")
            else:
                op = "+" if b > 0 else "-"
                levels.append(f"{ratio_str(a, den)} {op} {ratio_str(abs(b), den)}*sqrt({d})")
        return levels[0] if len(levels) == 1 else "(" + ", ".join(levels) + ")"


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


class Subgroup(Record):
    """The subgroup generated by the integer rows over the positive den,
    in lowest terms as a whole.  Built only by `from_rows`."""

    _fields = ("ambient", "rows", "den")

    @classmethod
    def from_rows(cls, ambient: AmbientGroup, rows, den: int = 1) -> "Subgroup":
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be a positive int, got {den!r:.40}")
        width = 2 * len(check_type(ambient, AmbientGroup).ds)
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"row {i} has {len(r)} coordinates, not {width} (two per level)")
        g = gcd(den, *(x for r in rows for x in r))  # and a TypeError for a non-int entry
        s = cls.__new__(cls)
        rows = tuple(tuple(x // g for x in r) if g > 1 else tuple(r) for r in rows)
        f = s.__dict__
        f["ambient"], f["rows"], f["den"] = ambient, rows, den // g
        return s

    @cached_property
    def rank_profile(self) -> list:
        """The pivot columns of the rows (`lattice.rank_profile`), found on
        first use; `rational_rank` and `convex_rank` both read them."""
        return lattice.rank_profile(self.rows)


def rational_rank(s: Subgroup) -> int:
    """Dimension of the rational span of the generators: the rank of their
    integer rows, the length of their rank profile (no HNF)."""
    return len(check_type(s, Subgroup).rank_profile)


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
    return len({c // 2 for c in check_type(s, Subgroup).rank_profile})


class EmbeddingVerdict(Record):
    _fields = ("status", "witness")

    def __init__(self, status: str, witness: tuple = None):
        f = self.__dict__
        f["status"] = status  # "ok" | "ill_defined" | "order_violated"
        f["witness"] = witness

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _common_rows(elems):
    """The elements' rows over one positive denominator, and the radicands
    of their common ambient group."""
    if not elems:
        return [], ()
    ambient = check_type(elems[0], GroupElem).ambient
    if any(check_type(e, GroupElem).ambient != ambient for e in elems):
        raise ValueError("generator outside the ambient group")
    return align_rows((e.row, e.den) for e in elems)[0], ambient.ds


def order_embedding_check(sources, images, witnesses) -> EmbeddingVerdict:
    """Bounded verification that sources -> images extends to an order embedding.

    First every integer relation among the sources must map to zero
    (otherwise the assignment is not even well defined); then each witness
    combination must have the same sign on both sides.  Order preservation
    is checked only on the witness set.  Each side's rows are aligned over
    one denominator, and every sign is decided on those integers with each
    side's own radicands; no group element is built.

    Well-definedness is decided by ranks: the rows [src | img] side by side
    have the rank of the source rows exactly when every rational relation
    among the sources maps to zero, and the integer kernel spans the
    rational one.  Only when the ranks differ is the kernel built, to name
    its first relation with a nonzero image as the witness.
    """
    if len(sources) != len(images):
        raise ValueError("sources and images must have equal length")
    src_rows, src_ds = _common_rows(sources)
    img_rows, img_ds = _common_rows(images)
    # one combination of the rows side by side sums both sides at once
    rows = [s + t for s, t in zip(src_rows, img_rows)]
    k = 2 * len(src_ds)
    zero = (0,) * (k + 2 * len(img_ds))
    src_rank = len(lattice.rank_profile(src_rows))
    if lattice.int_rank(rows) != src_rank:
        for rel in lattice.row_kernel(src_rows):
            if row_sign(_add_combination(zero, rel, rows)[k:], img_ds):
                return EmbeddingVerdict("ill_defined", tuple(rel))
    for w in witnesses:
        if len(w) != len(sources):
            raise ValueError("witness length must match the number of sources")
        m = _add_combination(zero, w, rows)
        if row_sign(m, src_ds) != row_sign(m[k:], img_ds):
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
