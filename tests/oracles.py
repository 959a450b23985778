"""Independent oracles.

The value oracle recomputes place values by direct min-over-terms, choosing
minima with 128-bit interval arithmetic and falling back to an exact
integer comparison whenever an interval straddles zero.  It shares no code
with the library's comparison or minimization path.

`tower_value` evaluates a composite place the way its definition reads,
through the inner value, the inner section and residue, and the outer
value, so the library's single flattened evaluation is checked against it.

The lattice oracles decide small membership and rank questions by brute
force / plain fraction elimination.
"""

from fractions import Fraction
from itertools import product

import mpmath

from placeforge import INFINITY, CompositePlace, RatFunc
from placeforge.ordgroup import GroupElem

iv = mpmath.iv
iv.prec = 128


def _exact_quad_sign(a: Fraction, b: Fraction, d: int) -> int:
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        raise AssertionError("sqrt(d) cannot be rational")
    big_is_a = lhs > rhs
    return (1 if a > 0 else -1) if big_is_a else (1 if b > 0 else -1)


def _interval(fr: Fraction):
    return iv.mpf(fr.numerator) / iv.mpf(fr.denominator)


def _scalar_sign(scalar) -> int:
    x = _interval(scalar.a) + _interval(scalar.b) * iv.sqrt(scalar.d)
    if x > 0:
        return 1
    if x < 0:
        return -1
    if x == 0:
        return 0
    return _exact_quad_sign(scalar.a, scalar.b, scalar.d)


def elem_sign(elem: GroupElem) -> int:
    for scalar in elem.coords:
        s = _scalar_sign(scalar)
        if s:
            return s
    return 0


def elem_cmp(x: GroupElem, y: GroupElem) -> int:
    return elem_sign(x - y)


def tower_value(place, f: RatFunc):
    """Value through the tower: the inner value v1 of f, then the outer value
    of the inner residue of f / x^s, where x^s is an inner section of v1."""
    if not isinstance(place, CompositePlace):
        return place.value(f)
    if f.is_zero():
        return INFINITY
    v1 = tower_value(place.inner, f)
    if v1.sign() != 0:
        correction = place.inner._raw_section(v1)
        f = f * RatFunc.monomial(place.field, place.arity, tuple(-x for x in correction))
    v2 = tower_value(place.outer, place.inner.residue(f))
    return GroupElem(place.ambient, v1.coords + v2.coords)


def _variable_values(place):
    return [tower_value(place, RatFunc.variable(place.field, place.arity, i))
            for i in range(place.arity)]


def _term_value(gamma, evec, ambient):
    acc = ambient.zero()
    for g, e in zip(gamma, evec):
        if e:
            acc = acc + g.scale(e)
    return acc


def _poly_min(gamma, poly, ambient):
    best = None
    for e in poly.terms:
        v = _term_value(gamma, e, ambient)
        if best is None or elem_cmp(v, best) < 0:
            best = v
    return best


def oracle_value(place, f: RatFunc):
    """Direct min-over-terms evaluation with interval-selected minima."""
    if f.is_zero():
        return INFINITY
    gamma = _variable_values(place)
    ambient = place.ambient
    return _poly_min(gamma, f.num, ambient) - _poly_min(gamma, f.den, ambient)


def values_agree(main, oracle) -> bool:
    if main is INFINITY or oracle is INFINITY:
        return main is oracle
    return (main - oracle).is_zero()


# --- small lattice oracles -------------------------------------------------


def brute_member(gen_rows, target, box=6) -> bool:
    """Is target an integer combination of up to three generator rows?"""
    if not gen_rows:
        return not any(target)
    assert len(gen_rows) <= 3, "brute force only for tiny instances"
    width = range(-box, box + 1)
    for coeffs in product(width, repeat=len(gen_rows)):
        acc = [0] * len(target)
        for c, row in zip(coeffs, gen_rows):
            for j, x in enumerate(row):
                acc[j] += c * x
        if acc == list(target):
            return True
    return False


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank
