"""Independent oracles.

The value oracle recomputes place values by direct min-over-terms, choosing
minima with 128-bit interval arithmetic and falling back to an exact
integer comparison whenever an interval straddles zero.  It shares no code
with the library's comparison or minimization path: values are tuples of
per-level (a, b) Fraction pairs, meaning a + b*sqrt(d_level), added,
subtracted and scaled here, and a GroupElem is built (with `from_row`) only
for the result.

`tower_value` evaluates a composite place the way its definition reads,
through the inner value, the inner section and residue, and the outer
value, so the library's single flattened evaluation is checked against it.
`tower_residue` does the same for residues: the sign of the inner value,
then the outer residue of the inner residue.

`elem`, `elem_add`, `elem_sub`, `scale` and `qvec` are group-element
arithmetic by the definitions, on those pairs, for tests that build values
or compare them.  `in_basic_open` decides membership in a basic open set
from the tower values and their interval-checked signs.

The lattice oracles decide small membership and rank questions by brute
force / plain fraction elimination.

The rational-function reference computes +, -, *, / and ** on unreduced
pairs of coefficient dicts and decides equality by cross multiplication.
"""

from fractions import Fraction
from itertools import product
from math import lcm

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


def _scalar_sign(a: Fraction, b: Fraction, d: int) -> int:
    x = _interval(a) + _interval(b) * iv.sqrt(d)
    if x > 0:
        return 1
    if x < 0:
        return -1
    if x == 0:
        return 0
    return _exact_quad_sign(a, b, d)


def pairs_sign(pairs, ds) -> int:
    """Lexicographic sign of per-level (a, b) pairs: the first nonzero level."""
    for (a, b), d in zip(pairs, ds):
        s = _scalar_sign(a, b, d)
        if s:
            return s
    return 0


def pairs(g: GroupElem) -> tuple:
    """g as per-level (a, b) Fractions, read off its row and denominator."""
    r = g.row
    return tuple((Fraction(r[i], g.den), Fraction(r[i + 1], g.den)) for i in range(0, len(r), 2))


def from_pairs(ambient, ps) -> GroupElem:
    """The element with the per-level (a, b) pairs, over their lcm denominator."""
    flat = [Fraction(x) for p in ps for x in p]
    den = lcm(*(x.denominator for x in flat))
    return GroupElem.from_row(ambient, [int(x * den) for x in flat], den)


def elem(ambient, *levels) -> GroupElem:
    """The element with one value per level: a rational a, or an (a, b)
    pair for a + b*sqrt(d)."""
    return from_pairs(ambient, [lv if isinstance(lv, tuple) else (lv, 0) for lv in levels])


def _add(x, y):
    return tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(x, y))


def _scale(x, c):
    return tuple((c * a, c * b) for a, b in x)


def elem_add(x: GroupElem, y: GroupElem) -> GroupElem:
    return from_pairs(x.ambient, _add(pairs(x), pairs(y)))


def elem_sub(x: GroupElem, y: GroupElem) -> GroupElem:
    return from_pairs(x.ambient, _add(pairs(x), _scale(pairs(y), -1)))


def scale(g: GroupElem, c) -> GroupElem:
    """c * g for a rational c."""
    return from_pairs(g.ambient, _scale(pairs(g), Fraction(c)))


def qvec(g: GroupElem):
    """Coordinates of g over the per-level rational basis {1, sqrt(d)}."""
    return tuple(x for p in pairs(g) for x in p)


def elem_sign(g: GroupElem) -> int:
    return pairs_sign(pairs(g), g.ambient.ds)


def tower_value(place, f: RatFunc):
    """Value through the tower: the inner value v1 of f, then the outer value
    of the inner residue of f / x^s, where x^s is an inner section of v1."""
    if not isinstance(place, CompositePlace):
        return place.value(f)
    if f.is_zero():
        return INFINITY
    v1 = tower_value(place.inner, f)
    if elem_sign(v1) != 0:
        correction = place.inner._raw_section(v1.row, v1.den)
        f = f * RatFunc.monomial(place.field, place.arity, tuple(-x for x in correction))
    v2 = tower_value(place.outer, place.inner.residue(f))
    return from_pairs(place.ambient, pairs(v1) + pairs(v2))


def tower_residue(place, f: RatFunc):
    """Residue through the tower: 0 or infinity when the inner value of f
    is positive or negative, else the outer residue of the inner residue."""
    if not isinstance(place, CompositePlace):
        return place.residue(f)
    if not f.is_zero():
        s = elem_sign(tower_value(place.inner, f))
        if s > 0:
            return RatFunc.zero(place.field, place.residue_dim())
        if s < 0:
            return INFINITY
    return tower_residue(place.outer, tower_residue(place.inner, f))


def in_basic_open(place, finite_on, vanishing_on) -> bool:
    """Membership in the basic open set: v >= 0 on the first list, v > 0
    on the second; a zero element lies in every basic open set."""
    for elems, least in ((finite_on, 0), (vanishing_on, 1)):
        for f in elems:
            if not f.is_zero() and elem_sign(tower_value(place, f)) < least:
                return False
    return True


def _poly_min(gamma, poly, ds):
    """The least term value of a nonzero polynomial, as (a, b) pairs."""
    best = None
    for e in poly.terms:
        v = tuple((Fraction(0), Fraction(0)) for _ in ds)
        for g, x in zip(gamma, e):
            if x:
                v = _add(v, _scale(g, x))
        if best is None or pairs_sign(_add(v, _scale(best, -1)), ds) < 0:
            best = v
    return best


def oracle_value(place, f: RatFunc):
    """Direct min-over-terms evaluation with interval-selected minima."""
    if f.is_zero():
        return INFINITY
    gamma = [pairs(tower_value(place, RatFunc.variable(place.field, place.arity, i)))
             for i in range(place.arity)]
    ds = place.ambient.ds
    low = _poly_min(gamma, f.num, ds)
    return from_pairs(place.ambient, _add(low, _scale(_poly_min(gamma, f.den, ds), -1)))


def values_agree(main, oracle) -> bool:
    if main is INFINITY or oracle is INFINITY:
        return main is oracle
    return main.ambient.ds == oracle.ambient.ds and pairs(main) == pairs(oracle)


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


# --- rational functions by the definitions ---------------------------------
#
# A polynomial is a dict from exponent tuples to nonzero coefficients:
# Fractions over Q (p == 0), residues mod p over GF(p).  A rational function
# is a pair (num, den) of them with den nonzero, never reduced; two pairs
# are equal when num1 * den2 == num2 * den1.  Nothing here calls the library.


def ref_coeff(c, p):
    """A rational number (int, Fraction or "n/d" text) as a coefficient."""
    c = Fraction(c)
    if p:
        return c.numerator * pow(c.denominator, -1, p) % p
    return c


def ref_poly(terms, p):
    out = {}
    for e, c in terms.items():
        c = ref_coeff(c, p)
        if c:
            out[tuple(e)] = c
    return out


def _ref_padd(a, b, p):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if p:
            v %= p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_pmul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _ref_padd(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2 % p if p else c1 * c2}, p)
    return out


def _ref_pneg(a, p):
    return {e: (-c) % p if p else -c for e, c in a.items()}


def ref_add(f, g, p):
    return (_ref_padd(_ref_pmul(f[0], g[1], p), _ref_pmul(g[0], f[1], p), p),
            _ref_pmul(f[1], g[1], p))


def ref_neg(f, p):
    return _ref_pneg(f[0], p), f[1]


def ref_sub(f, g, p):
    return ref_add(f, ref_neg(g, p), p)


def ref_mul(f, g, p):
    return _ref_pmul(f[0], g[0], p), _ref_pmul(f[1], g[1], p)


def ref_div(f, g, p):
    if not g[0]:
        raise ZeroDivisionError("division by the zero function")
    return ref_mul(f, (g[1], g[0]), p)


def ref_pow(f, k, p):
    """f**k by repeated multiplication; a negative k inverts f first."""
    if k < 0:
        if not f[0]:
            raise ZeroDivisionError("negative power of zero")
        f, k = (f[1], f[0]), -k
    one = {(0,) * len(next(iter(f[1]))): ref_coeff(1, p)}
    out = (one, one)
    for _ in range(k):
        out = ref_mul(out, f, p)
    return out


def ref_eq(f, g, p) -> bool:
    return _ref_pmul(f[0], g[1], p) == _ref_pmul(g[0], f[1], p)
