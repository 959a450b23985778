"""Independent oracles.

The value oracle recomputes place values by direct min-over-terms, choosing
minima with 128-bit interval arithmetic and falling back to an exact
integer comparison whenever an interval straddles zero.  It shares no code
with the library's comparison or minimization path.

`tower_value` evaluates a composite place the way its definition reads,
through the inner value, the inner section and residue, and the outer
value, so the library's single flattened evaluation is checked against it.
`tower_residue` does the same for residues: the sign of the inner value,
then the outer residue of the inner residue.

`scale` and `qvec` are group-element arithmetic by the definitions on an
element's row, for tests that need a rational multiple or the rational
coordinates of a value.

The lattice oracles decide small membership and rank questions by brute
force / plain fraction elimination.

The rational-function reference computes +, -, *, / and ** on unreduced
pairs of coefficient dicts and decides equality by cross multiplication.
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
        correction = place.inner._raw_section(v1.row, v1.den)
        f = f * RatFunc.monomial(place.field, place.arity, tuple(-x for x in correction))
    v2 = tower_value(place.outer, place.inner.residue(f))
    return GroupElem(place.ambient, v1.coords + v2.coords)


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


def scale(g: GroupElem, c) -> GroupElem:
    """c * g for a rational c."""
    c = Fraction(c)
    return GroupElem.from_row(g.ambient, [c.numerator * x for x in g.row], g.den * c.denominator)


def qvec(g: GroupElem):
    """Coordinates of g over the per-level rational basis {1, sqrt(d)}."""
    return tuple(Fraction(x, g.den) for x in g.row)


def _variable_values(place):
    return [tower_value(place, RatFunc.variable(place.field, place.arity, i))
            for i in range(place.arity)]


def _term_value(gamma, evec, ambient):
    acc = ambient.zero()
    for g, e in zip(gamma, evec):
        if e:
            acc = acc + scale(g, e)
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
