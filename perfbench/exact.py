"""Exact arithmetic kept apart from the library.

Group values are tuples of per-level (a, b) Fraction pairs meaning
a + b*sqrt(d_level), ordered lexicographically with level 1 dominant.
Polynomials are dicts from exponent tuples to coefficients (Fractions over
Q, residues mod p over GF(p)).  Generation and the correctness checks use
these helpers so that no comparison, minimum or product they rely on runs
through placeforge's own code.
"""

from fractions import Fraction


def quad_sign(a, b, d):
    """Sign of a + b*sqrt(d) for rationals a, b and a nonsquare d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    return (1 if a > 0 else -1) if a * a > b * b * d else (1 if b > 0 else -1)


def lex_sign(vec, ds):
    for (a, b), d in zip(vec, ds):
        s = quad_sign(a, b, d)
        if s:
            return s
    return 0


def vec_add(x, y):
    return tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(x, y))


def vec_sub(x, y):
    return tuple((a1 - a2, b1 - b2) for (a1, b1), (a2, b2) in zip(x, y))


def vec_zero(levels):
    return tuple((Fraction(0), Fraction(0)) for _ in range(levels))


def from_elem(g):
    """A placeforge GroupElem as a plain tuple of (a, b) pairs."""
    return tuple((Fraction(c.a), Fraction(c.b)) for c in g.coords)


def weights_from_json(obj):
    """(ds, weight vectors) of a monomial place given as JSON."""
    ds = [level["d"] for level in obj["ambient"]["levels"]]
    weights = [
        tuple((Fraction(c["a"]), Fraction(c["b"])) for c in w) for w in obj["weights"]
    ]
    return ds, weights


def term_value(weights, e, levels):
    acc = vec_zero(levels)
    for w, x in zip(weights, e):
        if x:
            acc = tuple((a + x * wa, b + x * wb) for (a, b), (wa, wb) in zip(acc, w))
    return acc


def min_terms(weights, ds, exps):
    """Exponents of minimal value among `exps`, with that value."""
    best, out = None, []
    for e in exps:
        v = term_value(weights, e, len(ds))
        s = 1 if best is None else lex_sign(vec_sub(v, best), ds)
        if best is None or s < 0:
            best, out = v, [e]
        elif s == 0:
            out.append(e)
    return out, best


def qrows(vectors):
    """Rows over Q of group values: (a1, b1, a2, b2, ...)."""
    return [[x for pair in v for x in pair] for v in vectors]


def convex_rank_rows(rows, levels, rank):
    """Number of levels where the rank of the prefix projection jumps."""
    jumps, prev = 0, 0
    for lvl in range(1, levels + 1):
        rk = rank([row[: 2 * lvl] for row in rows]) if rows else 0
        if rk > prev:
            jumps += 1
        prev = rk
    return jumps


def poly_mul(s, t, p):
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    if p:
        return {e: c % p for e, c in out.items() if c % p}
    return {e: c for e, c in out.items() if c}


def fractions_equal(n1, d1, n2, d2, p):
    """n1/d1 == n2/d2 by cross multiplication."""
    return poly_mul(n1, d2, p) == poly_mul(n2, d1, p)
