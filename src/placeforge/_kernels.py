"""Hot kernels: sparse term products and weighted term minima.

Exponents are machine-word integers with overflow detection at EXP_LIMIT.
"""

from operator import add, mul

from .ordgroup import quad_sign_int

# Exponents must stay below this bound in every polynomial.
EXP_LIMIT = 2**62


def backend() -> str:
    """Name of the kernel implementation; the pure-Python one is the only one."""
    return "pure"


def mul_terms(ea, ca, eb, cb, p):
    """Sparse product of two term lists.

    ea/eb: lists of exponent tuples; ca/cb: integer coefficients, residues
    mod p when p > 0 and arbitrary ints when p == 0.  Returns a dict from
    exponent tuple to nonzero coefficient.  Both fields accumulate in one
    loop, which reduces each partial sum mod p when p > 0.
    """
    if ea and eb:
        for ma, mb in zip(map(max, zip(*ea)), map(max, zip(*eb))):
            if ma + mb >= EXP_LIMIT:
                raise OverflowError("exponent overflow in polynomial product")
    if len(ea) == 1:
        ea, ca, eb, cb = eb, cb, ea, ca
    out = {}
    if len(eb) == 1:
        # a product by one term c*x^s: shift and scale, in the other's order
        (s,), (c,) = eb, cb
        shifted = any(s)
        for e, ce in zip(ea, ca):
            v = ce * c % p if p else ce * c
            if v:
                out[tuple(map(add, e, s)) if shifted else e] = v
        return out
    for e1, c1 in zip(ea, ca):
        for e2, c2 in zip(eb, cb):
            key = tuple(map(add, e1, e2))
            v = out.get(key, 0) + c1 * c2
            if p:
                v %= p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def term_mins(exps, levels):
    """Indices of the terms of minimal weighted value, plus that minimum.

    exps: nonempty list of exponent tuples.  levels: per lexicographic
    level a triple (arow, brow, d) of integer weight numerators over a
    shared per-level denominator; the value of a term e at one level is
    (e . arow) + (e . brow) * sqrt(d), compared exactly.

    Returns (argmins, best) with argmins the sorted index list of all
    minimizers and best the per-level (a, b) numerator pairs of the
    minimum.  Levels are decided one at a time: level k is computed only
    for the terms still tied after the levels before it.
    """
    argmins = list(range(len(exps)))
    best = []
    for arow, brow, d in levels:
        tied = argmins
        i = tied[0]
        ba, bb = sum(map(mul, exps[i], arow)), sum(map(mul, exps[i], brow))
        argmins = [i]
        for i in tied[1:]:
            e = exps[i]
            sa, sb = sum(map(mul, e, arow)), sum(map(mul, e, brow))
            cmp = quad_sign_int(sa - ba, sb - bb, d)
            if cmp < 0:
                ba, bb = sa, sb
                argmins = [i]
            elif cmp == 0:
                argmins.append(i)
        best.append((ba, bb))
    return argmins, tuple(best)
