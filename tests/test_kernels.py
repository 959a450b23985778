"""The kernels against naive references written here, with no library code.

`mul_terms` is checked against a product that sums every term pair first
and reduces mod p only at the end; `term_mins` against a sort of the term
values, each compared exactly by integer squaring.
"""

import functools
import random

import pytest

from placeforge import Poly, ratfunc
from placeforge._kernels import EXP_LIMIT, backend, mul_terms, term_mins


def rand_terms(rng, n, count, emax, cmax, p):
    exps, coeffs, seen = [], [], set()
    for _ in range(count):
        e = tuple(rng.randint(0, emax) for _ in range(n))
        if e in seen:
            continue
        seen.add(e)
        exps.append(e)
        c = rng.randint(1, cmax) if p else (rng.randint(-cmax, cmax) or 1)
        coeffs.append(c % p if p else c)
    return exps, coeffs


def naive_mul(ea, ca, eb, cb, p):
    sums = {}
    for e1, c1 in zip(ea, ca):
        for e2, c2 in zip(eb, cb):
            key = tuple(x + y for x, y in zip(e1, e2))
            sums[key] = sums.get(key, 0) + c1 * c2
    if p:
        sums = {key: c % p for key, c in sums.items()}
    return {key: c for key, c in sums.items() if c}


def quad_sign(a, b, d):
    """Sign of a + b*sqrt(d) for integers a, b and a nonsquare d > 1."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: the larger square wins
    diff = a * a - b * b * d
    return (1 if diff > 0 else -1) if a > 0 else (1 if diff < 0 else -1)


def naive_term_mins(exps, levels):
    values = [
        tuple((sum(x * w for x, w in zip(e, arow)), sum(x * w for x, w in zip(e, brow)))
              for arow, brow, _ in levels)
        for e in exps
    ]

    def compare(u, v):
        for (ua, ub), (va, vb), (_, _, d) in zip(u, v, levels):
            s = quad_sign(ua - va, ub - vb, d)
            if s:
                return s
        return 0

    least = min(values, key=functools.cmp_to_key(compare))
    return [i for i, v in enumerate(values) if compare(v, least) == 0], least


def test_mul_terms_agreement_across_envelope():
    rng = random.Random(101)
    cancelled = 0
    # products by one term, on each side, and with a zero input coefficient
    single = {"left": 0, "right": 0, "left zero": 0, "right zero": 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        p = rng.choice([0, 5, 1_000_003, 2**61 - 1])
        emax = rng.choice([3, 6, 20000])
        cmax = rng.choice([10, 10**30])
        ea, ca = rand_terms(rng, n, rng.randint(1, 8), emax, cmax, p)
        eb, cb = rand_terms(rng, n, rng.randint(1, 8), emax, cmax, p)
        out = mul_terms(ea, ca, eb, cb, p)
        expected = naive_mul(ea, ca, eb, cb, p)
        assert out == expected
        keys = {tuple(x + y for x, y in zip(e1, e2)) for e1 in ea for e2 in eb}
        cancelled += len(out) < len(keys)
        for side, es in (("left", ea), ("right", eb)):
            if len(es) == 1:
                # one term shifts the other operand: its order is kept
                assert list(out) == list(expected)
                single[side] += 1
                single[f"{side} zero"] += 0 in ca + cb
    assert cancelled > 0
    assert all(single.values()), single


def test_term_mins_agreement_across_envelope():
    rng = random.Random(102)
    ties = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        big = rng.random() < 0.3
        emax = 20000 if big else 10
        wmax = 2**35 if big else 50
        exps = [tuple(rng.randint(0, emax) for _ in range(n)) for _ in range(m)]
        levels = []
        for _ in range(rng.randint(1, 3)):
            arow = tuple(rng.randint(-wmax, wmax) for _ in range(n))
            brow = tuple(rng.randint(-wmax, wmax) for _ in range(n))
            levels.append((arow, brow, rng.choice([2, 3, 5, 7])))
        argmins, best = term_mins(exps, levels)
        assert (argmins, best) == naive_term_mins(exps, levels)
        ties += len(argmins) > 1
    assert ties > 0

    # Ties that level 1 leaves for a later level to split.  Level 1 weighs
    # the total degree, which every term shares; level 2 is either random or
    # the degree in the last variable, which leaves ties for level 3.  The
    # first two variables weigh the same on every level, so terms that
    # trade degree between them are equal on every level.
    rng = random.Random(103)
    split = {2: 0, 3: 0}
    everywhere = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        degree = rng.randint(1, 6)
        exps = set()
        for _ in range(rng.randint(2, 10)):
            e = [0] * n
            for _ in range(degree):
                e[rng.randrange(n)] += 1
            exps.add(tuple(e))
        exps = sorted(exps, key=lambda e: rng.random())

        def row(lo=-9, hi=9):
            w = [rng.randint(lo, hi) for _ in range(n - 1)]
            return (w[0],) + tuple(w)

        d = rng.choice([2, 3, 5])
        levels = [((1,) * n, (0,) * n, d)]
        if rng.random() < 0.5:
            levels.append((row(), row() if rng.random() < 0.5 else (0,) * n, d))
        else:
            levels.append(((0,) * (n - 1) + (1,), (0,) * n, d))
        if rng.random() < 0.7:
            levels.append((row(), row(), d))
        argmins, best = term_mins(exps, levels)
        assert (argmins, best) == naive_term_mins(exps, levels)
        tied = [len(naive_term_mins(exps, levels[:k])[0]) for k in range(1, len(levels) + 1)]
        assert tied[0] == len(exps)
        for k in range(1, len(levels)):
            split[k + 1] += tied[k - 1] > tied[k]
        everywhere += tied[-1] > 1
    assert all(split.values()) and everywhere > 0, (split, everywhere)


def test_term_mins_on_one_term_ties_zero_sqrt_columns_and_near_ties():
    """One term, ties on every level, levels whose sqrt column is zero, and
    1-6 levels; the near-ties |x| ~ |y|*sqrt(d) come from convergents, so
    the exact squaring decides them.  Every case agrees with the sort."""
    rng = random.Random(104)
    convergents = {2: [(3, 2), (7, 5), (17, 12), (41, 29)], 3: [(2, 1), (5, 3), (7, 4), (19, 11)],
                   5: [(2, 1), (9, 4), (38, 17), (161, 72)]}
    seen = {"one": 0, "tie": 0, "zero_b": 0, "near": 0}
    for case in range(600):
        n = rng.randint(1, 5)
        count = 1 if case % 5 == 0 else rng.randint(2, 10)
        exps = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(count)]
        if count > 2 and rng.random() < 0.5:
            exps[-1] = exps[0]  # a duplicate term ties on every level
        levels = []
        for _ in range(rng.randint(1, 6)):
            d = rng.choice([2, 3, 5])
            kind = rng.random()
            if kind < 0.3:
                arow, brow = tuple(rng.randint(-4, 4) for _ in range(n)), (0,) * n
                seen["zero_b"] += 1
            elif kind < 0.6:
                # x + y*sqrt(d) with x/y a convergent of sqrt(d): opposite
                # signs whose squares nearly agree
                p, q = rng.choice(convergents[d])
                base = [rng.randint(-2, 2) for _ in range(n)]
                arow, brow = tuple(p * c for c in base), tuple(-q * c for c in base)
                seen["near"] += 1
            else:
                arow = tuple(rng.randint(-4, 4) for _ in range(n))
                brow = tuple(rng.randint(-4, 4) for _ in range(n))
            levels.append((arow, brow, d))
        got = term_mins(exps, levels)
        assert got == naive_term_mins(exps, levels), (exps, levels)
        seen["one"] += count == 1
        seen["tie"] += len(got[0]) > 1
    assert min(seen.values()) > 20, seen


def test_term_mins_compares_sqrt_parts_exactly():
    # 1 + 0*sqrt(2) against 0 + 1*sqrt(2): sqrt(2) > 1, so the first is smaller;
    # 3 - 2*sqrt(2) (about 0.17) against 0: the first is larger.
    assert term_mins([(1, 0), (0, 1)], [((1, 0), (0, 1), 2)]) == ([0], ((1, 0),))
    assert term_mins([(1,), (0,)], [((3,), (-2,), 2)]) == ([1], ((0, 0),))
    # equal at level 1, decided at level 2
    levels = [((1, 1), (0, 0), 3), ((0, -1), (0, 0), 3)]
    assert term_mins([(1, 0), (0, 1)], levels) == ([1], ((1, 0), (-1, 0)))


def test_overflow_detection():
    with pytest.raises(OverflowError):
        mul_terms([(2**61,)], [1], [(2**61,)], [1], 0)
    assert mul_terms([(2**61,)], [1], [(2**61 - 1,)], [1], 0) == {(EXP_LIMIT - 1,): 1}
    assert ratfunc.EXP_LIMIT is EXP_LIMIT
    with pytest.raises(OverflowError):
        Poly.make(ratfunc.QQ, 1, {(EXP_LIMIT,): 1})


def test_backend_reports_a_name():
    assert backend() == "pure"


def test_mul_terms_empty():
    assert mul_terms([], [], [(0,)], [1], 0) == {}
    assert mul_terms([(0,)], [1], [], [], 5) == {}


def test_cancellation_drops_terms():
    # (1 + x) * (1 - x) = 1 - x^2: the cross terms cancel
    out = mul_terms([(0,), (1,)], [1, 1], [(0,), (1,)], [1, -1], 0)
    assert out == {(0,): 1, (2,): -1}
    # 2 * 3 = 6 = 1 mod 5
    assert mul_terms([(0,)], [2], [(0,)], [3], 5) == {(0,): 1}
    # (1 + x) * (4 + x) = 4 + 5x + x^2 = 4 + x^2 mod 5
    assert mul_terms([(0,), (1,)], [1, 1], [(0,), (1,)], [4, 1], 5) == {(0,): 4, (2,): 1}
