"""The compiled and pure kernels must be observationally identical.

The compiled module comes from the `speedups` fixture (conftest.py), which
builds the committed C source when no compiled module is installed.
"""

import random

import pytest

from placeforge._kernels import _fallback, backend


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


def test_mul_terms_agreement_across_envelope(speedups):
    rng = random.Random(101)
    for _ in range(400):
        n = rng.randint(1, 6)
        p = rng.choice([0, 5, 1_000_003, 2**61 - 1])
        emax = rng.choice([3, 6, 20000])  # 20000 leaves the packed fast path
        cmax = rng.choice([10, 10**30])
        ea, ca = rand_terms(rng, n, rng.randint(1, 8), emax, cmax, p)
        eb, cb = rand_terms(rng, n, rng.randint(1, 8), emax, cmax, p)
        assert _fallback.mul_terms(ea, ca, eb, cb, p) == speedups.mul_terms(ea, ca, eb, cb, p)


def test_term_mins_agreement_across_envelope(speedups):
    rng = random.Random(102)
    for _ in range(400):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        big = rng.random() < 0.3
        emax = 5000 if big else 10
        wmax = 2**35 if big else 50
        exps = [tuple(rng.randint(0, emax) for _ in range(n)) for _ in range(m)]
        levels = []
        for _ in range(rng.randint(1, 3)):
            arow = tuple(rng.randint(-wmax, wmax) for _ in range(n))
            brow = tuple(rng.randint(-wmax, wmax) for _ in range(n))
            levels.append((arow, brow, rng.choice([2, 3, 5, 7])))
        assert _fallback.term_mins(exps, levels) == speedups.term_mins(exps, levels)


def test_overflow_detection():
    with pytest.raises(OverflowError):
        _fallback.mul_terms([(2**61,)], [1], [(2**61,)], [1], 0)


def test_compiled_edge_cases(speedups):
    assert speedups.backend() == "compiled"
    with pytest.raises(OverflowError):
        speedups.mul_terms([(2**61,)], [1], [(2**61,)], [1], 0)
    assert speedups.mul_terms([], [], [(0,)], [1], 0) == {}


def test_backend_reports_a_name():
    assert backend() in ("pure", "compiled")


def test_mul_terms_empty():
    assert _fallback.mul_terms([], [], [(0,)], [1], 0) == {}


def test_cancellation_drops_terms():
    # (1 + x) * (1 - x) = 1 - x^2: the cross terms cancel
    out = _fallback.mul_terms([(0,), (1,)], [1, 1], [(0,), (1,)], [1, -1], 0)
    assert out == {(0,): 1, (2,): -1}
    # 2 * 3 = 6 = 1 mod 5
    assert _fallback.mul_terms([(0,)], [2], [(0,)], [3], 5) == {(0,): 1}
