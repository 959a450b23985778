"""Machine-speed probe: the time metrics in reference-speed units.

The sandbox this benchmark was built in runs a fixed pure-Python loop up
to 1.6x slower from one minute to the next, in CPU time as well as in wall
time, so raw timings of the same code drift by more than any useful bound.
Every timed stretch of work is therefore followed (or, for a child process,
surrounded) by `probe()`: a fixed piece of pure-Python work that uses no
placeforge code, timed with the garbage collector off.  A measured time t
is reported as t * REF_S / probe time, the time the work would have taken
had the probe taken REF_S.  A change to placeforge moves the work but not
the probe, so it moves the scaled figure as it moves the raw one; a slower
or faster machine moves both and cancels out.  The unscaled figures are
printed beside the scaled ones.
"""

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

# Probe time that counts as speed 1 (its typical time on a 2-vCPU sandbox
# with Python 3.11); it fixes the unit of the scaled figures.
REF_S = 0.0008

WINDOW = 10  # probes around a child process


def _work():
    """Fraction arithmetic, tuple-keyed dicts and small sorts, as placeforge does."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i)
        key = (i % 17, i % 5, i % 3)
        table[key] = table.get(key, 0) + i
        row = tuple(sorted([(i * 7919) % 101, (i * 31) % 7, i % 11]))
        table[row] = min(table.get(row, 10**9), i)
    return acc, len(table)


def probe():
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    _work()
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def window():
    """WINDOW probe times, taken one after another."""
    return [probe() for _ in range(WINDOW)]


def scale(probes):
    """Factor that turns a time measured next to `probes` into reference units."""
    return REF_S / median(probes)


def block_factors(probes, reach=2):
    """Factors for blocks of work each followed by one probe.

    A single probe is noisy, so block k is scaled by the median of its probe
    and up to `reach` probes on either side.
    """
    return [scale(probes[max(0, k - reach):k + reach + 1]) for k in range(len(probes))]


class Clock:
    """Scaled time of work that calls tick() between its steps.

    A probe runs whenever BLOCK_S of work has passed since the last one.
    """

    BLOCK_S = 0.05

    def __init__(self):
        self.blocks, self.probes = [], []
        self.start = self.mark = perf_counter()

    def tick(self, force=False):
        now = perf_counter()
        if force or now - self.mark >= self.BLOCK_S:
            self.blocks.append(now - self.mark)
            self.probes.append(probe())
            self.mark = perf_counter()

    def close(self):
        """(seconds since the start, probes included; scaled seconds of the work)."""
        self.tick(force=True)
        factors = block_factors(self.probes)
        return perf_counter() - self.start, sum(b * f for b, f in zip(self.blocks, factors))
