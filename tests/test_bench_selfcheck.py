"""The benchmark's traced self-check, run in process on small seeded inputs.

`perfbench/run.py --trace 1` fails when a function it lists in
`EXPECTED_NONZERO` is never reached, or when two traced rounds make
different call counts.  Both happen after refactors that are correct: a
subclass override that the name-based tracer does not wrap, or a per-place
cache that the first round fills.  This test builds the `evaluate` and
`replace` workloads (seed 1) from `perfbench/workloads.py` and
`perfbench/ops.py`, installs `perfbench/tracer.Tracer`, runs the set-up and
two rounds, and applies the same two checks.  Nothing under `perfbench/`
is changed.
"""

import pathlib

import pytest

import placeforge as pf

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["evaluate", "replace"])
def test_traced_rounds_reach_every_expected_name_with_equal_counts(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    import run
    import tracer as tracing
    import workloads

    spec = getattr(workloads, f"{workload}_inputs")(pf, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.root("setup")
        bench = ops.WORKLOADS[workload](pf, spec)
        setup = tracer.snapshot()
        rounds = []
        for _ in range(2):
            before = tracer.snapshot()
            for kind, fn, arg in bench.ops:
                tracer.root(kind)
                fn(arg)
            after = tracer.snapshot()
            rounds.append({name: after[name] - before[name] for name in after})
    finally:
        tracer.uninstall()

    assert rounds[0] == rounds[1]
    # the self-check counts the set-up and the first round together
    missing = [name for name in run.EXPECTED_NONZERO[workload]
               if not setup[name] + rounds[0][name]]
    assert missing == []
