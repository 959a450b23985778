"""The benchmark's traced self-check, run in process on small seeded inputs.

`perfbench/run.py --trace 1` fails when a function it lists in
`EXPECTED_NONZERO` is never reached, or when two traced rounds make
different call counts.  Both happen after refactors that are correct: a
subclass override that the name-based tracer does not wrap, or a per-place
cache that the first round fills.  This test builds the `evaluate` and
`replace` workloads (seed 1) from `perfbench/workloads.py` and
`perfbench/ops.py`, installs `perfbench/tracer.Tracer`, runs the set-up and
two rounds, and applies the same two checks.  The `cli` case runs every job
of `tests/jobs` and the `cli` workload's seeded jobs (seed 1) in process
through `placeforge.cli.main` and checks that every name the self-check
expects on `cli` is reached.  A last case runs `replace` rounds and checks
that group values stay integer rows through them: no Fraction is built.
Nothing under `perfbench/` is changed.
"""

import json
import pathlib
from fractions import Fraction

import pytest

import placeforge as pf
# `placeforge` imports `approx` on first use; import it here, before any
# tracer is installed.  A module first imported while a tracer is installed
# binds the wrapped functions it imports by name (approx binds
# `order_embedding_check`), `Tracer.uninstall` does not restore that binding,
# and a later case would count into the old tracer and find the name unreached.
import placeforge.approx  # noqa: F401

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
JOBS = sorted((pathlib.Path(__file__).resolve().parent / "jobs").glob("*.json"))


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


def test_cli_jobs_reach_every_expected_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer as tracing
    import workloads

    from placeforge import cli

    paths = list(JOBS)
    for i, job in enumerate(workloads.cli_jobs(pf, 1)):
        path = tmp_path / f"seeded-{i}.json"
        path.write_text(json.dumps(job))
        paths.append(path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path in paths:
            tracer.root("job")
            # cli.main read after install, so the traced wrapper runs
            assert cli.main(["--spec", str(path)]) == 0, path.name
    finally:
        tracer.uninstall()
    calls = tracer.snapshot()
    assert [name for name in run.EXPECTED_NONZERO["cli"] if not calls[name]] == []


@pytest.mark.parametrize("seed", [1, 2])
def test_replace_round_builds_no_fraction(seed, monkeypatch):
    """Decoding the places' weight literals builds Fractions; a round of
    density_witness and goodify on the decoded places builds none."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    import workloads

    bench = ops.WORKLOADS["replace"](pf, workloads.replace_inputs(pf, seed))
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    for _, fn, arg in bench.ops:
        fn(arg)
    monkeypatch.undo()
    assert built == []
