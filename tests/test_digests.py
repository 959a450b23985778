"""Byte identity of the benchmark's seeded outputs, as SHA-256 digests.

The eleven golden CLI jobs pin their reports byte for byte; this test pins
the rest of what `perfbench` runs.  `tests/golden/digests.json` holds:

- for the `evaluate` and `replace` workloads, seeds 1-3, one digest of the
  generated inputs (`json.dumps(spec, sort_keys=True)`) and one of the
  outputs of one round, each serialized by the workload's `serialize` (an
  exception counts as its type and message);
- for the `cli` workload's seeded jobs, seeds 1-2, one digest of the job
  specs and one per job over the exit code and stdout of
  `placeforge.cli.main(["--spec", path])`.

The inputs are drawn through the library (`replace_inputs` redraws an
infeasible input), so each failure says whether the inputs or the outputs
moved.  The workloads are read from `perfbench/workloads.py` and
`perfbench/ops.py`, as `tests/test_bench_selfcheck.py` reads them.

A change meant to move outputs rewrites the file with
`python tests/test_digests.py`, and says which digests moved and why.  The
script prints every key whose digest changes (workload, seed, and `inputs`
or `outputs`; or `cli`, seed, and `inputs` or the job name) before it
writes the file.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
SEEDS = {"evaluate": (1, 2, 3), "replace": (1, 2, 3), "cli": (1, 2)}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import ops
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return ops, workloads


def workload_digests(workload, seed):
    """{"inputs": ..., "outputs": ...} of one in-process workload and seed."""
    import placeforge as pf

    ops, workloads = perfbench_modules()
    spec = getattr(workloads, f"{workload}_inputs")(pf, seed)
    bench = ops.WORKLOADS[workload](pf, spec)
    outputs = []
    for _, fn, arg in bench.ops:
        try:
            outputs.append(bench.serialize(fn(arg)))
        except Exception as exc:
            outputs.append(f"{type(exc).__name__}: {exc}")
    return {"inputs": sha(json.dumps(spec, sort_keys=True)), "outputs": sha("\n".join(outputs))}


def cli_digests(seed):
    """{"inputs": ..., "jobs": {name: ...}} of the seeded CLI jobs of one seed."""
    import placeforge as pf
    from placeforge import cli

    _, workloads = perfbench_modules()
    jobs = workloads.cli_jobs(pf, seed)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, job in enumerate(jobs):
            name = f"{i:02d}-{job['command']}"
            path = pathlib.Path(tmp) / f"{name}.json"
            workloads.dump(job, path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--spec", str(path)])
            digests[name] = sha(f"{code}\n{out.getvalue()}")
    return {"inputs": sha(json.dumps(jobs, sort_keys=True)), "jobs": digests}


def all_digests():
    out = {w: {str(s): workload_digests(w, s) for s in SEEDS[w]} for w in ("evaluate", "replace")}
    out["cli"] = {str(s): cli_digests(s) for s in SEEDS["cli"]}
    return out


def flatten(tree, prefix=()):
    """(key path, digest) of every leaf of a digest tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from flatten(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def stored(workload, seed):
    return json.loads(DIGESTS.read_text())[workload][str(seed)]


@pytest.mark.parametrize("workload,seed", [(w, s) for w in ("evaluate", "replace") for s in SEEDS[w]])
def test_workload_outputs_are_byte_identical(workload, seed):
    want, got = stored(workload, seed), workload_digests(workload, seed)
    assert got["inputs"] == want["inputs"], f"{workload} seed {seed}: the generated inputs moved"
    assert got["outputs"] == want["outputs"], f"{workload} seed {seed}: the outputs moved"


@pytest.mark.parametrize("seed", SEEDS["cli"])
def test_seeded_cli_jobs_are_byte_identical(seed):
    want, got = stored("cli", seed), cli_digests(seed)
    assert got["inputs"] == want["inputs"], f"cli seed {seed}: the generated job specs moved"
    moved = [name for name, digest in got["jobs"].items() if want["jobs"][name] != digest]
    assert moved == [], f"cli seed {seed}: the outputs of jobs {moved} moved"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    digests = all_digests()
    old = dict(flatten(json.loads(DIGESTS.read_text()))) if DIGESTS.exists() else {}
    new = dict(flatten(digests))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print("moved:", " ".join(key))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
