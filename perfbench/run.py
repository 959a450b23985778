#!/usr/bin/env python3
"""placeforge benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload evaluate|replace|cli --seed N \
        --seconds S --trace 0|1 [--compiled]

Run from a placeforge checkout (it needs `src/` and `tests/`).  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, scaled to reference
machine speed by speed.py; the per-layer ones with --trace 1).  The line
before it names the kernel backend that ran; with --trace 0 the line before
that gives the unscaled ops_per_s and setup_s.
--compiled builds the committed `_speedups.c` into a temporary copy of the
package and runs against that copy.  See perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from statistics import median
from time import perf_counter

import speed
from worker import percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

SETUP_SAMPLES = 4          # evaluate/replace: fresh processes timed up to "ready"
CLI_SETUP_PER_ROUND = 3    # cli: fresh import processes timed before each round
CLI_MIN_OPS = 100          # every run has >= 100 operations, so p90 has >= 10 beyond it
IMPORT_SAMPLES = 5         # traced evaluate/replace: fresh-interpreter import timings
CHILD_TIMEOUT_S = 150

END_TO_END = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Traced functions whose calls must be nonzero on each workload; a zero
# shows a wrapper patched into the wrong namespace.  lattice.reduce_mod_lattice
# (used only by Place.section) and the layers a workload never enters
# (approx on evaluate, cli off cli) are left out.
_CORE = [
    "kernels.term_mins", "kernels.mul_terms", "ordgroup.combine", "ordgroup.GroupElem.sign",
    "ordgroup.rational_rank", "ordgroup.convex_rank", "ordgroup.is_squarefree",
    "lattice.hnf_transform", "lattice.row_kernel", "lattice.int_rank", "lattice.express_int",
    "lattice.clear_denominators", "ratfunc.RatFunc.mul", "ratfunc.RatFunc.make",
    "ratfunc.Poly.make", "parsing.parse_expr", "places.MonomialPlace.value",
    "places.MonomialPlace.residue", "places.Place.invariants", "places.place_from_json",
]
EXPECTED_NONZERO = {
    "evaluate": _CORE + ["places.CompositePlace.value", "places.CompositePlace.residue"],
    "replace": _CORE + [
        "places.CompositePlace.value", "ordgroup.order_embedding_check",
        "parsing.format_ratfunc", "approx.signature", "approx.perturb_weights",
        "approx.goodify", "approx.density_witness",
    ],
    "cli": _CORE + [
        "places.CompositePlace.value", "places.CompositePlace.residue",
        "ordgroup.order_embedding_check", "parsing.format_ratfunc", "approx.signature",
        "approx.perturb_weights", "approx.goodify", "approx.density_witness",
        "cli.main", "cli.render_report", "cli.schema_validate",
    ],
}


class BenchError(Exception):
    pass


def time_to_ready(cmd, env):
    """Start a worker; return (seconds until it printed "ready", process,
    elapsed and scaled seconds of its decoding as the worker timed them)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    line = proc.stdout.readline().split()
    ready = perf_counter() - start
    if len(line) != 3 or line[0] != b"ready":
        proc.wait(CHILD_TIMEOUT_S)
        raise BenchError(f"worker did not get ready: {' '.join(cmd[1:3])}")
    return ready, proc, float(line[1]), float(line[2])


def finish(proc):
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(CHILD_TIMEOUT_S) != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def run_child(cmd, env, log):
    """Run a process to completion; return (seconds, exit code, stdout bytes)."""
    start = perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start, done.returncode, done.stdout


class ScaledChildren:
    """Children timed between two windows of speed probes (speed.py).

    The probes run while no child does; a child's time is scaled by the
    median of the windows before and after it.
    """

    def __init__(self, env, log):
        self.env, self.log = env, log
        self.probes = speed.window()
        self.raw = []

    def factor(self):
        """Scale factor for the child that has just ended."""
        after = speed.window()
        factor = speed.scale(self.probes + after)
        self.probes = after
        return factor

    def run(self, cmd):
        """(scaled seconds, exit code, stdout bytes); the raw time goes to self.raw."""
        seconds, code, out = run_child(cmd, self.env, self.log)
        self.raw.append(seconds)
        return seconds * self.factor(), code, out

    def ready(self, cmd):
        """(scaled seconds until the worker printed "ready", raw seconds).

        The worker scales its decoding itself, at a finer grain; the rest
        (interpreter start, imports) is scaled by the probes around it.
        """
        ready, proc, decode_s, decode_scaled = time_to_ready(cmd, self.env)
        finish(proc)
        return (ready - decode_s) * self.factor() + decode_scaled, ready


def import_times(env, workdir, log):
    """Fresh-interpreter import times of placeforge.cli and jsonschema (ms)."""
    samples = []
    for i in range(IMPORT_SAMPLES):
        out = workdir / f"imports-{i}.json"
        run_child([sys.executable, str(HERE / "cli_child.py"), str(out)], env, log)
        samples.append(json.loads(out.read_text()))
    return (median(s["import_ms"] for s in samples),
            median(s["jsonschema_import_ms"] for s in samples))


# ---------------------------------------------------------------------------
# evaluate / replace: one worker process per sample


def inprocess(pf, workload, args, env, workdir, log):
    import workloads

    make = workloads.evaluate_inputs if workload == "evaluate" else workloads.replace_inputs
    spec_path = workdir / "spec.json"
    workloads.dump(make(pf, args.seed), spec_path)
    worker = [sys.executable, str(HERE / "worker.py"), str(spec_path)]
    out_path = workdir / "result.json"

    if args.trace:
        proc = time_to_ready(worker + ["trace", str(args.seconds), str(out_path)], env)[1]
        finish(proc)
        result = json.loads(out_path.read_text())
        layer = result["layer"]
        layer["cli.import_ms"], layer["cli.jsonschema_import_ms"] = import_times(env, workdir, log)
        write_trace(workload, args.seed, result["spans"], rounds=result["rounds"],
                    untraced_round_s=result["untraced_round_s"],
                    traced_round_s=result["traced_round_s"])
        problems = result["problems"] + zero_counters(workload, layer)
        return result["attempted"], result["failed"], problems, layer, None, result["backend"]

    # set-up samples on both sides of the timed run, so one burst of
    # load from elsewhere on the machine cannot move their median
    children = ScaledChildren(env, log)
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        if i == SETUP_SAMPLES // 2:
            proc = time_to_ready(worker + ["run", str(args.seconds), str(out_path)], env)[1]
            finish(proc)
            children.probes = speed.window()
        scaled, raw = children.ready(worker + ["setup", "0", "-"])
        setups.append(scaled)
        raw_setups.append(raw)
    result = json.loads(out_path.read_text())
    for message in result["errors"]:
        print(f"failed: {message}", file=sys.stderr)
    metrics = {
        "ops_per_s": result["ops_per_s"],
        "op_ms_p50": result["p50_ms"],
        "op_ms_p90": result["p90_ms"],
        "setup_s": median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    unscaled = {"ops_per_s": result["raw_ops_per_s"], "setup_s": median(raw_setups)}
    return result["attempted"], result["failed"], [], metrics, unscaled, result["backend"]


# ---------------------------------------------------------------------------
# cli: cold placeforge processes


def cli_jobs(pf, seed, workdir):
    """(name, path, spec, golden bytes or None), golden and seeded interleaved."""
    import workloads

    golden = []
    for path in sorted((ROOT / "tests" / "jobs").glob("*.json")):
        expected = (ROOT / "tests" / "golden" / path.name).read_bytes()
        golden.append((path.stem, path, json.loads(path.read_text()), expected))
    seeded = []
    (workdir / "jobs").mkdir()
    for i, spec in enumerate(workloads.cli_jobs(pf, seed)):
        path = workdir / "jobs" / f"seeded-{i:02d}-{spec['command']}.json"
        workloads.dump(spec, path)
        seeded.append((path.stem, path, spec, None))
    jobs = []
    for k in range(max(len(golden), len(seeded))):
        jobs += golden[k:k + 1] + seeded[k:k + 1]
    return jobs


def cli_job_errors(pf, job, code, out):
    import checks

    name, _, spec, golden = job
    if code != 0:
        return [f"{name}: exit code {code}"]
    if golden is not None:
        return [] if out == golden else [f"{name}: report differs from tests/golden"]
    try:
        errors = checks.check_cli_report(pf, spec, json.loads(out))
    except Exception as exc:  # a malformed report fails its job
        errors = [f"check raised {exc!r}"]
    return [f"{name}: {e}" for e in errors]


def cli(pf, args, env, workdir, log):
    jobs = cli_jobs(pf, args.seed, workdir)
    command = [sys.executable, "-m", "placeforge.cli", "--spec"]
    if args.trace:
        return cli_traced(pf, args.seed, jobs, command, env, workdir, log)

    importer = [sys.executable, "-c", "import placeforge.cli, jsonschema"]
    setups, durations, round_s = [], [], []
    raw_setups, raw_round_s = [], []
    outputs = [[] for _ in jobs]
    children = ScaledChildren(env, log)
    start = perf_counter()
    while True:
        for _ in range(CLI_SETUP_PER_ROUND):
            setups.append(children.run(importer)[0])
        raw_setups += children.raw[-CLI_SETUP_PER_ROUND:]
        round_s.append(0.0)
        for k, job in enumerate(jobs):
            seconds, code, out = children.run(command + [str(job[1])])
            durations.append(seconds)
            round_s[-1] += seconds
            outputs[k].append((code, out))
        raw_round_s.append(sum(children.raw[-len(jobs):]))
        if perf_counter() - start >= args.seconds and len(round_s) * len(jobs) >= CLI_MIN_OPS:
            break
    rounds = len(round_s)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    bad = 0
    for job, runs in zip(jobs, outputs):
        code, out = runs[0]
        errors = cli_job_errors(pf, job, code, out)
        if any(r != runs[0] for r in runs[1:]):
            errors.append(f"{job[0]}: repeats differ")
        for message in errors:
            print(f"failed: {message}", file=sys.stderr)
        bad += bool(errors)
    attempted = rounds * len(jobs)
    failed = rounds * bad
    metrics = {
        "ops_per_s": (len(jobs) - bad) / median(round_s),
        "op_ms_p50": percentile(sorted(durations), 0.5) * 1e3,
        "op_ms_p90": percentile(sorted(durations), 0.9) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    unscaled = {"ops_per_s": (len(jobs) - bad) / median(raw_round_s),
                "setup_s": median(raw_setups)}
    return attempted, failed, [], metrics, unscaled, pf.kernel_backend()


def cli_traced(pf, seed, jobs, command, env, workdir, log):
    import tracer as tracing

    names = [tracing.metric_base(f) for f in tracing.all_functions()]
    calls = dict.fromkeys(names + ["ordgroup.QuadScalar.created"], 0)
    self_ms = dict.fromkeys(names, 0.0)
    imports, schema_imports, spans = [], [], {}
    bits, iterations, failed, problems = 0, 0, 0, []
    untraced_s = traced_s = 0.0
    for job in jobs:
        name, path = job[0], str(job[1])
        seconds, code, reference = run_child(command + [path], env, log)
        untraced_s += seconds
        out_path = workdir / f"trace-{name}.json"
        seconds, traced_code, traced = run_child(
            [sys.executable, str(HERE / "cli_child.py"), str(out_path), path], env, log)
        traced_s += seconds
        if (traced_code, traced) != (code, reference):
            problems.append(f"{name}: traced report differs from the untraced one")
        errors = cli_job_errors(pf, job, code, reference)
        failed += bool(errors)
        result = json.loads(out_path.read_text())
        imports.append(result["import_ms"])
        schema_imports.append(result["jsonschema_import_ms"])
        for key, value in result["calls"].items():
            calls[key] += value
        for key, value in result["self_ms"].items():
            self_ms[key] += value
        bits = max(bits, result["max_entry_bits"])
        for span in result["spans"]:
            acc = spans.setdefault((span["parent"], span["name"]), [0, 0.0, 0.0])
            acc[0] += span["calls"]
            acc[1] += span["total_ms"]
            acc[2] += span["self_ms"]
        if code == 0:
            iterations += json.loads(reference).get("iterations", 0)
    layer = {}
    for name in names:
        layer[f"{name}.calls"] = calls[name]
        layer[f"{name}.self_ms"] = self_ms[name]
    layer["ordgroup.QuadScalar.created"] = calls["ordgroup.QuadScalar.created"]
    layer["lattice.max_entry_bits"] = bits
    layer["approx.refine_iterations"] = iterations
    layer["cli.import_ms"] = median(imports)
    layer["cli.jsonschema_import_ms"] = median(schema_imports)
    write_trace("cli", seed, [
        {"parent": p, "name": n, "calls": c, "total_ms": t, "self_ms": s}
        for (p, n), (c, t, s) in sorted(spans.items())],
        rounds=1, untraced_round_s=untraced_s, traced_round_s=traced_s)
    problems += zero_counters("cli", layer)
    return len(jobs), failed, problems, layer, None, pf.kernel_backend()


# ---------------------------------------------------------------------------


def zero_counters(workload, layer):
    return [f"{name}.calls is 0 on {workload}" for name in EXPECTED_NONZERO[workload]
            if not layer[f"{name}.calls"]]


def write_trace(workload, seed, spans, **info):
    """Keep the run's spans, aggregated per (parent, function), in perfbench/_runs.

    They cover one traced set-up and info["rounds"] traced rounds.
    """
    path = RUNS / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(workload=workload, seed=seed, **info, spans=spans), fh, indent=1)


def build_compiled(workdir):
    """Copy src/placeforge and compile _speedups.c into the copy."""
    dest = workdir / "compiled"
    shutil.copytree(ROOT / "src" / "placeforge", dest / "placeforge")
    kernels = dest / "placeforge" / "_kernels"
    target = kernels / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ["gcc", "-shared", "-fPIC", "-O2", f"-I{sysconfig.get_paths()['include']}",
           str(kernels / "_speedups.c"), "-o", str(target)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600)
    if done.returncode != 0:
        raise BenchError("building _speedups.c failed:\n" + done.stdout.decode()[-2000:])
    return dest


def layer_units():
    import tracer as tracing

    units = {}
    for f in tracing.all_functions():
        base = tracing.metric_base(f)
        units[f"{base}.calls"] = "count"
        units[f"{base}.self_ms"] = "ms"
    units.update(tracing.EXTRA)
    return units


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "replace", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compiled", action="store_true",
                        help="run against the committed _speedups.c, built into a temp copy")
    args = parser.parse_args()

    for need in ("src/placeforge/__init__.py", "tests/oracles.py", "tests/jobs", "tests/golden"):
        if not (ROOT / need).exists():
            print(f"perfbench: {need} not found; run from a placeforge checkout",
                  file=sys.stderr)
            return 2
    RUNS.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS))
    try:
        src = build_compiled(workdir) if args.compiled else ROOT / "src"
        sys.path[:0] = [str(HERE), str(src), str(ROOT / "tests")]
        import placeforge as pf

        env = dict(os.environ, PYTHONPATH=str(src))
        with open(workdir / "stderr.log", "w", encoding="utf-8") as log:
            if args.workload == "cli":
                attempted, failed, problems, metrics, unscaled, backend = cli(
                    pf, args, env, workdir, log)
            else:
                attempted, failed, problems, metrics, unscaled, backend = inprocess(
                    pf, args.workload, args, env, workdir, log)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in problems:
        print(f"self-check: {message}", file=sys.stderr)
    units = layer_units() if args.trace else END_TO_END
    if unscaled:
        print("unscaled: " + json.dumps(unscaled))
    print(f"kernel_backend: {backend}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
