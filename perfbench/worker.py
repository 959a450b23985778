"""One in-process workload, run in a fresh interpreter.

    python3 perfbench/worker.py SPEC MODE SECONDS OUT

With `src` on PYTHONPATH.  The worker imports placeforge, decodes SPEC
(the serialized operation list) and warms its places, then prints
"ready ELAPSED SCALED": the seconds the decoding took, speed probes
included, and its speed-scaled seconds without them (speed.py).  MODE
"setup" stops there; "run" repeats whole rounds of the operations for at
least SECONDS (and at least MIN_OPS operations), timing each one; "trace"
runs one untraced reference round and then traced rounds (see tracer.py).  Checks run after the clock stops; the summary goes to OUT
as JSON.
"""

import json
import pathlib
import resource
import statistics
import sys
from time import perf_counter

import speed

HERE = pathlib.Path(__file__).resolve().parent
MIN_OPS = 100


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]


def call(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # an operation that raises counts as failed
        return exc


def run_round(ops, outs):
    for i, (_, fn, arg) in enumerate(ops):
        outs[i] = call(fn, arg)


def scaled_round(ops, outs):
    """One timed round: (scaled seconds, raw seconds, scaled op durations).

    A speed probe follows every BLOCK_S of operations, and the block's
    durations are scaled by the probes around it (speed.py), so a change of
    machine speed within the round is tracked at that grain.
    """
    blocks, probes, pending = [], [], []
    last = len(ops) - 1
    for i, (_, fn, arg) in enumerate(ops):
        t = perf_counter()
        outs[i] = call(fn, arg)
        pending.append(perf_counter() - t)
        if sum(pending) >= speed.Clock.BLOCK_S or i == last:
            blocks.append(pending)
            probes.append(speed.probe())
            pending = []
    durations, scaled_s = [], 0.0
    for block, factor in zip(blocks, speed.block_factors(probes)):
        durations += [d * factor for d in block]
        scaled_s += sum(block) * factor
    return scaled_s, sum(map(sum, blocks)), durations


def failed_ops(pf, spec, bench, first, last=None):
    """Indices of operations that raised, failed a check, or changed output."""
    sys.path.insert(0, str(HERE.parent / "tests"))
    import checks

    bad = {i: repr(out) for i, out in enumerate(first) if isinstance(out, Exception)}
    if last is not None:
        for i, (a, b) in enumerate(zip(first, last)):
            if i not in bad and (isinstance(b, Exception)
                                 or bench.serialize(a) != bench.serialize(b)):
                bad[i] = "output differs between rounds"
    if spec["workload"] == "evaluate":
        index = {tuple(op): i for i, op in enumerate(spec["ops"])}
        for pi in range(len(spec["places"])):
            mine = [i for key, i in index.items() if key[1] == pi]
            if any(i in bad for i in mine):
                continue
            try:
                errors = checks.check_evaluate_place(pf, bench, spec, pi, first, index)
            except Exception as exc:
                errors = [(mine, f"check raised {exc!r}")]
            for idx, message in errors:
                for i in idx:
                    bad.setdefault(i, message)
    else:
        for i, (op, args, out) in enumerate(zip(spec["ops"], bench.inputs, first)):
            if i in bad:
                continue
            inputs = args[1:3] if op["api"] == "witness" else (args[1],)
            try:
                errors = checks.check_replace(pf, inputs, op["shape"], op["place"],
                                              json.loads(bench.serialize(out)))
            except Exception as exc:
                errors = [f"check raised {exc!r}"]
            if errors:
                bad[i] = "; ".join(errors)
    return bad


def timed(pf, spec, bench, seconds):
    """Whole rounds for at least `seconds`; per-round figures, then medians.

    Times are scaled to reference speed (speed.py).  Medians over rounds
    keep a burst of load that is shorter than half the run out of the
    figures.
    """
    ops = bench.ops
    first, last = [None] * len(ops), [None] * len(ops)
    round_s, raw_round_s, p50, p90 = [], [], [], []
    start = perf_counter()
    while True:
        scaled_s, raw_s, durations = scaled_round(ops, first if not round_s else last)
        round_s.append(scaled_s)
        raw_round_s.append(raw_s)
        durations.sort()
        p50.append(percentile(durations, 0.5))
        p90.append(percentile(durations, 0.9))
        if perf_counter() - start >= seconds and len(round_s) * len(ops) >= MIN_OPS:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds = len(round_s)
    bad = failed_ops(pf, spec, bench, first, last if rounds > 1 else None)
    done = len(ops) - len(bad)
    return {
        "attempted": rounds * len(ops),
        "failed": rounds * len(bad),
        "errors": sorted(set(bad.values()))[:20],
        "ops_per_s": done / statistics.median(round_s),
        "p50_ms": statistics.median(p50) * 1e3,
        "p90_ms": statistics.median(p90) * 1e3,
        "raw_ops_per_s": done / statistics.median(raw_round_s),
        "peak_rss_mb": peak_kb / 1024,
        "backend": pf.kernel_backend(),
    }


def traced(pf, spec, bench, seconds):
    import tracer as tracing

    reference = [None] * len(bench.ops)
    t = perf_counter()
    run_round(bench.ops, reference)
    untraced_round_s = perf_counter() - t
    reference = [bench.serialize(out) for out in reference]

    tracer = tracing.Tracer()
    tracer.install()
    tracer.root("setup")
    start = perf_counter()
    fresh = type(bench)(pf, spec)
    setup_counts, setup_self = tracer.snapshot(), dict(tracer.self_s)
    rounds, counts, first, iterations = 0, [], None, 0
    rounds_start = perf_counter()
    while True:
        before = tracer.snapshot()
        outs = []
        for kind, fn, arg in fresh.ops:
            tracer.root(kind)
            outs.append(call(fn, arg))
        after = tracer.snapshot()
        counts.append({k: after[k] - before[k] for k in after})
        if first is None:
            first = outs
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    traced_round_s = (perf_counter() - rounds_start) / rounds
    tracer.uninstall()

    problems = []
    for i, out in enumerate(first):
        if isinstance(out, Exception):
            problems.append(f"traced op {i} raised {out!r}")
        elif fresh.serialize(out) != reference[i]:
            problems.append(f"traced output of op {i} differs from the untraced one")
        else:
            iterations += fresh.iterations(out)
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced rounds")
    layer = {}
    for name in tracer.calls:
        total_self = tracer.self_s[name] - setup_self[name]
        layer[f"{name}.calls"] = setup_counts[name] + counts[0][name]
        layer[f"{name}.self_ms"] = (setup_self[name] + total_self / rounds) * 1e3
    layer["ordgroup.QuadScalar.created"] = (setup_counts["ordgroup.QuadScalar.created"]
                                            + counts[0]["ordgroup.QuadScalar.created"])
    layer["lattice.max_entry_bits"] = tracer.counters["lattice.max_entry_bits"]
    layer["approx.refine_iterations"] = iterations
    return {
        "attempted": len(fresh.ops),
        "failed": sum(1 for out in first if isinstance(out, Exception)),
        "rounds": rounds,
        "untraced_round_s": untraced_round_s,
        "traced_round_s": traced_round_s,
        "problems": problems,
        "layer": layer,
        "spans": tracer.spans(),
        "backend": pf.kernel_backend(),
    }


def main(argv):
    spec_path, mode, seconds, out_path = argv[0], argv[1], float(argv[2]), argv[3]
    import placeforge as pf

    import ops

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    clock = speed.Clock()
    bench = ops.WORKLOADS[spec["workload"]](pf, spec, clock.tick)
    elapsed_s, scaled_s = clock.close()
    sys.stdout.write(f"ready {elapsed_s!r} {scaled_s!r}\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0
    result = timed(pf, spec, bench, seconds) if mode == "run" else traced(pf, spec, bench, seconds)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
