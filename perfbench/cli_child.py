"""A traced `placeforge` job in a fresh interpreter.

    python3 perfbench/cli_child.py OUT [JOB]

With `src` on PYTHONPATH.  Times `import placeforge.cli` and then
`import jsonschema` (the import the CLI makes lazily when it validates a
job spec).  With a JOB file it installs the tracer and calls
`placeforge.cli.main(["--spec", JOB])`, so stdout carries the report exactly
as the CLI prints it.  OUT receives the import times and the trace.
"""

import sys
from time import perf_counter

start = perf_counter()
import placeforge.cli  # noqa: E402

mid = perf_counter()
import jsonschema  # noqa: E402, F401

end = perf_counter()


def main(argv):
    import json

    out_path = argv[0]
    result = {"import_ms": (mid - start) * 1e3, "jsonschema_import_ms": (end - mid) * 1e3}
    code = 0
    if len(argv) > 1:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.root("job")
        code = placeforge.cli.main(["--spec", argv[1]])
        tracer.uninstall()
        result["calls"] = tracer.snapshot()
        result["self_ms"] = {k: v * 1e3 for k, v in tracer.self_s.items()}
        result["max_entry_bits"] = tracer.counters["lattice.max_entry_bits"]
        result["spans"] = tracer.spans()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
