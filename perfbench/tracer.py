"""Per-layer tracing by wrapping placeforge's public functions from outside.

`install` replaces every traced function with a wrapper in every module
namespace (and class) that holds it, so calls through `places.term_mins`,
`ratfunc.mul_terms`, `approx.combine` or `placeforge.goodify` are all seen.
A wrapper records a span: its duration, and the time of the traced calls
made inside it, so self time is the span minus its child spans.  Spans are
aggregated in memory per (parent, function) and written out when the run
ends; nothing inside `src/` changes.
"""

import sys
from time import perf_counter

# layer -> traced functions (module-level names, or Class.method)
FUNCTIONS = {
    "kernels": ("_kernels.term_mins", "_kernels.mul_terms"),
    "ordgroup": (
        "ordgroup.combine", "ordgroup.GroupElem.sign", "ordgroup.rational_rank",
        "ordgroup.convex_rank", "ordgroup.order_embedding_check", "ordgroup.is_squarefree",
    ),
    "lattice": (
        "lattice.hnf_transform", "lattice.row_kernel", "lattice.int_rank",
        "lattice.express_int", "lattice.reduce_mod_lattice", "lattice.clear_denominators",
    ),
    "ratfunc": ("ratfunc.RatFunc.__mul__", "ratfunc.RatFunc.make", "ratfunc.Poly.make"),
    "parsing": ("parsing.parse_expr", "parsing.format_ratfunc"),
    "places": (
        "places.MonomialPlace.value", "places.CompositePlace.value",
        "places.MonomialPlace.residue", "places.CompositePlace.residue",
        "places.Place.invariants", "places.place_from_json",
    ),
    "approx": ("approx.signature", "approx.perturb_weights", "approx.goodify",
               "approx.density_witness"),
    "cli": ("cli.main", "cli.render_report", "jsonschema.validate"),
}

# counters kept besides calls and self time
EXTRA = {
    "ordgroup.QuadScalar.created": "count",
    "lattice.max_entry_bits": "bits",
    "approx.refine_iterations": "count",
    "cli.import_ms": "ms",
    "cli.jsonschema_import_ms": "ms",
}

RENAME = {"_kernels.": "kernels.", "ratfunc.RatFunc.__mul__": "ratfunc.RatFunc.mul",
          "jsonschema.validate": "cli.schema_validate"}


def metric_base(qualname):
    """Metric prefix of a traced function (names may not start with '_')."""
    for old, new in RENAME.items():
        if qualname.startswith(old):
            return new + qualname[len(old):]
    return qualname


def all_functions():
    return [f for layer in FUNCTIONS.values() for f in layer]


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.edges = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counters = {"ordgroup.QuadScalar.created": 0, "lattice.max_entry_bits": 0}
        self._stack = [["root", 0.0]]
        self._undo = []

    # -- spans -------------------------------------------------------------

    def root(self, name):
        """Name the span that encloses the next calls (one per operation)."""
        self._stack = [[name, 0.0]]

    def _wrap(self, name, fn, after=None):
        calls, self_s, edges = self.calls, self.self_s, self.edges
        calls[name] = 0
        self_s[name] = 0.0
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                own = dur - frame[1]
                calls[name] += 1
                self_s[name] += own
                parent = stack[-1]
                parent[1] += dur
                edge = edges.setdefault((parent[0], name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dur
                edge[2] += own
            if after is not None:
                # bookkeeping outside the span, kept out of the parent's self time
                t = perf_counter()
                after(out)
                parent[1] += perf_counter() - t
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _track_bits(self, out):
        h, u, _ = out
        bits = self.counters["lattice.max_entry_bits"]
        for mat in (h, u):
            for row in mat:
                for x in row:
                    b = abs(x).bit_length()
                    if b > bits:
                        bits = b
        self.counters["lattice.max_entry_bits"] = bits

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        import jsonschema
        from placeforge import cli, ordgroup  # noqa: F401  (cli: its names are traced too)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "placeforge" or n.startswith("placeforge."))]
        for qualname in all_functions():
            mod_name, _, rest = qualname.partition(".")
            if mod_name == "jsonschema":
                module = jsonschema
            else:
                module = importlib.import_module(f"placeforge.{mod_name}")
            name = metric_base(qualname)
            if "." in rest:
                cls_name, attr = rest.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn)
                self._set(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            fn = getattr(module, rest)
            after = self._track_bits if qualname == "lattice.hnf_transform" else None
            wrapped = self._wrap(name, fn, after)
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)

        post_init = ordgroup.QuadScalar.__dict__["__post_init__"]
        counters = self.counters

        def counted_post_init(scalar):
            counters["ordgroup.QuadScalar.created"] += 1
            post_init(scalar)

        self._set(ordgroup.QuadScalar, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def snapshot(self):
        counts = dict(self.calls)
        counts["ordgroup.QuadScalar.created"] = self.counters["ordgroup.QuadScalar.created"]
        return counts

    def spans(self):
        return [
            {"parent": parent, "name": name, "calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
            for (parent, name), (c, t, s) in sorted(self.edges.items())
        ]
