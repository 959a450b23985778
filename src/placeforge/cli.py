"""Command-line surface.

One job per invocation, described by a JSON job spec and/or flag overrides;
the report is a byte-deterministic JSON document on stdout.  Exit codes:
0 success, 1 parse/validation error, 2 infeasible target shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .approx import InfeasibleShapeError, TargetShape, density_witness, goodify, max_iterations
from .parsing import ParseError, default_names, format_ratfunc, parse_expr
from .places import (
    INFINITY,
    Place,
    check_spv_axioms,
    check_tower_depth,
    compose,
    in_basic_open,
    place_from_json,
)
from .ratfunc import BaseField, RatFunc

COMMANDS = ("value", "residue", "classify", "compose", "goodify", "witness", "check-axioms")


class JobError(ValueError):
    pass


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise JobError("JSON input is nested too deeply to read") from None


def _read_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


def _load_json_arg(raw: str):
    if raw.startswith("@"):
        return _read_json_file(raw[1:])
    return _parse_json(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placeforge",
        description="Evaluate places of rational function fields and construct "
        "good places in patch neighborhoods.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--spec", help="JSON job-spec file; flags override its fields")
    parser.add_argument("--base", help='base field: "Q" or a prime p')
    parser.add_argument("--arity", type=int, help="number of variables")
    parser.add_argument("--vars", help="comma-separated variable names")
    parser.add_argument("--place", help="place JSON (inline or @file)")
    parser.add_argument("--outer", help="outer place JSON for compose (inline or @file)")
    parser.add_argument("--elem", action="append", default=None, help="element expression (repeatable)")
    parser.add_argument("--finite", action="append", default=None,
                        help="neighborhood element with v >= 0 (repeatable)")
    parser.add_argument("--positive", action="append", default=None,
                        help="neighborhood element with v > 0 (repeatable)")
    parser.add_argument("--shape", help="target shape JSON (inline or @file)")
    parser.add_argument("--out", help="also write the report to this path")
    return parser


def _merge_spec(args) -> dict:
    spec = {}
    if args.spec:
        spec = _read_json_file(args.spec)
        _validate_jobspec(spec)
    if args.command:
        spec["command"] = args.command
    if args.base is not None:
        spec["base"] = args.base
    if args.arity is not None:
        spec["arity"] = args.arity
    if args.vars is not None:
        spec["vars"] = [v.strip() for v in args.vars.split(",") if v.strip()]
    if args.place is not None:
        spec["place"] = _load_json_arg(args.place)
    if args.outer is not None:
        spec["outer"] = _load_json_arg(args.outer)
    if args.elem is not None:
        spec["elems"] = args.elem
    if args.finite is not None:
        spec["A"] = args.finite
    if args.positive is not None:
        spec["B"] = args.positive
    if args.shape is not None:
        spec["shape"] = _load_json_arg(args.shape)
    if args.out is not None:
        spec["out"] = args.out
    return spec


def _schema(name: str):
    return json.loads(
        resources.files("placeforge").joinpath(f"schemas/{name}.schema.json").read_text()
    )


def _schema_error(what: str, error) -> JobError:
    where = f" at {error.json_path}" if error.absolute_path else ""
    return JobError(f"{what} does not match schema{where}: {error.message}")


def _validate_jobspec(spec):
    try:
        import jsonschema
    except ImportError:  # validation is best-effort plumbing
        return
    try:
        jsonschema.validate(spec, _schema("jobspec"))
    except jsonschema.ValidationError as exc:
        raise _schema_error("job spec", exc) from exc


def _kind_branch_errors(error):
    """The errors of the `oneOf` branch whose `kind` constant is the
    instance's own kind, or None when no branch names that kind."""
    if error.validator != "oneOf" or not isinstance(error.instance, dict):
        return None
    kind = error.instance.get("kind")
    kinds = [b.get("properties", {}).get("kind", {}).get("const") for b in error.validator_value]
    if kind is None or kind not in kinds:
        return None
    i = kinds.index(kind)
    return [e for e in error.context if e.relative_schema_path[0] == i]


def _validate_place(obj, what: str):
    """Check an input place against the shipped place schema.

    jsonschema.validate would first check the schema against its
    metaschema on every call, which costs far more than checking a place;
    the test suite checks the shipped schema instead.  An error is taken
    from the branch of the place's own `kind`, at every nesting level.
    """
    try:
        import jsonschema
    except ImportError:  # validation is best-effort plumbing
        return
    schema = _schema("place")
    validator = jsonschema.validators.validator_for(schema)(schema)
    relevance = jsonschema.exceptions.relevance
    error = max(validator.iter_errors(obj), key=relevance, default=None)
    if error is None:
        return
    while branch := _kind_branch_errors(error):
        error = min(branch, key=relevance)  # the deepest, as best_match descends
    raise _schema_error(what, jsonschema.exceptions.best_match([error]))


def _place_from_spec(spec, key="place") -> Place:
    obj = spec.get(key)
    if obj is None:
        raise JobError(f"missing {key!r}")
    what = key if key == "place" else f"{key} place"
    # Schema validation recurses once per level: bound the depth first.
    try:
        check_tower_depth(obj, what)
    except ValueError as exc:
        raise JobError(str(exc)) from None
    _validate_place(obj, what)
    place = place_from_json(obj)
    if key == "place":
        base = spec.get("base")
        if base is not None:
            if isinstance(base, str) and base != "Q":
                base = int(base)
            if BaseField.from_json(base) != place.field:
                raise JobError("job base field does not match the place")
        arity = spec.get("arity")
        if arity is not None and arity != place.arity:
            raise JobError("job arity does not match the place")
    return place


def _elems_from_spec(spec, place: Place, key="elems"):
    names = spec.get("vars") or default_names(place.arity)
    out = []
    for text in spec.get(key, []):
        out.append(parse_expr(text, place.arity, place.field, names))
    return out


def _value_json(v):
    if v is INFINITY:
        return "infinity"
    return v.to_json()


def _sign_str(v):
    if v is INFINITY:
        return "inf"
    return {1: "+", 0: "0", -1: "-"}[v.sign()]


def _residue_gen_names(count):
    return default_names(count, prefix="u")


def _run(spec) -> dict:
    command = spec.get("command")
    if command not in COMMANDS:
        raise JobError(f"unknown or missing command {command!r}")

    if command == "value":
        place = _place_from_spec(spec)
        elems = _elems_from_spec(spec, place)
        results = []
        for text, f in zip(spec.get("elems", []), elems):
            v = place.value(f)
            results.append({"elem": text, "value": _value_json(v), "sign": _sign_str(v)})
        return {"command": "value", "place": place.to_json(), "results": results}

    if command == "residue":
        place = _place_from_spec(spec)
        elems = _elems_from_spec(spec, place)
        desc = place.residue_desc()
        gen_names = _residue_gen_names(desc.num_gens)
        var_names = spec.get("vars") or default_names(place.arity)
        results = []
        for text, f in zip(spec.get("elems", []), elems):
            r = place.residue(f)
            if r is INFINITY:
                results.append({"elem": text, "residue": "infinity"})
            else:
                results.append({"elem": text, "residue": format_ratfunc(r, gen_names)})
        gens = [
            format_ratfunc(RatFunc.monomial(place.field, place.arity, g), var_names)
            for g in desc.gens
        ]
        return {
            "command": "residue",
            "place": place.to_json(),
            "generators": gens,
            "results": results,
        }

    if command == "classify":
        place = _place_from_spec(spec)
        return {
            "command": "classify",
            "place": place.to_json(),
            "invariants": place.invariants().to_json(),
        }

    if command == "compose":
        inner = _place_from_spec(spec, "place")
        outer = _place_from_spec(spec, "outer")
        tower = compose(inner, outer)
        return {
            "command": "compose",
            "place": tower.to_json(),
            "invariants": tower.invariants().to_json(),
        }

    if command == "goodify":
        place = _place_from_spec(spec)
        elems = _elems_from_spec(spec, place)
        shape = TargetShape.from_json(spec.get("shape", {"class": "discrete"}))
        result = goodify(place, elems, shape, max_iterations())
        report = result.report()
        report["command"] = "goodify"
        report["invariants"] = result.place.invariants().to_json()
        return report

    if command == "witness":
        place = _place_from_spec(spec)
        finite_on = _elems_from_spec(spec, place, "A")
        vanishing_on = _elems_from_spec(spec, place, "B")
        shape = TargetShape.from_json(spec.get("shape", {"class": "discrete"}))
        result = density_witness(place, finite_on, vanishing_on, shape, max_iterations())
        report = result.report()
        report["command"] = "witness"
        report["invariants"] = result.place.invariants().to_json()
        report["in_neighborhood"] = in_basic_open(result.place, finite_on, vanishing_on)
        return report

    if command == "check-axioms":
        place = _place_from_spec(spec)
        elems = _elems_from_spec(spec, place)
        report = check_spv_axioms(place, elems)
        out = report.to_json()
        out["command"] = "check-axioms"
        out["place"] = place.to_json()
        return out

    raise JobError(f"unhandled command {command!r}")


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _merge_spec(args)
        report = _run(spec)
    except InfeasibleShapeError as exc:
        print(f"infeasible shape: {exc}", file=sys.stderr)
        return 2
    except (JobError, ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render_report(report)
    out_path = spec.get("out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
