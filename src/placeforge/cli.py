"""Command-line surface.

One job per invocation, described by a JSON job spec and/or flag overrides
and checked against the job-spec schema as one document; the report is a
byte-deterministic JSON document on stdout.  Exit codes: 0 success, 1 usage,
parse or validation error, 2 infeasible target shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .parsing import check_names, default_names, format_ratfunc, parse_expr
from .places import (
    INFINITY,
    InfeasibleShapeError,
    Place,
    check_spv_axioms,
    check_tower_depth,
    compose,
    place_from_json,
    sign_char,
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


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error ends the job like any other input error: one line, exit 1."""

    def error(self, message):
        raise JobError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    parser.add_argument("--elem", dest="elems", metavar="EXPR", action="append",
                        help="element expression (repeatable)")
    parser.add_argument("--finite", dest="A", metavar="EXPR", action="append",
                        help="neighborhood element with v >= 0 (repeatable)")
    parser.add_argument("--positive", dest="B", metavar="EXPR", action="append",
                        help="neighborhood element with v > 0 (repeatable)")
    parser.add_argument("--shape", help="target shape JSON (inline or @file)")
    parser.add_argument("--out", help="also write the report to this path")
    return parser


# Flags whose text is converted to the job spec's form; every other flag
# is taken as argparse gives it.  Each flag's destination is its spec key.
# A `--base` of digits becomes the schema's int; any other text ("Q") is
# left for the schema to judge.
_FLAG_TO_SPEC = {
    "base": lambda text: int(text) if text.isdecimal() else text,
    "vars": lambda text: [v.strip() for v in text.split(",") if v.strip()],
    "place": _load_json_arg,
    "outer": _load_json_arg,
    "shape": _load_json_arg,
}


def _merge_spec(args) -> dict:
    """The job: the spec file with the flags laid over it, checked against
    the job-spec schema as one document."""
    spec = _read_json_file(args.spec) if args.spec else {}
    if not isinstance(spec, dict):
        raise JobError("job spec is not a JSON object")
    for key, value in vars(args).items():
        if key == "spec" or value is None:
            continue
        convert = _FLAG_TO_SPEC.get(key)
        spec[key] = convert(value) if convert else value
    if spec.get("command") in ("goodify", "witness"):
        # Load approx before jsonschema, while the heap is small: compiled
        # after it, approx raised these jobs' peak RSS from 21 to 22.5 MB.
        from . import approx  # noqa: F401
    _validate_jobspec(spec)
    return spec


def _schema(name: str):
    return json.loads(
        resources.files("placeforge").joinpath(f"schemas/{name}.schema.json").read_text()
    )


def _schema_error(what: str, error) -> JobError:
    where = f" at {error.json_path}" if error.absolute_path else ""
    return JobError(f"{what} does not match schema{where}: {error.message}")


def _validate_jobspec(spec):
    import jsonschema

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
    import jsonschema

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
        if base is not None and BaseField.from_json(base) != place.field:
            raise JobError("job base field does not match the place")
        arity = spec.get("arity")
        if arity is not None and arity != place.arity:
            raise JobError("job arity does not match the place")
    return place


def _value_result(text: str, v) -> dict:
    if v is INFINITY:
        return {"elem": text, "value": "infinity", "sign": sign_char(v)}
    return {"elem": text, "value": v.to_json(), "sign": sign_char(v.sign())}


def _run(spec) -> dict:
    command = spec.get("command")
    if command not in COMMANDS:
        raise JobError(f"unknown or missing command {command!r}")
    place = _place_from_spec(spec)
    # An empty `vars` list, like none, means x1..xn.
    names = check_names(spec.get("vars") or None, place.arity)

    def parse(key="elems"):
        return [parse_expr(text, place.arity, place.field, names) for text in spec.get(key, [])]

    if command in ("classify", "compose"):
        if command == "compose":
            place = compose(place, _place_from_spec(spec, "outer"))
        return {
            "command": command,
            "place": place.to_json(),
            "invariants": place.invariants().to_json(),
        }

    if command in ("goodify", "witness"):
        from .approx import TargetShape, density_witness, goodify

        shape = TargetShape.from_json(spec.get("shape", {"class": "discrete"}))
        if command == "goodify":
            result = goodify(place, parse(), shape)
        else:
            result = density_witness(place, parse("A"), parse("B"), shape)
        report = result.report()
        if command == "witness":
            report["in_neighborhood"] = True  # density_witness returns no place outside it
        report["command"] = command
        report["invariants"] = result.place.invariants().to_json()
        return report

    texts = spec.get("elems", [])
    elems = parse()
    if command == "value":
        results = [_value_result(text, place.value(f)) for text, f in zip(texts, elems)]
        return {"command": "value", "place": place.to_json(), "results": results}

    if command == "residue":
        desc = place.residue_desc()
        gen_names = default_names(desc.num_gens, prefix="u")
        results = []
        for text, f in zip(texts, elems):
            r = place.residue(f)
            shown = "infinity" if r is INFINITY else format_ratfunc(r, gen_names)
            results.append({"elem": text, "residue": shown})
        gens = [
            format_ratfunc(RatFunc.monomial(place.field, place.arity, g), names)
            for g in desc.gens
        ]
        return {
            "command": "residue",
            "place": place.to_json(),
            "generators": gens,
            "results": results,
        }

    report = check_spv_axioms(place, elems).to_json()
    report["command"] = "check-axioms"
    report["place"] = place.to_json()
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        spec = _merge_spec(_build_parser().parse_args(argv))
        text = render_report(_run(spec))
        if spec.get("out"):
            with open(spec["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
    except InfeasibleShapeError as exc:
        print(f"infeasible shape: {exc}", file=sys.stderr)
        return 2
    # JobError, ParseError and JSON errors are ValueErrors; OverflowError is
    # an exponent past the polynomial kernels' bound.
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
