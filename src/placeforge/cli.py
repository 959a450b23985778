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
    import jsonschema

    schema = resources.files("placeforge").joinpath("schemas/jobspec.schema.json").read_text()
    try:
        jsonschema.validate(spec, json.loads(schema))
    except jsonschema.ValidationError as exc:
        where = f" at {exc.json_path}" if exc.absolute_path else ""
        raise JobError(f"job spec does not match schema{where}: {exc.message}") from exc
    return spec


def _place_from_spec(spec, key="place") -> Place:
    """The place at `key`; a refusal of the outer place reads "outer place ..."."""
    obj = spec.get(key)
    if obj is None:
        raise JobError(f"missing {key!r}")
    try:
        place = place_from_json(obj)
    except ValueError as exc:
        raise JobError(str(exc) if key == "place" else f"{key} {exc}") from None
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
