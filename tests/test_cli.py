import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import placeforge
from placeforge import parsing, place_from_json
from placeforge.approx import CLASSES, MAX_REFINE_ITER, MODES
from placeforge.cli import COMMANDS, main
from placeforge.places import MAX_AXIOM_SAMPLE, MAX_TOWER_DEPTH

HERE = pathlib.Path(__file__).parent
JOBS = sorted((HERE / "jobs").glob("*.json"))
PACKAGE = pathlib.Path(placeforge.__file__).parent


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("job", JOBS, ids=lambda p: p.stem)
def test_golden_reports(job, capsys):
    golden = (HERE / "golden" / job.name).read_text()
    code, out = run_cli(capsys, "--spec", str(job))
    assert code == 0
    assert out == golden


@pytest.mark.parametrize("job", JOBS, ids=lambda p: p.stem)
def test_golden_reports_match_schemas(job):
    report = json.loads((HERE / "golden" / job.name).read_text())
    report_schema = json.loads((PACKAGE / "schemas" / "report.schema.json").read_text())
    place_schema = json.loads((PACKAGE / "schemas" / "place.schema.json").read_text())
    jsonschema.validate(report, report_schema)
    jsonschema.validate(report["place"], place_schema)


@pytest.mark.parametrize("job", JOBS, ids=lambda p: p.stem)
def test_byte_determinism(job, capsys):
    code1, out1 = run_cli(capsys, "--spec", str(job))
    code2, out2 = run_cli(capsys, "--spec", str(job))
    assert (code1, out1) == (code2, out2)


def test_emitted_place_round_trips_into_other_commands(capsys, tmp_path):
    code, out = run_cli(capsys, "--spec", str(HERE / "jobs" / "witness.json"))
    assert code == 0
    place_json = json.dumps(json.loads(out)["place"])
    code, out = run_cli(capsys, "classify", "--place", place_json)
    assert code == 0
    assert json.loads(out)["invariants"]["flags"]["discrete"] is True
    code, out = run_cli(capsys, "value", "--place", place_json, "--elem", "x1+x2")
    assert code == 0
    assert json.loads(out)["results"][0]["sign"] == "+"
    # composite places round trip too
    code, out = run_cli(capsys, "--spec", str(HERE / "jobs" / "compose.json"))
    tower_json = json.dumps(json.loads(out)["place"])
    code, out = run_cli(capsys, "classify", "--place", tower_json)
    assert code == 0
    assert json.loads(out)["invariants"]["rank"] == 2


def test_custom_variable_names(capsys):
    job = json.loads((HERE / "jobs" / "witness_maxrank.json").read_text())
    code, out = run_cli(
        capsys, "value", "--place", json.dumps(job["place"]),
        "--vars", "s,t,w", "--elem", "s + t*w",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["sign"] == "+"


def test_flag_overrides_spec(capsys):
    code, out = run_cli(
        capsys, "value", "--spec", str(HERE / "jobs" / "value.json"), "--elem", "x2"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 1
    assert report["results"][0]["elem"] == "x2"


def test_exit_code_on_parse_error(capsys):
    job = HERE / "jobs" / "value.json"
    spec = json.loads(job.read_text())
    code, _ = run_cli(
        capsys, "value", "--place", json.dumps(spec["place"]), "--elem", "x1 + ?"
    )
    assert code == 1


def run_fresh(*args):
    """Run the CLI in a fresh process, which shows exactly what a user sees;
    every input must be settled within 5 s."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-m", "placeforge.cli", *args],
                          capture_output=True, text=True, env=env, timeout=5)


def assert_one_line_error(proc, message):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deep_nesting_is_a_parse_error(capsys):
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    code, out = run_cli(capsys, "value", "--place", place, "--elem", "(" * 100 + "x1" + ")" * 100)
    assert code == 0
    assert json.loads(out)["results"][0]["sign"] == "+"
    proc = run_fresh("value", "--place", place, "--elem", "(" * 3000 + "x1" + ")" * 3000)
    assert_one_line_error(proc, "nested deeper than")


def test_radicand_over_budget_is_refused():
    place = {
        "kind": "monomial", "base": "Q", "arity": 2,
        "ambient": {"levels": [{"d": 10**18 + 3}]},
        "weights": [[{"a": "1", "b": "0"}], [{"a": "0", "b": "1"}]],
    }
    proc = run_fresh("classify", "--place", json.dumps(place))
    assert_one_line_error(proc, "MAX_RADICAND")


def test_product_over_term_budget_is_refused():
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    proc = run_fresh("value", "--place", place, "--elem", "(x1+x2+1)^400")
    assert_one_line_error(proc, "MAX_TERM_PAIRS")


def test_power_over_budget_is_refused():
    # an unbudgeted 3^1000000000 over Q would run for hours
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    proc = run_fresh("value", "--place", place, "--elem", "x1 + 3^1000000000")
    assert_one_line_error(proc, "MAX_POWER_BITS")


def one_weight_place(a):
    return {
        "kind": "monomial", "base": "Q", "arity": 1,
        "ambient": {"levels": [{"d": 2}]},
        "weights": [[{"a": a, "b": "0"}]],
    }


def test_exponent_overflow_is_one_line(capsys):
    args = ("--spec", str(HERE / "jobs" / "value.json"), "--elem", "x1^4611686018427387903*x1")
    assert_one_line_error(run_fresh(*args), "error: exponent overflow")
    err = cli_error(capsys, *args)
    assert err == "error: exponent overflow in polynomial product\n"


def test_long_literals_are_refused():
    digits = "7" * 5000
    proc = run_fresh("classify", "--place", json.dumps(one_weight_place(digits)))
    assert_one_line_error(proc, "MAX_LITERAL_DIGITS")
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    proc = run_fresh("value", "--place", place, "--elem", digits + "*x1")
    assert_one_line_error(proc, "MAX_LITERAL_DIGITS")


def test_exponent_weight_is_refused():
    # Weights are n or n/d in the place schema and in place_from_json
    # alike; place_from_json, the only place check, names the literal's
    # path and refuses exponent notation before any conversion.
    place = one_weight_place("1e100000000")
    proc = run_fresh("classify", "--place", json.dumps(place))
    assert_one_line_error(proc, "place does not match schema at $.weights[0][0].a")
    with pytest.raises(ValueError, match="is not of the form n or n/d"):
        place_from_json(place)


def test_names_and_weights_ending_in_a_newline_are_refused(tmp_path):
    # jsonschema matches a pattern with re.search, where "$" also matches
    # before a final newline; the shipped patterns end in "$(?!\n)".
    place = json.loads((HERE / "jobs" / "value.json").read_text())["place"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "residue", "place": place, "vars": ["a\n", "b"]}))
    assert_one_line_error(run_fresh("--spec", str(path)),
                          "job spec does not match schema at $.vars[0]")
    proc = run_fresh("classify", "--place", json.dumps(one_weight_place("3\n")))
    assert_one_line_error(proc, "place does not match schema at $.weights[0][0].a")


def test_variable_names_are_checked_without_elements(capsys, tmp_path):
    """Every command checks `vars` against the place's arity, also when it
    parses no element (residue prints its generators in those names)."""
    job = json.loads((HERE / "jobs" / "residue.json").read_text())
    job["elems"] = []
    cases = ((["a"], "need one name per variable"),
             (["a", "a"], "variable names must be distinct; 'a' repeats"),
             (["a", "b", "c"], "need one name per variable"))
    for i, (names, message) in enumerate(cases):
        path = tmp_path / f"job{i}.json"
        path.write_text(json.dumps(dict(job, vars=names)))
        for command in COMMANDS:
            assert main([command, "--spec", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
    assert_one_line_error(run_fresh("--spec", str(path)), cases[-1][1])


def test_malformed_outer_place_is_refused():
    spec = json.loads((HERE / "jobs" / "compose.json").read_text())
    spec["outer"]["weights"][0][0]["a"] = "one"
    proc = run_fresh("compose", "--place", json.dumps(spec["place"]),
                     "--outer", json.dumps(spec["outer"]))
    assert_one_line_error(proc, "outer place does not match schema")


def cli_error(capsys, *args):
    """Run the CLI in process on an input it must refuse; return stderr."""
    assert main(list(args)) == 1
    return capsys.readouterr().err


def tower(depth):
    """A valid place with `depth` composites nested on the outer side: the
    place x1 -> 1, x2 -> 0 under a chain of trivial places on x2's residue."""
    trivial = one_weight_place("0")
    place = trivial
    for _ in range(depth - 1):
        place = {"kind": "composite", "inner": trivial, "outer": place}
    inner = json.loads((HERE / "jobs" / "compose.json").read_text())["place"]
    return {"kind": "composite", "inner": inner, "outer": place}


def test_deep_tower_is_refused(capsys):
    code, out = run_cli(capsys, "classify", "--place", json.dumps(tower(MAX_TOWER_DEPTH)))
    assert code == 0
    assert json.loads(out)["invariants"]["rank"] == 1
    err = cli_error(capsys, "classify", "--place", json.dumps(tower(MAX_TOWER_DEPTH + 1)))
    assert "MAX_TOWER_DEPTH" in err
    proc = run_fresh("classify", "--place", json.dumps(tower(400)))
    assert_one_line_error(proc, "place nests composite places deeper than MAX_TOWER_DEPTH")
    inner = json.loads((HERE / "jobs" / "compose.json").read_text())["place"]
    proc = run_fresh("compose", "--place", json.dumps(inner), "--outer", json.dumps(tower(400)))
    assert_one_line_error(proc, "outer place nests composite places deeper than MAX_TOWER_DEPTH")


@pytest.mark.parametrize("command", ["compose", "goodify", "witness"])
def test_no_command_prints_a_tower_past_the_depth_bound(command, capsys):
    """compose, and goodify and witness through their composite_drop tower,
    put one composite on top of the place they are given.  On a place
    MAX_TOWER_DEPTH deep that is refused with one line naming the bound; on
    one a level shallower, the place they print is accepted by classify."""
    drop = json.dumps({"mode": "preserve_values", "class": "composite_drop", "r1": 2, "d1": 0})
    extra = {"compose": ["--outer", json.dumps(one_weight_place("0"))],
             "goodify": ["--elem", "x1", "--elem", "x1^2", "--shape", drop],
             "witness": ["--finite", "x1", "--positive", "x1^2", "--shape", drop]}[command]

    def job(depth):
        return [command, "--place", json.dumps(tower(depth)), *extra]

    assert main(job(MAX_TOWER_DEPTH)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: composed place nests composite places deeper than "
                            f"MAX_TOWER_DEPTH = {MAX_TOWER_DEPTH}\n")
    code, out = run_cli(capsys, *job(MAX_TOWER_DEPTH - 1))
    assert code == 0
    place = json.dumps(json.loads(out)["place"])
    code, out = run_cli(capsys, "classify", "--place", place)
    assert code == 0
    assert json.loads(out)["place"] == json.loads(place)


def test_axiom_sample_budget(tmp_path):
    """A full check-axioms sample ends within the 5 s of run_fresh; one more
    element is refused with one line naming the budget."""
    job = json.loads((HERE / "jobs" / "check_axioms.json").read_text())
    elems = [f"x1^{i}*x2^{j}+{c}" for i in range(1, 6) for j in range(5) for c in range(1, 5)]
    job["elems"] = elems[:MAX_AXIOM_SAMPLE]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = run_fresh("--spec", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "pass"
    job["elems"] = elems[:MAX_AXIOM_SAMPLE + 1]
    path.write_text(json.dumps(job))
    proc = run_fresh("--spec", str(path))
    assert_one_line_error(proc, f"more than MAX_AXIOM_SAMPLE = {MAX_AXIOM_SAMPLE}")


def test_refinement_budget(tmp_path):
    """A goodify that never converges (rational rank 2 from weights with
    no sqrt part) runs the fixed MAX_REFINE_ITER budget, on three levels,
    within the 5 s of run_fresh and exits 2 with one line naming it."""
    zero = {"a": "0", "b": "0"}
    place = {"kind": "monomial", "base": "Q", "arity": 2,
             "ambient": {"levels": [{"d": 2}, {"d": 3}, {"d": 5}]},
             "weights": [[{"a": "1", "b": "0"}, zero, zero], [zero, zero, zero]]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "goodify", "place": place, "elems": ["x1 + x2"],
        "shape": {"mode": "preserve_residues", "class": "weighted_rational", "r1": 2},
    }))
    proc = run_fresh("--spec", str(path))
    assert proc.returncode == 2
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert f"within MAX_REFINE_ITER = {MAX_REFINE_ITER} refinement steps" in proc.stderr


def test_arity_zero_place_has_no_good_replacement(capsys):
    """An arity-0 place has no weight to perturb, so no discrete or
    rank-one replacement exists: exit 2 with one line."""
    place = json.dumps({"kind": "monomial", "base": "Q", "arity": 0,
                        "ambient": {"levels": [{"d": 2}]}, "weights": []})
    rank_one = json.dumps({"class": "weighted_rational", "r1": 1})
    message = ("infeasible shape: the ties force every weight to zero; "
               "no nontrivial place preserves them\n")
    for args in (("goodify", "--elem", "1"), ("goodify", "--elem", "1", "--shape", rank_one),
                 ("witness",), ("witness", "--shape", rank_one)):
        assert main([*args, "--place", place]) == 2
        assert capsys.readouterr() == ("", message)
    proc = run_fresh("goodify", "--place", place, "--elem", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_json_nested_past_the_decoder_is_refused(tmp_path):
    nested = '{"kind":"composite","inner":' * 2000 + "{}" + "}" * 2000
    proc = run_fresh("classify", "--place", nested)
    assert_one_line_error(proc, "nested too deeply")
    spec = tmp_path / "deep.json"
    spec.write_text('{"command":"classify","place":' + nested + "}")
    proc = run_fresh("--spec", str(spec))
    assert_one_line_error(proc, "nested too deeply")


def test_place_schema_error_follows_the_kind(capsys):
    proc = run_fresh("classify", "--place", '{"kind":"monomial"}')
    assert_one_line_error(proc, "place does not match schema: 'base' is a required property")
    assert "was expected" not in proc.stderr
    err = cli_error(capsys, "classify", "--place", '{"kind":"composite"}')
    assert "'inner' is a required property" in err
    # one level down: the inner place is monomial and misses its weights
    place = tower(1)
    del place["inner"]["weights"]
    err = cli_error(capsys, "classify", "--place", json.dumps(place))
    assert "at $.inner: 'weights' is a required property" in err
    # two levels down: a composite inside a composite misses its outer place
    place = tower(2)
    del place["outer"]["outer"]
    err = cli_error(capsys, "classify", "--place", json.dumps(place))
    assert "at $.outer: 'outer' is a required property" in err


def test_exit_code_on_infeasible_shape(capsys):
    place = {
        "kind": "monomial", "base": "Q", "arity": 2,
        "ambient": {"levels": [{"d": 2}]},
        "weights": [[{"a": "1", "b": "0"}], [{"a": "0", "b": "0"}]],
    }
    code, _ = run_cli(
        capsys, "goodify", "--place", json.dumps(place), "--elem", "x2",
        "--shape", '{"mode": "preserve_residues", "class": "lex_max_rank"}',
    )
    assert code == 2


def test_bad_jobspec_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "value", "unknown_field": 1}))
    code, _ = run_cli(capsys, "--spec", str(bad))
    assert code == 1


def test_mismatched_base_or_arity_rejected(capsys):
    job = json.loads((HERE / "jobs" / "value.json").read_text())
    err = cli_error(capsys, "value", "--place", json.dumps(job["place"]),
                    "--elem", "x1", "--base", "5")
    assert "job base field does not match the place" in err
    code, _ = run_cli(
        capsys, "value", "--place", json.dumps(job["place"]),
        "--elem", "x1", "--arity", "3",
    )
    assert code == 1


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "--spec", str(HERE / "jobs" / "classify.json"), "--out", str(target)
    )
    assert code == 0
    assert target.read_text() == out


def test_parse_print_parse_idempotence(capsys):
    # CLI-level spot check; the bulk round-trip property lives in the
    # ratfunc tests and the acceptance suite.
    from placeforge import BaseField, parse_expr
    from placeforge.parsing import format_ratfunc

    rng = random.Random(71)
    import sys
    sys.path.insert(0, str(HERE))
    from gen import random_ratfunc

    for _ in range(25):
        f = random_ratfunc(rng, BaseField(0), 2)
        text = format_ratfunc(f)
        again = parse_expr(text, 2, BaseField(0))
        assert (f - again).is_zero()
        assert format_ratfunc(again) == text


def test_base_flag_in_schema_form(capsys):
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    code, out = run_cli(capsys, "value", "--place", place, "--elem", "x1", "--base", "Q")
    assert code == 0
    assert json.loads(out)["results"][0]["sign"] == "+"
    err = cli_error(capsys, "value", "--place", place, "--elem", "x1", "--base", "GF5")
    assert "job spec does not match schema at $.base" in err


# Flag values the job-spec schema refuses.  The shape is read only after
# the schema check, so a wrong type must never reach TargetShape.
BAD_SHAPES = [
    ("[]", "at $.shape: [] is not of type 'object'"),
    ('"discrete"', "at $.shape: 'discrete' is not of type 'object'"),
    ("{}", "at $.shape: 'class' is a required property"),
    ('{"class":"composite_drop","mode":"preserve_values","r1":"x","d1":1}',
     "at $.shape.r1: 'x' is not of type 'integer'"),
    ('{"class":"weighted_rational","r1":1.5}', "at $.shape.r1: 1.5 is not of type 'integer'"),
]


@pytest.mark.parametrize("shape,message", BAD_SHAPES, ids=range(len(BAD_SHAPES)))
def test_shape_flag_is_checked_against_the_schema(shape, message):
    proc = run_fresh("goodify", "--spec", str(HERE / "jobs" / "goodify.json"), "--shape", shape)
    assert_one_line_error(proc, "job spec does not match schema " + message)


def test_float_shape_rank_is_refused(capsys):
    # jsonschema's "integer" admits 1.0; TargetShape.from_json does not
    shape = '{"class":"weighted_rational","r1":1.0}'
    err = cli_error(capsys, "goodify", "--spec", str(HERE / "jobs" / "goodify.json"),
                    "--shape", shape)
    assert err.startswith("error: shape must have a class, maybe a mode and ints r1, d1 >= 0")
    assert err.endswith("'r1': 1.0}\n") and err.count("\n") == 1


def test_spec_file_must_be_an_object(capsys, tmp_path):
    spec = tmp_path / "list.json"
    spec.write_text("[1, 2]")
    assert "job spec is not a JSON object" in cli_error(capsys, "--spec", str(spec))


def test_usage_errors_exit_1_with_one_line(capsys):
    goodify = str(HERE / "jobs" / "goodify.json")
    usage = [("value", "--bogus", "1"), ("goodify", "--spec", goodify, "--shape", "-1e16")]
    messages = ["unrecognized arguments: --bogus 1", "argument --shape: expected one argument"]
    for args, message in zip(usage, messages):
        err = cli_error(capsys, *args)
        assert err == f"error: {message}\n"
        assert_one_line_error(run_fresh(*args), message)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "usage: placeforge" in capsys.readouterr().out


def test_repeated_variable_names_are_refused(capsys):
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    args = ("value", "--place", place, "--vars", "a,a", "--elem", "a")
    assert "variable names must be distinct; 'a' repeats" in cli_error(capsys, *args)
    assert_one_line_error(run_fresh(*args), "'a' repeats")


def test_variable_names_must_be_identifiers(capsys):
    schema = json.loads((PACKAGE / "schemas" / "jobspec.schema.json").read_text())
    pattern = schema["properties"]["vars"]["items"]["pattern"]
    assert pattern == f"^{parsing._NAME.pattern}$(?!\\n)"
    place = json.dumps(json.loads((HERE / "jobs" / "value.json").read_text())["place"])
    for names in ("a-b,c", "c,é"):
        args = ("residue", "--place", place, "--vars", names)
        assert "job spec does not match schema at $.vars[" in cli_error(capsys, *args)
    assert_one_line_error(run_fresh("value", "--place", place, "--vars", "a-b,c", "--elem", "c"),
                          f"does not match {pattern!r}")


def test_unwritable_out_path_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    err = cli_error(capsys, "--spec", str(HERE / "jobs" / "classify.json"), "--out", str(target))
    assert "No such file or directory" in err
    assert capsys.readouterr().out == ""


def run_quietly(args):
    """Run `main` in process; return the exit code and the stderr lines.
    An exception escaping `main` fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue().splitlines()


def assert_settled(code, err_lines):
    assert code in (0, 1, 2)
    if code:
        assert len(err_lines) == 1
    else:
        assert err_lines == []


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
# Mostly shape-like objects: known keys carrying known or hostile values.
shape_objects = st.dictionaries(
    st.sampled_from(["class", "mode", "r1", "d1"]) | st.text(max_size=3),
    st.sampled_from(CLASSES + MODES) | st.integers(-2, 5) | json_values,
    max_size=5,
)
SHAPE_JOBS = [str(HERE / "jobs" / f"{name}.json")
              for name in ("goodify", "goodify_drop", "witness", "witness_maxrank")]


@settings(max_examples=300, deadline=None)
@given(job=st.sampled_from(SHAPE_JOBS), shape=shape_objects | json_values)
def test_shape_flag_settles_every_value(job, shape):
    assert_settled(*run_quietly(["--spec", job, "--shape=" + json.dumps(shape)]))


# Mostly place-like objects: known keys carrying known or hostile values.
# No value can spell an ambient group ("levels" is longer than any key that
# json_values draws), so every place here is refused.
place_objects = st.dictionaries(
    st.sampled_from(["kind", "base", "arity", "ambient", "weights", "inner", "outer"])
    | st.text(max_size=3),
    st.sampled_from(["monomial", "composite", "Q", {"p": 5}, 7, 1.0, True, [], [[]], {}])
    | json_values,
    max_size=6,
)


# The golden value job's place with one node, at any depth, replaced by a
# value no node of a place can take: null, a bool, a float, or an object
# whose keys are not keys of the place schema.
VALUE_PLACE = json.loads((HERE / "jobs" / "value.json").read_text())["place"]
NODES = [("kind",), ("base",), ("arity",), ("ambient",), ("ambient", "levels"),
         ("ambient", "levels", 0), ("ambient", "levels", 0, "d"), ("weights",),
         ("weights", 0), ("weights", 0, 0), ("weights", 0, 0, "a")]
hostile = (st.none() | st.booleans() | st.floats()
           | st.dictionaries(st.text(min_size=4, max_size=5), json_values, max_size=2))


def assert_place_refused(place):
    code, err_lines = run_quietly(["--spec", str(HERE / "jobs" / "value.json"),
                                   "--place=" + json.dumps(place)])
    assert code == 1 and len(err_lines) == 1, err_lines


@settings(max_examples=60, deadline=None)
@given(place=place_objects | json_values)
def test_place_flag_refuses_every_malformed_place(place):
    assert_place_refused(place)


@pytest.mark.parametrize("node", NODES, ids=lambda node: ".".join(map(str, node)))
@settings(max_examples=8, deadline=None)
@given(value=hostile)
def test_place_flag_refuses_a_hostile_node(node, value):
    place = json.loads(json.dumps(VALUE_PLACE))
    *parents, last = node
    parent = place
    for key in parents:
        parent = parent[key]
    parent[last] = value
    assert_place_refused(place)


name_lists = st.lists(st.sampled_from(["x1", "x2", "a", "b", " ", ""]) | st.text(max_size=4),
                      max_size=4).map(",".join)
bases = (st.sampled_from(["Q", "q", "2", "4", "5", "0", "-5", " 5", '{"p": 5}'])
         | st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(names=st.none() | name_lists, base=st.none() | bases)
def test_vars_and_base_flags_settle_every_value(names, base):
    args = ["--spec", str(HERE / "jobs" / "value.json")]
    if names is not None:
        args.append("--vars=" + names)
    if base is not None:
        args.append("--base=" + base)
    assert_settled(*run_quietly(args))


def test_value_job_leaves_approx_unloaded():
    # approx is served on first use of one of its names (PEP 562), and the
    # package keeps no copy: a first use while perfbench/tracer.py is
    # installed must leave no wrapper behind once it is uninstalled
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import placeforge
        from placeforge import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--spec", {str(HERE / "jobs" / "value.json")!r}]) == 0
        assert "placeforge.approx" not in sys.modules
        sys.path.insert(0, {str(HERE.parent / "perfbench")!r})
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        assert hasattr(placeforge.goodify, "__wrapped__")
        tracer.uninstall()
        assert placeforge.goodify is placeforge.approx.goodify
        assert not hasattr(placeforge.goodify, "__wrapped__")
        assert "goodify" not in vars(placeforge)
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
