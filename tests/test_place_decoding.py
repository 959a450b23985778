"""place_from_json against the shipped place schema.

place_from_json is the only check a place object gets, from the command
line and from library callers alike.  Whatever it accepts, jsonschema must
accept under place.schema.json; whatever jsonschema refuses, it must refuse
with a one-line ValueError (never a KeyError, TypeError or AttributeError).
Its own checks go further than the schema (ints are not floats or bools,
radicands are squarefree, counts match, towers are at most MAX_TOWER_DEPTH
deep), so a refusal of a schema-valid object is allowed.

The inputs are the golden places, seeded places from `tests/gen.py`, and
hypothesis mutations of both: a key dropped, added or retyped, a bad
literal, a bare-int base, a deeper nesting, or a root that is no object.
"""

import copy
import json
import pathlib
import random

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import placeforge
from placeforge import BaseField, place_from_json
from placeforge.places import MAX_TOWER_DEPTH

from gen import random_place, random_tower

HERE = pathlib.Path(__file__).parent
SCHEMA = json.loads(
    (pathlib.Path(placeforge.__file__).parent / "schemas" / "place.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def golden_places():
    places = []
    for path in sorted((HERE / "jobs").glob("*.json")) + sorted((HERE / "golden").glob("*.json")):
        obj = json.loads(path.read_text())
        places += [obj[key] for key in ("place", "outer") if isinstance(obj.get(key), dict)]
    return places


def generated_places():
    rng = random.Random(5)
    places = []
    for seed in range(12):
        field = (BaseField(0), BaseField(5))[seed % 2]
        arity = 1 + seed % 4
        places.append(random_place(rng, field, arity).to_json())
        places.append(random_tower(rng, field, arity, seed % 3 == 0, 1 + seed % 3,
                                   ("inner", "outer")[seed % 2]).to_json())
    return places


GOLDEN = golden_places()
GENERATED = generated_places()
BASES = GOLDEN + GENERATED


def decoded(obj) -> bool:
    """Whether place_from_json accepts `obj`; a refusal must be a one-line
    ValueError, and an accepted object must be valid under the schema."""
    try:
        place_from_json(obj)
    except ValueError as exc:
        assert "\n" not in str(exc), str(exc)
        return False
    assert VALIDATOR.is_valid(obj), json.dumps(obj)
    return True


def test_golden_and_generated_places_decode():
    assert len(GOLDEN) >= 10 and len(GENERATED) == 24
    for obj in BASES:
        assert decoded(obj), json.dumps(obj)


# (place, JSON path and reason the refusal names): a malformed object of
# each kind, including those that once raised KeyError or TypeError.  All
# but the empty list of levels (which AmbientGroup refuses) are worded as
# "place does not match schema".
_MONOMIAL = {"kind": "monomial", "base": "Q", "arity": 1,
             "ambient": {"levels": [{"d": 2}]}, "weights": [[{"a": "1", "b": "0"}]]}
PROBES = [
    ({**_MONOMIAL, "weights": [[{"a": "1"}]]}, "at $.weights[0][0]: 'b' is a required property"),
    ({**_MONOMIAL, "weights": [["1"]]}, "at $.weights[0][0]: expected dict, got str"),
    ({**_MONOMIAL, "weights": [[{"a": "1", "b": "0", "c": "0"}]]},
     "at $.weights[0][0]: Additional properties are not allowed ('c' was unexpected)"),
    ({**_MONOMIAL, "weights": 5}, "at $.weights: expected list, got int"),
    ({**_MONOMIAL, "weights": [{"a": "1", "b": "0"}]}, "at $.weights[0]: expected list"),
    ({**_MONOMIAL, "ambient": {"levels": [{}]}}, "at $.ambient.levels[0]: 'd' is a required"),
    ({**_MONOMIAL, "ambient": {"levels": 2}}, "at $.ambient.levels: expected list"),
    ({**_MONOMIAL, "ambient": {"levels": []}}, "at $.ambient.levels: ambient group needs"),
    ({**_MONOMIAL, "ambient": []}, "at $.ambient: expected dict, got list"),
    ({k: v for k, v in _MONOMIAL.items() if k != "arity"}, ": 'arity' is a required property"),
    ({**_MONOMIAL, "extra": 1}, ": Additional properties are not allowed ('extra' was"),
    ({**_MONOMIAL, "base": 7}, 'at $.base: expected "Q" or {"p": p}, got 7'),
    ({**_MONOMIAL, "base": "7"}, "at $.base"),
    ({**_MONOMIAL, "kind": "binomial"}, "at $.kind: 'binomial' is not 'monomial' or 'composite'"),
    ({"kind": "composite", "inner": _MONOMIAL}, ": 'outer' is a required property"),
    ({"kind": "composite", "inner": _MONOMIAL, "outer": []}, "at $.outer: expected dict"),
    ({"kind": "composite", "inner": {**_MONOMIAL, "weights": [[{"a": "1/0", "b": "0"}]]},
      "outer": _MONOMIAL}, "at $.inner.weights[0][0].a: literal '1/0' is not of the form"),
    ({"base": "Q"}, ": 'kind' is a required property"),
    ([_MONOMIAL], ": expected dict, got list"),
    ("monomial", ": expected dict, got str"),
    (None, ": expected dict, got NoneType"),
]


@pytest.mark.parametrize("obj, message", PROBES)
def test_schema_refusals_name_their_path(obj, message):
    assert not VALIDATOR.is_valid(obj)
    with pytest.raises(ValueError) as info:
        place_from_json(obj)
    text = str(info.value)
    assert "\n" not in text and message in text
    schema_worded = "ambient group" not in message
    assert text.startswith("place does not match schema" if schema_worded else "place at ")


def test_checks_past_the_schema_name_their_path():
    """Objects the schema admits and place_from_json refuses, each naming
    where: a float radicand, a count mismatch, a tower past the bound."""
    cases = [
        ({**_MONOMIAL, "ambient": {"levels": [{"d": 3.0}]}}, "place at $.ambient.levels: radicand"),
        ({**_MONOMIAL, "arity": 2}, "place at $.weights: need one weight per variable"),
        # the row width is MonomialPlace's check, so the path is its argument's
        ({**_MONOMIAL, "weights": [[]]},
         "place at $.weights: row 0 has 0 coordinates, not 2 (two per level)"),
        ({**_MONOMIAL, "base": {"p": 4}}, "place at $.base: "),
    ]
    deep = _MONOMIAL
    for _ in range(MAX_TOWER_DEPTH + 1):
        deep = {"kind": "composite", "inner": _MONOMIAL, "outer": deep}
    cases.append((deep, "place nests composite places deeper than MAX_TOWER_DEPTH = "
                  f"{MAX_TOWER_DEPTH}"))
    for obj, message in cases:
        assert VALIDATOR.is_valid(obj)
        with pytest.raises(ValueError) as info:
            place_from_json(obj)
        assert str(info.value).startswith(message)


KEYS = ["kind", "base", "arity", "ambient", "weights", "inner", "outer", "levels", "d", "a",
        "b", "p", "x"]
json_leaves = (st.none() | st.booleans() | st.integers(-3, 10**13) | st.floats(-3, 5)
               | st.sampled_from(["Q", "monomial", "composite", "1", "1/2", ""])
               | st.text(max_size=4))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6,
)
bad_literals = st.sampled_from(["1/0", "1e3", " 1", "1\n", "+1", "1.5", "0x1", "٣", "",
                                "9" * 1001, "1//2"]) | st.text(max_size=5) | json_leaves


def slots(node, parent=None, key=None):
    """Every (container, key, value) position below and at `node`."""
    yield parent, key, node
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for k, v in items:
        yield from slots(v, node, k)


@st.composite
def mutants(draw):
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    positions = list(slots(obj))
    dicts = [value for _, _, value in positions if isinstance(value, dict)]
    mutation = draw(st.sampled_from(["drop", "add", "retype", "literal", "base", "nest", "root"]))
    if mutation == "drop":
        node = draw(st.sampled_from(dicts))
        if node:
            del node[draw(st.sampled_from(sorted(node)))]
    elif mutation == "add":
        draw(st.sampled_from(dicts))[draw(st.sampled_from(KEYS))] = draw(json_values)
    elif mutation == "retype":
        parent, key, _ = draw(st.sampled_from(positions[1:]))
        parent[key] = draw(json_values)
    elif mutation == "literal":
        scalars = [v for v in dicts if set(v) == {"a", "b"}]
        if scalars:
            draw(st.sampled_from(scalars))[draw(st.sampled_from("ab"))] = draw(bad_literals)
    elif mutation == "base":
        monomials = [v for v in dicts if "base" in v]
        draw(st.sampled_from(monomials))["base"] = draw(st.integers(-1, 7) | st.just({"p": 7.0}))
    elif mutation == "nest":
        for _ in range(draw(st.integers(1, MAX_TOWER_DEPTH + 2))):
            obj = {"kind": "composite", "inner": obj, "outer": copy.deepcopy(_MONOMIAL)}
    else:
        obj = draw(json_values)
    return obj


@settings(max_examples=400, deadline=None)
@given(obj=mutants())
def test_mutants_agree_with_the_schema(obj):
    decoded(obj)
