"""The library boundary: the public constructors and the entry points that
README documents, called with arguments of the wrong type or value.

Each call returns, or raises one ValueError or TypeError line; never an
AttributeError from inside.  A place a constructor returns must travel
through `to_json` and `place_from_json` to a place with equal values and
residues on seeded elements, so a constructor cannot accept what it would
compute with differently than it prints.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placeforge import (
    AmbientGroup,
    BaseField,
    GroupElem,
    MonomialPlace,
    Place,
    RatFunc,
    Subgroup,
    TargetShape,
    check_spv_axioms,
    compose,
    convex_rank,
    density_witness,
    format_ratfunc,
    goodify,
    order_embedding_check,
    parse_expr,
    perturb_weights,
    place_from_json,
    rational_rank,
    signature,
)

from gen import random_ratfunc

QQ = BaseField(0)
F5 = BaseField(5)
AMB = AmbientGroup((2,))
AMB23 = AmbientGroup((2, 3))
PLACE = MonomialPlace(QQ, 2, AMB, [(1, 0), (0, 1)])
TOWER = compose(MonomialPlace(QQ, 2, AMB, [(1, 0), (2, 0)]),
                MonomialPlace(QQ, 1, AMB23, [(0, 1, 1, 0)]))
F = parse_expr("x1 + x2", 2, QQ)
SHAPE = TargetShape("preserve_residues", "discrete")
SIG = signature(PLACE, [F])

# (call, the start of its refusal): each raised an AttributeError from
# inside, or was accepted, before it was refused at the boundary
WRONG_TYPES = [
    (lambda: goodify(PLACE, [], "discrete"), "expected TargetShape, got str"),
    (lambda: density_witness(PLACE, [], [], "discrete"), "expected TargetShape, got str"),
    (lambda: goodify(None, [F], SHAPE), "expected Place, got NoneType"),
    (lambda: goodify(PLACE, [None], SHAPE), "expected a RatFunc, got NoneType"),
    (lambda: density_witness(PLACE, ["x1"], [], SHAPE), "expected a RatFunc, got str"),
    (lambda: rational_rank(None), "expected Subgroup, got NoneType"),
    (lambda: convex_rank(None), "expected Subgroup, got NoneType"),
    (lambda: check_spv_axioms(PLACE, ["x1"]), "expected a RatFunc, got str"),
    (lambda: check_spv_axioms(None, []), "expected Place, got NoneType"),
    (lambda: order_embedding_check([None], [None], []), "expected GroupElem, got NoneType"),
    (lambda: perturb_weights(None, PLACE, SHAPE), "expected SignSignature, got NoneType"),
    (lambda: perturb_weights(SIG, None, SHAPE), "expected Place, got NoneType"),
    (lambda: format_ratfunc("x"), "expected RatFunc, got str"),
    (lambda: format_ratfunc(F, 3), "names must be a list or tuple, got int"),
    (lambda: parse_expr("x1", 1, None), "expected BaseField, got NoneType"),
    (lambda: parse_expr("3", True, QQ), "arity must be an int, got bool"),
    (lambda: parse_expr("3", 1.0, QQ), "arity must be an int, got float"),
    (lambda: GroupElem.from_row(None, (1, 0)), "expected AmbientGroup, got NoneType"),
    (lambda: Subgroup.from_rows((2,), [(1, 0)]), "expected AmbientGroup, got tuple"),
    (lambda: MonomialPlace(None, 1, AMB, [(1, 0)]), "expected BaseField, got NoneType"),
    (lambda: MonomialPlace(QQ, True, AMB, [(1, 0)]), "arity must be an int, got bool"),
]


@pytest.mark.parametrize("call, message", WRONG_TYPES)
def test_a_wrong_type_is_one_type_error_line(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert "\n" not in str(info.value) and message in str(info.value)


# (call, its refusal): each raised an IndexError, or was accepted and
# returned what parse_expr cannot read back or a RatFunc of that arity
WRONG_VALUES = [
    (lambda: parse_expr("3", -1, QQ), "arity must be >= 0, got -1"),
    (lambda: format_ratfunc(F, ["a"]), "need one name per variable"),
    (lambda: format_ratfunc(F, ["a", "b", "c"]), "need one name per variable"),
    (lambda: format_ratfunc(F, ["a b", "c"]), "variable name 'a b' is not an identifier"),
]


@pytest.mark.parametrize("call, message", WRONG_VALUES)
def test_a_wrong_value_is_one_value_error_line(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def elements(field, arity):
    if arity == 0:
        return [RatFunc.const(field, 0, c) for c in (0, 2, 3)]
    rng = random.Random(f"boundary:{field.p}:{arity}")
    return [random_ratfunc(rng, field, arity, max_degree=3, max_terms=3) for _ in range(4)]


def assert_round_trip(place):
    """The place's JSON decodes to a place with equal values and residues."""
    obj = json.loads(json.dumps(place.to_json()))
    back = place_from_json(obj)
    assert back.to_json() == obj
    for f in elements(place.field, place.arity):
        assert back.value(f) == place.value(f)
        assert back.residue(f) == place.residue(f)


ODD = [None, True, 1.5, "2", (), [], {}, b"", object(), QQ, AMB, PLACE, F, SHAPE, SIG]
odd = st.sampled_from(ODD)
small = st.integers(-3, 4)
hostile = odd | small
bad_rows = st.lists(st.lists(small | st.sampled_from([True, 2.0, None]), max_size=5), max_size=4)
ambients = st.sampled_from([AMB, AMB23])
name_lists = st.lists(st.sampled_from(["a", "b", "x1", "x2", "a b", "", 1, None]), max_size=3)
hostile_names = hostile | name_lists | name_lists.map(tuple)
PLACES = [PLACE, TOWER, MonomialPlace(F5, 0, AMB, []), MonomialPlace(QQ, 3, AMB, [(1, 0)] * 3)]


def fitting_rows(ambient, n):
    width = 2 * ambient.num_levels
    return st.lists(st.lists(small, min_size=width, max_size=width), min_size=n, max_size=n)


def elements_of(place):
    return st.lists(st.sampled_from(elements(place.field, place.arity)), max_size=3)


@st.composite
def group_args(draw, many):
    """(ambient, row or rows, den) that fit together."""
    ambient = draw(ambients)
    rows = draw(fitting_rows(ambient, draw(st.integers(0, 3)) if many else 1))
    return [ambient, rows if many else rows[0], draw(st.integers(1, 4))]


@st.composite
def monomial_args(draw, arity=None):
    ambient = draw(ambients)
    n = draw(st.integers(0, 3)) if arity is None else arity
    return [draw(st.sampled_from([QQ, F5])), n, ambient, draw(fitting_rows(ambient, n)),
            draw(st.integers(1, 4))]


@st.composite
def compose_args(draw):
    inner = draw(st.sampled_from(PLACES))
    args = draw(monomial_args(inner.residue_dim()))
    return [inner, MonomialPlace(inner.field, *args[1:])]


@st.composite
def embedding_args(draw):
    ambient = draw(ambients)
    m = draw(st.integers(1, 3))
    sources, images = ([GroupElem.from_row(ambient, row) for row in draw(fitting_rows(ambient, m))]
                       for _ in range(2))
    witnesses = draw(st.lists(st.lists(small, min_size=m, max_size=m), max_size=2))
    return [sources, images, witnesses]


@st.composite
def place_and(draw, *rest):
    """A place, then for each of `rest` its elements ("elems"), a
    signature of it on some ("sig"), or a target shape ("shape")."""
    place = draw(st.sampled_from(PLACES[:2]))
    args = [place]
    for kind in rest:
        if kind == "elems":
            args.append(draw(elements_of(place)))
        elif kind == "sig":
            args.append(signature(place, draw(elements_of(place))))
        else:
            args.append(draw(st.sampled_from([SHAPE, TargetShape("preserve_values",
                                                                 "composite_drop", 2, 0)])))
    return args


def fixed(*args):
    return st.just(list(args))


# name: (function, arguments that fit together, a hostile value per argument)
CALLS = {
    "AmbientGroup": (AmbientGroup, st.lists(st.sampled_from([2, 3, 5, 6, 7]), min_size=1,
                                            max_size=3).map(lambda ds: [ds]),
                     [hostile | st.lists(st.integers(-1, 12) | odd, max_size=3)
                      | st.just([10**13 + 1])]),
    "BaseField": (BaseField, st.sampled_from([0, 2, 5, 2**61 - 1]).map(lambda p: [p]),
                  [hostile | st.integers(2, 10**19)]),
    "from_row": (GroupElem.from_row, group_args(False), [hostile, bad_rows, hostile]),
    "from_rows": (Subgroup.from_rows, group_args(True), [hostile, bad_rows, hostile]),
    "MonomialPlace": (MonomialPlace, monomial_args(),
                      [hostile, hostile, hostile, bad_rows, hostile]),
    "compose": (compose, compose_args(), [hostile, hostile | st.sampled_from(PLACES)]),
    "TargetShape": (TargetShape, fixed("preserve_values", "composite_drop", 2, 0),
                    [hostile, hostile, hostile, hostile]),
    "value": (PLACE.value, st.sampled_from(elements(QQ, 2)).map(lambda f: [f]),
              [hostile | st.just(parse_expr("x1", 3, F5))]),
    "residue": (TOWER.residue, st.sampled_from(elements(QQ, 2)).map(lambda f: [f]),
                [hostile | st.just(parse_expr("x1", 2, F5))]),
    "rational_rank": (rational_rank, group_args(True).map(lambda a: [Subgroup.from_rows(*a)]),
                      [hostile]),
    "convex_rank": (convex_rank, group_args(True).map(lambda a: [Subgroup.from_rows(*a)]),
                    [hostile]),
    "format_ratfunc": (format_ratfunc, fixed(F, ("s", "t")), [hostile, hostile_names]),
    "parse_expr": (parse_expr, fixed("x1*x2 - 1/(2*x1)", 2, QQ, None),
                   [hostile, hostile | st.integers(-3, -1), hostile, hostile_names]),
    "check_spv_axioms": (check_spv_axioms, place_and("elems"),
                         [hostile, st.lists(hostile, min_size=1, max_size=2)]),
    "order_embedding_check": (order_embedding_check, embedding_args(),
                              [hostile, st.lists(hostile, min_size=1, max_size=2),
                               st.lists(hostile, min_size=1, max_size=2)]),
    "goodify": (goodify, place_and("elems", "shape"),
                [hostile, st.lists(hostile, min_size=1, max_size=2), hostile]),
    "density_witness": (density_witness, place_and("elems", "elems", "shape"),
                        [hostile, st.lists(hostile, min_size=1, max_size=2),
                         st.lists(hostile, min_size=1, max_size=2), hostile]),
    "perturb_weights": (perturb_weights,
                        place_and("sig", "shape").map(lambda a: [a[1], a[0], a[2]]),
                        [hostile, hostile, hostile]),
}


@st.composite
def calls(draw):
    """A call whose arguments fit together, with at most one made hostile."""
    name = draw(st.sampled_from(sorted(CALLS)))
    fn, fitting, hostiles = CALLS[name]
    args = draw(fitting)
    i = draw(st.integers(-1, len(args) - 1))
    if i >= 0:
        args[i] = draw(hostiles[i])
    return name, fn, args


@settings(max_examples=300, deadline=None)
@given(call=calls())
def test_hostile_arguments_return_or_raise_one_line(call):
    name, fn, args = call
    try:
        out = fn(*args)
    except (ValueError, TypeError) as exc:
        assert "\n" not in str(exc), (name, str(exc))
        return
    out = getattr(out, "place", out)  # goodify and density_witness: the place found
    # an element printed in the names given reads back in them
    if name == "format_ratfunc":
        f, names = args
        assert parse_expr(out, f.arity, f.field, names) == f
    elif name == "parse_expr":
        names = args[3]
        assert parse_expr(format_ratfunc(out, names), out.arity, out.field, names) == out
    elif isinstance(out, Place):
        assert_round_trip(out)
    elif isinstance(out, GroupElem):
        back = place_from_json({"kind": "monomial", "base": "Q", "arity": 1,
                                "ambient": out.ambient.to_json(), "weights": [out.to_json()]})
        assert back.weights[0] == out
