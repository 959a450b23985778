"""The benchmark's tracer wraps placeforge functions by qualified name; a
refactor that renames one must fail here, not only in a traced benchmark run.

The name list is read from perfbench/tracer.py as source, without importing
or changing anything under perfbench/.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return [name for names in layers.values() for name in names]
    raise AssertionError(f"no FUNCTIONS table in {TRACER}")


def test_traced_names_resolve_in_placeforge():
    names = [n for n in traced_names() if n != "jsonschema.validate"]
    assert len(names) >= 30
    for qualname in names:
        mod_name, _, rest = qualname.partition(".")
        module = importlib.import_module(f"placeforge.{mod_name}")
        if "." in rest:
            cls_name, attr = rest.split(".")
            # the tracer replaces the attribute in the class's own namespace
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, rest, None)), qualname


def test_quadscalar_construction_hook_exists():
    # the tracer counts QuadScalar constructions by wrapping this method in
    # the class's own namespace; without it a traced run fails on a KeyError
    ordgroup = importlib.import_module("placeforge.ordgroup")
    assert "__post_init__" in vars(ordgroup.QuadScalar)
