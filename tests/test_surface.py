"""The library's surface: every module-level name, private method and
public method in src/placeforge has a user outside the tests, and every
public name resolves.

A function, class or method that only tests reach is code no command runs,
though every CLI job still compiles it.  A name counts as used only where
code reads it, outside its own definition, in src/placeforge (not
`__init__.py`, which only re-exports) or in perfbench/*.py, parsed without
importing anything there: as a name, an attribute or an imported name, or
as a part of a dotted name in one of perfbench's string constants (its
tracer wraps functions named that way).  A public method counts as used
when it is read as an attribute, `.name`, or named in such a string.
Comments and docstrings are not reads.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import placeforge
from placeforge import approx

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "placeforge"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def reads(path):
    """(name, line, as an attribute) of each name the code of `path` reads:
    a Name, an attribute, an imported name and, in perfbench, each part of
    a dotted string constant."""
    strings = path.parent.name == "perfbench"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield part, node.lineno, False
        elif strings and isinstance(node, ast.Constant) and type(node.value) is str:
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, True


def code_reads():
    """{name: [(path, line, as an attribute)]} of the reads in
    src/placeforge without `__init__.py`, and in perfbench/*.py."""
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    out = {}
    for path in paths + sorted((ROOT / "perfbench").glob("*.py")):
        for name, line, attribute in reads(path):
            out.setdefault(name, []).append((path, line, attribute))
    return out


CODE_READS = code_reads()


def is_read(name, path, first, last, attribute=False):
    """Whether code outside lines first..last of `path` reads `name` (as an
    attribute, when `attribute`)."""
    return any((where != path or not first <= line <= last) and (as_attribute or not attribute)
               for where, line, as_attribute in CODE_READS.get(name, ()))


def module_level_definitions():
    """(path, name, first line, last line) of each module-level function and
    class, and of each private method: one whose name starts with "_" or
    one of a class whose name does.  Decorators are included; dunder
    methods, which the language calls, and the PEP 562 `__getattr__` are
    left out."""

    def span(node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return first, node.end_lineno

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name == "__getattr__":
                continue
            yield path, node.name, *span(node)
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                name = getattr(method, "name", "")
                if (isinstance(method, ast.FunctionDef) and not name.endswith("__")
                        and (name.startswith("_") or node.name.startswith("_"))):
                    yield path, name, *span(method)


def test_every_module_level_name_has_a_user_outside_the_tests():
    defined, unused = 0, []
    for path, name, first, last in module_level_definitions():
        defined += 1
        if not is_read(name, path, first, last):
            unused.append(f"{path.stem}.{name}")
    assert defined > 50
    assert unused == []


def public_methods():
    """(path, class, name, first line, last line) of each public method of
    a class in src/placeforge: one whose name does not start with "_",
    properties and static and class methods included.  Decorators are
    included in the lines."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    first = min([method.lineno] + [d.lineno for d in method.decorator_list])
                    yield path, node.name, method.name, first, method.end_lineno


def test_every_public_method_has_a_user_outside_the_tests():
    defined, unused = 0, []
    for path, cls, name, first, last in public_methods():
        defined += 1
        if not is_read(name, path, first, last, attribute=True):
            unused.append(f"{path.stem}.{cls}.{name}")
    assert defined > 50
    assert unused == []


def test_public_names_resolve_sorted_and_unique():
    names = placeforge.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(placeforge, name), name
    # the names served lazily are approx's own attributes, not copies
    assert len(placeforge._APPROX) == 7
    for name in placeforge._APPROX:
        assert name in names
        assert getattr(placeforge, name) is getattr(approx, name)


def test_every_import_is_used():
    """Each name a module in src/placeforge imports is read in that module.
    Re-exports count as reads in `__init__.py` when they are in `__all__`,
    and an import kept for its side effect is marked `# noqa: F401`."""
    imported, unused = 0, []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(placeforge.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported += 1
                if name not in read:
                    unused.append(f"{path.stem}: {name}")
    assert imported > 50
    assert unused == []


def test_readme_library_section_lists_every_exported_name():
    """README's "Library" section has one "- `name`" line per name in
    `placeforge.__all__`, and no other."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, re.M)
    assert listed == placeforge.__all__


def test_a_cold_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter importing the package, `approx` and the CLI
    module loads neither `dataclasses` nor `inspect`, which with `ast`,
    `dis` and `tokenize` cost a cold job about 30 ms; a module joining the
    import path needs a measurement first.  Without the CLI, whose
    `jsonschema` loads `fractions`, neither `fractions` nor its `decimal`
    is loaded either: group values are integer rows, and only
    `GroupElem.coords` builds Fractions, importing them when called."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for modules, unwanted in (("placeforge, placeforge.approx, placeforge.cli",
                               {"dataclasses", "inspect"}),
                              ("placeforge, placeforge.approx",
                               {"dataclasses", "inspect", "fractions", "decimal"})):
        code = (f"import sys, {modules}; "
                f"print(sorted(set(sys.modules).intersection({sorted(unwanted)})))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]", modules
