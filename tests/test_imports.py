"""Source hygiene: every name the package exports exists and is listed
once, every imported name in the package and the tests is read somewhere
in its module, every private helper of the package is read somewhere in
the package, the tests or perfbench, and no line is longer than 79
characters."""

import ast
import types
from pathlib import Path

import pytest

import engelhomology

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/engelhomology/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))
READERS = MODULES + sorted(ROOT.glob("perfbench/*.py"))
IDS = [str(p.relative_to(ROOT)) for p in MODULES]
MAX_LINE = 79


def unused_imports(source):
    """Names an import binds that no expression reads; a string listed
    in a module-level __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        [(1, "os")]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []


def bad_exports(module):
    """Names in the module's __all__ that it lacks or lists twice; a
    stale name would fail only at `from module import *`, since the
    unused-import check counts every string of __all__ as read."""
    names = module.__all__
    return sorted({name for name in names if not hasattr(module, name)
                   or names.count(name) > 1})


def test_the_check_sees_a_stale_export():
    stale = types.ModuleType("stale")
    stale.kept = stale.twice = None
    stale.__all__ = ["kept", "PolyMatrix", "twice", "twice"]
    assert bad_exports(stale) == ["PolyMatrix", "twice"]


def test_every_export_exists_once():
    assert bad_exports(engelhomology) == []


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_line_over_79_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [(n, len(line)) for n, line in enumerate(lines, start=1)
            if len(line) > MAX_LINE] == []


def _is_private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def private_definitions(source):
    """(line, name) of the module-level private functions, classes and
    constants, and of the private methods of every class; dunders are
    left out."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign):
            found += [(node.lineno, n.id) for t in node.targets
                      for n in ast.walk(t) if isinstance(n, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return sorted((line, name) for line, name in found
                  if _is_private(name))


def names_read(source):
    """Every name a module reads: load-context names and attributes, and
    the names it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_check_sees_a_dead_helper():
    source = ("_POOL = 1\n"
              "def _used(): pass\n"
              "def _dead(): _used()\n"
              "class _Box:\n"
              "    def __init__(self): self._slot = 0\n"
              "    def _method(self): pass\n")
    assert private_definitions(source) == [
        (1, "_POOL"), (2, "_used"), (3, "_dead"), (4, "_Box"),
        (6, "_method")]
    read = names_read(source + "_Box()._method\n")
    assert {"_used", "_Box", "_method"} <= read
    assert not {"_POOL", "_dead", "_slot"} & read


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text(encoding="utf-8"))
                         for p in READERS))


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_dead_private_helpers(path, read_anywhere):
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined
            if name not in read_anywhere] == []
