"""Source hygiene: every imported name in the package and the tests is
read somewhere in its module, and no line is longer than 79 characters."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/engelhomology/*.py")) + \
    sorted(ROOT.glob("tests/*.py"))
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


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_no_line_over_79_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [(n, len(line)) for n, line in enumerate(lines, start=1)
            if len(line) > MAX_LINE] == []
