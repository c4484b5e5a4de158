"""Import guards: every name a package module imports is used in that module,
and every name the package exports exists."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "npbe_uq"


def unused_imports(source: str) -> list:
    """'name (line n)' for each imported name the module never reads.

    A name counts as read when it appears as a Name node (attribute chains
    such as sp.diags start with one) or is listed in a literal __all__;
    ``from __future__`` imports are compiler directives and count as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_guard_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse as sp\nfrom fractions import Fraction\n"
              "from math import pi, tau\n"
              "__all__ = ['tau']\n"
              "x = sp.diags(pi)\n")
    assert unused_imports(source) == ["Fraction (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_export_exists():
    # unused_imports counts a listed name as used, so a stale __all__ entry
    # would otherwise fail only on `from npbe_uq import *`
    import npbe_uq
    assert [name for name in npbe_uq.__all__ if not hasattr(npbe_uq, name)] == []
