"""Test-only helper guard: each public top-level function or class has a non-test caller.

A caller is a reference in another function or statement of the package
(``__init__`` re-exports do not count) or in the benchmark's ``bench/*.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "npbe_uq"

# Public functions that no pipeline calls, each kept on purpose: oracles that
# tests compare the pipeline against.
ALLOWED = {
    "map_forward": "complex-y map evaluation, the analyticity probe's oracle",
    "solve_linear_interface": "linear interface solve, the manufactured-solution oracle",
    "operator_residual": "data -> solution -> data consistency oracle",
    "f_degree": "level budget of a polynomial degree, the index-set tests' oracle",
    "polynomial_index_set": "exactly integrated polynomials, the exactness tests' oracle",
}


def names(tree) -> set:
    """Every Name id and Attribute attr in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def uncalled(modules: dict, extra: set) -> list:
    """'module.name' for each public top-level function or class with no caller.

    modules maps a module name to its parsed tree; extra holds the names
    referenced outside them.  A definition's own body does not count.
    """
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            used = set(extra)
            for other, other_tree in modules.items():
                if other != mod:
                    used |= names(other_tree)
            for stmt in tree.body:
                if stmt is not node:
                    used |= names(stmt)
            if node.name not in used:
                out.append(f"{mod}.{node.name}")
    return out


def test_guard_finds_uncalled_functions():
    modules = {"a": ast.parse("def f():\n    return f()\n\ndef g():\n    return h()\n"
                              "def _private():\n    pass\n"),
               "b": ast.parse("import a\nx = a.g()\n\ndef h():\n    pass\n")}
    assert uncalled(modules, set()) == ["a.f"]
    assert uncalled(modules, {"f"}) == []
    # a class counts like a function: only a reference outside its own body is a caller
    modules["c"] = ast.parse("class C:\n    def make(self):\n        return C()\n\n"
                             "class D:\n    pass\n\nclass _Hidden:\n    pass\n")
    modules["d"] = ast.parse("def use(x: a.D):\n    return x\n")
    assert uncalled(modules, {"f", "use"}) == ["c.C"]
    assert uncalled(modules, {"f", "use", "C"}) == []


def test_no_test_only_public_functions():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    bench = set().union(*(names(ast.parse(p.read_text()))
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    found = {qual.split(".")[1] for qual in uncalled(modules, bench)}
    assert found - ALLOWED.keys() == set(), "public functions or classes only tests call"
    assert ALLOWED.keys() - found == set(), "allow-listed functions that now have a caller"
