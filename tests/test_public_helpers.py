"""Test-only helper guard: every public top-level function has a caller outside the tests.

A caller is a reference in another function or statement of the package
(``__init__`` re-exports do not count) or in the benchmark's ``bench/*.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "npbe_uq"

# Public functions that no pipeline calls yet, each kept on purpose.
ALLOWED = {
    # oracles that tests compare the pipeline against
    "map_forward": "complex-y map evaluation, the analyticity probe's oracle",
    "solve_linear_interface": "linear interface solve, the manufactured-solution oracle",
    "operator_residual": "data -> solution -> data consistency oracle",
    "f_degree": "level budget of a polynomial degree, the index-set tests' oracle",
    "polynomial_index_set": "exactly integrated polynomials, the exactness tests' oracle",
    # links of the a priori analyticity-radius chain, which no pipeline runs yet
    "gaussian_xi_norms": "the charges' forcing norms xi_l2, xi_grad_l2 of BoundsInput",
    "estimate_c_max": "the Banach-algebra constant C_max of BoundsInput",
    "estimate_inverse_norm": "the coercivity proxy a of region_estimate",
    "distance_to_segment": "distance of a complex y to [-1, 1], for the region ledger",
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
    """'module.function' for each public top-level function with no caller.

    modules maps a module name to its parsed tree; extra holds the names
    referenced outside them.  A function's own body does not count.
    """
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
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


def test_no_test_only_public_functions():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    bench = set().union(*(names(ast.parse(p.read_text()))
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    found = {qual.split(".")[1] for qual in uncalled(modules, bench)}
    assert found - ALLOWED.keys() == set(), "public functions only tests call"
    assert ALLOWED.keys() - found == set(), "allow-listed functions that now have a caller"
