"""Guards against dead public code, both name-based.

Each public top-level function or class has a non-test caller: a reference
in another function or statement of the package (``__init__`` re-exports do
not count) or in the benchmark's ``bench/*.py``.  Each public field of a
package dataclass is read: an attribute access or keyword argument of its
name in the package, in ``bench/*.py`` or in the tests.  The class's own
``__post_init__``, which only validates and converts, does not count.
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


def reads(tree) -> set:
    """Every Attribute attr and call keyword in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out.add(node.arg)
    return out


def reads_outside(*dirs) -> set:
    """reads() of every *.py file in the directories under ROOT."""
    return set().union(*(reads(ast.parse(p.read_text()))
                         for d in dirs for p in sorted((ROOT / d).glob("*.py"))))


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


def unread(modules: dict, extra: set) -> list:
    """'module.Class.field' for each public field of a dataclass that nothing reads.

    modules maps a module name to its parsed tree; extra holds the names
    read outside them.  A read in the class's own __post_init__ does not count.
    """
    out = []
    for mod, tree in modules.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in names(d) for d in cls.decorator_list)):
                continue
            used = set(extra)
            for other in modules.values():
                for stmt in other.body:
                    if stmt is not cls:
                        used |= reads(stmt)
            for stmt in cls.body:
                if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"):
                    used |= reads(stmt)
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and not stmt.target.id.startswith("_") and stmt.target.id not in used):
                    out.append(f"{mod}.{cls.name}.{stmt.target.id}")
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


def test_guard_finds_unread_fields():
    modules = {"a": ast.parse("@dataclass\nclass P:\n    x: int\n    y: int = 0\n"
                              "    _z: int = 0\n\n    def __post_init__(self):\n"
                              "        self.y = abs(self.y)\n\n"
                              "@dataclasses.dataclass(frozen=True)\nclass Q:\n    v: int\n"
                              "    t: int\n\n    def total(self):\n        return self.t\n\n"
                              "class Plain:\n    w: int\n"),
               "b": ast.parse("import a\np = a.P(x=1)\n\ndef f(q):\n    return q.v\n")}
    # x is read as a keyword, v as an attribute, t by a method of its class;
    # y only by __post_init__, and Plain is no dataclass
    assert unread(modules, set()) == ["a.P.y"]
    assert unread(modules, {"y"}) == []
    del modules["b"]
    assert unread(modules, set()) == ["a.P.x", "a.P.y", "a.Q.v"]


def test_no_unread_dataclass_fields():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert unread(modules, reads_outside("bench", "tests")) == [], "dataclass fields nothing reads"


def test_no_test_only_public_functions():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    bench = set().union(*(names(ast.parse(p.read_text()))
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    found = {qual.split(".")[1] for qual in uncalled(modules, bench)}
    assert found - ALLOWED.keys() == set(), "public functions or classes only tests call"
    assert ALLOWED.keys() - found == set(), "allow-listed functions that now have a caller"
