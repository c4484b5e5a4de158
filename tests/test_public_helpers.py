"""Guards against dead public code, all name-based.

Each public top-level function or class has a non-test caller: a reference
in another function or statement of the package (``__init__`` re-exports do
not count) or in the benchmark's ``bench/*.py``.  Each defaulted parameter
of a public top-level function is passed, by position or keyword, by some
call in the package or in ``bench/*.py``.  Each public field of a package
dataclass is read: an attribute access of its name, or a keyword of its
name in a call to its class or to ``replace``, in the package, in
``bench/*.py`` or in the tests.  The class's own ``__post_init__``, which
only validates and converts, does not count.  Attribute names still
collide: ``config.N`` or ``record.w`` counts as a read of every field named
N or w, so a field that only echoes an input can pass unseen.

No public function or class is exempt: a reference that only tests use
lives in ``tests/conftest.py``.  ALLOWED_DEFAULTS lists the defaulted
parameters that only tests pass, each with its reason.

No package module reads an underscore name of another: what one module
needs of another is public there.
"""

import ast
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "npbe_uq"

# Defaulted parameters that no pipeline passes, each kept on purpose.
ALLOWED_DEFAULTS = {
    "region.m_tilde(samples)": "tests lower it to keep N = 3 rings fast, and raise it "
                               "for an accuracy case",
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
    """Every Attribute attr in the tree, and 'f(k)' for each keyword k of a call to f."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Call):
            out |= {f"{callee(node)}({k.arg})" for k in node.keywords if k.arg is not None}
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

    modules maps a module name to its parsed tree; extra holds the reads()
    outside them.  A field is read by an attribute of its name or by a
    keyword of its name in a call to its class or to replace.  A read in the
    class's own __post_init__ does not count.
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
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                field = stmt.target.id
                if not (field.startswith("_") or field in used
                        or {f"{cls.name}({field})", f"replace({field})"} & used):
                    out.append(f"{mod}.{cls.name}.{field}")
    return out


def callee(call) -> str:
    """The called name: f of f(...) and of obj.f(...), else None."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def unpassed(modules: dict, extra: list) -> list:
    """'module.function(param)' for each defaulted parameter no call passes.

    Covers the public top-level functions of modules, which maps a module
    name to its parsed tree; extra holds the parsed trees of other callers.
    A call is one whose callee's name (or attribute) is the function's; it
    passes a parameter by keyword, or by position when it has more
    positional arguments than precede it, and a call with *args or **kwargs
    passes them all.  Calls in the function's own body do not count.
    """
    out = []
    for mod, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = {p.arg: i for i, p in enumerate(positional) if i >= first}
            defaulted.update({p.arg: math.inf for p, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None})
            sources = [stmt for other in modules.values() for stmt in other.body
                       if stmt is not fn] + extra
            passed = set()
            for node in (n for src in sources for n in ast.walk(src)):
                if not (isinstance(node, ast.Call) and fn.name == callee(node)):
                    continue
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    passed |= defaulted.keys()
                passed |= {p for p, i in defaulted.items() if i < len(node.args)}
                passed |= {k.arg for k in node.keywords}
            out += [f"{mod}.{fn.name}({p})" for p in defaulted if p not in passed]
    return out


def is_private(name: str) -> bool:
    """An underscore name that is not a dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(modules: dict) -> list:
    """'module:line other._name' for each read of another module's underscore name.

    modules maps a module name to its parsed tree.  A read is an attribute
    _name of a module bound by ``from . import other [as alias]``, or a
    ``from .other import _name``; dunder names do not count.  The list is in
    module and line order.
    """
    out = []
    for mod, tree in modules.items():
        bound, found = {}, []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module is None:
                bound.update({a.asname or a.name: a.name for a in node.names})
            elif node.module != mod:
                found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                          if is_private(a.name)]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and bound.get(node.value.id, mod) != mod and is_private(node.attr)):
                found.append((node.lineno, f"{bound[node.value.id]}.{node.attr}"))
        out += [f"{mod}:{line} {name}" for line, name in sorted(found)]
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
               "b": ast.parse("import a\np = a.P(x=1)\n\ndef f(q):\n    return q.v\n\n"
                              "g(y=1)\n")}
    # x is read as a keyword of a call to P, v as an attribute, t by a method
    # of its class; y only by __post_init__ and by a keyword of a call to g,
    # and Plain is no dataclass
    assert unread(modules, set()) == ["a.P.y"]
    assert unread(modules, {"y"}) == [] == unread(modules, {"P(y)"})
    assert unread(modules, {"replace(y)"}) == [] and unread(modules, {"Q(y)"}) == ["a.P.y"]
    del modules["b"]
    assert unread(modules, set()) == ["a.P.x", "a.P.y", "a.Q.v"]


def test_guard_finds_unpassed_parameters():
    modules = {"a": ast.parse("def f(x, y=1, z=2, *, k=3):\n    return f(x, y, z, k=k)\n\n"
                              "def g(v=0):\n    return v\n\ndef _h(w=0):\n    return w\n"),
               "b": ast.parse("import a\nx = a.f(1, 2)\n")}
    # y is passed by position; f's own recursive call does not count, and
    # private functions are not checked
    assert unpassed(modules, []) == ["a.f(z)", "a.f(k)", "a.g(v)"]
    extra = [ast.parse("a.f(0, k=1)\ng(*vals)\n")]
    assert unpassed(modules, extra) == ["a.f(z)"]
    assert unpassed(modules, extra + [ast.parse("f(**opts)\n")]) == []


def test_guard_finds_private_reads():
    modules = {"a": ast.parse("_X = 1\n\ndef _f():\n    return _X\n"),
               "b": ast.parse("from . import a\nfrom . import c as cc\n"
                              "from .a import _X, f\n\ndef g():\n"
                              "    return a._f() + a.f() + cc._y + a.__name__ + h._z\n")}
    # the module's own names, public names, dunders and a name that is not
    # an imported module do not count
    assert private_reads(modules) == ["b:3 a._X", "b:6 a._f", "b:6 c._y"]


def test_no_private_cross_module_reads():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert private_reads(modules) == [], "modules that read another module's underscore names"


def test_no_test_only_parameters():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    found = set(unpassed(modules, bench))
    assert found - ALLOWED_DEFAULTS.keys() == set(), "defaulted parameters only tests pass"
    assert ALLOWED_DEFAULTS.keys() - found == set(), "allow-listed parameters that are now passed"


def test_no_unread_dataclass_fields():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert unread(modules, reads_outside("bench", "tests")) == [], "dataclass fields nothing reads"


def test_no_test_only_public_functions():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    bench = set().union(*(names(ast.parse(p.read_text()))
                          for p in sorted((ROOT / "bench").glob("*.py"))))
    assert uncalled(modules, bench) == [], "public functions or classes only tests call"
