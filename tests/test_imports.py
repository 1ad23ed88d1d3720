"""Every name the library imports is used in the module that imports it."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bgeo"
# the package's __init__ imports only to re-export
MODULES = sorted(p for p in SRC.rglob("*.py") if p != SRC / "__init__.py")


def unused_imports(tree):
    """(line, name) of each imported name that the module never reads;
    `from __future__` imports and names listed in __all__ are exempt."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def name_uses(tree, name):
    """The innermost enclosing function ("" at module level) of each
    reference to a name or attribute `name`."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name):
                found.append(func)
            visit(child, func)

    visit(tree, "")
    return found


def test_one_grid_path():
    """Tensor grids come from symexpr.grid_blocks: no other code in the
    library builds one with meshgrid."""
    snippet = "def f(a):\n    return np.meshgrid(a, a)\n"
    assert name_uses(ast.parse(snippet), "meshgrid") == ["f"]
    for path in MODULES:
        uses = name_uses(ast.parse(path.read_text()), "meshgrid")
        helper = path == SRC / "symexpr.py"
        assert uses == (["grid_blocks"] * len(uses) if helper else []), path


def test_one_chart_scan():
    """Grid checks scan the chart through forms._chart_range, which puts
    every declared parameter at 1.0; the only other reader of
    symexpr.grid_blocks is the marching-squares grid of surface2d."""
    expected = {"forms.py": ["_chart_range"],
                "surface2d.py": ["extract_zero_set"]}
    for path in MODULES:
        uses = name_uses(ast.parse(path.read_text()), "grid_blocks")
        assert uses == expected.get(path.name, []), path


def non_finite_messages(tree):
    """The innermost enclosing function ("" at module level) of each
    string, plain or part of an f-string, that holds "non-finite value";
    docstrings are exempt."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and id(child) not in docs
                    and "non-finite value" in str(child.value)):
                found.append(func)
            visit(child, func)

    visit(tree, "")
    return found


def test_one_finite_check():
    """Only evalcore.finite builds the "non-finite value" EvalDomainError;
    every other caller that needs numbers passes them through it."""
    snippet = ('def f(v):\n    """non-finite value"""\n'
               '    raise E(f"non-finite value {v}")\n'
               'def g(v):\n    m = "non-finite value %s" % v\n')
    assert non_finite_messages(ast.parse(snippet)) == ["f", "g"]
    for path in MODULES:
        uses = non_finite_messages(ast.parse(path.read_text()))
        helper = path == SRC / "evalcore" / "__init__.py"
        assert uses == (["finite"] if helper else []), path


def imported_modules(tree):
    """The top-level names of the modules that a tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_one_fork():
    """Only normalform._forked_flow forks, and only its child leaves
    through os._exit; threading is imported only for the active-count check
    of normalform._flow_parts, and no module imports a process or thread
    pool."""
    snippet = ("import threading, concurrent.futures\n"
               "from multiprocessing import Pool\nfrom . import x\n"
               "def f():\n    if os.fork() == 0:\n        os._exit(0)\n")
    tree = ast.parse(snippet)
    assert name_uses(tree, "fork") == name_uses(tree, "_exit") == ["f"]
    assert imported_modules(tree) == {"threading", "concurrent",
                                      "multiprocessing"}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        here = path == SRC / "normalform.py"
        for name in ("fork", "_exit"):
            assert name_uses(tree, name) == (["_forked_flow"] if here
                                             else []), (path, name)
        imports = imported_modules(tree)
        assert ("threading" in imports) == here, path
        assert not imports & {"multiprocessing", "concurrent"}, path
        assert name_uses(tree, "active_count") == (["_flow_parts"] if here
                                                   else []), path


def test_no_renormalising():
    """Constructor output is canonical: no module but symexpr uses
    normalize, and symexpr only in the recursion of normalize itself."""
    snippet = "def f(e):\n    return se.normalize(normalize(e))\n"
    assert name_uses(ast.parse(snippet), "normalize") == ["f", "f"]
    for path in MODULES:
        uses = name_uses(ast.parse(path.read_text()), "normalize")
        helper = path == SRC / "symexpr.py"
        assert uses == (["normalize"] * len(uses) if helper else []), path


ROOT = SRC.parent.parent
CALLERS = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def optional_parameters(tree):
    """(callee, position, name) of each parameter with a default of every
    function and method in the tree.  callee is the name a call uses: the
    class name for __init__; position counts the arguments a call passes
    by position (self and cls excluded), None for keyword-only ones."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                callee = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((callee, i, a.arg)
                             for i, a in enumerate(positional) if i >= first)
                found.extend((callee, None, a.arg) for a, d in
                             zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None)
                visit(child, None)
                continue
            visit(child, cls)

    visit(tree, None)
    return found


def calls_by_name(trees):
    """The calls in the trees, keyed by the name called (f(...) or
    x.f(...)).  A function handed to a call, as in verdict(f, x, **kw),
    counts as called with the arguments that follow it, as a wrapper that
    forwards them calls it."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for k, f in [(-1, node.func)] + list(enumerate(node.args)):
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(ast.Call(
                        f, node.args[k + 1:], node.keywords))
    return calls


def passes(call, position, name):
    """Whether a call passes a parameter: by keyword, by a ** splat, or by
    position (a * splat passes every positional one)."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(library, callers):
    calls = calls_by_name(callers)
    return [(callee, name) for tree in library
            for callee, position, name in optional_parameters(tree)
            if not any(passes(c, position, name)
                       for c in calls.get(callee, []))]


def test_every_optional_parameter_is_set():
    """A default that no call in the library, the tests or the benchmark
    overrides is a constant: write it as one."""
    snippet = ast.parse(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, d=3):\n        pass\n"
        "    def g(self, e=4):\n        pass\n"
        "f(0, 1)\nK()\nk.g(**{})\nrun(f, 0, c=5)\n")
    assert unset_parameters([snippet], [snippet]) == [("K", "d")]
    library = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    callers = [ast.parse(p.read_text()) for p in CALLERS]
    assert unset_parameters(library, callers) == []
    # the guard's own count: 75 before these defaults became constants
    assert sum(len(optional_parameters(t)) for t in library) <= 49
