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


def nodes_in_functions(tree):
    """Each node of a tree with its innermost enclosing function ("" at
    module level), in source order."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, func
            yield from visit(child, func)

    return visit(tree, "")


def reference_name(node):
    """The name a Name or Attribute node refers to, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def name_uses(tree, name):
    """The innermost enclosing function ("" at module level) of each
    reference to a name or attribute `name`."""
    return [func for node, func in nodes_in_functions(tree)
            if reference_name(node) == name]


def test_one_grid_path():
    """Tensor grids come from symexpr.grid_blocks: no other code in the
    library builds one with meshgrid."""
    snippet = "def f(a):\n    return np.meshgrid(a, a)\n"
    assert name_uses(ast.parse(snippet), "meshgrid") == ["f"]
    for path in MODULES:
        uses = name_uses(ast.parse(path.read_text()), "meshgrid")
        helper = path == SRC / "symexpr.py"
        assert uses == (["grid_blocks"] * len(uses) if helper else []), path


def test_one_primitive():
    """Integrals along one coordinate come from normalform._primitive: it
    is the one place that builds a Gauss-Legendre rule with leggauss, and
    the one caller of symexpr.antiderivative (which otherwise calls only
    itself)."""
    snippet = "def f(n):\n    return np.polynomial.legendre.leggauss(n)\n"
    assert name_uses(ast.parse(snippet), "leggauss") == ["f"]
    for name in ("leggauss", "antiderivative"):
        for path in MODULES:
            uses = [func for func in name_uses(ast.parse(path.read_text()),
                                               name) if func != name]
            want = ["_primitive"] if path.name == "normalform.py" else []
            assert uses == want, (name, path)


def test_one_chart_scan():
    """Grid checks scan the chart through forms._chart_range, which puts
    every declared parameter at 1.0; the only other reader of
    symexpr.grid_blocks is the marching-squares grid of surface2d.  Whether
    a coefficient is nowhere zero on a chart is decided by forms._abs_range
    alone: the only other caller of _chart_range is darboux2d, for the
    bounds of its target patch."""
    for name, expected in [
            ("grid_blocks", {"forms.py": ["_chart_range"],
                             "surface2d.py": ["extract_zero_set"]}),
            ("_chart_range", {"forms.py": ["_abs_range"],
                              "normalform.py": ["darboux2d"]})]:
        for path in MODULES:
            uses = name_uses(ast.parse(path.read_text()), name)
            assert uses == expected.get(path.name, []), (name, path)


def test_one_line_scan():
    """Roots along a line come from evalcore._line_roots, which one line
    each of forms.find_z_components and surface2d.regularized_volume call;
    outside evalcore, only surface2d._refine_curve names the bracket solver
    or its sign test."""
    for name, expected in [
            ("_line_roots", {"forms.py": ["find_z_components"],
                             "surface2d.py": ["regularized_volume"]}),
            ("_solve_brackets", {"__init__.py": ["_line_roots"],
                                 "surface2d.py": ["_refine_curve"]}),
            ("_opposite_signs", {"__init__.py": ["_line_roots"],
                                 "surface2d.py": ["_refine_curve"]})]:
        for path in MODULES:
            uses = name_uses(ast.parse(path.read_text()), name)
            assert uses == expected.get(path.name, []), (name, path)


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


def sign_by_product(tree):
    """The line of each comparison of a `*` product with the constant 0."""
    def product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    def zero(node):
        return (isinstance(node, ast.Constant) and node.value == 0
                and not isinstance(node.value, bool))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [node.lineno for a, b in zip(operands, operands[1:])
                      if product(a) and zero(b) or zero(a) and product(b)]
    return found


def test_no_sign_by_product():
    """Signs are compared by evalcore._opposite_signs, never through a
    product with 0: the product overflows (a RuntimeWarning), or
    underflows to a zero that hides a sign change."""
    snippet = ("a = x * y < 0\nb = 0.0 <= p[1:] * q\nc = x * y < 1\n"
               "d = x < 0\ne = (x - y) > 0\n")
    assert sign_by_product(ast.parse(snippet)) == [1, 2]
    for path in MODULES:
        assert sign_by_product(ast.parse(path.read_text())) == [], path


def imported_modules(tree):
    """The top-level names of the modules that a tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_fork():
    """The library starts no process or thread of its own: no module forks
    or leaves through os._exit, or imports threading, a process or thread
    pool, mmap or signal."""
    snippet = ("import threading, concurrent.futures, mmap, signal\n"
               "from multiprocessing import Pool\nfrom . import x\n"
               "def f():\n    if os.fork() == 0:\n        os._exit(0)\n")
    tree = ast.parse(snippet)
    assert name_uses(tree, "fork") == name_uses(tree, "_exit") == ["f"]
    banned = {"threading", "multiprocessing", "concurrent", "mmap", "signal"}
    assert imported_modules(tree) == banned
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for name in ("fork", "_exit"):
            assert name_uses(tree, name) == [], (path, name)
        assert not imported_modules(tree) & banned, path


def defined_names(tree):
    """The names of every function and class that a tree defines, at any
    depth."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def test_no_renormalising():
    """Constructor output is canonical: no library module defines or uses
    normalize, which the tests keep as their oracle of that
    (tests/expr_oracles.py)."""
    snippet = ("def f(e):\n    return se.normalize(normalize(e))\n"
               "class K:\n    def normalize(self):\n        pass\n")
    assert name_uses(ast.parse(snippet), "normalize") == ["f", "f"]
    assert defined_names(ast.parse(snippet)) == {"f", "K", "normalize"}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        assert name_uses(tree, "normalize") == [], path
        assert "normalize" not in defined_names(tree), path


def test_one_place_for_caches():
    """No library module imports weakref: a cache lives on the node it
    describes, as sort_key and symexpr._shadow keep theirs, or for one
    call, never in a module-level table."""
    for snippet in ("import weakref\n",
                    "from weakref import WeakValueDictionary\n"):
        assert imported_modules(ast.parse(snippet)) == {"weakref"}
    for path in sorted(SRC.rglob("*.py")):
        imports = imported_modules(ast.parse(path.read_text()))
        assert "weakref" not in imports, path


NODE_CLASSES = ("Add", "Mul", "Pow")
# the canonical constructors
NODE_BUILDERS = {"mul", "add", "powr"}


def node_builds(tree):
    """(enclosing function, class) of each call that instantiates Add, Mul
    or Pow by name or attribute."""
    return [(func, reference_name(node.func))
            for node, func in nodes_in_functions(tree)
            if isinstance(node, ast.Call)
            and reference_name(node.func) in NODE_CLASSES]


def test_nodes_come_from_the_constructors():
    """add hands back a term that alone reaches its key without rebuilding
    it, which is sound only while every Add, Mul and Pow in the library is
    built by a canonical constructor: no other code instantiates them."""
    snippet = ("def f(e):\n"
               "    return se.Mul([Add(e)]) if isinstance(e, Pow) else e\n")
    assert node_builds(ast.parse(snippet)) == [("f", "Mul"), ("f", "Add")]
    for path in MODULES:
        tree = ast.parse(path.read_text())
        builders = {func for func, _ in node_builds(tree)}
        assert builders == (NODE_BUILDERS if path == SRC / "symexpr.py"
                            else set()), path


def bound_names(tree):
    """The names that a module binds at its top level: its functions,
    classes, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def exported_names(tree):
    """The names listed in a module's __all__, or none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_all_names_are_bound(path):
    """Every name in a module's __all__ is bound in that module, so that
    `from bgeo.<module> import *` cannot fail on an entry left behind by a
    deletion."""
    snippet = ast.parse("from .a import b as c\nimport x.y\nd, (e, f) = 1, (2, 3)\n"
                        "g: int = 4\ndef h():\n    i = 5\nclass J:\n    pass\n"
                        "__all__ = ['c', 'x', 'e', 'h', 'J']\n")
    assert bound_names(snippet) == {"c", "x", "d", "e", "f", "g", "h", "J",
                                    "__all__"}
    assert exported_names(snippet) == ["c", "x", "e", "h", "J"]
    tree = ast.parse(path.read_text())
    assert sorted(set(exported_names(tree)) - bound_names(tree)) == []


ROOT = SRC.parent.parent
# the code whose calls set a library default: a default that only tests
# override is a constant to every verdict
CALLERS = sorted(p for d in ("src", "perfbench")
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


# Optional parameters that no call in the library or the benchmark sets,
# kept on purpose, keyed by (callee, name), with the reason each stays.
KEPT_OPTIONAL = {}


def test_every_optional_parameter_is_set():
    """A default that no call in the library or the benchmark overrides is
    a constant: write it as one, or keep it in KEPT_OPTIONAL with its
    reason; every kept one is unset, so a stale entry fails."""
    snippet = ast.parse(
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, d=3):\n        pass\n"
        "    def g(self, e=4):\n        pass\n"
        "f(0, 1)\nK()\nk.g(**{})\nrun(f, 0, c=5)\n")
    assert unset_parameters([snippet], [snippet]) == [("K", "d")]
    library = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    callers = [ast.parse(p.read_text()) for p in CALLERS]
    assert sorted(unset_parameters(library, callers)) == sorted(KEPT_OPTIONAL)
    assert all(reason for reason in KEPT_OPTIONAL.values())
    # the guard's own count: 75 before these defaults became constants,
    # 49 before the code that only tests reached went, 40 before the
    # defaults that only tests set did
    assert sum(len(optional_parameters(t)) for t in library) <= 27


# Top-level functions and classes that no root reaches, kept on purpose,
# keyed by (module under bgeo, name), with the reason each stays.
KEPT_UNREACHED = {
    ("surface2d", "__getattr__"):
        "perfbench/tracing.py reads surface2d.brentq and surface2d.quad "
        "by getattr with no default",
}


def referenced_names(node):
    """Every name and attribute name that a tree reads or binds."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def bgeo_names(tree):
    """The names that a tree imports from a bgeo module, and the
    attributes it reads on a bgeo module or package that it imports."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "bgeo"):
            names.update(a.name for a in node.names)
            if node.module == "bgeo":   # from bgeo import <module>
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or "bgeo" for a in node.names
                           if a.name.split(".")[0] == "bgeo")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                names.add(node.attr)
    return names


def unreached(library, roots):
    """(module, name) of each top-level function and class of the library
    (module name -> tree) that no chain of names reaches from the root
    names.  A definition that is reached reaches every name its body
    reads.  Names, not scopes, link: a name defined in two modules is
    reached in both.  The top-level statements of a module that are not
    definitions run on import, so the names they read are roots too."""
    defs = {}
    todo = set(roots)
    for module, tree in library.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
            else:
                todo |= referenced_names(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, []):
                todo |= referenced_names(node)
    return sorted((module, name) for name, where in defs.items()
                  if name not in reached for module, _ in where)


def test_every_definition_is_reached():
    """Every top-level function and class of the library, private ones
    included, is reached through names from cli.py (main calls its cmd_*
    handlers by name), from what perfbench/*.py uses of bgeo, or is kept in
    KEPT_UNREACHED with its reason; every kept one is reached from no other
    root.  Code that only tests call lives under tests/."""
    snippet = ast.parse("X = f()\ndef f():\n    return g.h\ndef h():\n    pass\n"
                        "def k():\n    return m()\ndef m():\n    pass\n"
                        "class N:\n    def f(self):\n        pass\n")
    assert unreached({"s": snippet}, set()) == [("s", "N"), ("s", "k"),
                                                 ("s", "m")]
    assert unreached({"s": snippet}, {"N"}) == [("s", "k"), ("s", "m")]
    assert bgeo_names(ast.parse(
        "import bgeo.cli\nfrom bgeo import serialize as ser\n"
        "from bgeo.forms import wedge\nfrom os import path\n"
        "bgeo.cli.main(ser.load(path.x))\n")) == {"cli", "main", "serialize",
                                                  "load", "wedge"}
    library = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        library[module.removesuffix(".__init__")] = ast.parse(path.read_text())
    cli = library["cli"]
    roots = referenced_names(cli) | {node.name for node in cli.body
                                     if isinstance(node, ast.FunctionDef)}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= bgeo_names(ast.parse(path.read_text()))
    kept = {name for _, name in KEPT_UNREACHED}
    assert unreached(library, roots | kept) == []
    assert set(KEPT_UNREACHED) <= set(unreached(library, roots))
    assert all(reason for reason in KEPT_UNREACHED.values())


# Fields and methods that no code in the library or the benchmark reads,
# kept on purpose, keyed by (class, name), with the reason each stays.
KEPT_UNREAD = {}


def read_names(tree):
    """(name, enclosing functions) of each attribute that a tree loads,
    and of each getattr with a constant name; the enclosing functions are
    the ids of the def nodes around the read."""
    found = []

    def visit(node, funcs):
        for child in ast.iter_child_nodes(node):
            inner = funcs
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = funcs | {id(child)}
            elif (isinstance(child, ast.Attribute)
                  and isinstance(child.ctx, ast.Load)):
                found.append((child.attr, funcs))
            elif (isinstance(child, ast.Call)
                  and reference_name(child.func) == "getattr"
                  and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)):
                found.append((child.args[1].value, funcs))
            visit(child, inner)

    visit(tree, frozenset())
    return found


def class_members(tree):
    """(class, name, kind, def node or None) of each dataclass field,
    public __slots__ entry and method other than a dunder of every class
    in a tree."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(reference_name(getattr(d, "func", d)) == "dataclass"
                        for d in cls.decorator_list)
        for node in cls.body:
            if (dataclass and isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                found.append((cls.name, node.target.id, "field", None))
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__"
                          for t in node.targets)):
                found += [(cls.name, name, "slot", None)
                          for name in ast.literal_eval(node.value)
                          if not name.startswith("_")]
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))):
                found.append((cls.name, node.name, "method", node))
    return found


def unread(library, readers):
    """(class, name) of each field, slot and method of the library trees
    that no reader tree reads; a method read only inside its own def is
    unread.  Names, not scopes, link: a read of x.name reads every member
    called name."""
    reads = {}
    for tree in readers:
        for name, funcs in read_names(tree):
            reads.setdefault(name, []).append(funcs)
    return [(cls, name) for tree in library
            for cls, name, _, node in class_members(tree)
            if not any(node is None or id(node) not in funcs
                       for funcs in reads.get(name, []))]


def test_every_field_is_read():
    """Every dataclass field and public __slots__ entry of a library class
    is read, as an attribute or by getattr with its name, somewhere in the
    library or the benchmark, and every method other than a dunder is read
    outside its own def; or it is kept in KEPT_UNREAD with its reason, and
    every kept one is unread.  A field or method that only tests read is
    state that no verdict shows."""
    snippet = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int\n"
        "    def f(self):\n        return self.f()\n"
        "    def g(self):\n        return self.a\n"
        "    def __repr__(self):\n        return ''\n"
        "class B:\n    __slots__ = ('c', 'd', '_e')\n"
        "x = getattr(y, 'c')\nz = y.g\ny.d = 1\n")
    assert sorted(unread([snippet], [snippet])) == [
        ("A", "b"), ("A", "f"), ("B", "d")]
    library = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    readers = [ast.parse(p.read_text()) for p in CALLERS]
    assert sorted(unread(library, readers)) == sorted(KEPT_UNREAD)
    assert all(reason for reason in KEPT_UNREAD.values())
