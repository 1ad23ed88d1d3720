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


def test_no_renormalising():
    """Constructor output is canonical: no module but symexpr uses
    normalize, and symexpr only in the recursion of normalize itself."""
    snippet = "def f(e):\n    return se.normalize(normalize(e))\n"
    assert name_uses(ast.parse(snippet), "normalize") == ["f", "f"]
    for path in MODULES:
        uses = name_uses(ast.parse(path.read_text()), "normalize")
        helper = path == SRC / "symexpr.py"
        assert uses == (["normalize"] * len(uses) if helper else []), path
