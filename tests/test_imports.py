"""No module of the package imports a name it never uses, and no
module-level name is dead.

No linter ships with the package, so this stands in for pyflakes' F401
on src/epiethics: every name a module-level import binds must be read
somewhere in the module. Exempt are names listed in the module's
__all__ (re-exports), __future__ imports, and import statements marked
`# noqa: F401` on one of their lines.

Two more checks keep the public surface honest: every name in a
module's __all__ is bound in that module, and every module-level def,
class or assigned name that its module does not export is read by some
module of the package (a load, an attribute or a from-import).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epiethics"
NOQA = "# noqa: F401"


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each unused module-level import binding, in order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in bound if name not in used]


def test_checker_flags_unused_and_spares_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import (exp,\n"
        "                  log)  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x: np.ndarray = None\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (7, "dumps")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_names(tree) -> dict:
    """Each module-level def, class and assigned name, with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        out[n.id] = node.lineno
    return out


def _bound(tree) -> set:
    names = set(module_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _read(tree) -> set:
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {a.name for a in n.names}
    return names


def dead_names(sources: dict) -> list:
    """(module, line, name) of each unexported module-level def, class or
    assigned name that no module of sources reads; dunders are exempt."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return sorted(
        (mod, line, name)
        for mod, tree in trees.items()
        for name, line in module_names(tree).items()
        if name not in read and name not in _exported(tree)
        and not (name.startswith("__") and name.endswith("__")))


def test_dead_name_checker_flags_only_unread_names():
    sources = {
        "a": ("__all__ = ['shown']\n__version__ = '1'\n"
              "def shown(): return helper()\n"
              "def helper(): pass\n"
              "def orphan(): pass\n"
              "TABLE, (X, Y) = {}, (1, 2)\n"),
        "b": "from .a import X\nimport a\nprint(a.TABLE)\n",
    }
    assert dead_names(sources) == [("a", 5, "orphan"), ("a", 6, "Y")]


def test_package_has_no_dead_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(sources) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_exports_only_names_it_binds(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_exported(tree) - _bound(tree)) == []
