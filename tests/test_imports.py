"""No module of the package imports a name it never uses.

No linter ships with the package, so this stands in for pyflakes' F401
on src/epiethics: every name a module-level import binds must be read
somewhere in the module. Exempt are names listed in the module's
__all__ (re-exports), __future__ imports, and import statements marked
`# noqa: F401` on one of their lines.
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
    assert unused_imports(path.read_text()) == []
