"""Every name a package module imports is used in that module, and no
module imports ``scipy.integrate`` when it is imported.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "na1lab"


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that it never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from .lp import read, run\nprint(np.pi, run)\n")
    assert unused_imports(source) == ["math", "read"]


def module_level_imports(source: str) -> list:
    """Modules a module imports outside its functions, ``from x import y``
    as ``x.y``."""
    found, pending = [], list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" for alias in node.names]
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_integrate_is_imported_where_it_is_used(path):
    """Only a quadrature integrates, so ``import na1lab`` does not load
    ``scipy.integrate``; checked on the source, since some scipy versions
    load it from other subpackages anyway."""
    imported = module_level_imports(path.read_text(encoding="utf-8"))
    assert not [name for name in imported if name.startswith("scipy.integrate")]


def test_module_level_imports_are_found():
    source = ("import scipy.integrate\nfrom scipy import integrate, special\n"
              "def f():\n    from scipy import optimize\n"
              "class C:\n    import math\n")
    assert sorted(module_level_imports(source)) == [
        "math", "scipy.integrate", "scipy.integrate", "scipy.special"]
