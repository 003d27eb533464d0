"""List the package definitions whose code differs from a git revision's,
docstrings left out.

    python3 tools/same_code.py REV

Run from the root of a checkout.  Each module of ``src/na1lab`` is parsed
at ``REV`` and in the working tree, its docstrings are removed, and the AST
of every top-level statement, and of every method of a class, is compared.
Prints one line per definition that differs, added or removed, named
``module: name`` (an import by its module, a class method as
``Class.method``), and exits 1 when there is one, else 0.  A change to
docstrings, comments or layout alone prints nothing.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path("src/na1lab")


def _strip(node):
    """``node`` with the docstring of it and of every scope inside it removed."""
    for scope in ast.walk(node):
        if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(scope, clean=False) is not None:
                scope.body = scope.body[1:]
    return node


def _label(statement) -> str:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name
    if isinstance(statement, ast.ImportFrom):
        return f"from {'.' * statement.level}{statement.module or ''} import"
    if isinstance(statement, ast.Import):
        return "import " + ", ".join(alias.name for alias in statement.names)
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    return names[0] if names else f"{type(statement).__name__} statement"


def definitions(source: str) -> dict:
    """Dump of each labelled statement of a module, docstrings removed."""
    out: dict = {}
    for statement in _strip(ast.parse(source)).body:
        label = _label(statement)
        if isinstance(statement, ast.ClassDef):
            methods = [s for s in statement.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for method in methods:
                out.setdefault(f"{label}.{method.name}", []).append(ast.dump(method))
            statement.body = [s for s in statement.body if s not in methods]
        out.setdefault(label, []).append(ast.dump(statement))
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[1]
    listed = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
                            capture_output=True, text=True, check=True).stdout.split()
    names = sorted({n for n in listed if n.endswith(".py")} | {p.name for p in PACKAGE.glob("*.py")})
    differing = []
    for name in names:
        path = PACKAGE / name
        old = subprocess.run(["git", "show", f"{rev}:{path}"], capture_output=True, text=True)
        before = definitions(old.stdout) if old.returncode == 0 else {}
        after = definitions(path.read_text(encoding="utf-8")) if path.exists() else {}
        differing += [f"{path.stem}: {label}" for label in sorted(before.keys() | after.keys())
                      if before.get(label) != after.get(label)]
    print("\n".join(differing) if differing else f"every definition matches {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
