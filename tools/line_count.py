"""Count the lines of each package module by kind, optionally against a
git revision.

    python3 tools/line_count.py [REV]

Run from the root of a checkout.  Each module of ``src/na1lab`` is counted
in the working tree: its total lines (``wc -l`` of a file ending in a
newline), then each line as exactly one of code, docstring, comment or
blank.  A code line holds a token that is not a comment, a docstring, a
newline or indentation (``tokenize``); a docstring is the first string
statement of a module, class or function (``ast``), all of its lines; a
comment line holds only a comment; a blank line holds nothing.  With
``REV``, each module is also read with ``git show REV:path`` and every
count is followed by its change against that revision; a module missing on
one side counts zero there.  Nothing is written into the checkout.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src/na1lab")
KINDS = ("total", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(scope, clean=False) is not None:
                first = scope.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """``{kind: lines}`` of one module's source, for each of ``KINDS``."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT and token.start[0] not in docstrings:
            code.update(range(token.start[0], token.end[0] + 1))
    total = source.count("\n") + (not source.endswith("\n") and bool(source))
    docstrings -= code
    comments -= code | docstrings
    kinds = (code, docstrings, comments)
    return dict(zip(KINDS, (total, *map(len, kinds), total - sum(map(len, kinds)))))


def table(now: dict, before: dict | None = None) -> str:
    """One row of counts per module of ``now`` or ``before``, then their
    sums; with ``before``, each count is followed by its change."""
    zero = dict.fromkeys(KINDS, 0)
    sides = (now, before or {})
    names = sorted(now.keys() | sides[1].keys())
    rows = {name: [side.get(name, zero) for side in sides] for name in names}
    rows["total"] = [{k: sum(row[i][k] for row in rows.values()) for k in KINDS} for i in (0, 1)]
    width = 6 if before is None else 12
    lines = [f"{'module':<14}" + "  ".join(f"{k:>{width}}" for k in KINDS)]
    for name, (after, earlier) in rows.items():
        cells = [f"{after[k]:>6}" + ("" if before is None else f" {after[k] - earlier[k]:>+5}")
                 for k in KINDS]
        lines.append(f"{name:<14}" + "  ".join(cells))
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    now = {p.name: count(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    before = None
    if len(argv) == 2:
        rev = argv[1]
        listed = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
                                capture_output=True, text=True, check=True).stdout.split()
        before = {name: count(subprocess.run(["git", "show", f"{rev}:{PACKAGE / name}"],
                                             capture_output=True, text=True, check=True).stdout)
                  for name in listed if name.endswith(".py")}
    print(table(now, before))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
