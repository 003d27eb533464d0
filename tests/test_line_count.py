"""``tools/line_count.py``'s line kinds, on a synthetic module."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_count.py"
_SPEC = importlib.util.spec_from_file_location("line_count", _PATH)
line_count = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_count)

#: Lines 1-2, 10 and 17-19 are docstrings (18 a blank line inside one), 6
#: a comment alone, 4, 9, 11-13, 16 and 21 code (11-12 a string that is
#: not a docstring), the other 7 blank.
SOURCE = '''"""Module docstring
over two lines."""

import os  # a comment after code

# a comment alone


def f(x):
    """One-line docstring."""
    text = """a string
that is code"""
    return x  # trailing


class C:
    """Class docstring.

    With a blank line inside."""

    value = 1
'''


def test_each_line_has_one_kind():
    assert line_count.count(SOURCE) == {"total": 21, "code": 7, "docstring": 6, "comment": 1,
                                        "blank": 7}


def test_a_last_line_without_newline_counts():
    assert line_count.count("x = 1\ny = 2") == {"total": 2, "code": 2, "docstring": 0,
                                                 "comment": 0, "blank": 0}


def test_table_sums_the_modules_and_shows_each_change():
    now = {"a.py": line_count.count(SOURCE), "b.py": line_count.count("x = 1\n")}
    before = {"a.py": line_count.count(SOURCE + "\n# more\n")}
    rows = line_count.table(now, before).splitlines()
    assert rows[0].split() == ["module", *line_count.KINDS]
    assert rows[1].split() == ["a.py", "21", "-2", "7", "+0", "6", "+0", "1", "-1", "7", "-1"]
    assert rows[2].split() == ["b.py", "1", "+1", "1", "+1", "0", "+0", "0", "+0", "0", "+0"]
    assert rows[3].split() == ["total", "22", "-1", "8", "+1", "6", "+0", "1", "-1", "7", "-1"]
    assert line_count.table(now).splitlines()[3].split() == ["total", "22", "8", "6", "1", "7"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_revision_counts_leave_the_checkout_as_it_was(tmp_path):
    package = tmp_path / "src" / "na1lab"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "synthetic")
    (package / "a.py").write_text(SOURCE + "y = 2\n")
    status = git("status", "--porcelain", "--untracked-files=all")
    out = subprocess.run([sys.executable, str(_PATH), "HEAD"], cwd=tmp_path, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[1].split() == ["a.py", "22", "+1", "8", "+1", "6", "+0", "1", "+0", "7", "+0"]
    assert git("status", "--porcelain", "--untracked-files=all") == status
