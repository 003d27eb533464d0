"""The README's quick-tour code block runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README quick tour", "exec"), {})
    strategy, price = capsys.readouterr().out.rsplit("]", 1)
    assert float(strategy.strip(" [")) == pytest.approx(0.5, abs=1e-8)
    assert float(price) == pytest.approx(0.75, abs=1e-9)
