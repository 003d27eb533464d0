"""The README's quick-tour code block runs as printed, its command-line
section names every command, option and exit code, and every public name
keeps a docstring."""

import importlib
import re
from pathlib import Path

import pytest

import na1lab
from na1lab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.stem for p in Path(na1lab.__file__).parent.glob("*.py"))


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README quick tour", "exec"), {})
    strategy, price = capsys.readouterr().out.rsplit("]", 1)
    assert float(strategy.strip(" [")) == pytest.approx(0.5, abs=1e-8)
    assert float(price) == pytest.approx(0.75, abs=1e-9)


def test_command_line_section_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    options = [o for action in cli._build_parser()._actions
               for o in action.option_strings if o.startswith("--")]
    missing = [o for o in [*cli.COMMANDS, *options] if not re.search(rf"{o}\b", section)]
    missing += [f"`{code}`" for code in range(4) if f"`{code}`" not in section]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_module_has_a_docstring(module):
    name = "na1lab" if module == "__init__" else f"na1lab.{module}"
    assert (importlib.import_module(name).__doc__ or "").strip()


@pytest.mark.parametrize("name", na1lab.__all__)
def test_every_public_name_has_a_docstring(name):
    value = getattr(na1lab, name)
    assert (value.__doc__ or "").strip()
    if isinstance(value, type) and hasattr(value, "__dataclass_fields__"):
        # a dataclass without a docstring gets its signature as one
        assert not value.__doc__.startswith(f"{name}(")
