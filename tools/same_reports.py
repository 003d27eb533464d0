"""Compare the report bytes of a git revision with the working tree's.

    python3 tools/same_reports.py REV

``src`` at ``REV`` is extracted with ``git archive`` into a temporary
directory; nothing is written into the checkout.  Each side then runs in a
fresh interpreter, on the working tree's ``perfbench`` schedule at seed 0
(``workload.schedule`` and ``workload.run_one``, read only): the first 504
small_markets, 96 large_markets and 32 scenario_trees operations, and the
``tree`` command on the 8,191-node tree of the CI step, under log and under
power(0.5) utility.  No operation is cut by a latency limit.  Prints one
line per operation whose report differs, with the JSON path of its largest
relative change, and exits 1 when there is one, else 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
OPERATIONS = {"small_markets": 504, "large_markets": 96, "scenario_trees": 32}
#: The CI step's trees: binary, horizon 12, a claim on every leaf, under log
#: and under power(0.5) utility.
TREE_DOC = ("import json, sys, numpy as np; from test_cli_fuzz import random_tree_doc; "
            "doc = random_tree_doc(np.random.default_rng(3), True, branching=2, horizon=12); "
            "doc['utility'] = {'kind': 'log'}; json.dump(doc, open(sys.argv[1] + '/tree-log.json', 'w')); "
            "doc['utility'] = {'kind': 'power', 'gamma': 0.5}; "
            "json.dump(doc, open(sys.argv[1] + '/tree-power.json', 'w'))")
#: An operation may take this long; the schedule's limits guard latency,
#: which is not compared here.
NO_LIMIT_S = 3600.0


def largest_change(before, after, path="$"):
    """(relative change, JSON path) of the largest difference between two
    JSON values: ``|a - b| / max(|a|, |b|)`` between two ints or two floats,
    infinite where a type (an int against a float too), a string, a key set or
    a length differs, 0 when they are equal."""
    if type(before) is type(after) and type(before) in (int, float):
        if before == after or (math.isnan(before) and math.isnan(after)):
            return 0.0, path
        scale = max(abs(before), abs(after))
        return (abs(before - after) / scale if math.isfinite(scale) else math.inf), path
    if isinstance(before, dict) and isinstance(after, dict):
        if before.keys() != after.keys():
            return math.inf, path
        return _largest([largest_change(before[k], after[k], f"{path}.{k}")
                         for k in sorted(before)], path)
    if isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            return math.inf, path
        return _largest([largest_change(b, a, f"{path}[{i}]")
                         for i, (b, a) in enumerate(zip(before, after))], path)
    if type(before) is type(after) and before == after:
        return 0.0, path
    return math.inf, path


def _largest(changes, path):
    return max((c for c in changes if c[0] > 0.0), key=lambda c: c[0], default=(0.0, path))


def _parsed(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return text


def differences(before: dict, after: dict) -> list:
    """One line per operation whose report text differs, or that only one
    side ran, between two ``{operation: report text}`` maps."""
    lines = []
    for op in list(before) + [op for op in after if op not in before]:
        if op not in before or op not in after:
            lines.append(f"{op}: only {'after' if op in after else 'before'} ran it")
        elif before[op] != after[op]:
            change, path = largest_change(_parsed(before[op]), _parsed(after[op]))
            lines.append(f"{op}: largest relative change {change:.3e} at {path}")
    return lines


def _side(docs: Path, out: Path) -> None:
    """Run the operations with the ``na1lab`` on the path and write
    ``{operation: report text}`` as JSON to ``out``."""
    import signal

    import na1lab
    import na1lab.cli
    import workload

    signal.signal(signal.SIGALRM, workload._on_alarm)
    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, count in OPERATIONS.items():
            for index, op in zip(range(count), workload.schedule(name, SEED, na1lab, Path(workdir))):
                op.limit = NO_LIMIT_S
                reports[f"{name} {index} {op.command or 'api'}"] = workload.run_one(op).text
        for doc in sorted(docs.glob("tree-*.json")):
            report = Path(workdir) / "report.json"
            code = na1lab.cli.main(["--command", "tree", "--input", str(doc), "--output", str(report)])
            reports[f"ci {doc.stem}"] = report.read_text() if code == 0 else f"exit {code}\n"
    out.write_text(json.dumps(reports))


def _run(src: Path, tmp: Path, label: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "perfbench")])}
    return subprocess.Popen([sys.executable, __file__, "--side", str(tmp), label], env=env)


def main(argv) -> int:
    if len(argv) == 4 and argv[1] == "--side":
        _side(Path(argv[2]), Path(argv[2]) / f"{argv[3]}.json")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", argv[1], "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
        subprocess.run([sys.executable, "-c", TREE_DOC, str(tmp)], env=env, check=True)
        sides = [_run(tmp / "rev" / "src", tmp, "before"), _run(ROOT / "src", tmp, "after")]
        if [side.wait() for side in sides] != [0, 0]:
            print("a side failed to run", file=sys.stderr)
            return 2
        before, after = (json.loads((tmp / f"{label}.json").read_text()) for label in ("before", "after"))
    lines = differences(before, after)
    print("\n".join(lines) if lines else f"{len(after)} reports match {argv[1]}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
