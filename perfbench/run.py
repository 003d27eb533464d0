"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload small_markets --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is read from ``src``
as it stands, nothing is installed.  The workload runs in a fresh
interpreter (``perfbench/workload.py``).  With ``--trace 0`` this script also
times ``import na1lab`` in several fresh interpreters and reports the median
as ``setup_s``; with ``--trace 1`` it reads per-module import times from
``python -X importtime`` instead.  The last line of standard output is the
JSON result; without a package to benchmark the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: Modules whose cumulative import time the traced run reports.
MODULES = ("errors", "lp", "market", "arbitrage", "portfolio", "hedging", "factor",
           "tree", "io", "cli")

IMPORT_SNIPPET = (
    "import time; start = time.perf_counter(); import na1lab; "
    "print(time.perf_counter() - start)"
)


def child_env() -> dict:
    env = dict(os.environ)
    # One client, one thread: HiGHS solves on one thread, and a second BLAS
    # thread only spins against other work on a small machine (large_markets
    # ran about 10 % slower with two on a 2-core x86 machine).
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args, timeout):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout, check=True,
    )


def setup_seconds() -> float:
    """Median wall time of ``import na1lab`` over fresh interpreters."""
    samples = [float(python(["-c", IMPORT_SNIPPET], 60).stdout) for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def import_times() -> dict:
    """Median cumulative import time of each package module, in ms."""
    samples: dict = {}
    for _ in range(IMPORTTIME_SAMPLES):
        stderr = python(["-X", "importtime", "-c", "import na1lab"], 60).stderr
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            name = name.strip()
            if name == "na1lab" or name.startswith("na1lab."):
                samples.setdefault(name, []).append(int(cumulative) / 1e3)
    out = {}
    for module in ("na1lab", *(f"na1lab.{m}" for m in MODULES)):
        label = "total" if module == "na1lab" else module.split(".")[1]
        out[f"import.na1lab.{label}_ms"] = (statistics.median(samples.get(module, [0.0])), "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="na1lab benchmark, one workload per run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "na1lab" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'na1lab'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        extra = import_times() if args.trace else {"setup_s": (setup_seconds(), "s")}
        child = python(
            [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            CHILD_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr or "")
        print(f"error: {exc.cmd[1:]} exited with {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1:]} ran longer than {exc.timeout} s", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["metrics"].update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
