"""One workload in one fresh interpreter: a closed loop with a single client.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

``perfbench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and adds the
set-up and import-time metrics.  Operations run one after another, for a
number of whole schedule periods that depends only on the workload and
``--seconds`` (see :func:`periods`); every answer is checked after its
operation, outside the timed window.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the loop runs twice from the same first operation:
untraced over 30 % of the time, then traced over 70 %.  Reports of the
operations both passes completed must be byte-identical, and the ratio of
their latencies is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import gen
from tracing import BUILD, BUSY, CALLS, FAILS, LP, LP_CALLS, SELF, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("small_markets", "large_markets", "scenario_trees")
CLI_COMMANDS = ("analyze", "numeraire", "hedge", "factor", "tree")
#: An operation still running after its latency limit is stopped and counted
#: as failed.  The limit scales with the input: a flat SMALL_LIMIT_S per CLI
#: call on small markets, LARGE_LIMIT_S plus LARGE_LIMIT_PER_CELL_S per
#: state-asset cell of a large market, TREE_LIMIT_S plus TREE_LIMIT_PER_NODE_S
#: per internal node of a tree.  Every limit is at least twice what a
#: successful operation takes on a 2-core x86 machine; the tree limit is about
#: three times the piecewise-linear grid DP (1.4 s per internal node), so it
#: only guards against hangs.  On large markets the limit stops numeraire
#: non-convergence, which otherwise takes 2-21 s to fail.
SMALL_LIMIT_S = 5.0
LARGE_LIMIT_S = 0.5
LARGE_LIMIT_PER_CELL_S = 1.5e-4
TREE_LIMIT_S = 0.5
TREE_LIMIT_PER_NODE_S = 4.0
#: Seconds one schedule period took at the first baseline (2-core x86).  A run
#: covers round(seconds / NOMINAL_PERIOD_S) whole periods, at least one, so it
#: measures about ``--seconds`` at the baseline and always the same operations
#: for a given ``--seconds``, however fast the program is; op_tail_ms is then
#: the same percentile on every commit.
NOMINAL_PERIOD_S = {"small_markets": 4.0, "large_markets": 12.5, "scenario_trees": 15.0}
#: Candidate tail percentiles; op_tail_ms uses the highest one with at least
#: TAIL_BEYOND operations above it.
TAIL_LADDER = (50, 60, 70, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
TAIL_BEYOND = 10
TRACE_SHARE_UNTRACED = 0.3


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Outcome:
    """Result of one operation: latency, report text, problems found."""

    def __init__(self, op, seconds, text, problems, trace, timed_out=False):
        self.op = op
        self.seconds = seconds
        self.text = text
        self.problems = problems
        self.trace = trace
        self.timed_out = timed_out


class Op:
    """One operation of a schedule; ``execute`` is the timed part."""

    command = None
    internal_nodes = 0
    repeated_nodes = 0
    limit = SMALL_LIMIT_S
    #: True when a schedule period starts at this operation; a run covers
    #: whole periods, so the mix is the same from run to run.
    period_start = True

    def prepare(self):
        pass

    def execute(self):
        raise NotImplementedError

    def result(self, data):
        """(canonical report text, check input) once the timed part returned."""
        raise NotImplementedError

    def check(self, data) -> list:
        raise NotImplementedError


# -- CLI operations -------------------------------------------------------------


class CliOp(Op):
    def __init__(self, na1lab, workdir, command, doc):
        self.na1lab = na1lab
        self.workdir = workdir
        self.command = command
        self.doc = doc
        self.input = workdir / "input.json"
        self.output = workdir / "report.json"
        self.csv = workdir / "arbitrage_line.csv"

    def prepare(self):
        self.input.write_text(json.dumps(self.doc))
        for path in (self.output, self.csv):
            path.unlink(missing_ok=True)

    def execute(self):
        argv = ["--command", self.command, "--input", str(self.input),
                "--output", str(self.output)]
        with contextlib.redirect_stderr(io.StringIO()):
            return self.na1lab.cli.main(argv)

    def result(self, code):
        text = self.output.read_text() if code == 0 else f"exit {code}\n"
        report = json.loads(text) if code == 0 else None
        return text, (code, report, self.csv.exists())


class MarketOp(CliOp):
    def __init__(self, na1lab, workdir, command, doc, scalable):
        super().__init__(na1lab, workdir, command, doc)
        self.scalable = scalable

    def check(self, data):
        code, report, _ = data
        return checks.check_market_report(self.command, self.doc, code, report, self.scalable)


class FactorOp(CliOp):
    def check(self, data):
        code, report, csv_exists = data
        return checks.check_factor_report(code, report, csv_exists)


class TreeOp(CliOp):
    def __init__(self, na1lab, workdir, doc, shape):
        super().__init__(na1lab, workdir, "tree", doc)
        self.shape = shape
        self.internal_nodes = shape["internal"]
        self.repeated_nodes = shape["repeated"]
        self.limit = TREE_LIMIT_S + TREE_LIMIT_PER_NODE_S * self.internal_nodes

    def check(self, data):
        code, report, _ = data
        return checks.check_tree_report(self.doc, self.shape, code, report)


# -- library-API operations ------------------------------------------------------


class LargeMarketOp(Op):
    """One market built from raw arrays and taken through the full analysis.

    The market is built inside the timed part, so no certificate cached on an
    earlier object can answer for it.
    """

    STAGES = ("classical", "na1", "numeraire", "esmm", "hedge")

    def __init__(self, na1lab, spec, payload, claim):
        self.na1lab = na1lab
        self.spec = spec
        self.payload = payload
        self.claim = claim
        cells = claim.size * (2 if spec[0] == "factor" else spec[2])
        self.limit = LARGE_LIMIT_S + LARGE_LIMIT_PER_CELL_S * cells

    def execute(self):
        lab = self.na1lab
        market = gen.build_large_market(lab, self.spec, self.payload)
        out = {"market": market}

        def stage(name, fn):
            try:
                out[name] = fn()
            except lab.Na1LabError as exc:
                out[name] = exc

        stage("classical", lambda: lab.find_classical_arbitrage(market))
        stage("na1", lambda: lab.check_na1(market))

        def numeraire():
            opt = lab.numeraire_portfolio(market)
            return opt, lab.verify_numeraire(market, opt.strategy)

        stage("numeraire", numeraire)
        stage("esmm", lambda: lab.construct_esmm(market))
        stage("hedge", lambda: lab.superhedge(market, lab.Claim(self.claim)))
        return out

    def result(self, out):
        view = {}
        for name in self.STAGES:
            value = out[name]
            if isinstance(value, Exception):
                view[name] = f"{type(value).__name__}: {value}"
            elif name == "numeraire":
                view[name] = {"portfolio": value[0].to_dict(), "certificate": value[1]}
            else:
                view[name] = value.to_dict()
        return self.na1lab.dumps_canonical(view), (out, view)

    def check(self, data):
        out, view = data
        lab = self.na1lab
        m = checks.Market.from_object(out["market"])
        scalable = checks.scalable_gain(m)
        problems = []
        for name in ("classical", "na1"):
            if isinstance(out[name], Exception):
                problems.append(f"{name}: {view[name]}")
        if problems:
            return problems
        problems += checks.check_classical(m, view["classical"])
        problems += checks.check_na1(m, view["na1"], scalable)
        holds = out["na1"].holds
        for name in ("numeraire", "hedge"):
            value = out[name]
            if not holds:
                if not isinstance(value, lab.PreconditionError):
                    problems.append(f"{name} must refuse a market without NA1")
            elif isinstance(value, Exception):
                problems.append(f"{name}: {view[name]}")
        if holds and not isinstance(out["numeraire"], Exception):
            opt, certificate = out["numeraire"]
            problems += checks.check_numeraire(m, opt.strategy, certificate)
        if holds and not isinstance(out["hedge"], Exception):
            problems += checks.check_hedge(m, self.claim, view["hedge"])
        esmm = out["esmm"]
        if out["classical"].found:
            if not isinstance(esmm, lab.PreconditionError):
                problems.append("esmm must refuse a market with classical arbitrage")
        elif isinstance(esmm, Exception):
            problems.append(f"esmm: {view['esmm']}")
        else:
            problems += checks.check_esmm(m, view["esmm"])
        return problems


# -- schedules -----------------------------------------------------------------


def schedule(workload, seed, na1lab, workdir):
    """Endless iterator of operations of one workload."""
    if workload == "small_markets":
        last_index, scalable = None, None
        for index, kind, command, doc in gen.small_ops(seed):
            if kind == "factor":
                op = FactorOp(na1lab, workdir, command, doc)
            else:
                if index != last_index:
                    scalable = checks.scalable_gain(checks.Market.from_doc(doc))
                op = MarketOp(na1lab, workdir, command, doc, scalable)
            op.period_start = index != last_index and index % gen.SMALL_PERIOD == 0
            last_index = index
            yield op
    elif workload == "large_markets":
        index = 0
        while True:
            op = LargeMarketOp(na1lab, *gen.large_spec(seed, index))
            op.period_start = index % gen.LARGE_PERIOD == 0
            yield op
            index += 1
    else:
        for index, doc, shape in gen.tree_ops(seed):
            op = TreeOp(na1lab, workdir, doc, shape)
            op.period_start = index % gen.TREE_PERIOD == 0
            yield op


def run_one(op, tracer=None, op_id=None):
    limit = op.limit
    op.prepare()
    if tracer is not None:
        tracer.begin(op_id)
    data, failure, timed_out = None, None, False
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        data = op.execute()
    except OpTimeout:
        timed_out = True
        failure = f"no answer within the {limit:.2f} s latency limit"
    except Exception as exc:  # a crash inside the package fails the operation
        failure = f"unexpected {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    trace = tracer.end() if tracer is not None else None
    if failure is not None:
        return Outcome(op, elapsed, failure.split(":")[0] + "\n", [failure], trace, timed_out)
    text, check_input = op.result(data)
    return Outcome(op, elapsed, text, op.check(check_input), trace)


def periods(workload, seconds) -> int:
    return max(1, round(seconds / NOMINAL_PERIOD_S[workload]))


def loop(ops, count, tracer=None):
    """Run the operations of the first ``count`` schedule periods."""
    outcomes = []
    started = 0
    for op_id, op in enumerate(ops):
        if op.period_start:
            if started == count:
                break
            started += 1
        outcomes.append(run_one(op, tracer, op_id))
    return outcomes


# -- metrics -------------------------------------------------------------------


def tail(latencies_ms):
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_BEYOND operations beyond it."""
    n = len(latencies_ms)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_BEYOND:
            chosen = q
    return chosen, float(np.percentile(latencies_ms, chosen))


def end_to_end(outcomes):
    latencies = [o.seconds * 1e3 for o in outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    q, tail_ms = tail(latencies)
    metrics = {
        "ops_per_s": (len(outcomes) / (sum(latencies) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        # Rule-of-succession estimate, (failed + 1) / (attempted + 2): never
        # 0, so a workload with no failing operation still has a baseline that
        # a new failure is measured against.  The raw counts are ``failed``
        # and ``attempted`` in the result line.
        "fail_rate": ((failed + 1) / (len(outcomes) + 2), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"op_tail_percentile": q, "operations": len(outcomes)}
    return metrics, detail, failed


def per_layer(outcomes, busy_traced_s):
    ops = len(outcomes)
    totals = {}
    lp_ms, rows, cols = [], [], []
    retries = status_failures = 0
    tree_lp = tree_builds = 0
    cli_ms = {c: [] for c in CLI_COMMANDS}
    for o in outcomes:
        record = o.trace
        for name, values in record["stats"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for r, c, ms in record["lp_shapes"]:
            rows.append(r)
            cols.append(c)
            lp_ms.append(ms)
        retries += record["lp_retries"]
        status_failures += record["lp_status_failures"]
        if o.op.command == "tree":
            tree_lp += record["stats"].get(LP, [0] * 5)[CALLS]
            tree_builds += record["stats"].get(BUILD, [0] * 5)[CALLS]
        if o.op.command in cli_ms:
            cli_ms[o.op.command].append(o.seconds * 1e3)

    def field(name, index, scale=1.0):
        return totals.get(name, [0, 0.0, 0.0, 0, 0])[index] * scale / ops

    op_seconds = sum(o.seconds for o in outcomes)
    nodes = sum(o.op.internal_nodes for o in outcomes)
    repeated = sum(o.op.repeated_nodes for o in outcomes)
    report_bytes = [len(o.text.encode()) for o in outcomes if isinstance(o.op, CliOp)]
    ms = 1e3
    m = {
        "lp.calls_per_op": (field(LP, CALLS), "count"),
        "lp.busy_share": (totals.get(LP, [0, 0.0])[BUSY] / op_seconds, "ratio"),
        "lp.ms_per_call_p50": (statistics.median(lp_ms) if lp_ms else 0.0, "ms"),
        "lp.rows_per_call": (statistics.fmean(rows) if rows else 0.0, "count"),
        "lp.cols_per_call": (statistics.fmean(cols) if cols else 0.0, "count"),
        "lp.presolve_retries": (retries / ops, "count"),
        "lp.status_failures": (status_failures / ops, "count"),
        "market.builds_per_op": (field(BUILD, CALLS), "count"),
        "market.build_ms": (field(BUILD, BUSY, ms), "ms"),
        "arbitrage.check_na1.lp_calls": (field("arbitrage.check_na1", LP_CALLS), "count"),
        "arbitrage.check_na1.busy_ms": (field("arbitrage.check_na1", BUSY, ms), "ms"),
        "arbitrage.find_classical_arbitrage.busy_ms":
            (field("arbitrage.find_classical_arbitrage", BUSY, ms), "ms"),
        "arbitrage.construct_esmm.self_ms": (field("arbitrage.construct_esmm", SELF, ms), "ms"),
        "arbitrage.construct_esmm.fails": (field("arbitrage.construct_esmm", FAILS), "count"),
        "portfolio.numeraire_portfolio.self_ms":
            (field("portfolio.numeraire_portfolio", SELF, ms), "ms"),
        "portfolio.numeraire_portfolio.lp_calls":
            (field("portfolio.numeraire_portfolio", LP_CALLS), "count"),
        "portfolio.numeraire_portfolio.fails":
            (field("portfolio.numeraire_portfolio", FAILS), "count"),
        "portfolio.maximize_utility.self_ms": (field("portfolio.maximize_utility", SELF, ms), "ms"),
        "portfolio.verify_numeraire.lp_calls":
            (field("portfolio.verify_numeraire", LP_CALLS), "count"),
        "portfolio.verify_deflator.lp_calls":
            (field("portfolio.verify_deflator", LP_CALLS), "count"),
        "hedging.superhedge.lp_calls": (field("hedging.superhedge", LP_CALLS), "count"),
        "hedging.superhedge.busy_ms": (field("hedging.superhedge", BUSY, ms), "ms"),
        "tree.lp_calls_per_node": (tree_lp / nodes if nodes else 0.0, "count"),
        "tree.market_builds_per_node": (tree_builds / nodes if nodes else 0.0, "count"),
        "tree.repeated_node_share": (repeated / nodes if nodes else 0.0, "ratio"),
        "io.parse_ms": (sum(field(f"io.{f}", BUSY, ms) for f in (
            "load_document", "parse_market", "parse_factor_model", "parse_tree")), "ms"),
        "io.dumps_ms": (field("io.dumps_canonical", BUSY, ms), "ms"),
        "io.report_bytes": (statistics.fmean(report_bytes) if report_bytes else 0.0, "bytes"),
    }
    for func in ("discretize", "validate_positivity", "arbitrage_ray", "na1_factor",
                 "max_arbitrage_strategy"):
        m[f"factor.{func}.busy_ms"] = (field(f"factor.{func}", BUSY, ms), "ms")
    for func in ("global_na1", "node_market", "numeraire_process", "verify_deflator_process",
                 "superhedge_tree", "backward_induction", "default_wealth_grid"):
        m[f"tree.{func}.busy_ms"] = (field(f"tree.{func}", BUSY, ms), "ms")
    for command, values in cli_ms.items():
        m[f"cli.{command}.p50_ms"] = (statistics.median(values) if values else 0.0, "ms")
    m["trace.ops_per_s"] = (ops / busy_traced_s, "1/s")
    return m


def overhead_share(untraced, traced):
    """Traced over untraced latency on the operations both passes ran, minus 1."""
    k = min(len(untraced), len(traced))
    plain = sum(o.seconds for o in untraced[:k])
    return sum(o.seconds for o in traced[:k]) / plain - 1.0


# -- diagnostics of the traced run ---------------------------------------------


def lp_calls_under(tracer, name, fn):
    tracer.begin("diagnostic")
    try:
        fn()
    finally:
        record = tracer.end()
    return record["stats"].get(name, [0, 0.0, 0.0, 0, 0])[LP_CALLS]


def diagnostics(na1lab, tracer):
    """Fixed-input LP counts: the quick-tour market and the ROADMAP baseline
    table (100 ``random_bounded_market`` markets at seed 0, and the iid binary
    tree of horizon 5 with returns -0.4/0.8 and unit box)."""
    lab = na1lab
    out = {}
    quick = lab.DiscreteMarket(
        np.array([0.5, 0.5]), np.array([[-0.5], [1.0]]),
        lab.preset_constraints("box", 1, lower=np.array([1.0]), upper=np.array([1.0])),
    )
    out["check.quick_tour_check_na1.lp_calls"] = lp_calls_under(
        tracer, "arbitrage.check_na1", lambda: lab.check_na1(quick))

    def markets():
        rng = np.random.default_rng(0)
        return [gen.random_bounded_market(lab, rng) for _ in range(100)]

    def each(fn):
        return lambda: [fn(m) for m in markets()]

    out["baseline.check_na1_100.lp_calls"] = lp_calls_under(
        tracer, "arbitrage.check_na1", each(lab.check_na1))
    out["baseline.superhedge_100.lp_calls"] = lp_calls_under(
        tracer, "hedging.superhedge",
        each(lambda m: lab.superhedge(m, lab.Claim(np.abs(m.returns).sum(axis=1)))))
    out["baseline.numeraire_portfolio_100.lp_calls"] = lp_calls_under(
        tracer, "portfolio.numeraire_portfolio", each(lab.numeraire_portfolio))

    def binary_tree():
        market = lab.DiscreteMarket(
            np.array([0.5, 0.5]), np.array([[-0.4], [0.8]]),
            lab.preset_constraints("box", 1, lower=np.array([1.0]), upper=np.array([1.0])),
        )
        return lab.iid_tree(market, 5)

    out["baseline.tree_h5.numeraire_process.lp_calls"] = lp_calls_under(
        tracer, "tree.numeraire_process", lambda: lab.numeraire_process(binary_tree()))
    leaves = len(binary_tree().leaf_ids)
    out["baseline.tree_h5.superhedge_tree.lp_calls"] = lp_calls_under(
        tracer, "tree.superhedge_tree",
        lambda: lab.superhedge_tree(binary_tree(), np.linspace(0.0, 2.0, leaves)))
    return {k: (float(v), "count") for k, v in out.items()}


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    import na1lab
    import na1lab.cli

    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    correct = True
    notes = []
    try:
        # Warm-up: one operation of another seed, so lazy set-up inside scipy
        # and the package is not billed to the first timed operation.
        run_one(next(schedule(args.workload, args.seed + 10**6, na1lab, workdir)))
        if args.trace:
            untraced = loop(schedule(args.workload, args.seed, na1lab, workdir),
                            periods(args.workload, args.seconds * TRACE_SHARE_UNTRACED))
            tracer = Tracer()
            tracer.install()
            try:
                stale = tracer.stale_bindings()
                outcomes = loop(schedule(args.workload, args.seed, na1lab, workdir),
                                periods(args.workload,
                                        args.seconds * (1.0 - TRACE_SHARE_UNTRACED)),
                                tracer)
                if tracer.highs_calls != tracer.wrapped_lp_calls:
                    correct = False
                    notes.append(f"HiGHS saw {tracer.highs_calls} LPs, the wrapper "
                                 f"{tracer.wrapped_lp_calls}")
                extra = diagnostics(na1lab, tracer)
            finally:
                tracer.uninstall()
            if stale:
                correct = False
                notes.append(f"unwrapped bindings: {stale}")
            mismatched = [
                i for i, (a, b) in enumerate(zip(untraced, outcomes))
                if not (a.timed_out or b.timed_out) and a.text != b.text
            ]
            if mismatched:
                correct = False
                notes.append(f"traced reports differ from untraced ones at ops {mismatched}")
            metrics = per_layer(outcomes, sum(o.seconds for o in outcomes))
            metrics["trace.overhead_share"] = (overhead_share(untraced, outcomes), "ratio")
            metrics.update(extra)
            failed = sum(1 for o in outcomes if o.problems)
            detail = {"operations": len(outcomes), "spans": len(tracer.spans)}
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            outcomes = loop(schedule(args.workload, args.seed, na1lab, workdir),
                            periods(args.workload, args.seconds))
            metrics, detail, failed = end_to_end(outcomes)
            # Determinism: the first operation again must write the same bytes.
            again = run_one(next(schedule(args.workload, args.seed, na1lab, workdir)))
            if again.text != outcomes[0].text:
                correct = False
                notes.append("repeated document gave different report bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems: dict = {}
    for o in outcomes:
        for p in o.problems:
            key = f"{o.op.command or 'api'}: {p[:60]}"
            problems[key] = problems.get(key, 0) + 1
    detail["failures"] = dict(sorted(problems.items(), key=lambda kv: -kv[1]))
    detail["notes"] = notes
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
