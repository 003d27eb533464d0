"""Command-line frontend: run one analysis on a JSON document, write a report.

Commands
--------
analyze    market document -> arbitrage certificates, scalability verdict,
           equivalent supermartingale measure, and (when the document carries
           a ``claim`` array) the super-hedging valuation.
numeraire  market document -> growth-optimal portfolio, its wealth-ratio
           certificate, and the induced deflator.
hedge      market document with a mandatory ``claim`` -> valuation report.
factor     factor document -> positivity report, arbitrage ray, scalability
           verdict, maximal arbitrage; for the two-asset triangular family it
           also writes ``arbitrage_line.csv`` next to the report.
tree       tree document -> per-node no-scalable-arbitrage report; when it
           holds, the growth-optimal policy and deflator processes, plus the
           super-hedge (``claim``) and utility-optimal policy (``utility``)
           sections when requested.

Exit codes: 0 on success, 1 when the input fails to parse, 2 for domain or
precondition violations, 3 for numerical failures.  Reports are canonical
JSON (:func:`~na1lab.io.dumps_canonical`), so a fixed input reproduces the
same bytes; the seed is only recorded, as every command is deterministic.
``NA1LAB_LOG`` (error, info or debug) sets the logging level.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as docio
from . import lp
from .arbitrage import GAIN_TOL, _check_na1_all, _classical, _esmm
from .errors import InvalidParameterError, Na1LabError, PreconditionError, SchemaError
from .factor import (
    _is_unit_upper_triangular,
    arbitrage_ray,
    max_arbitrage_strategy,
    na1_factor,
    validate_positivity,
)
from .hedging import Claim, _hedged, superhedge
from .portfolio import NUMERAIRE_GRADIENT_TOL, numeraire_portfolio
from .tree import _numeraire_process, _piecewise_backward, _superhedge_tree, _with_na1
from .tree import backward_induction

logger = logging.getLogger("na1lab.cli")

COMMANDS = ("analyze", "numeraire", "hedge", "factor", "tree")
_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: what to run, on what, and where to write."""

    command: str
    input_path: str
    output_path: str | None = None
    tol_lp: float | None = None
    tol_opt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidParameterError(
                f"unknown command {self.command!r}; expected one of {', '.join(COMMANDS)}"
            )
        for name, value in (("tol_lp", self.tol_lp), ("tol_opt", self.tol_opt)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be a positive number")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidParameterError("seed must be an integer")


def _config_echo(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "seed": config.seed,
        "tolerances": {"lp": config.tol_lp, "opt": config.tol_opt},
    }


def _market_summary(market) -> dict:
    return {
        "n_states": market.n_states,
        "n_assets": market.n_assets,
        "preset": market.constraints.preset,
    }


def _run_analyze(config: RunConfig) -> dict:
    market, claim = docio.parse_market(docio.load_document(config.input_path))
    tol = GAIN_TOL if config.tol_lp is None else config.tol_lp
    # solved together; the ESMM and the hedge are read only where defined
    tasks = [_classical(market, tol), _check_na1_all([market], tol), _esmm(market, tol)]
    if claim is not None:
        tasks.append(_hedged(market, claim))
    classical, na1, esmm, *hedge = lp.run(lp.gather(*tasks))
    [classical], [na1] = lp.read(classical), lp.read(na1)
    report = _config_echo(config)
    report["market"] = _market_summary(market)
    report["classical_arbitrage"] = classical.to_dict()
    report["na1"] = na1.to_dict()
    # A supermartingale measure exists exactly when there is no classical
    # arbitrage; a bounded arbitrage leaves NA1 intact but the section null.
    report["esmm"] = None if classical.found else lp.read(esmm).to_dict()
    # Super-hedging prices are finite only without scalable arbitrage, so the
    # claim section stays null when the verdict above already failed.
    report["hedge"] = None
    if claim is not None and na1.holds:
        report["hedge"] = lp.read(hedge[0]).to_dict()
    return report


def _run_numeraire(config: RunConfig) -> dict:
    market, _ = docio.parse_market(docio.load_document(config.input_path))
    tol = NUMERAIRE_GRADIENT_TOL if config.tol_opt is None else config.tol_opt
    opt = numeraire_portfolio(market, tol=tol)
    report = _config_echo(config)
    report["market"] = _market_summary(market)
    report["portfolio"] = opt.to_dict()
    report["wealth_ratio_certificate"] = opt.deflator.certificate
    report["deflator"] = opt.deflator.to_dict()
    return report


def _run_hedge(config: RunConfig) -> dict:
    market, claim = docio.parse_market(docio.load_document(config.input_path))
    if claim is None:
        raise SchemaError("market document is missing the required key 'claim'")
    valuation = superhedge(market, Claim(claim))
    report = _config_echo(config)
    report["market"] = _market_summary(market)
    report["claim"] = claim
    report["valuation"] = valuation.to_dict()
    return report


def _csv_target(config: RunConfig) -> Path:
    if config.output_path is None:
        return Path("arbitrage_line.csv")
    return Path(config.output_path).parent / "arbitrage_line.csv"


def _run_factor(config: RunConfig) -> dict:
    model = docio.parse_factor_model(docio.load_document(config.input_path))
    positivity = validate_positivity(model)
    ray = arbitrage_ray(model)
    report = _config_echo(config)
    report["model"] = {
        "n_assets": model.n_assets,
        "n_factors": model.n_factors,
        "borrow_limit": model.borrow_limit,
        "labels": list(model.labels) if model.labels is not None else None,
        "unit_upper_triangular": _is_unit_upper_triangular(model.loadings),
    }
    report["positivity"] = {
        "all_ok": positivity.all_ok,
        "asset_ok": list(positivity.asset_ok),
        "worst_case": list(positivity.worst_case),
        "violations": list(positivity.violations),
    }
    report["arbitrage_ray"] = ray
    # Without a ray the scalability test has nothing to scale; both verdicts
    # stay null rather than failing the whole run.
    report["na1"] = na1_factor(model) if ray is not None else None
    report["max_arbitrage_strategy"] = None
    if ray is not None:
        try:
            report["max_arbitrage_strategy"] = max_arbitrage_strategy(model)
        except PreconditionError:
            pass
    report["csv"] = None
    gamma = float(model.loadings[0, 1]) if model.loadings.shape == (2, 2) else None
    if (
        model.loadings.shape == (2, 2)
        and _is_unit_upper_triangular(model.loadings)
        and gamma < 1.0
    ):
        target = _csv_target(config)
        docio.write_arbitrage_line_csv(target, gamma, model.borrow_limit)
        report["csv"] = target.name
        logger.info("wrote %s", target)
    return report


def _run_tree(config: RunConfig) -> dict:
    tree, claim, utility = docio.parse_tree(docio.load_document(config.input_path))
    # solved alongside NA1, and read only where it holds, in this order
    passes = [_numeraire_process(tree)]
    if claim is not None:
        passes.append(_superhedge_tree(tree, claim))
    piecewise = utility is not None and utility.kind == "piecewise_linear"
    if piecewise:
        passes.append(_piecewise_backward(tree, utility))
    na1, *answers = lp.run(_with_na1(tree, *passes))
    report = _config_echo(config)
    report["tree"] = {
        "n_nodes": len(tree.nodes),
        "horizon": tree.horizon,
        "n_assets": tree.n_assets,
        "root": tree.root_id,
        "leaves": list(tree.leaf_ids),
    }
    report["na1"] = na1.to_dict()
    report["numeraire"] = None
    report["deflator"] = None
    report["hedge"] = None
    report["optimal"] = None
    if not na1.holds:
        # Still a successful run: the report carries the verdict and names
        # the failing nodes; the valuation sections are meaningless then.
        logger.info("scalable arbitrage at nodes %s; skipping valuations", na1.failing)
        return report
    policy, deflator = lp.read(answers[0])
    report["numeraire"] = policy.to_dict()
    report["deflator"] = dict(deflator.values)
    if claim is not None:
        report["hedge"] = lp.read(answers[1]).to_dict()
    if utility is not None:
        result = lp.read(answers[-1]) if piecewise else backward_induction(tree, utility)
        report["optimal"] = result.to_dict()
    return report


_RUNNERS = {
    "analyze": _run_analyze,
    "numeraire": _run_numeraire,
    "hedge": _run_hedge,
    "factor": _run_factor,
    "tree": _run_tree,
}


def run(config: RunConfig) -> int:
    """Execute one command and write its report; returns the exit code 0."""
    report = _RUNNERS[config.command](config)
    text = docio.dumps_canonical(report)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        logger.info("wrote %s", config.output_path)
    return 0


def _configure_logging() -> None:
    raw = os.environ.get("NA1LAB_LOG")
    if raw is None:
        return
    level = _LOG_LEVELS.get(raw.strip().lower())
    if level is None:
        raise InvalidParameterError(
            f"NA1LAB_LOG must be one of error, info, debug; got {raw!r}"
        )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger("na1lab")
    package_logger.setLevel(level)
    if not package_logger.handlers:
        package_logger.addHandler(handler)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="na1lab",
        description="Arbitrage analysis under convex trading constraints.",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--input", required=True, help="path to the JSON document")
    parser.add_argument("--output", default=None,
                        help="report path (default: standard output)")
    parser.add_argument("--tol-lp", type=float, default=None,
                        help="certificate gain tolerance override")
    parser.add_argument("--tol-opt", type=float, default=None,
                        help="optimizer stationarity-residual tolerance override")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the report for reproducibility")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _configure_logging()
        config = RunConfig(
            command=args.command,
            input_path=args.input,
            output_path=args.output,
            tol_lp=args.tol_lp,
            tol_opt=args.tol_opt,
            seed=args.seed,
        )
        return run(config)
    except Na1LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
