"""Super-hedging, shortfall hedging, and pricing of nonnegative claims.

The cheapest capital whose terminal wealth dominates a claim in every state
is an LP in the capital and the money positions, and its state multipliers
are a deflator certifying the same value from below.  ``shortfall_hedge``
minimizes the expected shortfall loss under a capital budget, the
deterministic equivalent with minus the loss as utility.  The
utility-indifference price and the numeraire-deflated expectation bracket
the super-hedging value from below.  Each needs NA1 and refuses a market
without it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidParameterError, NumericError
from .lp import OPTIMAL, deterministic_equivalent, require_optimal, run, tree_block
from .market import DiscreteMarket, _kept_rows
from .arbitrage import SUPERMARTINGALE_TOL, _Report, _deflator_bounds, _dual_bound, _gated, _memoized
from .portfolio import GRADIENT_TOL, UtilitySpec, _maximize_all, _Utilities, numeraire_portfolio

logger = logging.getLogger(__name__)

#: Relative agreement required between the LP value and its dual reading.
DUALITY_TOL = 1e-7

#: A super-replication residual may dip this far below zero (float slack).
RESIDUAL_TOL = 1e-9

#: Zero LP multipliers are lifted to this value so the reported deflator is
#: strictly positive, then the lifted vector is re-certified.
DEFLATOR_BUMP = 1e-12

#: Absolute tolerance of the bisection for the indifference price.
PRICE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Claim:
    """A state-wise nonnegative payoff due at the end of the period."""

    payoff: np.ndarray

    def __post_init__(self):
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.ndim != 1 or payoff.size == 0:
            raise InvalidParameterError("claim payoff must be a nonempty vector")
        if not np.all(np.isfinite(payoff)):
            raise InvalidParameterError("claim payoff must be finite")
        if np.any(payoff < 0.0):
            raise InvalidParameterError("claim payoff must be nonnegative state-wise")
        object.__setattr__(self, "payoff", payoff)

    @property
    def n_states(self) -> int:
        return self.payoff.shape[0]

    def scaled(self, factor: float) -> "Claim":
        if factor < 0.0:
            raise InvalidParameterError("claim scaling factor must be nonnegative")
        return Claim(self.payoff * factor)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearLoss:
    """Convex nondecreasing loss ``max(0, max_k(slope_k * x + intercept_k))``,
    zero on the nonpositive half-line: slopes nonnegative, intercepts
    nonpositive."""

    pieces: tuple = field(default=((1.0, 0.0),))

    def __post_init__(self):
        cleaned = []
        for piece in self.pieces:
            slope, intercept = float(piece[0]), float(piece[1])
            if not (math.isfinite(slope) and math.isfinite(intercept)):
                raise InvalidParameterError("loss pieces must be finite")
            if slope < 0.0:
                raise InvalidParameterError("loss slopes must be nonnegative")
            if intercept > 0.0:
                raise InvalidParameterError(
                    "loss intercepts must be nonpositive so the loss vanishes "
                    "on the nonpositive half-line"
                )
            cleaned.append((slope, intercept))
        if not cleaned:
            raise InvalidParameterError("a loss needs at least one piece")
        object.__setattr__(self, "pieces", tuple(cleaned))

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for slope, intercept in self.pieces:
            out = np.maximum(out, slope * x + intercept)
        return out


@dataclass(frozen=True, eq=False)
class ValuationReport(_Report):
    """Two-sided certificate for the super-hedging value of a claim.

    ``primal_value`` is the cheapest super-replicating capital, ``strategy``
    the position reaching it, and ``dual_value`` the expected claim under
    ``dual_deflator``, a strictly positive deflator read off the multipliers.
    ``attainable`` records whether the hedge replicates the claim in every
    state and the deflator attains the supremum.
    """

    primal_value: float
    strategy: np.ndarray
    dual_value: float
    dual_deflator: np.ndarray
    gap: float
    attainable: bool
    lp_status: str


def _check_claim(market: DiscreteMarket, claim: Claim) -> np.ndarray:
    if claim.n_states != market.n_states:
        raise InvalidParameterError(
            f"claim has {claim.n_states} states but the market has {market.n_states}"
        )
    return claim.payoff


def superhedge(market: DiscreteMarket, claim: Claim) -> ValuationReport:
    """Cheapest capital whose terminal wealth dominates the claim state-wise.

    The LP is the band of one node of :func:`_superhedge_bands`; the strategy
    is its positions over its capital, and must cover the claim in every state
    within ``RESIDUAL_TOL``.  The state multipliers over the probabilities,
    lifted to at least ``DEFLATOR_BUMP``, are a deflator whose expected claim
    must match the capital within ``DUALITY_TOL``, else
    :class:`~na1lab.errors.NumericError`.  A deflator failing re-certification
    (:func:`_recertified`) leaves the report not attainable.  Without NA1:
    :class:`~na1lab.errors.PreconditionError`.  Task: :func:`_hedged`.
    """
    return run(_hedged(market, claim.payoff))


def _hedged(market: DiscreteMarket, payoff):
    payoff = _check_claim(market, Claim(payoff))

    def decide(market, raw):
        [reports] = yield from _gated([market], "super-hedging", _superhedge_bands([([market], payoff)]))
        [report] = yield from _recertified([market], reports)
        report.strategy.setflags(write=False)  # every later call shares it
        report.dual_deflator.setflags(write=False)
        return report

    return (yield from _memoized([market], [("superhedge", payoff.tobytes())], decide))[0]


def _superhedge_bands(bands):
    """Task: per band of ``bands``, the checked reports of its nodes.

    A band ``(markets, values)`` is a tree of one-period markets, its internal
    nodes' markets and its leaves' payoffs, each breadth-first; a market and a
    payoff are the band ``([market], payoff)``.  Its LP is
    :func:`~na1lab.lp.tree_block` in asset coordinates with the payoffs as
    ``values``, ``X >= 0`` and the cost ``sum_k X_k``: prices are monotone, so
    its optimum is every node's cheapest capital dominating its children's.
    A node whose states reach leaves keeps the rows of :func:`_hedged_states`.
    Node ``k``'s multipliers over ``1 + mu_k``, ``mu_k`` that of its incoming
    edge row (0 at the root), are an optimal dual of its one-period LP with its
    children's costs as payoff (complementary slackness), by which alone
    :func:`_superhedge_report` checks it; ``attainable`` does not yet include
    the re-certification of :func:`_recertified`.
    """
    layouts = []
    for markets, values in bands:
        values, n, eye = np.asarray(values, dtype=float), len(markets), np.eye(markets[0].n_assets)
        first = list(accumulate((m.n_states for m in markets), initial=1))
        kept = [_hedged_states(m, values[first[k] - n : first[k + 1] - n]) if first[k] >= n
                else np.arange(m.n_states) for k, m in enumerate(markets)]
        a_ub, b_ub, edges, cols, rows = tree_block(
            [(m.returns[s], eye, m.constraints.normals, m.constraints.offsets)
             for m, s in zip(markets, kept)],
            np.concatenate([values[first[k] - n + s] for k, s in enumerate(kept) if first[k] >= n]))
        cost = np.zeros(cols[-1])
        cost[cols[:-1]] = 1.0
        block = dict(cost=cost, a_ub=a_ub, b_ub=b_ub,
                     bounds=([(0.0, None)] + [(None, None)] * len(eye)) * n,
                     lazy=np.arange(rows[-1]) < kept[0].size if n == 1 else None)
        layouts.append((block, markets, values, first, kept, edges, rows))
    results = (yield [block for block, *_ in layouts]) if layouts else []
    out = []
    for (_, markets, values, first, kept, edges, rows), result in zip(layouts, results):
        require_optimal(result, "super-hedging")
        nodes = result.x.reshape(len(markets), -1)  # (X_k, y_k) per node
        costs = np.concatenate([nodes[:, 0], values])
        multipliers = np.maximum(-result.marginals_ub, 0.0)
        scale = np.concatenate([[1.0], 1.0 + multipliers[edges]])  # an edge row into each non-root
        out.append([_superhedge_report(m, costs[first[k] : first[k + 1]], states, float(node[0]),
                                       node[1:], multipliers[rows[k] : rows[k + 1]] / scale[k])
                    for k, (m, states, node) in enumerate(zip(markets, kept, nodes))])
    return out


def _superhedge_report(market, payoff, states, primal, y_opt, multipliers) -> ValuationReport:
    """The checked report of one node: capital ``primal``, position
    ``y_opt``, and ``multipliers`` of its kept ``states``' rows, then of its
    budget rows."""
    d = market.n_assets
    strategy = y_opt / primal if primal > 0.0 else np.zeros(d)
    residuals = primal + market.returns @ y_opt - payoff
    if float(np.min(residuals)) < -RESIDUAL_TOL:
        raise NumericError(
            "super-hedging LP returned a position that fails to dominate the "
            f"claim (worst residual {float(np.min(residuals)):.3e})"
        )
    state_multipliers = np.zeros(market.n_states)
    state_multipliers[states] = multipliers[: states.size]
    deflator = state_multipliers / market.probs
    if logger.isEnabledFor(logging.DEBUG) and np.any(deflator < DEFLATOR_BUMP):
        logger.debug("super-hedging: %d deflator values lifted to DEFLATOR_BUMP",
                     np.count_nonzero(deflator < DEFLATOR_BUMP))
    lifted = np.maximum(deflator, DEFLATOR_BUMP)
    dual_value = float(market.probs @ (lifted * payoff))
    gap = abs(primal - dual_value)
    if gap > DUALITY_TOL * (1.0 + primal):
        raise NumericError(
            f"duality gap {gap:.3e} between the super-hedging value and its "
            "deflator reading exceeds tolerance"
        )
    weights, budget = market.probs * lifted, multipliers[states.size :]
    rows = market.admissible.offsets.size + np.arange(budget.size)  # R^T multipliers = A^T budget
    _dual_bound(market, weights, (market.span.basis, rows, budget))
    replicates = float(np.max(np.abs(residuals))) <= RESIDUAL_TOL
    attains = dual_value >= primal - DUALITY_TOL * (1.0 + primal)
    return ValuationReport(
        primal_value=primal,
        strategy=strategy,
        dual_value=dual_value,
        dual_deflator=lifted,
        gap=gap,
        attainable=bool(replicates and attains),
        lp_status=OPTIMAL,
    )


def _hedged_states(market: DiscreteMarket, payoff) -> np.ndarray:
    """Sorted states whose rows the super-hedging LP carries: the row of
    state ``omega`` bounds ``payoff(omega) - <y, R(omega)>``, a linear
    function of the lifted point ``(R(omega), payoff(omega))``, so the
    vertices of the lifted points' convex hull suffice
    (:func:`~na1lab.market._kept_rows`)."""
    lifted = np.column_stack([market.returns @ market.span.basis, payoff])
    return _kept_rows(lifted, market.n_states)


def _recertified(markets, reports):
    """Task: re-certify each report's lifted deflator
    (:func:`~na1lab.arbitrage._deflator_bounds`): one that lets some allowed
    wealth ratio exceed ``1 + SUPERMARTINGALE_TOL`` is logged and makes its
    report not attainable."""
    weights = [m.probs * r.dual_deflator for m, r in zip(markets, reports)]
    out = []
    for report, bound in zip(reports, (yield from _deflator_bounds(markets, weights))):
        if not bound <= 1.0 + SUPERMARTINGALE_TOL:
            logger.warning("lifted dual deflator failed re-certification; reporting it anyway")
            report = replace(report, attainable=False)
        out.append(report)
    return out


def shortfall_hedge(
    market: DiscreteMarket,
    claim: Claim,
    loss: PiecewiseLinearLoss,
    v0: float,
):
    """Minimize expected shortfall loss under a capital budget.

    Returns ``(v, strategy, risk)``, risk the least expected loss of ``payoff
    - terminal wealth`` over capitals up to v0 and allowed positions, zero
    when v0 super-replicates; wealth is not floored.  The LP is the
    deterministic equivalent of the tree of depth 1 with the capital as root
    wealth and a state's utility minus its loss, ``min(0, min_k(slope_k * W +
    (-slope_k * payoff - intercept_k)))``.  Without NA1:
    :class:`~na1lab.errors.PreconditionError`.  Held on the market by payoff,
    loss and capital; the strategy is read-only.
    """
    payoff = _check_claim(market, claim)
    if not (math.isfinite(v0) and v0 > 0.0):
        raise InvalidParameterError("the capital budget must be a positive number")
    slopes, intercepts = np.array(loss.pieces).T
    tables = np.zeros((market.n_states, slopes.size + 1, 2))  # the last piece is (0, 0)
    tables[:, :-1, 0] = slopes
    tables[:, :-1, 1] = -slopes * payoff[:, None] - intercepts
    cs = market.constraints

    def decide(market, argument):
        task = deterministic_equivalent(
            [(market.returns, market.span.basis, cs.normals, cs.offsets)],
            list(zip(market.probs, tables)), (0.0, float(v0)), False, "shortfall hedging")
        capital, [strategy], value = yield from _gated([market], "shortfall hedging", task)
        strategy.setflags(write=False)  # every later call shares it
        return float(capital), strategy, max(0.0, -float(value))

    key = ("shortfall", (payoff.tobytes(), loss.pieces, float(v0)))
    return run(_memoized([market], [key], decide))[0]


def indifference_price(
    market: DiscreteMarket, claim: Claim, u: UtilitySpec, v: float
) -> float:
    """Price that equates optimal utility with and without the claim.

    The buyer pays ``p`` out of capital ``v`` and receives the claim on top of
    terminal wealth; the achievable expected utility decreases in ``p``, so a
    bisection on [0, v) finds the price to ``PRICE_TOL``.  A market without
    NA1 is refused by :func:`maximize_utility`.
    """
    payoff = _check_claim(market, claim)
    if not (math.isfinite(v) and v > 0.0):
        raise InvalidParameterError("initial capital must be a positive number")

    def best_value(capital: float, shift=payoff) -> float:
        utilities = _Utilities(u, market.n_states, capital, shift)
        return run(_maximize_all([market], [market.probs], utilities, GRADIENT_TOL))[0].value

    baseline = best_value(v, 0.0)
    slack = PRICE_TOL * (1.0 + abs(baseline))
    lo, hi = 0.0, v * (1.0 - 1e-12)
    if best_value(v - lo) < baseline - slack:
        raise InvalidParameterError(
            "holding the claim for free is worse than not holding it; no "
            "indifference price exists in [0, capital)"
        )
    if best_value(v - hi) > baseline + slack:
        raise InvalidParameterError(
            "the claim is worth the entire initial capital; no indifference "
            "price exists in [0, capital)"
        )
    while hi - lo > PRICE_TOL:
        mid = 0.5 * (lo + hi)
        if best_value(v - mid) >= baseline:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def real_world_price(market: DiscreteMarket, claim: Claim) -> float:
    """Expected claim payoff deflated by the numeraire wealth,
    ``E[payoff / (1 + <rho, R>)]``; it never exceeds the super-hedging value.
    A state with zero numeraire wealth and positive payoff prices at +inf.  A
    market without NA1 is refused by :func:`numeraire_portfolio`."""
    payoff = _check_claim(market, claim)
    rho = numeraire_portfolio(market).strategy
    wealth = 1.0 + market.returns @ rho
    degenerate = wealth <= 0.0
    if np.any(degenerate & (payoff > 0.0)):
        return math.inf
    ratio = np.where(degenerate, 0.0, payoff / np.where(degenerate, 1.0, wealth))
    return float(market.probs @ ratio)
