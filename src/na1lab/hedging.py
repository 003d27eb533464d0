"""Super-hedging, shortfall hedging, and pricing of nonnegative claims.

The cheapest initial capital whose terminal wealth dominates a claim in
every state is a linear program once the position is homogenized: with
``y = v * pi`` the bilinear budget constraint becomes ``A y <= v b``.  The
LP multipliers on the state rows hand back a deflator certifying the same
value from below, so every report carries a two-sided certificate.  A
state row binds only at a vertex of the convex hull of the lifted points
``(R(omega), payoff(omega))``, so a wide market in a low-dimensional
return span keeps the rows of those vertices alone.

When full super-replication is too expensive, ``shortfall_hedge`` minimizes
the expected shortfall loss under a capital budget, by the one LP builder of
piecewise-linear objectives (:func:`~na1lab.lp.deterministic_equivalent`),
with minus the loss as the utility of terminal wealth; two price notions
bracket the super-hedging value from below: the utility-indifference price
and the numeraire-deflated expectation.  Each needs NA1 and none decides it:
the hedging LPs share a round with NA1 behind :func:`~na1lab.arbitrage._gated`,
and the kernels the prices call refuse a market without it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidParameterError, NumericError
from .lp import OPTIMAL, deterministic_equivalent, require_optimal, run
from .market import DiscreteMarket, _kept_rows
from .arbitrage import SUPERMARTINGALE_TOL, _certified_gains, _dual_bound, _gated, _memoized
from .portfolio import UtilitySpec, maximize_utility, numeraire_portfolio

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
    """Convex nondecreasing loss, zero on the nonpositive half-line.

    The loss is ``max(0, max_k(slope_k * x + intercept_k))``; each slope must
    be nonnegative and each intercept nonpositive, which pins the value to
    zero for x <= 0 and keeps the maximum convex and nondecreasing.
    """

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

    @classmethod
    def positive_part(cls) -> "PiecewiseLinearLoss":
        """The hinge loss max(x, 0)."""
        return cls(((1.0, 0.0),))

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for slope, intercept in self.pieces:
            out = np.maximum(out, slope * x + intercept)
        return out


@dataclass(frozen=True, eq=False)
class ValuationReport:
    """Two-sided certificate for the super-hedging value of a claim.

    ``primal_value`` is the cheapest super-replicating capital, ``strategy``
    the position reaching it, and ``dual_value`` the expectation of the claim
    under ``dual_deflator``, a strictly positive deflator read off the LP
    multipliers.  ``attainable`` records whether the hedge replicates the
    claim exactly in every state and the deflator attains the supremum.
    """

    primal_value: float
    strategy: np.ndarray
    dual_value: float
    dual_deflator: np.ndarray
    gap: float
    attainable: bool
    lp_status: str

    def to_dict(self) -> dict:
        return {
            "primal_value": float(self.primal_value),
            "strategy": list(map(float, self.strategy)),
            "dual_value": float(self.dual_value),
            "dual_deflator": list(map(float, self.dual_deflator)),
            "gap": float(self.gap),
            "attainable": bool(self.attainable),
            "lp_status": self.lp_status,
        }


def _check_claim(market: DiscreteMarket, claim: Claim) -> np.ndarray:
    if claim.n_states != market.n_states:
        raise InvalidParameterError(
            f"claim has {claim.n_states} states but the market has {market.n_states}"
        )
    return claim.payoff


def superhedge(market: DiscreteMarket, claim: Claim) -> ValuationReport:
    """Cheapest capital whose terminal wealth dominates the claim state-wise.

    Solves min v over positions y with ``v + <y, R(omega)> >= payoff(omega)``
    for every state and ``A y <= v b``; the returned strategy is ``y / v``.
    On a market with more than ``lp.LAZY_ROWS`` states and a return span of
    at most ``HULL_MAX_RANK - 1`` dimensions, the LP carries only the rows
    of the states at the vertices of the hull of ``(R, payoff)``
    (:func:`_hedged_states`), the others being implied, so it settles in
    one round unless more than ``lp.LAZY_ROWS`` of them remain; the
    position is still checked against the claim in every state.  The
    state multipliers, zero on the states without a row, divided by the
    probabilities, form a deflator whose expected claim value matches the
    primal optimum (LP duality), and both readings plus their gap are
    reported; the budget multipliers re-certify the deflator (:func:`_recertified`).
    The LP is the band of one node of :func:`_superhedge_bands`, whose
    trees take one round per band, one round for trees whose subtree LP
    fits the budget (:func:`~na1lab.tree.superhedge_tree`); NA1 and it are
    :func:`_hedged`'s first round of LPs.  The report is held on the
    market by the payoff's bytes, read-only.
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
    """Task: the super-hedging LPs of ``bands``, one block each
    (:func:`_band_block`), stacked, and per band the reports of its nodes,
    each checked as a one-period hedge: its position must dominate its
    payoff in every state and its lifted deflator's reading must match its
    cost.  A band ``(markets, values)`` is a tree of one-period markets,
    its internal nodes' markets and its leaves' payoffs, each breadth-first;
    a market and a payoff are the band ``([market], payoff)``.  Prices are
    monotone, so the block's optimum is every node's cheapest capital
    dominating its children's.  Node ``k``'s multipliers over ``1 + mu_k``,
    with ``mu_k`` the multiplier of its incoming state row (0 at the band's
    root), are an optimal dual of its one-period LP with those children's
    costs as payoff (complementary slackness); the checks read only them.
    A state without a row has a zero multiplier.  ``attainable`` does not
    yet account for the re-certification of the lifted deflators, which
    :func:`_recertified` adds from the budget multipliers held here."""
    bands = [(markets, np.asarray(values, dtype=float)) for markets, values in bands]
    layouts = [_band_block(markets, values) for markets, values in bands]
    results = (yield [block for block, *_ in layouts]) if layouts else []
    out = []
    for (markets, values), (_, kept, rows, first), result in zip(bands, layouts, results):
        require_optimal(result, "super-hedging")
        n, width = len(markets), 1 + markets[0].n_assets
        costs = np.concatenate([result.x[::width], values])
        multipliers = np.maximum(-result.marginals_ub, 0.0)
        scale = np.ones(n)
        for k in range(n):
            if first[k] < n:  # every state row kept, one per child node
                scale[first[k] : first[k + 1]] += multipliers[rows[k] : rows[k] + first[k + 1] - first[k]]
        reports = []
        for k, (market, states) in enumerate(zip(markets, kept)):
            x, payoff = result.x[k * width : (k + 1) * width], costs[first[k] : first[k + 1]]
            reports.append(_superhedge_report(market, payoff, states, float(x[0]), x[1:],
                                              multipliers[rows[k] : rows[k + 1]] / scale[k]))
        out.append(reports)
    return out


def _band_block(markets, values):
    """The LP block of a band (:func:`_superhedge_bands`), with each node's
    kept states, its first row (and the end) and ``first``: the states of
    node ``k`` are the band's nodes ``first[k]:first[k + 1]`` breadth-first,
    its internal nodes then its leaves, so they are all internal nodes or
    all leaves.  Variables ``(X_k, y_k)`` per node, ``X >= 0``, the cost
    ``sum_k X_k``.  Node ``k``'s rows: one per kept state, ``X_c - X_k -
    <y_k, R(omega)> <= 0`` for a state reaching an internal node ``c`` and
    ``-X_k - <y_k, R(omega)> <= -V`` for one reaching a leaf of payoff
    ``V``, then its budget rows, homogenized: ``<a, y_k> - b X_k <= 0``.
    A node whose states reach leaves keeps those of :func:`_hedged_states`,
    the others all of them.  The state rows of a band of one node are
    lazy; a larger band is solved whole."""
    n, width = len(markets), 1 + markets[0].n_assets
    first = list(accumulate((m.n_states for m in markets), initial=1))
    kept = [_hedged_states(m, values[first[k] - n : first[k + 1] - n]) if first[k] >= n
            else np.arange(m.n_states) for k, m in enumerate(markets)]
    rows = list(accumulate((s.size + m.constraints.offsets.size for m, s in zip(markets, kept)), initial=0))
    a_ub, b_ub = np.zeros((rows[-1], n * width)), np.zeros(rows[-1])
    for k, (market, states) in enumerate(zip(markets, kept)):
        col, split, cs = k * width, rows[k] + states.size, market.constraints
        a_ub[rows[k] : split, col] = -1.0
        a_ub[rows[k] : split, col + 1 : col + width] = -market.returns[states]
        if first[k] >= n:
            b_ub[rows[k] : split] = -values[first[k] - n + states]
        else:
            a_ub[range(rows[k], split), (first[k] + states) * width] = 1.0
        a_ub[split : rows[k + 1], col] = -cs.offsets
        a_ub[split : rows[k + 1], col + 1 : col + width] = cs.normals
    cost = np.zeros(n * width)
    cost[::width] = 1.0
    bounds = ([(0.0, None)] + [(None, None)] * (width - 1)) * n
    lazy = np.arange(rows[-1]) < kept[0].size if n == 1 else None
    return dict(cost=cost, a_ub=a_ub, b_ub=b_ub, bounds=bounds, lazy=lazy), kept, rows, first


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
    lifted = np.maximum(state_multipliers / market.probs, DEFLATOR_BUMP)
    dual_value = float(market.probs @ (lifted * payoff))
    gap = abs(primal - dual_value)
    if gap > DUALITY_TOL * (1.0 + primal):
        raise NumericError(
            f"duality gap {gap:.3e} between the super-hedging value and its "
            "deflator reading exceeds tolerance"
        )
    weights, budget = market.probs * lifted, multipliers[states.size :]
    rows = market.admissible.offsets.size + np.arange(budget.size)  # R^T multipliers = A^T budget
    _dual_bound(market, weights, (market.span.basis, rows, budget),
                1.0 + SUPERMARTINGALE_TOL - np.sum(weights))
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
    """Sorted states whose rows the super-hedging LP carries.  The row of
    state ``omega`` bounds ``payoff(omega) - <y, R(omega)>``, a linear
    function of the lifted point ``(R(omega), payoff(omega))``, so only the
    vertices of the lifted points' convex hull can bind; a market whose LP
    would generate its state rows keeps just those when the lifted points
    have at most ``HULL_MAX_RANK`` coordinates in the return span
    (:func:`~na1lab.market._kept_rows`)."""
    lifted = np.column_stack([market.returns @ market.span.basis, payoff])
    return _kept_rows(lifted, market.n_states)


def _recertified(markets, reports):
    """Task: re-certify each report's lifted deflator by its budget
    multipliers' weak-duality bound, else by its LP, those LPs stacked: one
    that lets some allowed wealth ratio exceed ``1 + SUPERMARTINGALE_TOL`` is
    logged and makes its report not attainable."""
    weights = [m.probs * r.dual_deflator for m, r in zip(markets, reports)]
    out = []
    for report, weight, gain in zip(reports, weights, (yield from _certified_gains(markets, weights))):
        if not float(np.sum(weight)) + gain <= 1.0 + SUPERMARTINGALE_TOL:
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

    Returns ``(v, strategy, risk)`` where risk is the least achievable
    expected loss of ``payoff - terminal wealth`` over capitals up to v0 and
    allowed positions.  With enough capital to super-replicate, the risk is
    zero (returned, not an error).  Wealth is not floored at zero.  The LP
    is :func:`~na1lab.lp.deterministic_equivalent` on the tree of depth 1
    whose root wealth is the capital: a state's utility is minus its loss,
    ``min(0, min_k(slope_k * X + (-slope_k * payoff - intercept_k)))``, the
    risk is minus the optimum, and the strategy, in the return span, is the
    positions over the capital.  NA1 and the LP share one round behind
    :func:`~na1lab.arbitrage._gated`, which refuses a market without NA1.
    The answer is held on the market by payoff, loss and capital, read-only.
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
            np.zeros(market.n_states + 1, dtype=int), market.returns,
            [(market.span.basis, cs.normals, cs.offsets)], list(zip(market.probs, tables)),
            (0.0, float(v0)), False, "shortfall hedging")
        wealth, [strategy], value = yield from _gated([market], "shortfall hedging", task)
        strategy.setflags(write=False)  # every later call shares it
        return float(wealth[0]), strategy, max(0.0, -float(value))

    key = ("shortfall", (payoff.tobytes(), loss.pieces, float(v0)))
    return run(_memoized([market], [key], decide))[0]


def indifference_price(
    market: DiscreteMarket, claim: Claim, u: UtilitySpec, v: float
) -> float:
    """Price that equates optimal utility with and without the claim.

    The buyer pays ``p`` out of capital ``v``, receives the claim on top of
    the terminal wealth, and is indifferent when the achievable expected
    utility matches the claim-free optimum.  The right-hand side decreases in
    ``p``, so a bisection on [0, v) converges; the result is accurate to
    1e-8 in the price.  NA1 and the LPs share rounds in :func:`maximize_utility`,
    which refuses a market without NA1.
    """
    payoff = _check_claim(market, claim)
    if not (math.isfinite(v) and v > 0.0):
        raise InvalidParameterError("initial capital must be a positive number")

    def best_value(capital: float) -> float:
        specs = [u.compose_affine(capital, float(x)) for x in payoff]
        return maximize_utility(market, specs).value

    baseline = maximize_utility(market, u.compose_affine(v, 0.0)).value
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
    """Expected claim payoff deflated by the numeraire wealth.

    Under no scalable arbitrage this is the expectation of
    ``payoff / (1 + <rho, R>)`` with rho the numeraire position; it never
    exceeds the super-hedging value.  A state with zero numeraire wealth and
    positive payoff prices at +inf.  NA1 and the LPs share rounds in
    :func:`numeraire_portfolio`, which refuses a market without NA1.
    """
    payoff = _check_claim(market, claim)
    rho = numeraire_portfolio(market).strategy
    wealth = 1.0 + market.returns @ rho
    degenerate = wealth <= 0.0
    if np.any(degenerate & (payoff > 0.0)):
        return math.inf
    ratio = np.where(degenerate, 0.0, payoff / np.where(degenerate, 1.0, wealth))
    return float(market.probs @ ratio)
