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

import numpy as np

from .errors import InvalidParameterError, NumericError
from .lp import deterministic_equivalent, require_optimal, run
from .market import DiscreteMarket, _kept_rows
from .arbitrage import SUPERMARTINGALE_TOL, _certified_gains, _dual_bound, _gated
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
    NA1 and the super-hedging LP are :func:`_hedged`'s first round of LPs.
    """
    return run(_hedged(market, claim.payoff))


def _hedged(market: DiscreteMarket, payoff):
    payoff = _check_claim(market, Claim(payoff))
    reports = yield from _gated([market], "super-hedging", _superhedge_reports([market], [payoff]))
    return (yield from _recertified([market], reports))[0]


def _superhedge_reports(markets, payoffs):
    """Task: super-hedging LPs of several markets and payoffs, stacked, each
    with the state rows of :func:`_hedged_states` generated on demand, and
    each checked on its own in every state: the position must dominate its
    payoff and the lifted deflator's reading must match the LP value.  A
    state without a row has a zero multiplier.  ``attainable`` does not yet
    account for the re-certification of the lifted deflators, which
    :func:`_recertified` adds from the budget multipliers held here."""
    blocks, kept = [], [_hedged_states(m, payoff) for m, payoff in zip(markets, payoffs)]
    for market, payoff, states in zip(markets, payoffs, kept):
        d = market.n_assets
        # Variables (v, y).  State rows: -v - <y, R> <= -payoff.
        state_rows = np.hstack([-np.ones((states.size, 1)), -market.returns[states]])
        # Budget rows, homogenized: <a, y> - b v <= 0.
        cs = market.constraints
        budget_rows = np.hstack([-cs.offsets[:, None], cs.normals])
        cost = np.zeros(1 + d)
        cost[0] = 1.0
        blocks.append(dict(
            cost=cost,
            a_ub=np.vstack([state_rows, budget_rows]),
            b_ub=np.concatenate([-payoff[states], np.zeros(len(budget_rows))]),
            bounds=[(0.0, None)] + [(None, None)] * d,
            lazy=np.arange(states.size + len(budget_rows)) < states.size,
        ))
    reports = []
    for market, payoff, states, result in zip(markets, payoffs, kept, ((yield blocks) if blocks else [])):
        require_optimal(result, "super-hedging")
        d = market.n_assets
        primal = float(result.value)
        v_opt = float(result.x[0])
        y_opt = result.x[1:]
        strategy = y_opt / v_opt if v_opt > 0.0 else np.zeros(d)

        residuals = v_opt + market.returns @ y_opt - payoff
        if float(np.min(residuals)) < -RESIDUAL_TOL:
            raise NumericError(
                "super-hedging LP returned a position that fails to dominate the "
                f"claim (worst residual {float(np.min(residuals)):.3e})"
            )

        multipliers = np.zeros(market.n_states)
        multipliers[states] = np.maximum(-result.marginals_ub[: states.size], 0.0)
        lifted = np.maximum(multipliers / market.probs, DEFLATOR_BUMP)
        dual_value = float(market.probs @ (lifted * payoff))
        gap = abs(primal - dual_value)
        if gap > DUALITY_TOL * (1.0 + primal):
            raise NumericError(
                f"duality gap {gap:.3e} between the super-hedging value and its "
                "deflator reading exceeds tolerance"
            )
        weights, budget = market.probs * lifted, np.maximum(-result.marginals_ub[states.size :], 0.0)
        rows = market.admissible.offsets.size + np.arange(budget.size)  # R^T multipliers = A^T budget
        _dual_bound(market, weights, (market.span.basis, rows, budget),
                    1.0 + SUPERMARTINGALE_TOL - np.sum(weights))
        replicates = float(np.max(np.abs(residuals))) <= RESIDUAL_TOL
        attains = dual_value >= primal - DUALITY_TOL * (1.0 + primal)
        reports.append(ValuationReport(
            primal_value=primal,
            strategy=strategy,
            dual_value=dual_value,
            dual_deflator=lifted,
            gap=gap,
            attainable=bool(replicates and attains),
            lp_status=result.status,
        ))
    return reports


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
    """
    payoff = _check_claim(market, claim)
    if not (math.isfinite(v0) and v0 > 0.0):
        raise InvalidParameterError("the capital budget must be a positive number")
    slopes, intercepts = np.array(loss.pieces).T
    tables = np.zeros((market.n_states, slopes.size + 1, 2))  # the last piece is (0, 0)
    tables[:, :-1, 0] = slopes
    tables[:, :-1, 1] = -slopes * payoff[:, None] - intercepts
    cs = market.constraints
    task = deterministic_equivalent(
        np.zeros(market.n_states + 1, dtype=int), market.returns,
        [(market.span.basis, cs.normals, cs.offsets)], list(zip(market.probs, tables)),
        (0.0, float(v0)), False, "shortfall hedging")
    wealth, [strategy], value = run(_gated([market], "shortfall hedging", task))
    return float(wealth[0]), strategy, max(0.0, -float(value))


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
