"""Super-hedging, shortfall hedging, and pricing of nonnegative claims.

The cheapest initial capital whose terminal wealth dominates a claim in
every state is a linear program once the position is homogenized: with
``y = v * pi`` the bilinear budget constraint becomes ``A y <= v b``.  The
LP multipliers on the state rows hand back a deflator certifying the same
value from below, so every report carries a two-sided certificate.

When full super-replication is too expensive, ``shortfall_hedge`` minimizes
the expected shortfall loss under a capital budget, and two price notions
bracket the super-hedging value from below: the utility-indifference price
and the numeraire-deflated expectation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleError,
    InvalidParameterError,
    NumericError,
    PreconditionError,
)
from .lp import require_optimal, solve_lp
from .market import DiscreteMarket
from .arbitrage import check_na1
from .portfolio import (
    UtilitySpec,
    maximize_utility,
    numeraire_portfolio,
    verify_deflator,
)

logger = logging.getLogger(__name__)

#: Relative agreement required between the LP value and its dual reading.
DUALITY_TOL = 1e-7

#: A super-replication residual may dip this far below zero (float slack).
RESIDUAL_TOL = 1e-9

#: Zero LP multipliers are lifted to this value so the reported deflator is
#: strictly positive, then the lifted vector is re-certified.
DEFLATOR_BUMP = 1e-12

#: Deflators must keep every allowed wealth ratio below one plus this slack.
DEFLATOR_TOL = 1e-8

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


def _require_na1(market: DiscreteMarket, what: str) -> None:
    if check_na1(market).verdict != "na1_holds":
        raise PreconditionError(
            f"{what} requires the no-scalable-arbitrage condition; this market "
            "admits an unboundedly leverageable strategy"
        )


def _homogenized_rows(market: DiscreteMarket, extra: int):
    """Budget rows ``a . y - b v <= 0`` in variables (v, y, extras)."""
    normals = market.constraints.normals
    offsets = market.constraints.offsets
    m, d = normals.shape
    rows = np.zeros((m, 1 + d + extra))
    rows[:, 0] = -offsets
    rows[:, 1 : 1 + d] = normals
    return rows, np.zeros(m)


def superhedge(market: DiscreteMarket, claim: Claim) -> ValuationReport:
    """Cheapest capital whose terminal wealth dominates the claim state-wise.

    Solves min v over positions y with ``v + <y, R(omega)> >= payoff(omega)``
    for every state and ``A y <= v b``; the returned strategy is ``y / v``.
    The state multipliers, divided by the probabilities, form a deflator
    whose expected claim value matches the primal optimum (LP duality), and
    both readings plus their gap are reported.
    """
    payoff = _check_claim(market, claim)
    _require_na1(market, "super-hedging")
    n, d = market.returns.shape

    # Variables (v, y).  State rows: -v - <y, R> <= -payoff.
    state_rows = np.hstack([-np.ones((n, 1)), -market.returns])
    budget_rows, budget_rhs = _homogenized_rows(market, extra=0)
    a_ub = np.vstack([state_rows, budget_rows])
    b_ub = np.concatenate([-payoff, budget_rhs])
    bounds = [(0.0, None)] + [(None, None)] * d
    cost = np.zeros(1 + d)
    cost[0] = 1.0

    result = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    require_optimal(result, "super-hedging")
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

    multipliers = -result.marginals_ub[:n]
    multipliers = np.maximum(multipliers, 0.0)
    deflator = multipliers / market.probs
    lifted = np.maximum(deflator, DEFLATOR_BUMP)
    dual_ok = verify_deflator(market, lifted) <= 1.0 + DEFLATOR_TOL
    dual_value = float(market.probs @ (lifted * payoff))
    gap = abs(primal - dual_value)
    if gap > DUALITY_TOL * (1.0 + primal):
        raise NumericError(
            f"duality gap {gap:.3e} between the super-hedging value and its "
            "deflator reading exceeds tolerance"
        )

    replicates = float(np.max(np.abs(residuals))) <= RESIDUAL_TOL
    attains = dual_ok and dual_value >= primal - DUALITY_TOL * (1.0 + primal)
    if not dual_ok:
        logger.warning(
            "lifted dual deflator failed re-certification; reporting it anyway"
        )

    return ValuationReport(
        primal_value=primal,
        strategy=strategy,
        dual_value=dual_value,
        dual_deflator=lifted,
        gap=gap,
        attainable=bool(replicates and attains),
        lp_status=result.status,
    )


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
    zero (returned, not an error).
    """
    payoff = _check_claim(market, claim)
    _require_na1(market, "shortfall hedging")
    if not (math.isfinite(v0) and v0 > 0.0):
        raise InvalidParameterError("the capital budget must be a positive number")
    n, d = market.returns.shape

    # Variables (v, y, s).  Loss-piece rows per state:
    #   slope * (payoff - v - <y, R>) + intercept <= s.
    piece_rows = []
    piece_rhs = []
    for slope, intercept in loss.pieces:
        block = np.zeros((n, 1 + d + n))
        block[:, 0] = -slope
        block[:, 1 : 1 + d] = -slope * market.returns
        block[:, 1 + d :] = -np.eye(n)
        piece_rows.append(block)
        piece_rhs.append(-slope * payoff - intercept)
    budget_rows, budget_rhs = _homogenized_rows(market, extra=n)
    a_ub = np.vstack(piece_rows + [budget_rows])
    b_ub = np.concatenate(piece_rhs + [budget_rhs])
    bounds = [(0.0, float(v0))] + [(None, None)] * d + [(0.0, None)] * n
    cost = np.concatenate([np.zeros(1 + d), market.probs])

    result = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    require_optimal(result, "shortfall hedging")
    v_opt = float(result.x[0])
    y_opt = result.x[1 : 1 + d]
    strategy = y_opt / v_opt if v_opt > 0.0 else np.zeros(d)
    risk = max(0.0, float(result.value))
    return v_opt, strategy, risk


def indifference_price(
    market: DiscreteMarket, claim: Claim, u: UtilitySpec, v: float
) -> float:
    """Price that equates optimal utility with and without the claim.

    The buyer pays ``p`` out of capital ``v``, receives the claim on top of
    the terminal wealth, and is indifferent when the achievable expected
    utility matches the claim-free optimum.  The right-hand side decreases in
    ``p``, so a bisection on [0, v) converges; the result is accurate to
    1e-8 in the price.
    """
    payoff = _check_claim(market, claim)
    if not (math.isfinite(v) and v > 0.0):
        raise InvalidParameterError("initial capital must be a positive number")
    _require_na1(market, "indifference pricing")

    def best_value(capital: float) -> float:
        specs = [u.compose_affine(capital, float(x)) for x in payoff]
        try:
            return maximize_utility(market, specs).value
        except InfeasibleError:
            # No position keeps the utility argument positive at this
            # capital, so the achievable utility is minus infinity.
            return -math.inf

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
    positive payoff prices at +inf.
    """
    payoff = _check_claim(market, claim)
    _require_na1(market, "numeraire pricing")
    rho = numeraire_portfolio(market).strategy
    wealth = 1.0 + market.returns @ rho
    degenerate = wealth <= 0.0
    if np.any(degenerate & (payoff > 0.0)):
        return math.inf
    ratio = np.where(degenerate, 0.0, payoff / np.where(degenerate, 1.0, wealth))
    return float(market.probs @ ratio)
