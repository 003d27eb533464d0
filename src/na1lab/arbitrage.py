"""Arbitrage detection for one-period constrained markets.

Two distinct notions are handled, each with a machine-checkable certificate:

* a *classical arbitrage* is an allowed strategy with almost-surely
  nonnegative gains, positive with positive probability;
* a *scalable arbitrage* is such a strategy living in the recession cone of
  the allowed polyhedron, so it can be leveraged without bound.  Its absence
  is equivalent to boundedness of the allowed set within the return span.

The module also builds an equivalent supermartingale measure whenever no
classical arbitrage exists, via exponential-moment minimization over the cone
generated by the allowed polyhedron.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import NumericError, InvalidParameterError, PreconditionError
from .lp import (
    INFEASIBLE,
    STACK_COLUMNS,
    UNBOUNDED,
    _solve_stacked,
    cone_span,
    minimize_convex,
    require_optimal,
    solve_lp,
)
from .market import Cone, DiscreteMarket, generated_cone

logger = logging.getLogger(__name__)

#: An LP optimum above this value certifies a positive expected gain.
GAIN_TOL = 1e-9

#: Search box for arbitrage strategies (the LP must stay bounded).
STRATEGY_BOX = 1e6

#: Certificates are rescaled to at most this sup-norm before re-verification.
#: Scaling an arbitrage down keeps it one (the allowed set is convex and
#: contains the origin) and keeps float noise in the recomputed gains below
#: the certificate tolerances.
CERTIFICATE_SCALE = 100.0

#: Expected-gain slack allowed for a supermartingale measure.
SUPERMARTINGALE_TOL = 1e-8

#: Residual at which the exponential-moment minimization stops; it bounds
#: the expected-gain slack, with room for the certifying LP's own noise.
MOMENT_TOL = 1e-2 * SUPERMARTINGALE_TOL

#: Anything below this offset counts as a zero right-hand side.
ZERO_OFFSET_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ArbitrageCertificate:
    """Outcome of a classical (or relative) arbitrage search.

    ``objective`` is the expected gain of the returned strategy when one was
    found (after taming its scale), else the optimum of the search LP: the
    best expected gain achievable with nonnegative state-wise gains.
    ``reference`` is the benchmark strategy when the search was relative,
    else None.
    """

    verdict: str
    strategy: np.ndarray | None
    gains: np.ndarray | None
    objective: float
    reference: np.ndarray | None = None
    threshold: float = GAIN_TOL

    @property
    def found(self) -> bool:
        return self.verdict == "arbitrage_found"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "strategy": None if self.strategy is None else list(map(float, self.strategy)),
            "gains": None if self.gains is None else list(map(float, self.gains)),
            "objective": float(self.objective),
            "reference": None if self.reference is None else list(map(float, self.reference)),
            "threshold": float(self.threshold),
        }


@dataclass(frozen=True, eq=False)
class Na1Certificate:
    """Outcome of a scalable-arbitrage search.

    When the verdict is ``na1_holds``, ``bound_radius`` is the sup-norm radius
    of the allowed polyhedron intersected with the return span, and
    ``multipliers`` (one row per direction ``basis[0], ..., basis[d-1],
    -basis[0], ..., -basis[d-1]``, one column per allowed halfspace) express
    every direction as a nonnegative combination of the allowed normals in
    span coordinates.  When it is ``na1_fails``, ``witness_ray`` is a
    recession direction with nonnegative gains, positive somewhere.
    """

    verdict: str
    witness_ray: np.ndarray | None = None
    bound_radius: float | None = None
    threshold: float = GAIN_TOL
    multipliers: np.ndarray | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "na1_holds"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_ray": None
            if self.witness_ray is None
            else list(map(float, self.witness_ray)),
            "bound_radius": None if self.bound_radius is None else float(self.bound_radius),
            "threshold": float(self.threshold),
        }


@dataclass(frozen=True, eq=False)
class Esmm:
    """Equivalent supermartingale measure on the market's states.

    ``measure`` is the new probability vector q, ``density`` its ratio to the
    market probabilities, ``strategy`` the exponential-moment minimizer that
    generated it, and ``slack`` the LP-certified maximum expected gain under q
    over the allowed polyhedron (must be <= SUPERMARTINGALE_TOL).
    """

    measure: np.ndarray
    density: np.ndarray
    strategy: np.ndarray
    slack: float
    threshold: float = SUPERMARTINGALE_TOL

    def to_dict(self) -> dict:
        return {
            "measure": list(map(float, self.measure)),
            "density": list(map(float, self.density)),
            "strategy": list(map(float, self.strategy)),
            "slack": float(self.slack),
            "threshold": float(self.threshold),
        }


def _arbitrage_search(market: DiscreteMarket, offsets: np.ndarray, tol: float):
    """Shared LP core: maximize expected gain subject to nonnegative gains,
    membership in ``{A pi <= offsets}`` within the return span, and a large
    box keeping the LP bounded.  Returns (objective, strategy | None)."""
    basis = market.span.basis
    r = basis.shape[1]
    if r == 0:
        return 0.0, None
    returns_r = market.returns @ basis
    a_theta = market.allowed.normals @ basis
    a_rows = np.vstack([a_theta, -returns_r, basis, -basis])
    d = market.n_assets
    b_rows = np.concatenate(
        [offsets, np.zeros(market.n_states), np.full(2 * d, STRATEGY_BOX)]
    )
    cost = market.probs @ returns_r
    res = solve_lp(cost, a_ub=a_rows, b_ub=b_rows, maximize=True)
    require_optimal(res, "arbitrage search")
    if res.value <= tol:
        return float(res.value), None
    return float(res.value), basis @ res.x


def _tame_scale(direction: np.ndarray) -> float:
    """Scale factor in (0, 1] that caps a certificate direction's sup-norm.

    The search LP is free to run to its box, where recomputing ``R @ pi``
    in floats leaves noise far above the certificate tolerances; scaled-down
    copies of an arbitrage are still arbitrages, so certificates are tamed.
    """
    norm = float(np.max(np.abs(direction)))
    if norm <= CERTIFICATE_SCALE:
        return 1.0
    return CERTIFICATE_SCALE / norm


def _verify_gain_certificate(market, strategy, gains, offsets):
    theta = market.allowed
    residuals = theta.normals @ strategy - offsets
    scale = 1.0 + np.abs(offsets)
    if np.any(residuals > 1e-9 * scale):
        raise NumericError("arbitrage certificate violates the constraint polyhedron")
    if np.any(gains < -1e-12):
        raise NumericError("arbitrage certificate has a negative state gain")
    if float(np.max(gains)) <= GAIN_TOL:
        raise NumericError("arbitrage certificate has no strictly positive gain")


def _cached(market: DiscreteMarket, notion: str, tol: float, compute):
    """Certificate of ``notion`` at ``tol`` for ``market``, computed once.

    Markets are immutable, so a certificate stays valid for the market's
    lifetime; it is held in ``market.certificates`` keyed by notion and
    tolerance.
    """
    key = (notion, float(tol))
    cert = market.certificates.get(key)
    if cert is None:
        cert = market.certificates[key] = compute(market, tol)
    return cert


def find_classical_arbitrage(market: DiscreteMarket, tol: float = GAIN_TOL) -> ArbitrageCertificate:
    """Search the allowed polyhedron for a classical arbitrage.

    Maximizes the expected gain over strategies in the allowed set (within
    the return span) whose gains are nonnegative in every state; an optimum
    above ``tol`` certifies an arbitrage.  The certificate is cached on the
    market, one per tolerance.
    """
    return _cached(market, "classical", tol, _search_classical)


def _search_classical(market: DiscreteMarket, tol: float) -> ArbitrageCertificate:
    objective, strategy = _arbitrage_search(market, market.allowed.offsets, tol)
    if strategy is None:
        return ArbitrageCertificate("no_arbitrage", None, None, objective, threshold=tol)
    strategy = strategy * _tame_scale(strategy)
    gains = market.returns @ strategy
    _verify_gain_certificate(market, strategy, gains, market.allowed.offsets)
    return ArbitrageCertificate(
        "arbitrage_found", strategy, gains, float(market.probs @ gains), threshold=tol
    )


def relative_arbitrage(market: DiscreteMarket, reference, tol: float = GAIN_TOL) -> ArbitrageCertificate:
    """Search for an allowed strategy whose wealth dominates the reference's.

    The search runs over the allowed polyhedron translated by ``-reference``;
    the certificate's ``strategy`` is the dominating strategy itself and
    ``gains`` the state-wise wealth differences.
    """
    reference = np.asarray(reference, dtype=float).reshape(-1)
    theta = market.allowed
    if reference.size != market.n_assets:
        raise InvalidParameterError("reference strategy has the wrong dimension")
    if not theta.contains(reference):
        raise InvalidParameterError("reference strategy is not in the allowed polyhedron")
    shifted = theta.offsets - theta.normals @ reference
    objective, delta = _arbitrage_search(market, shifted, tol)
    if delta is None:
        return ArbitrageCertificate(
            "no_arbitrage", None, None, objective, reference=reference, threshold=tol
        )
    delta = delta * _tame_scale(delta)
    gains = market.returns @ delta
    strategy = reference + delta
    _verify_gain_certificate(market, strategy, gains, theta.offsets)
    return ArbitrageCertificate(
        "arbitrage_found", strategy, gains, float(market.probs @ gains),
        reference=reference, threshold=tol
    )


def check_na1(market: DiscreteMarket, tol: float = GAIN_TOL) -> Na1Certificate:
    """Decide whether scalable arbitrage is absent.

    The allowed set ``{C theta <= b}`` (``C`` the allowed normals in span
    coordinates, ``b >= 0``) is bounded in the return span exactly when every
    signed coordinate direction ``c_k = +-basis[i]`` is a nonnegative
    combination ``C^T lambda_k`` of its rows (Farkas).  One LP, minimizing
    ``sum_k b . lambda_k`` over those multipliers, decides this; by LP
    duality each ``b . lambda_k`` is then the support function of the set in
    direction ``c_k``, and their maximum is its sup-norm radius.  The
    multipliers are re-verified with numpy: residuals below ``1 / sqrt(d)``
    already rule out any nonzero recession direction in the span.  When the
    LP is infeasible, one more LP finds the witness ray.

    The certificate is cached on the market, one per tolerance;
    :func:`_check_na1_all` decides several markets in stacked LPs.
    """
    return _check_na1_all([market], tol)[0]


def _check_na1_all(markets, tol: float = GAIN_TOL) -> list[Na1Certificate]:
    """:func:`check_na1` for several markets.  Those without a cached
    certificate are decided together, their multiplier LPs stacked by
    :func:`~na1lab.lp._solve_stacked`, and the certificates are cached."""
    key = ("na1", float(tol))
    fresh = list({id(m): m for m in markets if key not in m.certificates}.values())
    for market, cert in zip(fresh, _decide_na1(fresh, tol)):
        market.certificates[key] = cert
    return [market.certificates[key] for market in markets]


def _decide_na1(markets, tol: float) -> list[Na1Certificate]:
    certs: list = [None] * len(markets)
    lps = {}
    for i, market in enumerate(markets):
        if market.span.basis.shape[1] == 0:
            certs[i] = Na1Certificate("na1_holds", bound_radius=0.0, threshold=tol)
        else:
            lps[i] = _multiplier_lps(market)
    # Round k solves the k-th multiplier LP of every market still open; a
    # market split over several LPs stops at its first infeasible one.
    solved: dict = {i: [] for i in lps}
    failing = set()
    for k in range(max(map(len, lps.values()), default=0)):
        pending = [i for i in lps if k < len(lps[i]) and i not in failing]
        for i, result in zip(pending, _solve_stacked([lps[i][k] for i in pending])):
            if result.status == INFEASIBLE:
                failing.add(i)
            else:
                solved[i].append(require_optimal(result, "boundedness certificate").x)
    for i in lps:
        market = markets[i]
        basis = market.span.basis
        d = basis.shape[0]
        theta = market.allowed
        c_rows = theta.normals @ basis
        if i in failing:
            ray = _witness_ray(market, c_rows, tol)
            certs[i] = Na1Certificate("na1_fails", witness_ray=ray, threshold=tol)
            continue
        multipliers = np.maximum(np.concatenate(solved[i]).reshape(2 * d, -1), 0.0)
        residual = multipliers @ c_rows - np.vstack([basis, -basis])
        if not float(np.max(np.linalg.norm(residual, axis=1))) < 1.0 / np.sqrt(d):
            raise NumericError("boundedness multipliers failed re-verification")
        radius = float(np.max(multipliers @ theta.offsets))
        certs[i] = Na1Certificate(
            "na1_holds", bound_radius=radius, multipliers=multipliers, threshold=tol
        )
    return certs


def _multiplier_lps(market: DiscreteMarket) -> list[dict]:
    """LPs of the boundedness multipliers: rows ``lambda_k >= 0`` with
    ``C^T lambda_k = c_k`` for every signed coordinate direction
    ``c_k = +-basis[i]``, minimizing ``sum_k b . lambda_k``; one is
    infeasible exactly when some direction has no such combination.

    Each LP holds as many directions as fit in ``STACK_COLUMNS`` multiplier
    columns, at least one: a small or tree-node market is one LP, and the
    directions of a market with thousands of states are split over several.
    """
    basis = market.span.basis
    directions = np.vstack([basis, -basis])
    c_rows = market.allowed.normals @ basis
    per_lp = max(1, STACK_COLUMNS // c_rows.shape[0])
    lps = []
    for start in range(0, len(directions), per_lp):
        chunk = directions[start : start + per_lp]
        lps.append(dict(
            cost=np.tile(market.allowed.offsets, len(chunk)),
            a_eq=np.kron(np.eye(len(chunk)), c_rows.T),
            b_eq=chunk.reshape(-1),
            bounds=(0.0, None),
        ))
    return lps


def _witness_ray(market: DiscreteMarket, c_rows, tol: float) -> np.ndarray:
    """Recession direction of the allowed set in the span with the largest
    total gain inside the unit sup-norm box, scaled to sup-norm one.

    Recession directions already have nonnegative gains (the admissibility
    rows are among the normals), and a nonzero one in the span gains
    somewhere, so a positive optimum is a scalable arbitrage.
    """
    basis = market.span.basis
    d = basis.shape[0]
    a_rows = np.vstack([c_rows, basis, -basis])
    b_rows = np.concatenate([np.zeros(c_rows.shape[0]), np.ones(2 * d)])
    cost = market.returns.sum(axis=0) @ basis
    res = solve_lp(cost, a_ub=a_rows, b_ub=b_rows, maximize=True)
    require_optimal(res, "scalable arbitrage search")
    if not res.value > tol:
        raise NumericError(
            "allowed polyhedron is unbounded in the return span although "
            "no scalable direction was found; tolerance boundary case"
        )
    ray = basis @ res.x
    ray = ray / np.max(np.abs(ray))
    gains = market.returns @ ray
    if not Cone(d, market.allowed.normals).contains(ray) or np.any(gains < -1e-12):
        raise NumericError("witness ray failed re-verification")
    return ray


def max_expected_gain(market: DiscreteMarket, probs) -> float:
    """LP optimum of the weighted expected gain ``probs @ (R pi)`` over the
    allowed polyhedron intersected with the return span; +inf when it is
    unbounded.

    The weights need not sum to one: the wealth-ratio and deflator checks
    of :mod:`na1lab.portfolio` are this LP under deflated probabilities.
    :func:`_max_expected_gains` solves it for several markets at once.
    """
    return _max_expected_gains([market], [probs])[0]


def _max_expected_gains(markets, weights) -> list[float]:
    """:func:`max_expected_gain` of each market under its weights, the LPs
    stacked by :func:`~na1lab.lp._solve_stacked`."""
    values = [0.0] * len(markets)
    blocks, owners = [], []
    for i, (market, probs) in enumerate(zip(markets, weights)):
        basis = market.span.basis
        if basis.shape[1] == 0:
            continue
        blocks.append(dict(
            cost=np.asarray(probs, dtype=float) @ (market.returns @ basis),
            a_ub=market.allowed.normals @ basis,
            b_ub=market.allowed.offsets,
            maximize=True,
        ))
        owners.append(i)
    for i, result in zip(owners, _solve_stacked(blocks)):
        if result.status == UNBOUNDED:
            values[i] = float("inf")
        else:
            values[i] = float(require_optimal(result, "expected-gain LP").value)
    return values


def construct_esmm(market: DiscreteMarket, tol: float = GAIN_TOL) -> Esmm:
    """Build an equivalent supermartingale measure for an arbitrage-free market.

    ``tol`` is the gain tolerance of the classical-arbitrage search that
    runs first, as in :func:`find_classical_arbitrage`.  The construction
    reweights states by ``exp(-|R|^2)``, minimizes the logarithm of the
    exponential moment of wealth over the cone generated by the allowed
    polyhedron with :func:`~na1lab.lp.minimize_convex`, and normalizes
    ``p * exp(-wealth - |R|^2)`` at the minimizer.  The gradient of that
    objective is minus the expected return under the new measure, so the
    solver's residual bounds the expected-gain slack, which an LP then
    certifies to be at most ``SUPERMARTINGALE_TOL``.
    """
    if find_classical_arbitrage(market, tol).found:
        raise PreconditionError(
            "market admits a classical arbitrage; no supermartingale measure exists"
        )
    returns = market.returns
    log_aux = np.log(market.probs) - np.sum(returns * returns, axis=1)
    basis = market.span.basis
    strategy = np.zeros(market.n_assets)
    if basis.shape[1]:
        na1 = check_na1(market, tol)
        if not na1.holds:
            raise NumericError("no classical arbitrage was found, but NA1 fails")
        cone_rows = generated_cone(market.allowed, tol=ZERO_OFFSET_TOL).normals @ basis
        diameter = 2.0 * np.sqrt(market.n_assets) * na1.bound_radius
        strategy = basis @ _minimize_log_moment(log_aux, returns @ basis, cone_rows, diameter)
    log_q = log_aux - returns @ strategy
    with np.errstate(under="ignore"):
        q = np.exp(log_q - logsumexp(log_q))
    # extreme states can underflow to exactly zero in double precision; the
    # true mass is positive, so floor it at the smallest safe normal value
    q = np.maximum(q, 1e-300)
    q = q / q.sum()
    slack = max_expected_gain(market, q)
    if not slack <= SUPERMARTINGALE_TOL:
        raise NumericError(
            f"supermartingale verification failed: expected-gain slack {slack:.3e}"
        )
    logger.debug("esmm constructed: slack %.3e", slack)
    return Esmm(measure=q, density=q / market.probs, strategy=strategy, slack=slack)


def _minimize_log_moment(log_weights, returns_r, cone_rows, diameter):
    """Minimize ``log sum exp(log_weights - returns_r @ u)`` over the cone
    ``{u : cone_rows @ u <= 0}``.

    The search runs in the span of the cone, where the rows that are not
    implicit equalities have a strictly feasible point.
    """
    reduce_basis, start, strict = cone_span(cone_rows)
    rows = cone_rows[strict] @ reduce_basis
    mat = returns_r @ reduce_basis
    # any positive multiple of a point inside a cone is inside; this one moves
    # no state's wealth by more than one
    start = start / max(float(np.max(np.abs(mat @ start), initial=0.0)), 1e-300)

    def derivatives(z):
        log_e = log_weights - mat @ z
        q = np.exp(log_e - logsumexp(log_e))
        mean = mat.T @ q
        return -mean, mat.T @ (q[:, None] * mat) - np.outer(mean, mean)

    result = minimize_convex(
        derivatives, rows, np.zeros(rows.shape[0]), start, diameter, MOMENT_TOL
    )
    return reduce_basis @ result.x
