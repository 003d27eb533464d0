"""Expected-utility maximization, the growth-optimal strategy, and deflators.

Smooth utilities are maximized over the allowed polyhedron intersected with
the return span by the package's one interior-point Newton method,
:func:`~na1lab.lp.minimize_convex`, which stops on a bound for the
certified quantity rather than on a step size.  Piecewise-linear utilities
skip it entirely and go through one exact epigraph LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arbitrage import ZERO_OFFSET_TOL, check_na1, max_expected_gain
from .errors import (
    InfeasibleError,
    InvalidParameterError,
    NumericError,
    PreconditionError,
)
from .lp import UNBOUNDED, chebyshev_center, cone_span, minimize_convex, require_optimal, solve_lp
from .market import DiscreteMarket, generated_cone, wealth

#: The search starts with every utility argument at least this far above
#: zero; states whose argument ends at or below it are reported.
WEALTH_FLOOR = 1e-9

#: Slack allowed by the wealth-ratio certification LP.
NUMERAIRE_TOL = 1e-8

#: Default stationarity-residual tolerance of the optimizer.
GRADIENT_TOL = 1e-8

#: A Chebyshev radius at or below this marks an allowed set that is flat
#: within the coordinates searched (LP optima carry about this much noise).
FLAT_RADIUS = 1e-9


@dataclass(frozen=True)
class UtilitySpec:
    """Strictly increasing concave utility of wealth.

    ``scale`` and ``shift`` pre-compose the base function with an affine map,
    so evaluation computes ``base(scale * x + shift)``; hedging and
    multi-period code uses this to fold endowments into state-dependent
    utilities without new machinery.  ``scale`` must stay positive to keep
    the function increasing.
    """

    kind: str
    gamma: float = 0.0
    knots_x: tuple[float, ...] = ()
    knots_y: tuple[float, ...] = ()
    scale: float = 1.0
    shift: float = 0.0

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls(kind="log")

    @classmethod
    def power(cls, gamma: float) -> "UtilitySpec":
        """Utility x^gamma / gamma; requires gamma < 1, gamma != 0."""
        if not (gamma < 1.0) or gamma == 0.0:
            raise InvalidParameterError("power utility requires gamma < 1 and gamma != 0")
        return cls(kind="power", gamma=float(gamma))

    @classmethod
    def piecewise_linear(cls, knots_x, knots_y) -> "UtilitySpec":
        """Concave piecewise-linear interpolant of the knots, extended
        linearly beyond the first and last knot.  Slopes must be positive and
        nonincreasing."""
        xs = tuple(float(x) for x in knots_x)
        ys = tuple(float(y) for y in knots_y)
        if len(xs) != len(ys) or len(xs) < 2:
            raise InvalidParameterError("piecewise utility needs matching knot lists, length >= 2")
        dx = np.diff(xs)
        if np.any(dx <= 0):
            raise InvalidParameterError("piecewise knots must be strictly increasing in x")
        slopes = np.diff(ys) / dx
        if np.any(slopes <= 0):
            raise InvalidParameterError("piecewise utility must be strictly increasing")
        if np.any(np.diff(slopes) > 1e-12):
            raise InvalidParameterError("piecewise utility must be concave")
        return cls(kind="piecewise_linear", knots_x=xs, knots_y=ys)

    def compose_affine(self, scale: float, shift: float) -> "UtilitySpec":
        """Spec evaluating ``self(scale * x + shift)``."""
        if scale <= 0:
            raise InvalidParameterError("affine wealth map must have positive scale")
        return UtilitySpec(
            kind=self.kind,
            gamma=self.gamma,
            knots_x=self.knots_x,
            knots_y=self.knots_y,
            scale=self.scale * scale,
            shift=self.scale * shift + self.shift,
        )

    @property
    def needs_positive_argument(self) -> bool:
        return self.kind in ("log", "power")

    def _argument(self, x):
        return self.scale * np.asarray(x, dtype=float) + self.shift

    def value(self, x):
        """Utility at wealth ``x`` (vectorized); -inf outside the domain."""
        arg = self._argument(x)
        if self.kind == "log":
            out = np.full_like(arg, -np.inf)
            ok = arg > 0
            out[ok] = np.log(arg[ok])
            return out
        if self.kind == "power":
            out = np.full_like(arg, -np.inf)
            ok = arg > 0
            out[ok] = arg[ok] ** self.gamma / self.gamma
            return out
        return self._piecewise_value(arg)

    def derivative(self, x):
        """d/dx of :meth:`value` (vectorized, right-slope at kinks)."""
        arg = self._argument(x)
        if self.kind == "log":
            return self.scale / arg
        if self.kind == "power":
            return self.scale * arg ** (self.gamma - 1.0)
        xs = np.asarray(self.knots_x)
        slopes = np.diff(self.knots_y) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, arg, side="right") - 1, 0, slopes.size - 1)
        return self.scale * slopes[idx]

    def second_derivative(self, x):
        arg = self._argument(x)
        if self.kind == "log":
            return -self.scale**2 / arg**2
        if self.kind == "power":
            return self.scale**2 * (self.gamma - 1.0) * arg ** (self.gamma - 2.0)
        return np.zeros_like(arg)

    def lower_bound_at(self, x: float) -> float:
        """Finite value at a positive wealth level."""
        if x <= 0:
            raise InvalidParameterError("lower_bound_at needs positive wealth")
        val = float(self.value(np.array([x]))[0])
        if not math.isfinite(val):
            raise InvalidParameterError(f"utility is not finite at wealth {x}")
        return val

    def _piecewise_value(self, arg):
        xs = np.asarray(self.knots_x)
        ys = np.asarray(self.knots_y)
        slopes = np.diff(ys) / np.diff(xs)
        out = np.interp(arg, xs, ys)
        below = arg < xs[0]
        above = arg > xs[-1]
        out = np.where(below, ys[0] + slopes[0] * (arg - xs[0]), out)
        out = np.where(above, ys[-1] + slopes[-1] * (arg - xs[-1]), out)
        return out

    def pieces(self):
        """Affine overestimators (c, d) with ``value(x) = min_j c_j x + d_j``.

        Only defined for piecewise-linear specs; the scale/shift map is
        folded into the coefficients.
        """
        if self.kind != "piecewise_linear":
            raise InvalidParameterError("pieces() is only defined for piecewise utilities")
        xs = np.asarray(self.knots_x)
        ys = np.asarray(self.knots_y)
        slopes = np.diff(ys) / np.diff(xs)
        intercepts = ys[:-1] - slopes * xs[:-1]
        c = slopes * self.scale
        d = slopes * self.shift + intercepts
        return np.column_stack([c, d])


class _UtilityEvaluator:
    """Per-state view of a single spec or a state-indexed list of specs."""

    def __init__(self, u, n_states: int):
        if isinstance(u, UtilitySpec):
            specs = [u] * n_states
        else:
            specs = list(u)
            if len(specs) != n_states:
                raise InvalidParameterError(
                    f"need one utility per state ({n_states}), got {len(specs)}"
                )
            if not all(isinstance(s, UtilitySpec) for s in specs):
                raise InvalidParameterError("state utilities must be UtilitySpec instances")
        kinds = {s.kind for s in specs}
        if "piecewise_linear" in kinds and len(kinds) > 1:
            raise InvalidParameterError(
                "cannot mix piecewise-linear and smooth utilities across states"
            )
        self.specs = specs
        self.piecewise = kinds == {"piecewise_linear"}
        self.scales = np.array([s.scale for s in specs])
        self.shifts = np.array([s.shift for s in specs])
        self._homogeneous = all(s is specs[0] for s in specs)

    def value(self, w) -> np.ndarray:
        if self._homogeneous:
            return self.specs[0].value(w)
        return np.array([s.value(np.array([wi]))[0] for s, wi in zip(self.specs, w)])

    def derivative(self, w) -> np.ndarray:
        if self._homogeneous:
            return self.specs[0].derivative(w)
        return np.array([s.derivative(np.array([wi]))[0] for s, wi in zip(self.specs, w)])

    def second_derivative(self, w) -> np.ndarray:
        if self._homogeneous:
            return self.specs[0].second_derivative(w)
        return np.array(
            [s.second_derivative(np.array([wi]))[0] for s, wi in zip(self.specs, w)]
        )


@dataclass(frozen=True, eq=False)
class OptimalPortfolio:
    """Utility maximizer with solver telemetry.

    ``gradient_norm`` is the solver's final stationarity residual:
    complementarity plus the KKT gradient residual times the diameter bound
    of the allowed set (zero by convention when the exact LP path was used);
    for log utility it bounds the wealth-ratio LP value minus one.
    ``iterations`` counts Newton iterations.  ``active_constraints`` are
    indices of allowed-set rows binding at the solution (multiplier above
    slack), ``active_wealth_floors`` the states whose utility argument is at
    most ``WEALTH_FLOOR``.
    """

    strategy: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    active_constraints: tuple[int, ...] = ()
    active_wealth_floors: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "strategy": list(map(float, self.strategy)),
            "value": float(self.value),
            "gradient_norm": float(self.gradient_norm),
            "iterations": int(self.iterations),
            "active_constraints": list(self.active_constraints),
            "active_wealth_floors": list(self.active_wealth_floors),
        }


@dataclass(frozen=True, eq=False)
class Deflator:
    """State-wise positive weights Z with E[Z (1 + <pi, R>)] <= 1 over the
    allowed set; ``certificate`` is the LP optimum of that expectation."""

    values: np.ndarray
    certificate: float

    def to_dict(self) -> dict:
        return {
            "values": list(map(float, self.values)),
            "certificate": float(self.certificate),
            "threshold": 1.0 + NUMERAIRE_TOL,
        }


def maximize_utility(
    market: DiscreteMarket,
    u,
    tol: float = GRADIENT_TOL,
    *,
    x0=None,
    divergence_bound: float | None = None,
) -> OptimalPortfolio:
    """Maximize expected utility of final wealth over the allowed polyhedron.

    ``u`` is a single :class:`UtilitySpec` or one spec per state.  Smooth
    utilities go through the interior-point Newton method of
    :func:`~na1lab.lp.minimize_convex`, started at ``x0`` when it lies
    strictly inside the allowed set and the utility's domain, else at the
    Chebyshev center.  It stops once its stationarity residual (complementarity
    plus the KKT gradient residual times the diameter of the allowed set,
    ``2 sqrt(d)`` times the NA1 ``bound_radius``) is at most ``tol`` times
    ``1 + |strategy|``; for log utility that residual bounds the wealth-ratio
    LP value minus one.  Piecewise-linear utilities are solved exactly by an
    epigraph LP.

    When scalable arbitrage exists the supremum is infinite, so the search
    refuses to start, unless ``divergence_bound`` is given: then the
    objective is escalated along the NA1 certificate's witness ray, and a
    :class:`~na1lab.errors.NumericError` carries the escalated value and the
    best finite point.
    """
    evaluator = _UtilityEvaluator(u, market.n_states)
    cert = check_na1(market)
    if not cert.holds and divergence_bound is None:
        raise PreconditionError(
            "scalable arbitrage exists, so expected utility has no maximizer; "
            "remove the arbitrage or tighten the constraints"
        )
    d = market.n_assets
    if evaluator.piecewise and market.span.basis.shape[1]:
        return _piecewise_optimum(market, evaluator, market.span.basis)
    basis, start = _interior_start(market, evaluator, market.span.basis)
    if basis.shape[1] == 0:
        value = float(market.probs @ evaluator.value(np.ones(market.n_states)))
        return OptimalPortfolio(np.zeros(d), value, 0.0, 0)

    returns_r = market.returns @ basis
    normals = market.allowed.normals
    # after a flat set is reduced, its implicit equalities vanish on the
    # searched coordinates (0 <= 0) and hold everywhere there
    rows = np.nonzero(
        np.linalg.norm(normals @ basis, axis=1) > 1e-12 * np.linalg.norm(normals, axis=1)
    )[0]
    a = normals[rows] @ basis
    b = market.allowed.offsets[rows]
    g = -returns_r
    h = 1.0 + evaluator.shifts / evaluator.scales
    if x0 is not None:
        v0 = basis.T @ np.asarray(x0, dtype=float)
        if np.all(a @ v0 < b) and np.all(g @ v0 < h):
            start = v0
    if not cert.holds:
        _escalate_along_ray(
            market, basis, returns_r, evaluator, start, cert.witness_ray, divergence_bound
        )

    probs = market.probs

    def derivatives(v):
        w = 1.0 + returns_r @ v
        curvature = probs * evaluator.second_derivative(w)
        return (
            -(returns_r.T @ (probs * evaluator.derivative(w))),
            -(returns_r.T @ (curvature[:, None] * returns_r)),
        )

    diameter = 2.0 * math.sqrt(d) * cert.bound_radius
    result = minimize_convex(derivatives, a, b, start, diameter, tol, domain=(g, h))
    u_opt = result.x
    value = float(probs @ evaluator.value(1.0 + returns_r @ u_opt))
    if result.residual > tol * (1.0 + float(np.linalg.norm(u_opt))):
        raise NumericError(
            f"utility maximization stalled at stationarity residual {result.residual:.3e}",
            best=basis @ u_opt,
            value=value,
        )
    active_theta = tuple(int(i) for i in rows[result.multipliers > b - a @ u_opt])
    arguments = evaluator.scales * (1.0 + returns_r @ u_opt) + evaluator.shifts
    active_floor = tuple(int(i) for i in np.nonzero(arguments <= WEALTH_FLOOR)[0])
    return OptimalPortfolio(
        basis @ u_opt, value, result.residual, result.iterations, active_theta, active_floor
    )


def _interior_start(market, evaluator, basis):
    """Coordinates in which the allowed set has an interior, and its
    Chebyshev center there with every utility argument at least
    ``WEALTH_FLOOR``.

    The utility argument ``scale * (1 + gain) + shift`` must stay positive:
    ``g u < h`` with ``g = -R`` and ``h = 1 + shift / scale``, divided by the
    positive scale so tiny scales cannot sink the coefficients below the LP
    solver's drop tolerance.  When no strategy is strictly inside every
    allowed row, the set is flat within ``basis``, and the coordinates shrink
    to the span of its generated cone.  Returns ``(basis, center)``.
    """
    r = basis.shape[1]
    if r == 0:
        return basis, np.zeros(0)
    a = market.allowed.normals @ basis
    g = -(market.returns @ basis)
    h = 1.0 + evaluator.shifts / evaluator.scales
    try:
        center, radius = chebyshev_center(
            np.vstack([a, g]),
            np.concatenate([market.allowed.offsets, h - WEALTH_FLOOR / evaluator.scales]),
            r,
        )
    except InfeasibleError:
        raise InfeasibleError(
            "no allowed strategy keeps every state's utility argument positive"
        ) from None
    if radius <= FLAT_RADIUS:
        cone_rows = generated_cone(market.allowed, tol=ZERO_OFFSET_TOL).normals @ basis
        span = cone_span(cone_rows)[0]
        if span.shape[1] < r:
            return _interior_start(market, evaluator, basis @ span)
    return basis, center


def _escalate_along_ray(market, basis, returns_r, evaluator, u_cur, ray, bound):
    """Push the objective along a certified scalable-arbitrage direction.

    The gains along the ray are nonnegative and positive somewhere, so the
    expected utility grows without bound; once float evaluation saturates,
    the supremum (+inf) is reported as the escalated value.
    """
    ray_u = basis.T @ ray
    gains = returns_r @ ray_u
    # The certified ray's gains are nonnegative up to solver noise; cap the
    # escalation before the noise, amplified by s, could touch the wealths.
    noise = max(0.0, -float(np.min(gains)))
    w0 = 1.0 + returns_r @ u_cur
    s_cap = 1e306 if noise == 0.0 else min(1e306, 1e-3 * float(np.min(w0)) / noise)
    best = basis @ u_cur
    best_val = float(market.probs @ evaluator.value(w0))
    s = 1.0
    while s < s_cap:
        cand = u_cur + s * ray_u
        val = float(market.probs @ evaluator.value(1.0 + returns_r @ cand))
        if val > bound:
            raise NumericError(
                "objective escalated past the divergence bound along a "
                "scalable-arbitrage direction",
                best=best,
                value=val,
            )
        if math.isfinite(val) and val > best_val:
            best, best_val = basis @ cand, val
        s *= 32.0
    # Monotone escalation hit the float range without crossing the bound;
    # the supremum along the certified direction is infinite.
    raise NumericError(
        "objective is unbounded along a scalable-arbitrage direction",
        best=best,
        value=math.inf,
    )


def _piecewise_optimum(market, evaluator, basis):
    """Exact epigraph LP for concave piecewise-linear utilities."""
    returns_r = market.returns @ basis
    a = market.allowed.normals @ basis
    b = market.allowed.offsets
    n, r = returns_r.shape
    rows = []
    rhs = []
    for omega, spec in enumerate(evaluator.specs):
        pieces = spec.pieces()
        for c, dd in pieces:
            row = np.zeros(r + n)
            row[:r] = -c * returns_r[omega]
            row[r + omega] = 1.0
            rows.append(row)
            rhs.append(c + dd)
    a_full = np.vstack([np.hstack([a, np.zeros((a.shape[0], n))]), np.array(rows)])
    b_full = np.concatenate([b, np.array(rhs)])
    cost = np.concatenate([np.zeros(r), market.probs])
    res = solve_lp(cost, a_ub=a_full, b_ub=b_full, maximize=True)
    if res.status == UNBOUNDED:
        raise NumericError(
            "piecewise-utility LP is unbounded; the market admits scalable arbitrage"
        )
    require_optimal(res, "piecewise-utility epigraph LP")
    u_opt = res.x[:r]
    strategy = basis @ u_opt
    resid = b - a @ u_opt
    n_theta = market.allowed.normals.shape[0]
    tight = np.nonzero(resid <= 1e-9 * (1.0 + np.abs(b)))[0]
    active_theta = tuple(int(i) for i in tight if i < n_theta)
    return OptimalPortfolio(strategy, float(res.value), 0.0, 1, active_theta, ())


def expected_utility(market: DiscreteMarket, u, pi) -> float:
    """E[U(1 + <pi, R>)]; -inf when some state's argument leaves the domain."""
    evaluator = _UtilityEvaluator(u, market.n_states)
    w = wealth(market, pi)
    return float(market.probs @ evaluator.value(w))


def expected_utility_gradient(market: DiscreteMarket, u, pi) -> np.ndarray:
    """Gradient of :func:`expected_utility` in the strategy, as a d-vector."""
    evaluator = _UtilityEvaluator(u, market.n_states)
    w = wealth(market, pi)
    return market.returns.T @ (market.probs * evaluator.derivative(w))


def numeraire_portfolio(market: DiscreteMarket) -> OptimalPortfolio:
    """Growth-optimal strategy, certified by the wealth-ratio LP.

    Maximizes expected log wealth to tolerance 1e-10, then checks that no
    allowed strategy's expected wealth ratio against it exceeds 1 + 1e-8.
    """
    opt = maximize_utility(market, UtilitySpec.log(), tol=1e-10)
    lp_value = verify_numeraire(market, opt.strategy)
    if lp_value > 1.0 + NUMERAIRE_TOL:
        raise NumericError(
            f"wealth-ratio certification failed: LP optimum {lp_value:.12g} "
            f"exceeds 1 + {NUMERAIRE_TOL:g}"
        )
    return opt


def verify_numeraire(market: DiscreteMarket, rho) -> float:
    """LP optimum of E[(1 + <pi, R>) / (1 + <rho, R>)] over the allowed set.

    The candidate is a numeraire exactly when the optimum is at most
    1 + 1e-8 (taking pi = rho always attains 1).  Returns +inf when the
    ratio expectation is unbounded over the allowed set.
    """
    rho = np.asarray(rho, dtype=float).reshape(-1)
    if rho.size != market.n_assets:
        raise InvalidParameterError("candidate strategy has the wrong dimension")
    w_rho = wealth(market, rho)
    if np.any(w_rho <= 0):
        raise InvalidParameterError("candidate strategy has nonpositive wealth in some state")
    weights = market.probs / w_rho
    return float(np.sum(weights) + max_expected_gain(market, weights))


def verify_deflator(market: DiscreteMarket, values) -> float:
    """LP optimum of E[Z (1 + <pi, R>)] over the allowed set for weights Z."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != market.n_states or np.any(values <= 0):
        raise InvalidParameterError("deflator values must be positive, one per state")
    weighted = market.probs * values
    return float(np.sum(weighted) + max_expected_gain(market, weighted))


def deflator_from_numeraire(market: DiscreteMarket, rho) -> Deflator:
    """Deflator Z = 1 / (1 + <rho, R>) for a certified numeraire candidate.

    The wealth-ratio LP of ``rho`` is the deflator LP of Z, so one solve both
    certifies the candidate and gives the deflator's certificate.
    """
    lp_value = verify_numeraire(market, rho)
    if lp_value > 1.0 + NUMERAIRE_TOL:
        raise PreconditionError(
            f"wealth-ratio LP value {lp_value:.12g} exceeds 1 + {NUMERAIRE_TOL:g}; "
            "the candidate is not a numeraire"
        )
    return Deflator(values=1.0 / wealth(market, rho), certificate=float(lp_value))


def relative_log_optimality_gap(market: DiscreteMarket, rho, pi) -> float:
    """E[log((1 + <pi, R>) / (1 + <rho, R>))], with -inf when pi's wealth
    hits zero; nonpositive for every allowed pi exactly when rho is the
    numeraire."""
    w_rho = wealth(market, rho)
    if np.any(w_rho <= 0):
        raise InvalidParameterError("reference strategy has nonpositive wealth in some state")
    w_pi = wealth(market, pi)
    if np.any(w_pi <= 0):
        return -math.inf
    return float(market.probs @ (np.log(w_pi) - np.log(w_rho)))
