"""Expected-utility maximization, the growth-optimal strategy, and deflators.

The optimizer is projected-gradient ascent over the allowed polyhedron
intersected with the return span, with an active-set Newton polish once the
optimal face has been identified.  Piecewise-linear utilities skip the
gradient machinery entirely and go through one exact epigraph LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .arbitrage import check_na1
from .errors import (
    InfeasibleError,
    InvalidParameterError,
    NumericError,
    PreconditionError,
)
from .lp import UNBOUNDED, chebyshev_center, require_optimal, solve_lp
from .market import DiscreteMarket, wealth

#: Wealth-argument floor used to keep log/power utilities finite during the
#: search; the floor constraints that end up active are reported.
WEALTH_FLOOR = 1e-9

#: Slack allowed by the wealth-ratio certification LP.
NUMERAIRE_TOL = 1e-8

#: Default projected-gradient termination tolerance.
GRADIENT_TOL = 1e-8

#: Hard cap on optimizer iterations.
MAX_ITERATIONS = 10_000

#: Projected-gradient norm below which the Newton polish is attempted.
POLISH_TRIGGER = 1e-6


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
        self.needs_positive_argument = not self.piecewise
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

    ``gradient_norm`` is the final projected-gradient norm (zero by
    convention when the exact LP path was used).  ``active_constraints`` are
    indices of allowed-set rows tight at the solution, ``active_wealth_floors``
    the states whose wealth argument sits at the search floor.
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


class _PolyhedronProjector:
    """Euclidean projection onto ``{x : a x <= b}`` by primal active sets.

    Keeps the last projection as a warm start; each call walks faces of the
    polyhedron, so the per-call cost is a handful of tiny least-squares
    solves plus vectorized ratio tests.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, interior_point: np.ndarray):
        self.a = a
        self.b = b
        self.scale = 1.0 + np.abs(b)
        self.last = interior_point

    def __call__(self, y: np.ndarray) -> np.ndarray:
        a, b = self.a, self.b
        if a.shape[0] == 0 or np.all(a @ y - b <= 1e-13 * self.scale):
            return y
        x = self.last
        work = set(np.nonzero(b - a @ x <= 1e-11 * self.scale)[0])
        for _ in range(60 * (a.shape[0] + 1)):
            rows = sorted(work)
            if rows:
                aw = a[rows]
                mult, *_ = np.linalg.lstsq(aw @ aw.T, aw @ y - b[rows], rcond=None)
                target = y - aw.T @ mult
            else:
                mult = np.zeros(0)
                target = y
            if np.linalg.norm(target - x) <= 1e-13 * (1.0 + np.linalg.norm(x)):
                if mult.size == 0 or np.min(mult) >= -1e-11:
                    self.last = target
                    return target
                work.discard(rows[int(np.argmin(mult))])
                continue
            d = target - x
            along = a @ d
            slack = b - a @ x
            movable = along > 1e-14 * self.scale
            if rows:
                movable[rows] = False
            t = 1.0
            hit = None
            if np.any(movable):
                idx = np.nonzero(movable)[0]
                ratios = slack[idx] / along[idx]
                j = int(np.argmin(ratios))
                if ratios[j] < t - 1e-15:
                    t, hit = float(ratios[j]), int(idx[j])
            x = x + max(t, 0.0) * d
            if hit is None:
                continue
            work.add(hit)
        raise NumericError("projection onto the constraint polyhedron did not converge")


def _escalation_ray(market: DiscreteMarket):
    """Unit recession direction of the allowed set (within the span) with
    nonnegative gains, or None when no such direction exists."""
    cert = check_na1(market)
    return None if cert.holds else cert.witness_ray


def maximize_utility(
    market: DiscreteMarket,
    u,
    tol: float = GRADIENT_TOL,
    *,
    x0=None,
    max_iterations: int = MAX_ITERATIONS,
    divergence_bound: float | None = None,
    _skip_na1: bool = False,
) -> OptimalPortfolio:
    """Maximize expected utility of final wealth over the allowed polyhedron.

    ``u`` is a single :class:`UtilitySpec` or one spec per state.  Smooth
    utilities run projected-gradient ascent with Armijo backtracking and a
    Newton polish on the active face, stopping when the projected-gradient
    norm is at most ``tol`` times ``1 + |iterate|`` (optima far from the
    origin carry proportional float noise); piecewise-linear utilities are
    solved exactly by an epigraph LP.

    When scalable arbitrage exists the supremum is infinite, so the search
    refuses to start; ``_skip_na1`` (tests only) disables that guard, and
    ``divergence_bound`` then turns unboundedness into a
    :class:`~na1lab.errors.NumericError` carrying the escalated objective
    value and the best finite iterate.
    """
    evaluator = _UtilityEvaluator(u, market.n_states)
    if not _skip_na1:
        cert = check_na1(market)
        if not cert.holds:
            raise PreconditionError(
                "scalable arbitrage exists, so expected utility has no maximizer; "
                "remove the arbitrage or tighten the constraints"
            )
    basis = market.span.basis
    d = market.n_assets
    r = basis.shape[1]
    if r == 0:
        value = float(market.probs @ evaluator.value(np.ones(market.n_states)))
        return OptimalPortfolio(np.zeros(d), value, 0.0, 0)

    returns_r = market.returns @ basis
    rows = [market.allowed.normals @ basis]
    rhs = [market.allowed.offsets]
    n_theta = rows[0].shape[0]
    if evaluator.needs_positive_argument:
        # scale * (1 + gain) + shift >= floor, one row per state, divided by
        # the positive scale so tiny scales cannot sink the coefficients
        # below the LP solver's drop tolerance.
        rows.append(-returns_r)
        rhs.append(1.0 + (evaluator.shifts - WEALTH_FLOOR) / evaluator.scales)
    a = np.vstack(rows)
    b = np.concatenate(rhs)

    if evaluator.piecewise:
        return _piecewise_optimum(market, evaluator, basis, returns_r, a, b)

    try:
        center, _ = chebyshev_center(a, b, r)
    except InfeasibleError:
        raise InfeasibleError(
            "no allowed strategy keeps every state's utility argument positive"
        ) from None
    project = _PolyhedronProjector(a, b, center)
    u_cur = project(basis.T @ np.asarray(x0, dtype=float) if x0 is not None else center)

    def value_at(v):
        return float(market.probs @ evaluator.value(1.0 + returns_r @ v))

    def gradient_at(v):
        w = 1.0 + returns_r @ v
        return returns_r.T @ (market.probs * evaluator.derivative(w))

    val_cur = value_at(u_cur)
    step = 1.0
    iterations = 0
    gm_norm = math.inf
    stalled = False
    for _ in range(max_iterations):
        iterations += 1
        if divergence_bound is not None and val_cur > divergence_bound:
            raise NumericError(
                "objective escalated past the divergence bound; the market "
                "admits scalable arbitrage",
                best=basis @ u_cur,
                value=val_cur,
            )
        grad = gradient_at(u_cur)
        gm = project(u_cur + grad) - u_cur
        gm_norm = float(np.linalg.norm(gm))
        stop_at = tol * (1.0 + float(np.linalg.norm(u_cur)))
        if gm_norm <= max(stop_at, POLISH_TRIGGER):
            u_cur, val_cur, polish_its = _polish_face(
                u_cur, a, b, returns_r, market.probs, evaluator, value_at, gradient_at, tol
            )
            iterations += polish_its
            grad = gradient_at(u_cur)
            gm_norm = float(np.linalg.norm(project(u_cur + grad) - u_cur))
            if gm_norm <= tol * (1.0 + float(np.linalg.norm(u_cur))):
                break
        step = min(step * 2.0, 1e12)
        t = step
        accepted = False
        for _ in range(90):
            cand = project(u_cur + t * grad)
            predicted = float(grad @ (cand - u_cur))
            val_cand = value_at(cand)
            if predicted > 0 and val_cand >= val_cur + 1e-4 * predicted:
                u_cur, val_cur, step = cand, val_cand, t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            stalled = True
            break
        if iterations % 40 == 0:
            # Gradient steps crawl along narrow feasible valleys (thousands of
            # tiny accepted steps); a periodic active-set Newton pass crosses
            # them in a few jumps and never hurts, being monotone.
            u_cur, val_cur, polish_its = _polish_face(
                u_cur, a, b, returns_r, market.probs, evaluator, value_at, gradient_at, tol
            )
            iterations += polish_its
    if divergence_bound is not None:
        # A vanishing projected gradient is not evidence of a maximizer when
        # the allowed set is unbounded (log flattens along recession rays),
        # so divergence detection always hunts for a scalable direction.
        ray = _escalation_ray(market)
        if ray is not None:
            _escalate_along_ray(
                market, basis, returns_r, evaluator, u_cur, ray, divergence_bound
            )
    if gm_norm > tol * (1.0 + float(np.linalg.norm(u_cur))):
        reason = "stalled" if stalled else "hit the iteration cap"
        raise NumericError(
            f"utility maximization {reason} at projected-gradient norm {gm_norm:.3e}",
            best=basis @ u_cur,
            value=val_cur,
        )
    strategy = basis @ u_cur
    resid = b - a @ u_cur
    tight = np.nonzero(resid <= 1e-9 * (1.0 + np.abs(b)))[0]
    active_theta = tuple(int(i) for i in tight if i < n_theta)
    active_floor = tuple(int(i - n_theta) for i in tight if i >= n_theta)
    return OptimalPortfolio(strategy, val_cur, gm_norm, iterations, active_theta, active_floor)


def _polish_face(u_cur, a, b, returns_r, probs, evaluator, value_at, gradient_at, tol):
    """Newton steps restricted to the face of active rows, with ratio-test
    clipping; returns the improved point, its value, and the step count."""
    val_cur = value_at(u_cur)
    its = 0
    for _ in range(40):
        its += 1
        resid = b - a @ u_cur
        act = np.nonzero(resid <= 1e-9 * (1.0 + np.abs(b)))[0]
        tangent = null_space(a[act]) if act.size else np.eye(u_cur.size)
        if tangent.shape[1] == 0:
            break
        grad = gradient_at(u_cur)
        w = 1.0 + returns_r @ u_cur
        curv = probs * evaluator.second_derivative(w)
        hess = returns_r.T @ (curv[:, None] * returns_r)
        gz = tangent.T @ grad
        hz = tangent.T @ hess @ tangent
        try:
            stepz = np.linalg.solve(hz, -gz)
        except np.linalg.LinAlgError:
            break
        d = tangent @ stepz
        if float(grad @ d) <= 0:
            break
        along = a @ d
        slack = b - a @ u_cur
        free = np.ones(a.shape[0], dtype=bool)
        free[act] = False
        blocking = free & (along > 1e-14)
        t_max = 1.0
        if np.any(blocking):
            t_max = min(1.0, float(np.min(slack[blocking] / along[blocking])))
        t = t_max
        improved = False
        full = u_cur + t_max * d
        full_val = value_at(full)
        if (
            math.isfinite(full_val)
            and full_val >= val_cur - 1e-12 * (1.0 + abs(val_cur))
            and float(np.linalg.norm(tangent.T @ gradient_at(full)))
            < 0.5 * float(np.linalg.norm(gz))
        ):
            # Near the optimum the value increments sink below float
            # resolution while the gradient still has headroom, so value
            # backtracking would crawl; take the full step on Newton's own
            # criterion, a sharp drop of the tangent gradient, letting the
            # value move within noise.
            u_cur, val_cur = full, full_val
            improved = True
        else:
            for _ in range(50):
                cand = u_cur + t * d
                val = value_at(cand)
                if math.isfinite(val) and val >= val_cur:
                    u_cur, val_cur = cand, val
                    improved = True
                    break
                t *= 0.5
        if not improved:
            break
        if np.linalg.norm(t * d) <= 1e-15 * (1.0 + np.linalg.norm(u_cur)):
            break
    return u_cur, val_cur, its


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


def _piecewise_optimum(market, evaluator, basis, returns_r, a, b):
    """Exact epigraph LP for concave piecewise-linear utilities."""
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
    basis = market.span.basis
    if basis.shape[1] == 0:
        return 1.0
    weights = market.probs / w_rho
    cost = weights @ (market.returns @ basis)
    res = solve_lp(
        cost,
        a_ub=market.allowed.normals @ basis,
        b_ub=market.allowed.offsets,
        maximize=True,
    )
    if res.status == UNBOUNDED:
        return math.inf
    require_optimal(res, "wealth-ratio verification")
    return float(np.sum(weights) + res.value)


def verify_deflator(market: DiscreteMarket, values) -> float:
    """LP optimum of E[Z (1 + <pi, R>)] over the allowed set for weights Z."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != market.n_states or np.any(values <= 0):
        raise InvalidParameterError("deflator values must be positive, one per state")
    basis = market.span.basis
    weighted = market.probs * values
    if basis.shape[1] == 0:
        return float(np.sum(weighted))
    cost = weighted @ (market.returns @ basis)
    res = solve_lp(
        cost,
        a_ub=market.allowed.normals @ basis,
        b_ub=market.allowed.offsets,
        maximize=True,
    )
    if res.status == UNBOUNDED:
        return math.inf
    require_optimal(res, "deflator verification")
    return float(np.sum(weighted) + res.value)


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
