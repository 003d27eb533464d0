"""Expected-utility maximization, the growth-optimal strategy, and deflators.

Smooth utilities are maximized over the allowed polyhedron within the
return span by the Newton method of :func:`~na1lab.lp.minimize_convex`,
which stops on a bound for the certified quantity; piecewise-linear ones
exactly, by the deterministic equivalent of the tree of depth 1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .arbitrage import (SUPERMARTINGALE_TOL, _Report, _certified_gains, _cone_spans, _dual_bound,
                        _refuse, _with_na1)
from .errors import InvalidParameterError, NumericError, PreconditionError
from .lp import FEAS_TOL, _pad, deterministic_equivalent, gather, minimize_convex, read, run
from .market import DiscreteMarket, wealth

#: States whose utility argument ends at or below this are reported as
#: active wealth floors.
WEALTH_FLOOR = 1e-9

#: Default stationarity-residual tolerance of the optimizer.
GRADIENT_TOL = 1e-8

#: Stationarity-residual tolerance of the growth-optimal (numeraire) solve.
NUMERAIRE_GRADIENT_TOL = 1e-10


@dataclass(frozen=True)
class UtilitySpec:
    """Strictly increasing concave utility of wealth.

    ``scale`` and ``shift`` pre-compose the base function with an affine map,
    ``base(scale * x + shift)``, which folds endowments into state-dependent
    utilities; ``scale`` must stay positive to keep the function increasing.
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
        """Affine overestimators (c, d) with ``value(x) = min_j c_j x + d_j``,
        the scale/shift map folded in; piecewise-linear specs only."""
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
        # power exponents; a log state's derivatives are those of gamma = 0
        if isinstance(u, UtilitySpec):
            self.specs = [u] * n_states
            self.piecewise = u.kind == "piecewise_linear"
            self.scales, self.shifts = np.full(n_states, u.scale), np.full(n_states, u.shift)
            self.gammas = np.full(n_states, u.gamma if u.kind == "power" else 0.0)
            self._homogeneous = True
            return
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
        self.gammas = np.array([s.gamma if s.kind == "power" else 0.0 for s in specs])
        self._homogeneous = all(s is specs[0] for s in specs)

    def value(self, w) -> np.ndarray:
        if self._homogeneous:
            return self.specs[0].value(w)
        return np.array([s.value(np.array([wi]))[0] for s, wi in zip(self.specs, w)])

    def derivative(self, w) -> np.ndarray:
        if self._homogeneous:
            return self.specs[0].derivative(w)
        return np.array([s.derivative(np.array([wi]))[0] for s, wi in zip(self.specs, w)])


@dataclass(frozen=True, eq=False)
class OptimalPortfolio(_Report):
    """Utility maximizer with solver telemetry.

    ``gradient_norm`` is the final stationarity residual: complementarity plus
    the KKT gradient residual times the diameter bound of the allowed set
    (zero on the exact piecewise-linear path); for log utility it bounds the
    wealth-ratio LP value minus one.  ``iterations`` counts Newton iterations
    from the zero strategy.  ``active_constraints`` index the allowed rows
    binding at the solution (multiplier above slack), admissibility rows first
    (:func:`~na1lab.market.admissible_polyhedron`); ``active_wealth_floors``
    the states whose utility argument is at most ``WEALTH_FLOOR``.
    ``deflator``, set by ``numeraire_portfolio``, is the deflator the
    certified numeraire induces.
    """

    strategy: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    active_constraints: tuple[int, ...] = ()
    active_wealth_floors: tuple[int, ...] = ()
    deflator: Deflator | None = None
    _unreported = ("deflator",)


@dataclass(frozen=True, eq=False)
class Deflator(_Report):
    """State-wise positive weights Z with E[Z (1 + <pi, R>)] <= 1 over the
    allowed set; ``certificate`` bounds that expectation (:func:`verify_deflator`),
    and ``threshold`` is the bound it must stay within."""

    values: np.ndarray
    certificate: float
    threshold: float = field(default=1.0 + SUPERMARTINGALE_TOL, init=False)


def maximize_utility(
    market: DiscreteMarket,
    u,
    tol: float = GRADIENT_TOL,
    *,
    divergence_bound: float | None = None,
) -> OptimalPortfolio:
    """Maximize expected utility of final wealth over the allowed polyhedron.

    ``u`` is a single :class:`UtilitySpec` or one spec per state.  A smooth
    utility is maximized from the zero strategy, where wealth is 1; a spec
    whose argument is not positive there raises
    :class:`~na1lab.errors.InvalidParameterError`.  Its ``gradient_norm``,
    with the diameter ``2 sqrt(d)`` times the NA1 ``bound_radius``, must be at
    most ``tol * (1 + |strategy|)``, else :class:`~na1lab.errors.NumericError`.
    A piecewise-linear utility is solved exactly, state wealths floored at 0.
    Without NA1 the supremum is infinite: a
    :class:`~na1lab.errors.PreconditionError`, or with ``divergence_bound``
    a :class:`~na1lab.errors.NumericError` carrying the value escalated along
    the witness ray and the best finite point.  A later call with the same
    spec at ``tol`` or looser returns this optimum.  Task: :func:`_maximize_all`.
    """
    return run(_maximize_all([market], [market.probs], u, tol, divergence_bound))[0]


def _maximize_all(markets, weights, u, tol, divergence_bound=None, labels=None):
    """Task: :func:`maximize_utility` for several markets under state weights
    (positive, summing to one) in place of their probabilities; ``labels``,
    node ids, name the markets in errors.  The optimum of one spec is held on
    the market; that of a per-state list, which callers compose anew, is not.
    Each problem is solved in the span of its allowed set (the return span
    less the implicit equalities of its cone) and its residual checked alone;
    without NA1 the markets are refused (:func:`~na1lab.arbitrage._refuse`)
    or escalated, in batch order."""
    held = isinstance(u, UtilitySpec)
    spec = u if held else tuple(u)
    if not held and not all(isinstance(s, UtilitySpec) for s in spec):
        raise InvalidParameterError("state utilities must be UtilitySpec instances")
    keys = [("optimum", spec, w.tobytes()) for w in weights]
    stale = {}
    for i, (m, key) in enumerate(zip(markets, keys)):
        if not held or m.certificates.get(key, (math.inf,))[0] > tol:
            stale.setdefault((id(m), key), i)
    solved = list(stale.values())
    evaluators = [_UtilityEvaluator(u, markets[i].n_states) for i in solved]
    smooth = not any(e.piecewise for e in evaluators)  # a piecewise LP needs no span
    if smooth and any(np.any(e.scales + e.shifts <= 0.0) for e in evaluators):
        raise InvalidParameterError(
            "the utility argument must be positive at the zero strategy, which is always allowed"
        )
    fresh = [markets[i] for i in solved]
    certs, *spans = yield from _with_na1(fresh, *([_cone_spans(fresh)] if smooth else []))
    if divergence_bound is None:
        named = None if labels is None else [labels[i] for i in solved]
        _refuse(certs, "expected-utility maximization", named)
    for i, market, evaluator, cert in zip(solved, fresh, evaluators, certs):
        if not cert.holds:
            with _named(labels, i):
                _escalate_along_ray(weights[i], market.returns, evaluator, cert.witness_ray,
                                    divergence_bound)
    spans = read(spans[0]) if smooth else [None] * len(fresh)
    out, batches, exact = {}, {}, {}
    for i, market, evaluator, cert, span in zip(solved, fresh, evaluators, certs, spans):
        basis = market.span.basis
        if not smooth and basis.shape[1]:
            exact[i] = _piecewise_optimum(market, weights[i], evaluator, basis)
            continue
        if span is not None:
            basis = basis @ span[0]
        if basis.shape[1] == 0:
            value = float(weights[i] @ evaluator.value(np.ones(market.n_states)))
            out[i] = OptimalPortfolio(np.zeros(market.n_assets), value, 0.0, 0)
            continue
        rows, a, b = _searched_rows(market, basis)
        out[i] = (basis, market.returns @ basis, evaluator, rows, a, b,
                  2.0 * math.sqrt(market.n_assets) * cert.bound_radius)
        batches.setdefault(basis.shape[1], []).append(i)
    for i, answer in zip(exact, (yield from gather(*exact.values()))):
        with _named(labels, i):
            out[i] = read(answer)
    for batch in batches.values():
        results = _solve_batch([out[i] for i in batch], [weights[i] for i in batch], tol)
        for i, result in zip(batch, results):
            basis, returns_r, evaluator, rows, a, b = out[i][:6]
            u_opt = result.x
            value = float(weights[i] @ evaluator.value(1.0 + returns_r @ u_opt))
            if result.residual > tol * (1.0 + float(np.linalg.norm(u_opt))):
                with _named(labels, i):
                    raise NumericError(f"utility maximization stalled at stationarity residual "
                                       f"{result.residual:.3e}", best=basis @ u_opt, value=value)
            active_theta = tuple(int(k) for k in rows[result.multipliers > b - a @ u_opt])
            arguments = evaluator.scales * (1.0 + returns_r @ u_opt) + evaluator.shifts
            active_floor = tuple(int(k) for k in np.nonzero(arguments <= WEALTH_FLOOR)[0])
            out[i] = OptimalPortfolio(basis @ u_opt, value, result.residual, result.iterations,
                                      active_theta, active_floor)
            if u == UtilitySpec.log():  # its multipliers bound the wealth ratios verify_numeraire weighs
                ratio = weights[i] * (1.0 / wealth(markets[i], out[i].strategy))
                _dual_bound(markets[i], ratio, (basis, rows, result.multipliers),
                            1.0 + SUPERMARTINGALE_TOL - float(np.sum(ratio)))
    for i, optimum in out.items():
        optimum.strategy.setflags(write=False)  # every later call shares it
        if held:
            markets[i].certificates[keys[i]] = (tol, optimum)
    return [m.certificates[key][1] if held else out[stale[id(m), key]]
            for m, key in zip(markets, keys)]


@contextmanager
def _named(labels, i):
    """Prefix a ``NumericError`` of market ``i`` with its label, a node id."""
    try:
        yield
    except NumericError as exc:
        if labels is None:
            raise
        raise NumericError(f"optimization failed at node {labels[i]!r}: {exc}") from exc


def _solve_batch(problems, weights, tol):
    """One :func:`~na1lab.lp.minimize_convex` batch of ``-E[U(1 + R u)]``
    for the problems of :func:`_maximize_all` of one span dimension,
    ``(basis, returns_r, evaluator, rows, a, b, diameter)``, from ``u = 0``
    and inside the domain ``-R u < 1 + shift / scale``; padded states have
    zero weight."""
    _, returns_r, evaluators, _, a, b, diameters = zip(*problems)
    returns_r = _pad(returns_r, 0.0)
    returns_t = returns_r.transpose(0, 2, 1)
    probs = _pad(weights, 0.0)[..., None]
    scales, shifts, gammas = (
        _pad([getattr(e, name) for e in evaluators], fill)[..., None]
        for name, fill in (("scales", 1.0), ("shifts", 0.0), ("gammas", 0.0))
    )
    logs, squares = not np.any(gammas), scales**2

    def derivatives(v, live):
        r, scale = returns_r[live], scales[live]
        arg = scale * (1.0 + r @ v) + shifts[live]
        if logs:
            first, second = scale / arg, -squares[live] / arg**2
        else:
            gamma = gammas[live]
            first = scale * arg ** (gamma - 1.0)
            second = squares[live] * (gamma - 1.0) * arg ** (gamma - 2.0)
        r_t, p = returns_t[live], probs[live]
        return -(r_t @ (p * first)), -(r_t @ (p * second * r))

    h = _pad([1.0 + e.shifts / e.scales for e in evaluators], np.inf)
    return minimize_convex(derivatives, _pad(a, 0.0), _pad(b, np.inf),
                           np.zeros(returns_r.shape[::2]), np.array(diameters), tol,
                           domain=(-returns_r, h))


def _searched_rows(market, basis):
    """Allowed rows that do not vanish on the searched coordinates, with
    their normals and offsets there.  After a flat set is reduced, its
    implicit equalities vanish on the searched coordinates (0 <= 0) and hold
    everywhere there."""
    normals = market.allowed.normals
    rows = np.nonzero(
        np.linalg.norm(normals @ basis, axis=1) > 1e-12 * np.linalg.norm(normals, axis=1)
    )[0]
    return rows, normals[rows] @ basis, market.allowed.offsets[rows]


def _escalate_along_ray(probs, returns, evaluator, ray, bound):
    """Push the objective from the zero strategy along a certified
    scalable-arbitrage direction, whose gains are nonnegative and positive
    somewhere; once float evaluation saturates, the supremum (+inf) is
    reported as the escalated value."""
    gains = returns @ ray
    # The certified ray's gains are nonnegative up to solver noise; cap the
    # escalation before the noise, amplified by s, could touch the wealths.
    noise = max(0.0, -float(np.min(gains)))
    s_cap = 1e306 if noise == 0.0 else min(1e306, 1e-3 / noise)
    best = np.zeros(ray.size)
    best_val = float(probs @ evaluator.value(np.ones(gains.size)))
    s = 1.0
    while s < s_cap:
        val = float(probs @ evaluator.value(1.0 + s * gains))
        if val > bound:
            raise NumericError(
                "objective escalated past the divergence bound along a "
                "scalable-arbitrage direction",
                best=best,
                value=val,
            )
        if math.isfinite(val) and val > best_val:
            best, best_val = s * ray, val
        s *= 32.0
    # Monotone escalation hit the float range without crossing the bound;
    # the supremum along the certified direction is infinite.
    raise NumericError(
        "objective is unbounded along a scalable-arbitrage direction",
        best=best,
        value=math.inf,
    )


def _piecewise_optimum(market, probs, evaluator, basis):
    """Task: the exact optimum of a piecewise-linear utility, the
    deterministic equivalent (:func:`~na1lab.lp.deterministic_equivalent`) of
    the tree of depth 1, each state's wealth floored at 0 (admissibility)."""
    n, cs = market.n_states, market.constraints
    tables = ([evaluator.specs[0].pieces()] * n if evaluator._homogeneous
              else [spec.pieces() for spec in evaluator.specs])
    _, [strategy], value = yield from deterministic_equivalent(
        [(market.returns, basis, cs.normals, cs.offsets)], list(zip(probs, tables)),
        (1.0, 1.0), True, "piecewise-utility LP")
    allowed = market.allowed
    slack = allowed.offsets - allowed.normals @ strategy
    active = np.flatnonzero(slack <= FEAS_TOL * (1.0 + np.abs(allowed.offsets)))
    return OptimalPortfolio(strategy, float(value), 0.0, 1, tuple(map(int, active)), ())


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


def numeraire_portfolio(market: DiscreteMarket, tol: float = NUMERAIRE_GRADIENT_TOL) -> OptimalPortfolio:
    """Growth-optimal strategy, with its wealth-ratio certificate.

    Maximizes expected log wealth to stationarity tolerance ``tol``
    (:func:`maximize_utility`) and certifies that no allowed strategy's
    expected wealth ratio against it exceeds ``1 + SUPERMARTINGALE_TOL``
    (:func:`verify_numeraire`), else :class:`~na1lab.errors.NumericError`;
    that value also certifies ``deflator``, the deflator it induces.
    """
    opt = maximize_utility(market, UtilitySpec.log(), tol=tol)
    try:
        deflator = deflator_from_numeraire(market, opt.strategy)
    except PreconditionError as exc:
        raise NumericError(f"wealth-ratio certification failed: {exc}") from exc
    return replace(opt, deflator=deflator)


def verify_numeraire(market: DiscreteMarket, rho) -> float:
    """Certified bound on sup E[(1 + <pi, R>) / (1 + <rho, R>)], pi allowed.

    The candidate is a numeraire exactly when the optimum is at most
    ``1 + SUPERMARTINGALE_TOL`` (taking pi = rho always attains 1).  The
    bound is :func:`verify_deflator` of ``Z = 1 / (1 + <rho, R>)``.
    """
    w_rho = wealth(market, rho)
    if np.any(w_rho <= 0):
        raise InvalidParameterError("candidate strategy has nonpositive wealth in some state")
    return verify_deflator(market, 1.0 / w_rho)


def verify_deflator(market: DiscreteMarket, values) -> float:
    """Certified bound on sup E[Z (1 + <pi, R>)], pi allowed: the sum of the
    weights ``probs * Z`` plus the weak-duality bound held for them
    (:func:`~na1lab.arbitrage._dual_bound`), else their LP optimum
    :func:`~na1lab.arbitrage.max_expected_gain`, +inf when unbounded."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != market.n_states or np.any(values <= 0):
        raise InvalidParameterError("deflator values must be positive, one per state")
    weighted = market.probs * values
    return float(np.sum(weighted) + run(_certified_gains([market], [weighted]))[0])


def deflator_from_numeraire(market: DiscreteMarket, rho) -> Deflator:
    """Deflator Z = 1 / (1 + <rho, R>) of a numeraire candidate, certified by
    the wealth-ratio bound of ``rho`` (:func:`verify_numeraire`), which is the
    deflator bound of Z; above ``1 + SUPERMARTINGALE_TOL`` it raises
    :class:`~na1lab.errors.PreconditionError`."""
    lp_value = verify_numeraire(market, rho)
    if lp_value > 1.0 + SUPERMARTINGALE_TOL:
        raise PreconditionError(
            f"wealth-ratio LP value {lp_value:.12g} exceeds 1 + {SUPERMARTINGALE_TOL:g}; "
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
