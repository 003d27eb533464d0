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

from .arbitrage import (SUPERMARTINGALE_TOL, _Report, _cone_spans, _deflator_bounds, _dual_bound,
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


class _Utilities:
    """Per-state utilities ``specs[index](scales * w + shifts)``: ``u``, one
    spec or one per state, composed with ``scale * x + shift`` (``shift``
    may be one per state).  ``specs`` are its distinct specs without their
    affine maps; ``spec`` is ``u`` composed, None if states differ."""

    def __init__(self, u, n_states: int, scale: float = 1.0, shift=0.0):
        single = isinstance(u, UtilitySpec)
        specs = [u] if single else list(u)
        if not all(isinstance(s, UtilitySpec) for s in specs):
            raise InvalidParameterError("state utilities must be UtilitySpec instances")
        if not single and len(specs) != n_states:
            raise InvalidParameterError(f"need one utility per state ({n_states}), got {len(specs)}")
        bases, at = {}, np.zeros(n_states, dtype=int) if single else slice(None)
        self.index = np.array([bases.setdefault(replace(s, scale=1.0, shift=0.0), len(bases))
                               for s in specs])[at]
        self.specs = list(bases)
        self.spec = u.compose_affine(scale, shift) if single and np.ndim(shift) == 0 else None
        kinds = {s.kind for s in self.specs}
        if "piecewise_linear" in kinds and len(kinds) > 1:
            raise InvalidParameterError("cannot mix piecewise-linear and smooth utilities across states")
        self.piecewise = kinds == {"piecewise_linear"}
        scales, shifts = np.array([(s.scale, s.shift) for s in specs])[at].T
        self.scales, self.shifts = scales * scale, scales * shift + shifts
        # power exponents; a log state's derivatives are those of gamma = 0
        self.gammas = np.array([s.gamma if s.kind == "power" else 0.0 for s in self.specs])[self.index]

    def _each_spec(self, method: str, w) -> np.ndarray:
        arg = self.scales * w + self.shifts
        out = np.empty_like(arg)
        for k, spec in enumerate(self.specs):
            states = self.index == k
            out[states] = getattr(spec, method)(arg[states])
        return out

    def value(self, w) -> np.ndarray:
        return self._each_spec("value", w)

    def derivative(self, w) -> np.ndarray:
        return self.scales * self._each_spec("derivative", w)

    def pieces(self) -> list:
        """Each state's :meth:`UtilitySpec.pieces`, its affine map folded in."""
        tables = {}
        for k, spec in enumerate(self.specs):
            (c, d), states = spec.pieces().T, np.flatnonzero(self.index == k)
            folded = np.stack([np.outer(self.scales[states], c), np.outer(self.shifts[states], c) + d], -1)
            tables.update(zip(states.tolist(), folded))
        return [tables[i] for i in range(len(tables))]


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
    u = u if isinstance(u, UtilitySpec) else _Utilities(u, market.n_states)
    return run(_maximize_all([market], [market.probs], u, tol, divergence_bound))[0]


def _maximize_all(markets, weights, u, tol, divergence_bound=None, labels=None):
    """Task: :func:`maximize_utility` for several markets under state weights
    (positive, summing to one) in place of their probabilities; ``labels``,
    node ids, name the markets in errors.  ``u`` is a spec, held on the
    market with its optimum, or the :class:`_Utilities` of one market, held
    only if it is one spec.  Each problem is solved in the span of its
    allowed set (the return span less the implicit equalities of its cone)
    and its residual checked alone; without NA1 the markets are refused
    (:func:`~na1lab.arbitrage._refuse`) or escalated, in batch order."""
    spec = u if isinstance(u, UtilitySpec) else u.spec
    keys = [("optimum", spec, w.tobytes()) for w in weights]
    stale = {}
    for i, (m, key) in enumerate(zip(markets, keys)):
        if spec is None or m.certificates.get(key, (math.inf,))[0] > tol:
            stale.setdefault((id(m), key), i)
    solved = list(stale.values())
    forms = {n: _Utilities(u, n) for n in {m.n_states for m in markets}} if spec is u else None
    evaluators = [forms[markets[i].n_states] if spec is u else u for i in solved]
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
            if spec == UtilitySpec.log():  # its multipliers bound the wealth ratios verify_numeraire weighs
                ratio = weights[i] * (1.0 / wealth(markets[i], out[i].strategy))
                _dual_bound(markets[i], ratio, (basis, rows, result.multipliers))
    for i, optimum in out.items():
        optimum.strategy.setflags(write=False)  # every later call shares it
        if spec is not None:
            markets[i].certificates[keys[i]] = (tol, optimum)
    return [out[stale[id(m), key]] if spec is None else m.certificates[key][1]
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
    cs = market.constraints
    _, [strategy], value = yield from deterministic_equivalent(
        [(market.returns, basis, cs.normals, cs.offsets)], list(zip(probs, evaluator.pieces())),
        (1.0, 1.0), True, "piecewise-utility LP")
    allowed = market.allowed
    slack = allowed.offsets - allowed.normals @ strategy
    active = np.flatnonzero(slack <= FEAS_TOL * (1.0 + np.abs(allowed.offsets)))
    return OptimalPortfolio(strategy, float(value), 0.0, 1, tuple(map(int, active)), ())


def expected_utility(market: DiscreteMarket, u, pi) -> float:
    """E[U(1 + <pi, R>)]; -inf when some state's argument leaves the domain."""
    return float(market.probs @ _Utilities(u, market.n_states).value(wealth(market, pi)))


def expected_utility_gradient(market: DiscreteMarket, u, pi) -> np.ndarray:
    """Gradient of :func:`expected_utility` in the strategy, as a d-vector."""
    return market.returns.T @ (market.probs * _Utilities(u, market.n_states).derivative(wealth(market, pi)))


def numeraire_portfolio(market: DiscreteMarket, tol: float = NUMERAIRE_GRADIENT_TOL) -> OptimalPortfolio:
    """Growth-optimal strategy, with its wealth-ratio certificate.

    Maximizes expected log wealth to stationarity tolerance ``tol``
    (:func:`maximize_utility`) and certifies that no allowed strategy's
    expected wealth ratio against it exceeds ``1 + SUPERMARTINGALE_TOL``
    (:func:`verify_numeraire`), else :class:`~na1lab.errors.NumericError`;
    that value certifies ``deflator`` too.  Task: :func:`_numeraires`.
    """
    [optimum], [z], [bound] = run(_numeraires([market], tol))
    return replace(optimum, deflator=Deflator(z, bound))


def _numeraires(markets, tol: float, labels=None):
    """Task: the log optima of :func:`numeraire_portfolio`, their deflators
    ``Z = 1 / wealth`` and the bounds of :func:`~na1lab.arbitrage._deflator_bounds`
    certifying them; ``labels``, node ids, name the markets in errors."""
    optima = yield from _maximize_all(markets, [m.probs for m in markets], UtilitySpec.log(), tol,
                                      labels=labels)
    values = [1.0 / wealth(m, optimum.strategy) for m, optimum in zip(markets, optima)]
    bounds = yield from _deflator_bounds(markets, [m.probs * z for m, z in zip(markets, values)])
    for i, bound in enumerate(bounds):
        node = "" if labels is None else f" at node {labels[i]!r}"
        _refuse_numeraire(bound, NumericError, f"wealth-ratio certification failed{node}: ")
    return optima, values, bounds


def _refuse_numeraire(bound: float, error=PreconditionError, context: str = "") -> None:
    """Raise ``error`` if a wealth-ratio bound exceeds ``1 + SUPERMARTINGALE_TOL``."""
    if bound > 1.0 + SUPERMARTINGALE_TOL:
        raise error(f"{context}wealth-ratio LP value {bound:.12g} exceeds 1 + "
                    f"{SUPERMARTINGALE_TOL:g}; the candidate is not a numeraire")


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
    """Certified bound on sup E[Z (1 + <pi, R>)], pi allowed:
    :func:`~na1lab.arbitrage._deflator_bounds` of the weights ``probs * Z``."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != market.n_states or np.any(values <= 0):
        raise InvalidParameterError("deflator values must be positive, one per state")
    return run(_deflator_bounds([market], [market.probs * values]))[0]


def deflator_from_numeraire(market: DiscreteMarket, rho) -> Deflator:
    """Deflator Z = 1 / (1 + <rho, R>) of a numeraire candidate, certified by
    the wealth-ratio bound of ``rho`` (:func:`verify_numeraire`), which is the
    deflator bound of Z; above ``1 + SUPERMARTINGALE_TOL`` it raises
    :class:`~na1lab.errors.PreconditionError`."""
    lp_value = verify_numeraire(market, rho)
    _refuse_numeraire(lp_value)
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
