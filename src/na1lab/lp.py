"""Thin wrapper around scipy's HiGHS linear-programming backend.

Every LP in the package goes through :func:`solve_lp` so that status handling
and dual-multiplier conventions live in one place.  Problems are always passed
to scipy in minimization form; ``maximize=True`` negates the cost and the
reported optimum, nothing else.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import InfeasibleError, NumericError

logger = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Box used when a nominally unbounded variable needs a finite search range.
BIG_BOUND = 1e6

#: Newton iterations allowed to :func:`minimize_convex`.
NEWTON_ITERATIONS = 200

#: Share of the distance to the boundary that one interior-point step covers.
BOUNDARY_FRACTION = 0.99

#: Each interior-point step aims at this share of the current duality
#: measure, or at its square after a full step.
CENTERING = 0.1


@dataclass(frozen=True)
class LpResult:
    """Outcome of one linear program.

    ``marginals_ub`` are scipy's sensitivities of the minimized optimum with
    respect to the upper-bound vector ``b_ub``; for a constraint ``a.x <= b``
    of a minimization the nonnegative Lagrange multiplier is
    ``-marginals_ub``.
    """

    status: str
    x: np.ndarray | None
    value: float | None
    marginals_ub: np.ndarray | None


def solve_lp(
    cost,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = False,
) -> LpResult:
    """Solve ``min/max cost.x`` subject to ``a_ub x <= b_ub``, ``a_eq x = b_eq``.

    ``bounds`` follows scipy's convention; ``None`` means every variable is
    free (scipy's default is x >= 0, which is almost never what this package
    wants, so free is the default here).
    """
    cost = np.asarray(cost, dtype=float)
    sign = -1.0 if maximize else 1.0
    if bounds is None:
        bounds = [(None, None)] * cost.size
    if a_ub is not None and len(a_ub) == 0:
        a_ub, b_ub = None, None
    if a_eq is not None and len(a_eq) == 0:
        a_eq, b_eq = None, None
    # HiGHS mishandles objectives whose entries all sit near its zero
    # tolerance (observed: status 4 for costs around 1e-13), so extreme
    # objective magnitudes are normalized to 1 and undone on the way out.
    scale = float(np.max(np.abs(cost))) if cost.size else 0.0
    if not (1e-6 < scale < 1e6):
        scale = scale if scale > 0.0 else 1.0
    else:
        scale = 1.0
    res = linprog(
        sign * cost / scale,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 4:
        # HiGHS presolve occasionally gives up with "model_status Unknown" on
        # well-posed inputs; the plain solve handles those.
        res = linprog(
            sign * cost / scale,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )
    if res.status == 0:
        marginals = None
        if a_ub is not None and res.ineqlin is not None:
            marginals = scale * np.asarray(res.ineqlin.marginals, dtype=float)
        return LpResult(
            OPTIMAL, np.asarray(res.x, dtype=float), sign * scale * res.fun, marginals
        )
    if res.status == 2:
        return LpResult(INFEASIBLE, None, None, None)
    if res.status == 3:
        return LpResult(UNBOUNDED, None, None, None)
    raise NumericError(f"LP solver failure (status {res.status}): {res.message}")


def require_optimal(result: LpResult, context: str) -> LpResult:
    """Raise with a descriptive message unless ``result`` is optimal."""
    if result.status == INFEASIBLE:
        raise InfeasibleError(f"{context}: constraint system is infeasible")
    if result.status != OPTIMAL:
        raise NumericError(f"{context}: LP ended with status {result.status}")
    return result


def is_feasible(a_ub: np.ndarray, b_ub: np.ndarray, dim: int) -> bool:
    """Whether ``{x : a_ub x <= b_ub}`` is nonempty."""
    if dim == 0:
        return bool(np.all(np.asarray(b_ub, dtype=float) >= 0)) if len(b_ub) else True
    res = solve_lp(np.zeros(dim), a_ub=a_ub, b_ub=b_ub)
    return res.status == OPTIMAL


def chebyshev_center(a_ub: np.ndarray, b_ub: np.ndarray, dim: int, box: float = BIG_BOUND):
    """Center of the largest ball inside ``{x : a_ub x <= b_ub}``.

    The polyhedron is intersected with ``|x_i| <= box`` so the LP stays
    bounded even when the input set is not.  Returns ``(center, radius)``;
    raises :class:`InfeasibleError` if the set is empty.
    """
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, dim)
    b_ub = np.asarray(b_ub, dtype=float)
    if dim == 0:
        if np.any(b_ub < 0):
            raise InfeasibleError("chebyshev_center: empty zero-dimensional set")
        return np.zeros(0), 0.0
    eye = np.eye(dim)
    rows = [a_ub, eye, -eye]
    rhs = [b_ub, np.full(dim, box), np.full(dim, box)]
    a_full = np.vstack(rows)
    b_full = np.concatenate(rhs)
    norms = np.linalg.norm(a_full, axis=1)
    a_aug = np.hstack([a_full, norms[:, None]])
    cost = np.zeros(dim + 1)
    cost[-1] = 1.0
    var_bounds = [(None, None)] * dim + [(0, 2 * box)]
    res = solve_lp(cost, a_ub=a_aug, b_ub=b_full, bounds=var_bounds, maximize=True)
    require_optimal(res, "chebyshev_center")
    return res.x[:-1], float(res.value)


def cone_span(rows: np.ndarray):
    """Linear span of the cone ``{x : rows x <= 0}`` and a point inside it.

    One LP maximizes ``sum(t)`` subject to ``rows x + t <= 0`` and
    ``0 <= t <= 1``.  Scaling ``x`` up shows that every ``t`` is 0 or 1 at the
    optimum, and the rows with ``t = 0`` are the cone's implicit equalities;
    the span is their null space.  Returns ``(basis, point, strict)``: an
    orthonormal basis of the span, the LP's ``x`` in its coordinates and
    the mask of the rows that are not implicit equalities, all of which
    ``x`` satisfies strictly.
    """
    m, dim = rows.shape
    if m == 0:
        return np.eye(dim), np.zeros(dim), np.zeros(0, dtype=bool)
    cost = np.concatenate([np.zeros(dim), np.ones(m)])
    bounds = [(None, None)] * dim + [(0.0, 1.0)] * m
    res = solve_lp(
        cost, a_ub=np.hstack([rows, np.eye(m)]), b_ub=np.zeros(m), bounds=bounds, maximize=True
    )
    require_optimal(res, "cone span")
    strict = res.x[dim:] > 0.5
    basis = null_space(rows[~strict]) if not np.all(strict) else np.eye(dim)
    return basis, basis.T @ res.x[:dim], strict


@dataclass(frozen=True)
class ConvexResult:
    """Outcome of :func:`minimize_convex`: the last iterate, the multipliers
    of the constraint rows, the certified residual (see there) and the
    Newton iterations taken."""

    x: np.ndarray
    multipliers: np.ndarray
    residual: float
    iterations: int


def minimize_convex(
    derivatives, a_ub, b_ub, start, diameter: float, tol: float, domain=None
) -> ConvexResult:
    """Minimize a smooth convex ``f`` over ``{x : a_ub x <= b_ub}``.

    A primal-dual interior-point Newton method (Boyd & Vandenberghe,
    *Convex Optimization*, sec. 11.7) on the slacks ``s = b - a x`` and the
    multipliers ``lam``.  ``derivatives(x)`` returns the gradient and the
    Hessian of ``f``; ``start`` must satisfy every row strictly.  ``domain``,
    a pair ``(g, h)``, is the open set ``{g x < h}`` on which ``f`` is
    defined; steps stay inside it, and inside the constraints, by the
    fraction-to-boundary rule.

    The residual is ``lam . s + diameter * |grad f + a^T lam|``.  For every
    feasible ``y`` within ``diameter`` of ``x`` it bounds the first-order
    gain ``grad f(x) . (x - y)``, hence also ``f(x) - min f`` when
    ``diameter`` bounds the feasible set.  The method stops once the residual
    is at most ``tol * (1 + |x|)``, or when a Newton step no longer reduces
    the KKT residual (float resolution) or after ``NEWTON_ITERATIONS``; the
    caller compares the returned residual with its own threshold.
    """
    x = np.asarray(start, dtype=float)
    m = len(b_ub)
    slack = b_ub - a_ub @ x
    if np.any(slack <= 0.0):
        raise NumericError("interior-point start is not strictly feasible")
    grad, hess = derivatives(x)
    # Start with multipliers mu / s whose pull balances the gradient.
    pull = float(np.linalg.norm(a_ub.T @ (1.0 / slack)))
    mu = float(np.linalg.norm(grad)) / pull if pull > 0.0 else 1.0
    lam = min(max(mu, 1e-8), 1.0) / slack

    def step_limit(value, change):
        shrinking = change < 0.0
        if not np.any(shrinking):
            return 1.0
        return min(1.0, BOUNDARY_FRACTION * float(np.min(-value[shrinking] / change[shrinking])))

    iterations, t = 0, 0.0
    while True:
        dual = grad + a_ub.T @ lam
        residual = float(lam @ slack) + diameter * float(np.linalg.norm(dual))
        if residual <= tol * (1.0 + float(np.linalg.norm(x))) or iterations == NEWTON_ITERATIONS:
            break
        # after a full step the iterate is near the central path, so the
        # target may drop faster
        sigma = CENTERING**2 if t == 1.0 else CENTERING
        target = sigma * float(lam @ slack) / m if m else 0.0
        kkt = hess + a_ub.T @ ((lam / slack)[:, None] * a_ub)
        try:
            dx = np.linalg.solve(kkt, -(grad + a_ub.T @ (target / slack)))
        except np.linalg.LinAlgError:
            logger.debug("interior-point Newton system is singular at residual %.3e", residual)
            break
        ds = -(a_ub @ dx)
        dlam = (target - lam * slack - lam * ds) / slack
        t = min(step_limit(slack, ds), step_limit(lam, dlam))
        if domain is not None:
            g, h = domain
            t = min(t, step_limit(h - g @ x, -(g @ dx)))
        before = np.linalg.norm(np.concatenate([dual, lam * slack - target]))
        while t > 1e-12:
            x_new = x + t * dx
            slack_new = b_ub - a_ub @ x_new
            lam_new = lam + t * dlam
            if np.all(slack_new > 0.0):
                grad_new, hess_new = derivatives(x_new)
                after = np.linalg.norm(
                    np.concatenate([grad_new + a_ub.T @ lam_new, lam_new * slack_new - target])
                )
                if after <= (1.0 - 0.01 * t) * before:
                    break
            t *= 0.5
        else:
            logger.debug("interior-point method stalled at residual %.3e", residual)
            break
        x, slack, lam, grad, hess = x_new, slack_new, lam_new, grad_new, hess_new
        iterations += 1
    return ConvexResult(x, lam, residual, iterations)
