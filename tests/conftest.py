"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import na1lab.lp
from na1lab.lp import BIG_BOUND, solve_lp
from na1lab.market import ConstraintSet, DiscreteMarket, preset_constraints


@pytest.fixture
def linprog_calls(monkeypatch):
    """Keyword arguments of every call through ``na1lab.lp.linprog``, in
    order; clear it to count from a later point."""
    calls = []
    linprog = na1lab.lp.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(na1lab.lp, "linprog", counted)
    return calls


def make_market(returns, probs=None, constraints=None) -> DiscreteMarket:
    returns = np.atleast_2d(np.asarray(returns, dtype=float))
    n, d = returns.shape
    if probs is None:
        probs = np.full(n, 1.0 / n)
    if constraints is None:
        constraints = ConstraintSet(d, np.zeros((0, d)), np.zeros(0))
    return DiscreteMarket(np.asarray(probs, dtype=float), returns, constraints)


def interval_market(points, probs=None, lo=0.0, hi=1.0) -> DiscreteMarket:
    """Single-asset market with constraint set [lo, hi]."""
    returns = np.asarray(points, dtype=float).reshape(-1, 1)
    cs = ConstraintSet(1, np.array([[-1.0], [1.0]]), np.array([-lo, hi]))
    return make_market(returns, probs, cs)


def random_bounded_market(rng, d_max=3, n_max=6) -> DiscreteMarket:
    """Random market whose constraint set is bounded, so scalable arbitrage
    is impossible by construction."""
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(d + 1, max(d + 2, n_max + 1)))
    returns = rng.uniform(-0.9, 1.5, size=(n, d))
    probs = rng.uniform(0.5, 1.5, size=n)
    probs /= probs.sum()
    kind = rng.choice(["box", "no_short_no_borrow"])
    if kind == "box":
        cs = preset_constraints(
            "box", d, lower=rng.uniform(0.2, 1.5, d), upper=rng.uniform(0.2, 1.5, d)
        )
    else:
        cs = preset_constraints("no_short_no_borrow", d)
    return DiscreteMarket(probs, returns, cs)


def random_market_any(rng, d_max=3, n_max=6) -> DiscreteMarket:
    """Random market whose constraint set may be unbounded."""
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(d + 1, max(d + 2, n_max + 1)))
    returns = rng.uniform(-0.9, 1.5, size=(n, d))
    probs = rng.uniform(0.5, 1.5, size=n)
    probs /= probs.sum()
    kind = rng.choice(["box", "no_short", "borrow_limit", "none", "no_short_no_borrow"])
    if kind == "box":
        cs = preset_constraints(
            "box", d, lower=rng.uniform(0.2, 1.5, d), upper=rng.uniform(0.2, 1.5, d)
        )
    elif kind == "no_short":
        cs = preset_constraints("no_short", d)
    elif kind == "borrow_limit":
        cs = preset_constraints("borrow_limit", d, c=float(rng.uniform(0.5, 3.0)))
    elif kind == "no_short_no_borrow":
        cs = preset_constraints("no_short_no_borrow", d)
    else:
        cs = ConstraintSet(d, np.zeros((0, d)), np.zeros(0))
    return DiscreteMarket(probs, returns, cs)


def _chebyshev_center(a_ub, b_ub, dim: int, box: float = BIG_BOUND) -> np.ndarray:
    """Chebyshev center of ``{x : a_ub x <= b_ub, |x_i| <= box}``: one LP in
    ``(x, radius)`` maximizing the radius of a ball inside every row."""
    a_full = np.vstack([np.asarray(a_ub, dtype=float).reshape(-1, dim), np.eye(dim), -np.eye(dim)])
    b_full = np.concatenate([np.asarray(b_ub, dtype=float), np.full(2 * dim, box)])
    cost = np.zeros(dim + 1)
    cost[-1] = 1.0
    result = solve_lp(cost, a_ub=np.hstack([a_full, np.linalg.norm(a_full, axis=1)[:, None]]),
                      b_ub=b_full, bounds=[(None, None)] * dim + [(0, 2 * box)], maximize=True)
    return result.x[:-1]


def sample_feasible(rng, normals, offsets, dim, n_samples=1, cap=50.0):
    """Sample points of ``{x : normals @ x <= offsets}`` by shooting rays from
    an interior point (Chebyshev center) and stepping a random fraction of the
    way to the boundary (capped for unbounded sets)."""
    center = _chebyshev_center(normals, offsets, dim)
    out = []
    for _ in range(n_samples):
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
        if norm == 0:
            out.append(center.copy())
            continue
        direction /= norm
        if len(offsets):
            along = normals @ direction
            slack = offsets - normals @ center
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(along > 1e-12, slack / along, np.inf)
            t_max = float(min(np.min(ratios), cap))
        else:
            t_max = cap
        out.append(center + direction * t_max * rng.uniform(0.0, 0.999))
    return np.asarray(out) if n_samples > 1 else out[0]


def two_factor_atom_market(gamma, c, y1_atoms=(0.0, 1.0), y2_atoms=None) -> DiscreteMarket:
    """Two assets driven by two independent point-mass factors through the
    loading matrix [[1, gamma], [0, 1]], with a borrowing cap of c.

    Default second-factor atoms sit at the extremes that keep both asset
    returns >= -1: {-1, 1} for gamma in [0, 1), {-1/gamma, 1} for gamma >= 1,
    {-1, -1/gamma} for gamma < 0.

    Besides the borrowing cap, the constraint set carries the conic rows that
    an unbounded factor support would impose on admissibility (first factor
    unbounded above always; second factor unbounded above iff gamma >= 0), so
    the atom market's allowed set matches the continuous model's.
    """
    if y2_atoms is None:
        if gamma >= 1.0:
            y2_atoms = (-1.0 / gamma, 1.0)
        elif gamma >= 0.0:
            y2_atoms = (-1.0, 1.0)
        else:
            y2_atoms = (-1.0, -1.0 / gamma)
    rows = []
    for y1 in y1_atoms:
        for y2 in y2_atoms:
            rows.append([y1 + gamma * y2, y2])
    normals = [[1.0, 1.0], [-1.0, 0.0]]
    offsets = [c, 0.0]
    if gamma >= 0.0:
        normals.append([-gamma, -1.0])
        offsets.append(0.0)
    cs = ConstraintSet(2, np.array(normals), np.array(offsets), preset="borrow_limit")
    return make_market(np.array(rows), constraints=cs)


def gauss_hermite_lognormal_market(nodes=64, c=1.0) -> DiscreteMarket:
    """Single asset with return exp(Y) - 1 for standard normal Y, discretized
    by Gauss-Hermite quadrature; allowed strategies are [0, c]."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    probs = w / np.sqrt(np.pi)
    returns = np.expm1(np.sqrt(2.0) * x).reshape(-1, 1)
    cs = ConstraintSet(1, np.array([[-1.0], [1.0]]), np.array([0.0, float(c)]))
    return DiscreteMarket(probs, returns, cs)


def lp_minimum_by_vertex_enumeration(cost, a_ub, b_ub, bounds=None, tol=1e-9):
    """Brute-force LP oracle: enumerate candidate basic points (all square
    subsystems of active constraints), keep the feasible ones, return the
    minimum objective.  Exponential; only for tiny fixtures.

    ``bounds`` is a list of (lo, hi) pairs with None for unbounded, converted
    to extra halfspace rows.
    """
    cost = np.asarray(cost, dtype=float)
    dim = cost.size
    rows = [np.asarray(a_ub, dtype=float).reshape(-1, dim)]
    rhs = [np.asarray(b_ub, dtype=float).reshape(-1)]
    if bounds is not None:
        for j, (lo, hi) in enumerate(bounds):
            e = np.zeros(dim)
            e[j] = 1.0
            if lo is not None:
                rows.append(-e[None, :])
                rhs.append(np.array([-lo]))
            if hi is not None:
                rows.append(e[None, :])
                rhs.append(np.array([hi]))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    m = a.shape[0]
    best = np.inf
    best_x = None
    for subset in itertools.combinations(range(m), dim):
        sub = a[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        if np.all(a @ x <= b + tol * (1.0 + np.abs(b))):
            val = float(cost @ x)
            if val < best:
                best, best_x = val, x
    return best, best_x
