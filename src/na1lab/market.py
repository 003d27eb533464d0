"""One-period finite market model with convex polyhedral trading constraints.

A market is a finite probability vector, a matrix of simple returns (rows
= states, columns = assets, entries >= -1) and a polyhedral constraint set
on portfolio fractions.  The strategies it permits are the intersection of

* the admissibility polyhedron, one halfspace ``<-z, pi> <= 1`` per
  distinct return row ``z`` or per vertex of their convex hull (wealth
  stays nonnegative in every state), and
* the user-supplied constraint polyhedron (short-sale bans, borrowing caps,
  boxes, ...).

Constraints on directions outside the return span, which no return can
distinguish, are rejected as a modelling error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import lp
from .errors import InfeasibleError, InvalidParameterError
from .lp import is_feasible

logger = logging.getLogger(__name__)

#: Return rows closer than this (after rounding) are treated as one support point.
DEDUP_DECIMALS = 12

#: Relative singular-value cutoff for the rank of the return span.
RANK_TOL = 1e-10

#: Tolerance for the requirement that constraint normals lie in the return span.
SPAN_ALIGNMENT_TOL = 1e-10

#: Default tolerance for feasibility / membership residuals.
FEAS_TOL = 1e-9

#: State (or branch) probabilities must sum to one within this.
PROB_TOL = 1e-9

#: Largest dimension in which a wide market keeps only the rows of the
#: vertices of a convex hull (of its support, or of the lifted points of a
#: super-hedged claim); qhull's cost grows steeply with the dimension: on
#: 1,024 points 3.4 ms in 4-D, 29 ms in 5-D.
HULL_MAX_RANK = 4

#: Support points off an affine hyperplane ``<w, z> = 1`` by at most this
#: much relative to 1 count as lying on it.
FLAT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Polyhedron ``{pi : normals @ pi <= offsets}`` in strategy space;
    ``preset`` is a descriptive tag naming the factory that built it, if any."""

    dim: int
    normals: np.ndarray
    offsets: np.ndarray
    preset: str | None = None

    def __post_init__(self):
        normals = np.atleast_2d(np.array(self.normals, dtype=float))
        if normals.size == 0:
            normals = normals.reshape(0, self.dim)
        offsets = np.array(self.offsets, dtype=float).reshape(-1)
        if normals.shape != (offsets.size, self.dim):
            raise InvalidParameterError(
                f"constraint shapes disagree: normals {normals.shape}, "
                f"{offsets.size} offsets, dim {self.dim}"
            )
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise InvalidParameterError("constraint normals and offsets must be finite")
        normals.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    @property
    def halfspaces(self) -> list[tuple[np.ndarray, float]]:
        return [(self.normals[i], float(self.offsets[i])) for i in range(len(self.offsets))]

    def contains(self, pi, tol: float = FEAS_TOL) -> bool:
        pi = np.asarray(pi, dtype=float)
        if self.normals.shape[0] == 0:
            return True
        scale = 1.0 + np.abs(self.offsets)
        return bool(np.all(self.normals @ pi - self.offsets <= tol * scale))

    def residuals(self, pi) -> np.ndarray:
        """Signed slack ``normals @ pi - offsets`` (<= 0 means satisfied)."""
        return self.normals @ np.asarray(pi, dtype=float) - self.offsets

    def intersect(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.dim != self.dim:
            raise InvalidParameterError("cannot intersect constraint sets of different dims")
        return ConstraintSet(
            self.dim,
            np.vstack([self.normals, other.normals]),
            np.concatenate([self.offsets, other.offsets]),
        )


def preset_constraints(
    kind: str,
    dim: int,
    c: float | None = None,
    lower=None,
    upper=None,
) -> ConstraintSet:
    """Build one of the standard constraint sets.

    ``no_short``            pi >= 0
    ``no_short_no_borrow``  pi >= 0 and sum(pi) <= 1
    ``borrow_limit``        sum(pi) <= c with c > 0
    ``box``                 -lower <= pi <= upper elementwise, both positive
    """
    if dim <= 0:
        raise InvalidParameterError("constraint dimension must be positive")
    eye = np.eye(dim)
    ones = np.ones(dim)
    if kind == "no_short":
        return ConstraintSet(dim, -eye, np.zeros(dim), preset="no_short")
    if kind == "no_short_no_borrow":
        return ConstraintSet(
            dim,
            np.vstack([-eye, ones]),
            np.concatenate([np.zeros(dim), [1.0]]),
            preset="no_short_no_borrow",
        )
    if kind == "borrow_limit":
        if c is None or not c > 0:
            raise InvalidParameterError("borrow_limit preset needs c > 0")
        return ConstraintSet(dim, ones[None, :], np.array([float(c)]), preset=f"borrow_limit:{c:g}")
    if kind == "box":
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if lo.size != dim or hi.size != dim:
            raise InvalidParameterError("box preset needs one lower and upper bound per asset")
        if not (np.all(lo > 0) and np.all(hi > 0)):
            raise InvalidParameterError("box preset bounds must be strictly positive")
        return ConstraintSet(
            dim,
            np.vstack([-eye, eye]),
            np.concatenate([lo, hi]),
            preset="box",
        )
    raise InvalidParameterError(f"unknown constraint preset {kind!r}")


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of the linear span of the support, as columns."""

    basis: np.ndarray  # shape (d, r)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection onto the span."""
        x = np.asarray(x, dtype=float)
        return (x @ self.basis) @ self.basis.T

    def project_complement(self, x) -> np.ndarray:
        """Orthogonal projection onto the orthogonal complement of the span."""
        x = np.asarray(x, dtype=float)
        return x - self.project(x)


@dataclass(frozen=True, eq=False)
class Cone:
    """Polyhedral cone ``{x : normals @ x <= 0}``."""

    dim: int
    normals: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if normals.size == 0:
            normals = normals.reshape(0, self.dim)
        normals.setflags(write=False)
        object.__setattr__(self, "normals", normals)

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.normals.shape[0] == 0:
            return True
        scale = 1.0 + float(np.max(np.abs(x)))
        return bool(np.all(self.normals @ x <= tol * scale))


@dataclass(frozen=True, eq=False)
class DiscreteMarket:
    """Finite-state one-period market with polyhedral constraints; ``note`` is
    a descriptive record of its builder, such as the factor discretizer's
    diagnostics, with no semantics of its own."""

    probs: np.ndarray
    returns: np.ndarray
    constraints: ConstraintSet
    note: object | None = None

    def __post_init__(self):
        # copies, so freezing them below leaves the caller's arrays alone
        probs = np.array(self.probs, dtype=float).reshape(-1)
        returns = np.array(self.returns, dtype=float)
        if returns.ndim != 2:
            raise InvalidParameterError("returns must be a 2-D array (states x assets)")
        if returns.shape[0] != probs.size:
            raise InvalidParameterError(
                f"{probs.size} probabilities but {returns.shape[0]} return rows"
            )
        if not isinstance(self.constraints, ConstraintSet):
            raise InvalidParameterError("constraints must be a ConstraintSet")
        if self.constraints.dim != returns.shape[1]:
            raise InvalidParameterError(
                f"constraint dim {self.constraints.dim} != number of assets {returns.shape[1]}"
            )
        if probs.size == 0:
            raise InvalidParameterError("market needs at least one state")
        if returns.shape[1] == 0:
            raise InvalidParameterError("market needs at least one asset")
        if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(returns))):
            raise InvalidParameterError("probabilities and returns must be finite")
        if np.any(probs <= 0):
            raise InvalidParameterError("state probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise InvalidParameterError(f"probabilities sum to {float(probs.sum()):g}, not 1")
        if np.any(returns < -1.0):
            worst = float(returns.min())
            raise InvalidParameterError(f"returns must be >= -1, found {worst}")
        if np.any(self.constraints.offsets < 0):
            raise InvalidParameterError(
                "constraint offsets must be nonnegative (the zero strategy must be allowed)"
            )
        probs.setflags(write=False)
        returns.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "returns", returns)
        # Constraints may not restrict directions orthogonal to the return
        # span; wealth is blind to those directions, so restricting them is
        # rejected as a modelling error.
        normals, basis = self.constraints.normals, self.span.basis
        residual = np.max(np.abs(normals - (normals @ basis) @ basis.T), axis=1, initial=0.0)
        scale = np.maximum(1.0, np.max(np.abs(normals), axis=1, initial=0.0))
        outside = np.flatnonzero(residual > SPAN_ALIGNMENT_TOL * scale)
        if outside.size:
            raise InvalidParameterError(
                f"constraint row {outside[0]} restricts directions outside the return span "
                f"(residual {residual[outside[0]]:.3e}); rebuild the constraint "
                "set inside the span"
            )

    @property
    def n_states(self) -> int:
        return self.probs.size

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct rounded return rows, sorted, and each one's first state."""
        rounded = np.round(self.returns, DEDUP_DECIMALS)
        order = np.lexsort(rounded.T[::-1])
        rows = rounded[order]
        first = np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])
        return rows[first], order[first]

    @cached_property
    def support_points(self) -> np.ndarray:
        return self.returns[np.sort(self._distinct[1])]

    @cached_property
    def span(self) -> SubspaceBasis:
        return span_and_projection(self._distinct[0])

    @cached_property
    def admissible(self) -> ConstraintSet:
        return admissible_polyhedron(self)

    @cached_property
    def allowed(self) -> ConstraintSet:
        """The full strategy polyhedron: admissibility plus user constraints."""
        return self.admissible.intersect(self.constraints)

    @cached_property
    def certificates(self) -> dict:
        """Certificates computed for this market: the per-market memo of
        the execution model in :mod:`na1lab.lp`."""
        return {}


def support(market: DiscreteMarket) -> np.ndarray:
    """Distinct return rows of the market (the support of the return vector):
    rows equal after rounding to 1e-12 are one, represented by the first
    (unrounded), in the order of the states."""
    return market.support_points


def span_and_projection(support_points) -> SubspaceBasis:
    """Orthonormal basis for the linear span of the given support points."""
    pts = np.atleast_2d(np.asarray(support_points, dtype=float))
    if pts.size == 0:
        raise InvalidParameterError("need at least one support point")
    _, svals, vt = np.linalg.svd(pts, full_matrices=False)
    if svals.size == 0 or svals[0] <= 0:
        rank = 0
    else:
        rank = int(np.sum(svals > RANK_TOL * svals[0]))
    basis = vt[:rank].T.copy()
    basis.setflags(write=False)
    return SubspaceBasis(basis)


def admissible_polyhedron(market: DiscreteMarket) -> ConstraintSet:
    """Halfspace description of strategies that keep wealth nonnegative.

    One halfspace ``<-z, pi> <= 1`` per support point ``z``, in state order;
    with ``market.constraints`` it makes the full strategy polyhedron.  Past
    ``lp.LAZY_ROWS / 2`` support points in a return span of at most
    ``HULL_MAX_RANK`` dimensions only the hull vertices' rows are kept
    (:func:`_kept_rows`), which cut out the same set.
    """
    pts = market.support_points
    pts = pts[_kept_rows(pts @ market.span.basis, 2 * pts.shape[0])]
    return ConstraintSet(market.n_assets, -pts, np.ones(pts.shape[0]))


def _kept_rows(points: np.ndarray, lazy_rows: int) -> np.ndarray:
    """Sorted indices of the ``points`` (rows) whose halfspaces an LP carries
    in place of ``lazy_rows`` lazy rows: the vertices of their convex hull when
    those rows exceed ``lp.LAZY_ROWS`` (read at call time) and the points have
    at most ``HULL_MAX_RANK`` coordinates; else every point."""
    if lazy_rows > lp.LAZY_ROWS and points.shape[1] <= HULL_MAX_RANK:
        return _hull_vertices(points)
    return np.arange(points.shape[0])


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Sorted indices of the vertices of the convex hull of ``points``
    (rows), computed in coordinates of their affine hull: a hyperplane
    ``<w, z> = 1`` when they lie on one, else the whole space.  Every index
    when qhull fails, as it does on points in a lower-dimensional linear
    subspace."""
    r = points.shape[1]
    w = np.linalg.lstsq(points, np.ones(points.shape[0]), rcond=None)[0]
    if r and np.max(np.abs(points @ w - 1.0)) <= FLAT_TOL:
        points = points @ np.linalg.svd(w[None, :])[2][1:].T  # the directions orthogonal to w
        r -= 1
    if r == 0:
        return np.arange(points.shape[0])
    if r == 1:
        return np.unique([np.argmin(points[:, 0]), np.argmax(points[:, 0])])
    try:
        return np.sort(ConvexHull(points).vertices)
    except QhullError as exc:
        logger.debug("qhull failed on %d support points, keeping every row: %s",
                     points.shape[0], str(exc).split("\n", 1)[0])
        return np.arange(points.shape[0])


def recession_cone(theta: ConstraintSet) -> Cone:
    """Recession cone of a nonempty polyhedron: the same normals, offsets zeroed."""
    if theta.normals.shape[0] and not is_feasible(theta.normals, theta.offsets, theta.dim):
        raise InfeasibleError("recession_cone: the polyhedron is empty")
    return Cone(theta.dim, theta.normals)


def generated_cone(theta: ConstraintSet, tol: float = 1e-12) -> Cone:
    """Smallest closed cone containing a polyhedron ``{pi : A pi <= b}`` with
    ``b >= 0``: the rows with ``b = 0``, since rows with positive offset
    vanish under scaling."""
    if np.any(theta.offsets < -tol):
        raise InvalidParameterError("generated_cone requires a set containing the origin")
    keep = theta.offsets <= tol
    return Cone(theta.dim, theta.normals[keep])


def wealth(market: DiscreteMarket, pi, v: float = 1.0) -> np.ndarray:
    """Terminal wealth ``v * (1 + <pi, R>)`` in every state."""
    if not v > 0:
        raise InvalidParameterError("initial capital v must be positive")
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if pi.size != market.n_assets:
        raise InvalidParameterError(
            f"strategy has {pi.size} components, market has {market.n_assets} assets"
        )
    return v * (1.0 + market.returns @ pi)
