"""One-period finite market model with convex polyhedral trading constraints.

A market is a finite probability vector together with a matrix of simple
returns (rows = states, columns = assets, entries >= -1) and a polyhedral
constraint set on portfolio fractions.  The set of strategies a market
actually permits is the intersection of two pieces:

* the admissibility polyhedron, one halfspace ``<-z, pi> <= 1`` per distinct
  return row ``z`` (wealth cannot be driven below zero in any state), and
* the user-supplied constraint polyhedron (short-sale bans, borrowing caps,
  boxes, ...).

Constraint sets must leave the orthogonal complement of the return span
unrestricted: constraining directions that no return can distinguish is
almost surely a modelling error, so such markets are rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, InvalidParameterError
from .lp import is_feasible

#: Return rows closer than this (after rounding) are treated as one support point.
DEDUP_DECIMALS = 12

#: Relative singular-value cutoff for the rank of the return span.
RANK_TOL = 1e-10

#: Tolerance for the requirement that constraint normals lie in the return span.
SPAN_ALIGNMENT_TOL = 1e-10

#: Default tolerance for feasibility / membership residuals.
FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Polyhedron ``{pi : normals @ pi <= offsets}`` in strategy space.

    ``preset`` is a purely descriptive tag recording which factory built the
    set, if any; the halfspaces are always authoritative.
    """

    dim: int
    normals: np.ndarray
    offsets: np.ndarray
    preset: str | None = None

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if normals.size == 0:
            normals = normals.reshape(0, self.dim)
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if normals.shape != (offsets.size, self.dim):
            raise InvalidParameterError(
                f"constraint shapes disagree: normals {normals.shape}, "
                f"{offsets.size} offsets, dim {self.dim}"
            )
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

    def is_conic(self, tol: float = 0.0) -> bool:
        """True when every offset is zero, i.e. the set is a cone."""
        return bool(np.all(np.abs(self.offsets) <= tol))


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
    """Finite-state one-period market with polyhedral constraints.

    ``note`` is an optional descriptive record attached by builders (for
    example the factor-model discretizer stores its truncation and clipping
    diagnostics there); it carries no semantics of its own.
    """

    probs: np.ndarray
    returns: np.ndarray
    constraints: ConstraintSet
    note: object | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        returns = np.asarray(self.returns, dtype=float)
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
        if np.any(probs <= 0):
            raise InvalidParameterError("state probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-9:
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
        span = self.span
        for i, a in enumerate(self.constraints.normals):
            residual = span.project_complement(a)
            if np.max(np.abs(residual), initial=0.0) > SPAN_ALIGNMENT_TOL * max(
                1.0, float(np.max(np.abs(a), initial=0.0))
            ):
                raise InvalidParameterError(
                    f"constraint row {i} restricts directions outside the return span "
                    f"(residual {np.max(np.abs(residual)):.3e}); rebuild the constraint "
                    "set inside the span"
                )

    @property
    def n_states(self) -> int:
        return self.probs.size

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    @cached_property
    def support_points(self) -> np.ndarray:
        return support(self)

    @cached_property
    def span(self) -> SubspaceBasis:
        return span_and_projection(
            np.unique(np.round(self.returns, DEDUP_DECIMALS), axis=0)
        )

    @cached_property
    def admissible(self) -> ConstraintSet:
        return admissible_polyhedron(self)

    @cached_property
    def allowed(self) -> ConstraintSet:
        """The full strategy polyhedron: admissibility plus user constraints."""
        return self.admissible.intersect(self.constraints)

    @cached_property
    def certificates(self) -> dict:
        """Certificates computed for this market, keyed by (notion, tolerance).

        The market is immutable, so each is computed once; the functions of
        :mod:`na1lab.arbitrage` fill this in.
        """
        return {}


def support(market: DiscreteMarket) -> np.ndarray:
    """Distinct return rows of the market (the support of the return vector).

    Rows are deduplicated by exact comparison after rounding to 1e-12; the
    original (unrounded) representative of each group is returned.
    """
    rounded = np.round(market.returns, DEDUP_DECIMALS)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return market.returns[np.sort(idx)]


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

    One halfspace ``<-z, pi> <= 1`` per support point ``z``; intersecting with
    ``market.constraints`` yields the full strategy polyhedron.
    """
    pts = market.support_points
    return ConstraintSet(market.n_assets, -pts, np.ones(pts.shape[0]))


def allowed_polyhedron(market: DiscreteMarket) -> ConstraintSet:
    """Admissibility polyhedron intersected with the market's constraints."""
    return market.allowed


def recession_cone(theta: ConstraintSet) -> Cone:
    """Recession cone of a nonempty polyhedron: the same normals, offsets zeroed."""
    if theta.normals.shape[0] and not is_feasible(theta.normals, theta.offsets, theta.dim):
        raise InfeasibleError("recession_cone: the polyhedron is empty")
    return Cone(theta.dim, theta.normals)


def generated_cone(theta: ConstraintSet, tol: float = 1e-12) -> Cone:
    """Smallest closed cone containing a polyhedron that includes the origin.

    For ``{pi : A pi <= b}`` with ``b >= 0`` this is exactly the set cut out
    by the rows with ``b = 0``: rows with positive offset vanish under
    scaling, rows with zero offset survive unchanged.
    """
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
