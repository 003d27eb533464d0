"""Linear factor decompositions of one-period returns.

Returns follow ``R = Q y``, ``Q`` a full-row-rank loading matrix and ``y``
independent scalar factors: the first nonnegative with unbounded upside,
every other straddling zero.  Linear algebra then decides worst-case
positivity (``validate_positivity``), whether a portfolio isolates the
nonnegative factor, an arbitrage ray (``arbitrage_ray``), whether the
borrowing bound caps its scaling, which is NA1 (``na1_factor``), the best
capped arbitrage (``max_arbitrage_strategy``), and for unit
upper-triangular loadings the ray by one triangular solve
(``alpha_recursion``, ``na1_triangular``).  The paper's other derivations
(signed chains, back-substitution, quadrature) are test oracles.

``discretize`` turns a model into a finite-state market by quadrature,
with the declared-support admissibility algebra as explicit halfspaces, so
the strategy set is the model's, not the sampled grid's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.linalg import solve_triangular

from .errors import InvalidParameterError, NumericError, PreconditionError
from .market import PROB_TOL, RANK_TOL, ConstraintSet, DiscreteMarket

#: Max least-squares residual for "the first factor is reachable by a portfolio".
RAY_RESIDUAL_TOL = 1e-10

#: Strictness threshold for sign tests on the ray's coefficient sum.
SIGN_TOL = 1e-12

#: Tolerance of the numpy checks that the maximal arbitrage sits on the
#: borrowing boundary and loads on the first factor only.
CROSS_CHECK_TOL = 1e-10

#: Discretized returns are clipped to this floor (just above total loss).
RETURN_FLOOR = -1.0 + 1e-12

#: Default probability mass dropped from each continuous factor's tails.
DEFAULT_TRUNCATION = 1e-6

_KINDS = ("point_mass", "exponential", "lognormal", "uniform")


@dataclass(frozen=True)
class FactorDistribution:
    """Law of one scalar factor, one of a small closed list of families.

    ``atoms`` is used by the point-mass kind, ``args`` by the parametric
    kinds: ``exponential`` is (rate, shift) with density supported on
    ``[shift, inf)``, ``lognormal`` is (mu, sigma) for ``exp(N(mu, sigma^2))``,
    ``uniform`` is (lo, hi).  Use the classmethod constructors.
    """

    kind: str
    args: tuple[float, ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unsupported factor distribution {self.kind!r}; expected one of {_KINDS}"
            )
        if self.kind == "point_mass":
            if not self.atoms:
                raise InvalidParameterError("point_mass needs at least one atom")
            values = np.array([a[0] for a in self.atoms], dtype=float)
            weights = np.array([a[1] for a in self.atoms], dtype=float)
            if not np.all(np.isfinite(values)):
                raise InvalidParameterError("point_mass values must be finite")
            if np.any(weights <= 0):
                raise InvalidParameterError("point_mass weights must be positive")
            if abs(weights.sum() - 1.0) > PROB_TOL:
                raise InvalidParameterError(
                    f"point_mass weights sum to {weights.sum()!r}, not 1"
                )
        elif self.kind == "exponential":
            rate, _shift = self._two_args()
            if not rate > 0:
                raise InvalidParameterError("exponential rate must be positive")
        elif self.kind == "lognormal":
            _mu, sigma = self._two_args()
            if not sigma > 0:
                raise InvalidParameterError("lognormal sigma must be positive")
        else:
            lo, hi = self._two_args()
            if not lo < hi:
                raise InvalidParameterError("uniform needs lo < hi")

    def _two_args(self) -> tuple[float, float]:
        if len(self.args) != 2 or not all(math.isfinite(a) for a in self.args):
            raise InvalidParameterError(
                f"{self.kind} takes exactly two finite parameters, got {self.args!r}"
            )
        return float(self.args[0]), float(self.args[1])

    @classmethod
    def point_mass(cls, values, weights=None) -> "FactorDistribution":
        values = np.asarray(values, dtype=float).reshape(-1)
        if weights is None:
            weights = np.full(values.size, 1.0 / max(values.size, 1))
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.size != values.size:
            raise InvalidParameterError("point_mass needs one weight per value")
        return cls("point_mass", atoms=tuple(zip(values.tolist(), weights.tolist())))

    @classmethod
    def exponential(cls, rate: float, shift: float = 0.0) -> "FactorDistribution":
        return cls("exponential", args=(float(rate), float(shift)))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "FactorDistribution":
        return cls("lognormal", args=(float(mu), float(sigma)))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "FactorDistribution":
        return cls("uniform", args=(float(lo), float(hi)))

    def _pdf(self, y: float) -> float:
        if self.kind == "exponential":
            rate, shift = self.args
            return rate * math.exp(-rate * (y - shift)) if y >= shift else 0.0
        if self.kind == "lognormal":
            mu, sigma = self.args
            if not y > 0.0:
                return 0.0
            z = (math.log(y) - mu) / sigma
            return math.exp(-0.5 * z * z) / (y * sigma * math.sqrt(2.0 * math.pi))
        lo, hi = self.args
        return 1.0 / (hi - lo) if lo <= y <= hi else 0.0

    @property
    def values(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms], dtype=float)

    def support(self) -> tuple[float, float]:
        if self.kind == "point_mass":
            v = self.values
            return float(v.min()), float(v.max())
        if self.kind == "exponential":
            return self.args[1], math.inf
        if self.kind == "lognormal":
            return 0.0, math.inf
        lo, hi = self.args
        return lo, hi

    def mean(self) -> float:
        if self.kind == "point_mass":
            return float(self.weights @ self.values)
        if self.kind == "exponential":
            rate, shift = self.args
            return shift + 1.0 / rate
        if self.kind == "lognormal":
            mu, sigma = self.args
            return math.exp(mu + 0.5 * sigma * sigma)
        lo, hi = self.args
        return 0.5 * (lo + hi)

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < 0) or np.any(u > 1):
            raise InvalidParameterError("quantile levels must lie in [0, 1]")
        if self.kind == "point_mass":
            order = np.argsort(self.values)
            values = self.values[order]
            cum = np.cumsum(self.weights[order])
            idx = np.minimum(np.searchsorted(cum, u, side="left"), values.size - 1)
            return values[idx]
        if self.kind == "exponential":
            rate, shift = self.args
            with np.errstate(divide="ignore"):
                return shift - np.log1p(-u) / rate
        if self.kind == "lognormal":
            mu, sigma = self.args
            return np.exp(mu + sigma * special.ndtri(u))
        lo, hi = self.args
        return lo + u * (hi - lo)

    def expectation(self, func) -> float:
        """E[func(Y)] by exact summation (atoms) or adaptive quadrature.

        The quadrature runs over the support, split at the 5 % and 95 %
        quantiles so that the integrator sees the body and each tail apart.
        """
        if self.kind == "point_mass":
            return float(sum(w * func(v) for v, w in self.atoms))
        from scipy import integrate  # here, as every import of na1lab would pay for it
        lo, hi = self.support()
        inner = [float(q) for q in self.quantile(np.array([0.05, 0.95]))]
        edges = [lo, *inner, hi]
        return float(sum(
            integrate.quad(lambda y: func(y) * self._pdf(y), left, right)[0]
            for left, right in zip(edges[:-1], edges[1:])
        ))


@dataclass(frozen=True)
class FactorModel:
    """Return model ``R = loadings @ y`` with declared factor supports.

    ``supports`` records, per factor, the interval the factor is allowed
    to range over; the first must be exactly ``(0, inf)`` and the others
    must straddle zero (either endpoint may be infinite).  ``dists`` may be
    omitted while doing pure support algebra; ``discretize`` requires it.
    ``borrow_limit`` caps the sum of portfolio fractions.
    """

    loadings: np.ndarray
    supports: tuple[tuple[float, float], ...]
    dists: tuple[FactorDistribution, ...] | None = None
    borrow_limit: float = 1.0
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        q = np.asarray(self.loadings, dtype=float)
        if q.ndim != 2 or q.shape[0] < 1 or q.shape[1] < 1:
            raise InvalidParameterError("loadings must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(q)):
            raise InvalidParameterError("loadings must be finite")
        svals = np.linalg.svd(q, compute_uv=False)
        if q.shape[1] < q.shape[0] or svals[-1] <= RANK_TOL * svals[0]:
            raise InvalidParameterError(
                f"loadings are rank deficient: {q.shape[0]} assets need "
                f"{q.shape[0]} independent factor directions, singular values "
                f"span [{svals[-1]:.3e}, {svals[0]:.3e}]"
            )
        supports = tuple((float(lo), float(hi)) for lo, hi in self.supports)
        if len(supports) != q.shape[1]:
            raise InvalidParameterError(
                f"{len(supports)} factor supports for {q.shape[1]} loading columns"
            )
        if supports[0] != (0.0, math.inf):
            raise InvalidParameterError(
                "the first factor's support must be exactly (0, inf)"
            )
        for k, (lo, hi) in enumerate(supports[1:], start=2):
            if not lo < 0.0 < hi:
                raise InvalidParameterError(
                    f"factor {k} support ({lo}, {hi}) must straddle zero"
                )
        if self.dists is not None:
            dists = tuple(self.dists)
            if len(dists) != q.shape[1]:
                raise InvalidParameterError(
                    f"{len(dists)} distributions for {q.shape[1]} factors"
                )
            for k, (dist, (lo, hi)) in enumerate(zip(dists, supports), start=1):
                if not isinstance(dist, FactorDistribution):
                    raise InvalidParameterError(
                        f"factor {k} distribution must be a FactorDistribution"
                    )
                dlo, dhi = dist.support()
                pad_lo = 1e-12 * max(1.0, abs(lo)) if math.isfinite(lo) else 0.0
                pad_hi = 1e-12 * max(1.0, abs(hi)) if math.isfinite(hi) else 0.0
                if dlo < lo - pad_lo or dhi > hi + pad_hi:
                    raise InvalidParameterError(
                        f"factor {k} distribution ranges over ({dlo}, {dhi}), "
                        f"outside its declared support ({lo}, {hi})"
                    )
            object.__setattr__(self, "dists", dists)
        if not self.borrow_limit > 0:
            raise InvalidParameterError("borrow_limit must be positive")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != q.shape[1]:
                raise InvalidParameterError("need one label per factor")
            object.__setattr__(self, "labels", labels)
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "loadings", q)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "borrow_limit", float(self.borrow_limit))

    @property
    def n_assets(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]


def from_standard_form(mean, common=None, idio: bool = True, borrow_limit: float = 1.0) -> FactorModel:
    """Assemble a model skeleton from a mean-plus-common-plus-idiosyncratic split.

    The loading matrix is ``[mean | common | I]`` (the identity only when
    ``idio``).  Supports beyond the first default to the whole line and no
    distributions are attached; refine both with ``dataclasses.replace``.
    """
    mean = np.asarray(mean, dtype=float).reshape(-1, 1)
    d = mean.shape[0]
    blocks = [mean]
    labels = ["mean"]
    if common is not None:
        common = np.asarray(common, dtype=float)
        if common.ndim != 2 or common.shape[0] != d:
            raise InvalidParameterError(
                f"common loadings must be 2-D with {d} rows, got shape "
                f"{getattr(common, 'shape', None)}"
            )
        if common.shape[1]:
            blocks.append(common)
            labels.extend(f"common_{j + 1}" for j in range(common.shape[1]))
    if idio:
        blocks.append(np.eye(d))
        labels.extend(f"idio_{i + 1}" for i in range(d))
    q = np.hstack(blocks)
    supports = ((0.0, math.inf),) + ((-math.inf, math.inf),) * (q.shape[1] - 1)
    return FactorModel(q, supports, borrow_limit=borrow_limit, labels=tuple(labels))


# -- worst-case positivity -------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    """Per-asset verdicts on worst-case gross returns staying nonnegative."""

    asset_ok: tuple[bool, ...]
    worst_case: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.asset_ok)


def _bounded_product(coeff: float, bound: float) -> float:
    # The worst-case algebra treats a zero loading as contributing nothing
    # even against an infinite factor range.
    if coeff == 0.0:
        return 0.0
    return coeff * bound


def _worst_case_sum(row: np.ndarray, supports) -> float:
    """Smallest possible value of ``sum_k row[k] * y_k`` over factors k >= 2."""
    total = 0.0
    for q, (lo, hi) in zip(row[1:], supports[1:]):
        pos, neg = max(q, 0.0), max(-q, 0.0)
        total += _bounded_product(pos, lo) - _bounded_product(neg, hi)
    return total


def _is_unit_upper_triangular(q: np.ndarray, tol: float = 1e-12) -> bool:
    if q.shape[0] != q.shape[1]:
        return False
    d = q.shape[0]
    if np.max(np.abs(np.diag(q) - 1.0), initial=0.0) > tol:
        return False
    return not np.any(q[np.tril_indices(d, -1)])


def validate_positivity(model: FactorModel) -> PositivityReport:
    """Check each asset's gross return stays nonnegative over the supports.

    Asset ``i`` passes when its loading on the nonnegative factor is
    nonnegative and the worst realization of the other factor terms stays
    above total loss, one direct sum over the factors.
    """
    q = model.loadings
    ok, worst, notes = [], [], []
    for i in range(model.n_assets):
        first = float(q[i, 0])
        tail = _worst_case_sum(q[i], model.supports)
        good = first >= -SIGN_TOL and tail >= -1.0 - SIGN_TOL
        ok.append(bool(good))
        worst.append(tail)
        if first < -SIGN_TOL:
            notes.append(
                f"asset {i + 1}: loading {first:.6g} on the nonnegative factor is negative"
            )
        if tail < -1.0 - SIGN_TOL:
            notes.append(
                f"asset {i + 1}: worst-case factor terms sum to {tail:.6g} < -1"
            )
    return PositivityReport(tuple(ok), tuple(worst), tuple(notes))


# -- arbitrage ray and maximal scaling --------------------------------------


def arbitrage_ray(model: FactorModel) -> np.ndarray | None:
    """Direction isolating the nonnegative factor, or None if unreachable.

    Solves ``loadings.T @ g = e1`` by least squares; when the residual
    vanishes, every portfolio along ``g`` earns exactly the first factor, so
    positive multiples of ``g`` are the candidate arbitrages.
    """
    q = model.loadings
    e1 = np.zeros(model.n_factors)
    e1[0] = 1.0
    g, *_ = np.linalg.lstsq(q.T, e1, rcond=None)
    residual = float(np.max(np.abs(q.T @ g - e1)))
    if residual > RAY_RESIDUAL_TOL:
        return None
    return g


def na1_factor(model: FactorModel) -> bool:
    """Whether arbitrage scaling is capped by the borrowing bound: along the
    arbitrage ray ``g`` the cap reads ``lam * sum(g) <= borrow_limit``, which
    binds exactly when ``sum(g)`` is positive.  Without a ray:
    :class:`~na1lab.errors.PreconditionError`."""
    g = arbitrage_ray(model)
    if g is None:
        raise PreconditionError(
            "no portfolio isolates the nonnegative factor; the scalability "
            "test does not apply"
        )
    return float(g.sum()) > SIGN_TOL


def max_arbitrage_strategy(model: FactorModel) -> np.ndarray:
    """Largest arbitrage allowed by the borrowing cap: the arbitrage ray
    scaled until the cap binds.  Without a ray, or where the cap never binds
    along it, no maximal arbitrage exists:
    :class:`~na1lab.errors.PreconditionError`."""
    g = arbitrage_ray(model)
    if g is None:
        raise PreconditionError(
            "no portfolio isolates the nonnegative factor; there is no "
            "arbitrage to scale"
        )
    total = float(g.sum())
    if total <= SIGN_TOL:
        raise PreconditionError(
            "a maximal arbitrage strategy does not exist: the borrowing cap "
            "never binds along the arbitrage ray"
        )
    scale = model.borrow_limit / total
    pi = scale * g
    if abs(float(pi.sum()) - model.borrow_limit) > CROSS_CHECK_TOL * (1.0 + model.borrow_limit):
        raise NumericError("maximal arbitrage does not sit on the borrowing boundary")
    coeffs = model.loadings.T @ pi
    if (
        coeffs[0] <= 0.0
        or float(np.max(np.abs(coeffs[1:]), initial=0.0))
        > CROSS_CHECK_TOL * (1.0 + abs(coeffs[0]))
    ):
        raise NumericError(
            "maximal arbitrage leaks into factors other than the nonnegative one"
        )
    return pi


# -- unit upper-triangular loadings -----------------------------------------


def _require_unit_upper_triangular(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidParameterError("expected a square matrix")
    if not np.all(np.isfinite(q)):
        raise InvalidParameterError("matrix entries must be finite")
    if not _is_unit_upper_triangular(q):
        raise InvalidParameterError(
            "matrix is not unit upper-triangular (ones on the diagonal, "
            "zeros strictly below)"
        )
    return q


def alpha_recursion(q) -> np.ndarray:
    """First row of the inverse of a unit upper-triangular loading matrix.

    These coefficients span the arbitrage ray: a portfolio proportional to
    them cancels every factor but the first.  One triangular solve ``q^T alpha
    = e1``, the forward recursion; the paper's signed-chain expansion is its
    test oracle.
    """
    q = _require_unit_upper_triangular(q)
    e1 = np.zeros(q.shape[0])
    e1[0] = 1.0
    return solve_triangular(q, e1, trans="T", lower=False, unit_diagonal=True)


def na1_triangular(q) -> bool:
    """Scalability verdict for unit upper-triangular loadings: the paper's
    criterion, ``1 +`` the signed loading products over all chains from index
    1, grouped by endpoint, is the coefficient sum of :func:`alpha_recursion`,
    and NA1 holds when it is positive (cost ``O(d^2)``)."""
    return bool(float(alpha_recursion(q).sum()) > SIGN_TOL)


# -- the two-asset worked case ----------------------------------------------


def largest_two_dim_supports(gamma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Widest second-factor support keeping both assets' prices nonnegative
    for loadings ``[[1, gamma], [0, 1]]``, by the sign and size of ``gamma``."""
    gamma = float(gamma)
    if gamma < 0.0:
        second = (-1.0, -1.0 / gamma)
    elif gamma < 1.0:
        second = (-1.0, math.inf)
    else:
        second = (-1.0 / gamma, math.inf)
    return ((0.0, math.inf), second)


def two_dim_model(
    gamma: float,
    borrow_limit: float,
    dists: tuple[FactorDistribution, FactorDistribution] | None = None,
    supports=None,
) -> FactorModel:
    """Two assets, one cross-loading: loadings ``[[1, gamma], [0, 1]]``."""
    q = np.array([[1.0, float(gamma)], [0.0, 1.0]])
    if supports is None:
        supports = largest_two_dim_supports(gamma)
    return FactorModel(q, tuple(supports), dists=dists, borrow_limit=borrow_limit)


def two_dim_admissibility(gamma: float, pi) -> bool:
    """Whether a two-asset position keeps wealth nonnegative (widest supports):
    the long bound on the second position comes from the asset whose worst
    case binds, the short bound from the first factor's unbounded upside."""
    gamma = float(gamma)
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if pi.size != 2:
        raise InvalidParameterError("expected a two-asset position")
    p1, p2 = float(pi[0]), float(pi[1])
    lower, upper = _two_dim_band(gamma, p1)
    return p1 >= 0.0 and lower <= p2 <= upper


def _two_dim_band(gamma: float, pi1):
    """Band ``(lower, upper)`` of the second position at a first ``pi1 >= 0`` (number or array)."""
    lower = -gamma * pi1 if gamma >= 0.0 else gamma - gamma * pi1
    return lower, (gamma if gamma >= 1.0 else 1.0) - gamma * pi1


# -- discretization ----------------------------------------------------------


@dataclass(frozen=True)
class DiscretizationNote:
    """Diagnostics attached to a discretized market."""

    truncated_mass: float
    clipped_entries: int
    nodes_per_factor: tuple[int, ...]
    scheme: str = "quantile-mapped Gauss-Legendre"


def admissibility_halfspaces(model: FactorModel) -> ConstraintSet:
    """Halfspace form of "wealth stays nonnegative over the declared supports".

    Factors with an infinite endpoint force the portfolio's exposure to that
    factor to the matching sign (conic rows); the remaining worst cases are
    enumerated over every selection of finite endpoints (one row each, with
    the first factor pinned at its zero lower endpoint).
    """
    q = model.loadings
    d = model.n_assets
    normals, offsets = [], []
    finite_choices: list[tuple[float, ...]] = []
    for k, (lo, hi) in enumerate(model.supports):
        if math.isinf(hi):
            normals.append(-q[:, k])
            offsets.append(0.0)
        if math.isinf(lo):
            normals.append(q[:, k])
            offsets.append(0.0)
        if k == 0:
            finite_choices.append((0.0,))
            continue
        choices = tuple(b for b in (lo, hi) if math.isfinite(b))
        finite_choices.append(choices if choices else (0.0,))
    for endpoint in itertools.product(*finite_choices):
        normal = -(q @ np.asarray(endpoint))
        if np.any(normal != 0.0):
            normals.append(normal)
            offsets.append(1.0)
    if not normals:
        return ConstraintSet(d, np.zeros((0, d)), np.zeros(0))
    return ConstraintSet(d, np.vstack(normals), np.asarray(offsets))


@functools.lru_cache(maxsize=64)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once
    per node count."""
    x, w = leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _factor_grid(
    dist: FactorDistribution, nodes: int, truncation_mass: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Quadrature atoms, weights, and the retained probability mass."""
    if dist.kind == "point_mass":
        return dist.values, dist.weights, 1.0
    x, w = _legendre(nodes)
    lo, hi = truncation_mass / 2.0, 1.0 - truncation_mass / 2.0
    levels = lo + (hi - lo) * (x + 1.0) / 2.0
    weights = w * (hi - lo) / 2.0
    return dist.quantile(levels), weights, 1.0 - truncation_mass


def discretize(
    model: FactorModel,
    nodes_per_factor: int,
    truncation_mass: float = DEFAULT_TRUNCATION,
) -> DiscreteMarket:
    """Finite-state market from factor quadrature.

    Each continuous factor becomes Gauss-Legendre nodes in quantile space
    (point masses are kept exactly); the tensor product over the independent
    factors is the state space, probabilities renormalized after tail
    truncation, returns below total loss clipped just above -1.  The
    constraints are the declared-support admissibility halfspaces plus the
    borrowing cap; truncation and clipping diagnostics are ``market.note``.
    """
    if model.dists is None:
        raise InvalidParameterError("cannot discretize a model without distributions")
    if nodes_per_factor < 2:
        raise InvalidParameterError("need at least two quadrature nodes per factor")
    if not 0.0 <= truncation_mass < 1.0:
        raise InvalidParameterError("truncation_mass must lie in [0, 1)")
    grids, weight_grids, counts = [], [], []
    retained = 1.0
    for dist in model.dists:
        values, weights, kept = _factor_grid(dist, nodes_per_factor, truncation_mass)
        grids.append(values)
        weight_grids.append(weights)
        counts.append(values.size)
        retained *= kept
    factor_states = np.stack(
        [m.reshape(-1) for m in np.meshgrid(*grids, indexing="ij")], axis=-1
    )
    probs = np.ones(factor_states.shape[0])
    for m in np.meshgrid(*weight_grids, indexing="ij"):
        probs = probs * m.reshape(-1)
    probs = probs / probs.sum()
    returns = factor_states @ model.loadings.T
    clipped = int(np.count_nonzero(returns < -1.0))
    if clipped:
        returns = np.maximum(returns, RETURN_FLOOR)
    admissible = admissibility_halfspaces(model)
    borrow = ConstraintSet(
        model.n_assets,
        np.ones((1, model.n_assets)),
        np.array([model.borrow_limit]),
        preset=f"borrow_limit:{model.borrow_limit:g}",
    )
    note = DiscretizationNote(
        truncated_mass=1.0 - retained,
        clipped_entries=clipped,
        nodes_per_factor=tuple(counts),
    )
    return DiscreteMarket(probs, returns, admissible.intersect(borrow), note=note)


# -- worked expectation identities -------------------------------------------


def example_3_7_ratio(beta: float) -> float:
    """Expected outperformance of the second asset over the capped arbitrage.

    In the two-asset model with cross-loading one half, unit borrowing cap,
    a unit-rate exponential first factor and a second factor whose gross
    value is exponential with rate ``beta``, the expectation reduces to
    ``sqrt(e)/(2 beta)`` times the exponential-tail integral
    ``E1(1/2) = int_{1/2}^inf exp(-x)/x dx``, taken from ``special.exp1``;
    adaptive quadrature of the integral is its test oracle.
    """
    if not beta > 0:
        raise InvalidParameterError("beta must be positive")
    return math.sqrt(math.e) / (2.0 * beta) * float(special.exp1(0.5))


def example_3_8_condition(model: FactorModel) -> float:
    """Residual of the optimality identity for the capped arbitrage strategy.

    Only meaningful for the two-asset model with a negative cross-loading.
    With ``s = borrow_limit / (1 - gamma)`` the capped arbitrage is growth
    optimal exactly when ``E[Y1 / (1 + s Y1)]`` equals
    ``(1 - gamma) E[Y2] E[1 / (1 + s Y1)]`` (independence splits the product);
    the returned value is left side minus right side.
    """
    q = model.loadings
    if model.n_assets != 2 or model.n_factors != 2 or not _is_unit_upper_triangular(q):
        raise PreconditionError(
            "the optimality residual is defined for the two-asset "
            "unit-triangular model only"
        )
    gamma = float(q[0, 1])
    if not gamma < 0.0:
        raise PreconditionError("the optimality residual needs a negative cross-loading")
    if model.dists is None:
        raise PreconditionError("factor distributions are required")
    first, second = model.dists
    means = (first.mean(), second.mean())
    if not all(math.isfinite(m) for m in means):
        raise PreconditionError("factor means must be finite")
    s = model.borrow_limit / (1.0 - gamma)
    lhs = first.expectation(lambda y: y / (1.0 + s * y))
    rhs = (1.0 - gamma) * means[1] * first.expectation(lambda y: 1.0 / (1.0 + s * y))
    return lhs - rhs
