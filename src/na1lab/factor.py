"""Linear factor decompositions of one-period returns.

Returns follow ``R = Q y`` where ``Q`` is a full-row-rank loading matrix and
``y`` is a vector of independent scalar factors.  The first factor is special:
it is nonnegative with unbounded upside (think of it as the "free profit"
coordinate), while every other factor straddles zero.  Under that convention
a surprising amount is decidable by pure linear algebra:

* whether every asset keeps its gross return nonnegative in the worst case
  (``validate_positivity``),
* whether some portfolio isolates the nonnegative factor, i.e. whether
  arbitrage exists at all, and along which ray (``arbitrage_ray``),
* whether arbitrage scaling is capped by the borrowing bound, which is
  exactly the line between NA1 holding and failing (``na1_factor``),
* the best-scaled arbitrage under the cap (``max_arbitrage_strategy``),
* for unit upper-triangular loadings, the arbitrage ray coefficients by a
  short recursion with two independent cross-checks (``alpha_recursion``).

``discretize`` bridges to the LP machinery: factor laws are replaced by
quadrature atoms, the tensor product becomes a finite-state market, and the
declared-support admissibility algebra is emitted as explicit halfspaces so
the discrete strategy set matches the symbolic one rather than the (possibly
narrower) sampled grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special
from scipy.linalg import solve_triangular

from .errors import InvalidParameterError, NumericError, PreconditionError
from .market import ConstraintSet, DiscreteMarket

#: Relative singular-value cutoff below which the loading matrix is rank deficient.
LOADING_RANK_TOL = 1e-10

#: Max least-squares residual for "the first factor is reachable by a portfolio".
RAY_RESIDUAL_TOL = 1e-10

#: Strictness threshold for sign tests on the ray's coefficient sum.
SIGN_TOL = 1e-12

#: Agreement tolerance between independent computation routes.
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
            if abs(weights.sum() - 1.0) > 1e-9:
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
        if q.shape[1] < q.shape[0] or svals[-1] <= LOADING_RANK_TOL * svals[0]:
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

    The loading matrix becomes ``[mean | common | I]`` (identity block only
    when ``idio``), matching returns written as a mean, common-factor swings,
    and per-asset noise.  Supports beyond the first slot default to the whole
    line and no distributions are attached; callers refine both via
    ``dataclasses.replace``.
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

    Asset ``i`` passes when its loading on the nonnegative factor is itself
    nonnegative and the worst realization of the remaining factor terms stays
    above total loss.  For unit upper-triangular loadings the same condition
    is re-derived by back-substitution from the last asset; the two routes
    must agree, otherwise a ``NumericError`` is raised.
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
    if _is_unit_upper_triangular(q):
        # Back-substituted form: asset i needs its own factor's lower endpoint
        # to stay above -1 minus the worst case of the later columns.
        for i in range(model.n_assets):
            own_lo = model.supports[i][0] if i > 0 else 0.0
            later = 0.0
            for k in range(max(i + 1, 1), model.n_factors):
                coeff = float(q[i, k])
                lo, hi = model.supports[k]
                later += _bounded_product(max(coeff, 0.0), lo)
                later -= _bounded_product(max(-coeff, 0.0), hi)
            recursive = own_lo + later
            direct = worst[i]
            if math.isinf(recursive) or math.isinf(direct):
                agree = recursive == direct
            else:
                agree = abs(recursive - direct) <= CROSS_CHECK_TOL * (1.0 + abs(direct))
            if not agree:
                raise NumericError(
                    f"triangular positivity cross-check disagreed on asset {i + 1}: "
                    f"{direct!r} vs {recursive!r}"
                )
    return PositivityReport(tuple(ok), tuple(worst), tuple(notes))


# -- arbitrage ray and maximal scaling --------------------------------------


def arbitrage_ray(model: FactorModel) -> np.ndarray | None:
    """Direction isolating the nonnegative factor, or None if unreachable.

    Solves ``loadings.T @ g = e1`` in the least-squares sense; when the
    residual vanishes every portfolio along ``g`` earns exactly the first
    factor per unit of scale, so positive multiples of ``g`` are precisely
    the candidate arbitrages.
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
    """Whether arbitrage scaling is capped by the borrowing bound.

    Requires the arbitrage ray to exist.  Along the ray the borrowing
    constraint reads ``lam * sum(g) <= borrow_limit``; it caps the scale
    exactly when the coefficient sum is positive.
    """
    g = arbitrage_ray(model)
    if g is None:
        raise PreconditionError(
            "no portfolio isolates the nonnegative factor; the scalability "
            "test does not apply"
        )
    return float(g.sum()) > SIGN_TOL


def max_arbitrage_strategy(model: FactorModel) -> np.ndarray:
    """Largest arbitrage allowed by the borrowing cap.

    Scales the arbitrage ray until the cap binds.  Fails when scaling is
    unbounded (the cap never binds along the ray), in which case no maximal
    arbitrage exists.
    """
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


def _chain_weight(q: np.ndarray, path: tuple[int, ...]) -> float:
    sign = -1.0 if len(path) % 2 == 0 else 1.0
    prod = 1.0
    for a, b in zip(path, path[1:]):
        prod *= q[a, b]
    return sign * prod


def _alpha_via_chains(q: np.ndarray) -> np.ndarray:
    """Ray coefficients as signed sums over increasing index chains.

    Coefficient ``k`` sums, over all chains ``1 = j_1 < ... < j_r = k``, the
    product of loadings along consecutive pairs, with sign ``(-1)**(r-1)``.
    Cost grows like ``2**d``; intended for the modest dimensions where
    triangular models are used.
    """
    d = q.shape[0]
    out = np.zeros(d)
    out[0] = 1.0
    for k in range(1, d):
        total = 0.0
        for r in range(k):
            for mids in itertools.combinations(range(1, k), r):
                total += _chain_weight(q, (0, *mids, k))
        out[k] = total
    return out


def _alpha_via_inverse(q: np.ndarray) -> np.ndarray:
    e1 = np.zeros(q.shape[0])
    e1[0] = 1.0
    return solve_triangular(q, e1, trans="T", lower=False)


def alpha_recursion(q) -> np.ndarray:
    """First row of the inverse of a unit upper-triangular loading matrix.

    These coefficients span the arbitrage ray: a portfolio proportional to
    them cancels every factor except the nonnegative first one.  Computed by
    forward recursion (coefficient ``k`` is minus the earlier coefficients
    dotted with column ``k``) and cross-checked against a direct triangular
    solve and the signed-chain expansion; disagreement raises
    ``NumericError``.
    """
    q = _require_unit_upper_triangular(q)
    d = q.shape[0]
    alpha = np.zeros(d)
    alpha[0] = 1.0
    for k in range(1, d):
        alpha[k] = -float(alpha[:k] @ q[:k, k])
    scale = 1.0 + float(np.max(np.abs(alpha)))
    for other in (_alpha_via_inverse(q), _alpha_via_chains(q)):
        if float(np.max(np.abs(alpha - other))) > CROSS_CHECK_TOL * scale:
            raise NumericError(
                "triangular ray coefficients disagree between computation routes"
            )
    return alpha


def na1_triangular(q) -> bool:
    """Scalability verdict for unit upper-triangular loadings.

    Evaluates ``1 + sum over chains from index 1`` of signed loading
    products; the verdict is positivity of that total.  The total must equal
    the coefficient sum from ``alpha_recursion`` (same chains grouped by
    endpoint), which is asserted.  Cost grows like ``2**d``.
    """
    q = _require_unit_upper_triangular(q)
    d = q.shape[0]
    total = 1.0
    for r in range(1, d):
        for tail in itertools.combinations(range(1, d), r):
            total += _chain_weight(q, (0, *tail))
    reference = float(alpha_recursion(q).sum())
    if abs(total - reference) > CROSS_CHECK_TOL * (1.0 + abs(total)):
        raise NumericError(
            f"chain-sum criterion {total!r} disagrees with coefficient sum {reference!r}"
        )
    return bool(total > SIGN_TOL)


# -- the two-asset worked case ----------------------------------------------


def largest_two_dim_supports(gamma: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Widest second-factor support keeping both assets' prices nonnegative.

    For loadings ``[[1, gamma], [0, 1]]`` the binding asset depends on the
    sign and size of the cross-loading ``gamma``.
    """
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
    """Whether a two-asset position keeps wealth nonnegative (widest supports).

    Case split on the cross-loading: the long bound on the second position
    comes from the asset whose worst case binds, the short bound from the
    first factor's unbounded upside.
    """
    gamma = float(gamma)
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if pi.size != 2:
        raise InvalidParameterError("expected a two-asset position")
    p1, p2 = float(pi[0]), float(pi[1])
    if p1 < 0.0:
        return False
    if 0.0 <= gamma < 1.0:
        return -gamma * p1 <= p2 <= 1.0 - gamma * p1
    if gamma >= 1.0:
        return -gamma * p1 <= p2 <= gamma - gamma * p1
    return gamma - gamma * p1 <= p2 <= 1.0 - gamma * p1


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


def _factor_grid(
    dist: FactorDistribution, nodes: int, truncation_mass: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Quadrature atoms, weights, and the retained probability mass."""
    if dist.kind == "point_mass":
        return dist.values, dist.weights, 1.0
    x, w = leggauss(nodes)
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

    Each continuous factor is replaced by Gauss-Legendre nodes in quantile
    space (point masses are kept exactly); the tensor product over the
    independent factors becomes the state space, with probabilities
    renormalized after tail truncation.  Returns below total loss are clipped
    just above -1.  The constraint set is the declared-support admissibility
    algebra plus the borrowing cap, so the strategy polyhedron reflects the
    model rather than the sampled grid; truncation and clipping diagnostics
    ride along in ``market.note``.
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
    ``sqrt(e)/(2 beta)`` times an exponential-tail integral.  Evaluated by
    adaptive quadrature and cross-checked against the exponential-integral
    special function.
    """
    if not beta > 0:
        raise InvalidParameterError("beta must be positive")
    tail, _err = integrate.quad(
        lambda x: math.exp(-x) / x, 0.5, math.inf, epsabs=1e-12, epsrel=1e-12
    )
    reference = float(special.exp1(0.5))
    if abs(tail - reference) > 1e-10:
        raise NumericError(
            f"tail integral {tail!r} disagrees with the special-function value "
            f"{reference!r}"
        )
    return math.sqrt(math.e) / (2.0 * beta) * tail


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
