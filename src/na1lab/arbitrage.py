"""Arbitrage detection for one-period constrained markets.

Two distinct notions are handled, each with a machine-checkable certificate:

* a *classical arbitrage* is an allowed strategy with almost-surely
  nonnegative gains, positive with positive probability;
* a *scalable arbitrage* is such a strategy living in the recession cone of
  the allowed polyhedron, so it can be leveraged without bound.  Its absence
  is equivalent to boundedness of the allowed set within the return span.

The module also builds an equivalent supermartingale measure whenever no
classical arbitrage exists, via exponential-moment minimization over the cone
generated by the allowed polyhedron.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, InvalidParameterError, PreconditionError
from .lp import (BIG_BOUND, FEAS_TOL, OPTIMAL, cone_span, gather, minimize_convex, read,
                 require_optimal, run)
from .market import ZERO_OFFSET_TOL, Cone, DiscreteMarket, generated_cone

logger = logging.getLogger(__name__)

#: An LP optimum above this value certifies a positive expected gain.
GAIN_TOL = 1e-9

#: Certificates are rescaled to at most this sup-norm before re-verification.
#: Scaling an arbitrage down keeps it one (the allowed set is convex and
#: contains the origin) and keeps float noise in the recomputed gains below
#: the certificate tolerances.
CERTIFICATE_SCALE = 100.0

#: How far a deflated expected one-step wealth E[Z (1 + <theta, R>)] may
#: exceed 1 over the allowed set: the slack of every supermartingale
#: certificate (measure, numeraire, deflator, deflator process).
SUPERMARTINGALE_TOL = 1e-8

#: Residual at which the exponential-moment minimization stops; it bounds
#: the expected-gain slack, with room for the dual bound's radius and noise.
MOMENT_TOL = 1e-2 * SUPERMARTINGALE_TOL


class _Report:
    """The report rule of every result class: :meth:`to_dict` gives the
    dataclass's fields, less those named in ``_unreported``, as plain JSON
    data (:func:`_plain`)."""

    _unreported = ()

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)
                if f.name not in self._unreported}


def _plain(value):
    """``value`` as plain JSON data: arrays and tuples as lists, numpy
    scalars as Python numbers, mapping keys as strings, a result as its
    report."""
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True, eq=False)
class ArbitrageCertificate(_Report):
    """Outcome of a classical (or relative) arbitrage search.

    ``objective`` is the expected gain of the tamed strategy when one was
    found, else the best expected gain with nonnegative state-wise gains.
    ``reference`` is the benchmark strategy of a relative search, else None.
    """

    verdict: str
    strategy: np.ndarray | None
    gains: np.ndarray | None
    objective: float
    reference: np.ndarray | None = None
    threshold: float = GAIN_TOL

    @property
    def found(self) -> bool:
        return self.verdict == "arbitrage_found"


@dataclass(frozen=True, eq=False)
class Na1Certificate(_Report):
    """Outcome of a scalable-arbitrage search.

    Under ``na1_holds``, ``bound_radius`` is the sup-norm radius of the allowed
    polyhedron within the return span, and ``multipliers`` (one row per
    direction ``basis[0], ..., basis[d-1], -basis[0], ..., -basis[d-1]``, one
    column per allowed halfspace) write every direction as a nonnegative
    combination of the allowed normals in span coordinates; ``radius_bound``
    (+inf without them; not reported) is the radius they prove in asset
    coordinates (:func:`_dual_bound`).  Under ``na1_fails``, ``witness_ray``
    is a recession direction with nonnegative gains, positive somewhere.
    """

    verdict: str
    witness_ray: np.ndarray | None = None
    bound_radius: float | None = None
    threshold: float = GAIN_TOL
    multipliers: np.ndarray | None = None
    radius_bound: float = np.inf
    _unreported = ("multipliers", "radius_bound")

    @property
    def holds(self) -> bool:
        return self.verdict == "na1_holds"


@dataclass(frozen=True, eq=False)
class Esmm(_Report):
    """Equivalent supermartingale measure on the market's states: the
    probabilities ``measure``, their ratio ``density`` to the market's, the
    exponential-moment minimizer ``strategy`` that generated them, and
    ``slack``, a certified bound on the largest expected gain under them over
    the allowed polyhedron (at most ``SUPERMARTINGALE_TOL``)."""

    measure: np.ndarray
    density: np.ndarray
    strategy: np.ndarray
    slack: float
    threshold: float = SUPERMARTINGALE_TOL


def _state_rows(market: DiscreteMarket) -> np.ndarray:
    """Mask of the admissibility rows among the allowed rows, the lazy rows
    of LPs over the allowed set."""
    mask = np.zeros(market.allowed.offsets.size, dtype=bool)
    mask[: market.admissible.offsets.size] = True
    return mask


def _allowed_lp(market: DiscreteMarket, cost, boxed: bool = True) -> dict:
    """LP block of ``max cost . theta`` over the allowed set in span
    coordinates, within ``|theta_j| <= BIG_BOUND`` with lazy state rows;
    unboxed, with every row, for a set that reaches past the box."""
    block = dict(
        cost=cost,
        a_ub=market.allowed.normals @ market.span.basis,
        b_ub=market.allowed.offsets,
        maximize=True,
    )
    if boxed:
        block.update(bounds=(-BIG_BOUND, BIG_BOUND), lazy=_state_rows(market))
    return block


def _on_box(result) -> bool:
    """Whether an optimum reaches the box of :func:`_allowed_lp`."""
    return np.max(np.abs(result.x)) >= (1.0 - 1e-9) * BIG_BOUND


def _gain_search(market: DiscreteMarket, weights, offsets, box: float, context: str):
    """Task, the one gain-search LP: the largest ``weights @ (R pi)`` over
    ``pi`` in the return span with ``A pi <= offsets`` (the allowed normals),
    nonnegative gains in every state and ``|pi_j| <= box``, as (optimum,
    strategy); (0.0, None) on a span of ``{0}``.  Each admissibility row,
    lazy, carries ``min(offset, 0)``: both bounds at once.

    The strategy is put on the LP's zero-gain face: gains within
    ``FEAS_TOL * (1 + max |gain|)`` of zero, solver noise of either sign,
    are removed by one least-squares step in the row space of their returns,
    which keeps it in the return span.  A strategy gaining nowhere is kept.
    """
    basis, d = market.span.basis, market.n_assets
    if not basis.shape[1]:
        return 0.0, None
    states = _state_rows(market)
    [result] = yield [dict(
        cost=np.asarray(weights, dtype=float) @ (market.returns @ basis),
        a_ub=np.vstack([market.allowed.normals @ basis, basis, -basis]),
        b_ub=np.concatenate([np.where(states, np.minimum(offsets, 0.0), offsets), np.full(2 * d, box)]),
        maximize=True,
        lazy=np.concatenate([states, np.zeros(2 * d, dtype=bool)]),
    )]
    value, strategy = float(require_optimal(result, context).value), basis @ result.x
    gains = np.abs(market.returns @ strategy)
    flat = gains <= FEAS_TOL * (1.0 + np.max(gains))
    if not flat.all():
        face = market.returns[flat]
        strategy = strategy - np.linalg.lstsq(face, face @ strategy, rcond=None)[0]
    return value, strategy


def _tame_scale(direction: np.ndarray) -> float:
    """Scale factor in (0, 1] that caps a certificate direction's sup-norm at
    ``CERTIFICATE_SCALE``: at the search box, recomputing ``R @ pi`` leaves
    noise far above the certificate tolerances, and a scaled-down arbitrage is
    still one."""
    norm = float(np.max(np.abs(direction)))
    if norm <= CERTIFICATE_SCALE:
        return 1.0
    return CERTIFICATE_SCALE / norm


def _verify_gain_certificate(market, strategy, gains):
    if not market.allowed.contains(strategy):
        raise NumericError("arbitrage certificate violates the constraint polyhedron")
    if np.any(gains < -1e-12):
        raise NumericError("arbitrage certificate has a negative state gain")
    if float(np.max(gains)) <= GAIN_TOL:
        raise NumericError("arbitrage certificate has no strictly positive gain")


def _memoized(markets, keys, decide):
    """Task: the answers of ``markets`` under ``keys``, a ``(notion,
    argument)`` per market, each decided once per market by the task
    ``decide(market, argument)``: the per-market memo of the execution
    model in :mod:`na1lab.lp`."""
    def held(market, key):
        market.certificates[key] = yield from decide(market, key[1])

    entries = list(zip(markets, keys))
    while True:
        fresh = list({(id(m), key): (m, key) for m, key in entries if key not in m.certificates}.values())
        for market, key in fresh:
            market.certificates[key] = None
        try:
            for answer in (yield from gather(*(held(m, key) for m, key in fresh))):
                read(answer)
        finally:
            for market, key in fresh:
                if market.certificates[key] is None:
                    del market.certificates[key]
        if all(market.certificates.get(key) is not None for market, key in entries):
            return [market.certificates[key] for market, key in entries]
        yield []


def _with_na1(markets, *tasks, tol: float = GAIN_TOL):
    """Task: the NA1 certificates of ``markets`` at ``tol`` and the answers of
    ``tasks``, held as :func:`~na1lab.lp.gather` holds them, or None where
    NA1 fails: the NA1 gate of the execution model in :mod:`na1lab.lp`."""
    key = ("na1", float(tol))

    def while_na1_may_hold(task):
        results = None
        try:
            while all(key in m.certificates and (m.certificates[key] is None or m.certificates[key].holds)
                      for m in markets):
                results = yield task.send(results)
        except StopIteration as stop:
            return stop.value
        finally:
            task.close()

    certs, *answers = yield from gather(_check_na1_all(markets, tol),
                                        *(while_na1_may_hold(task) for task in tasks))
    certs = read(certs)
    if not all(cert.holds for cert in certs):
        answers = [None] * len(tasks)
    return (certs, *answers)


def _refuse(certs, context: str, labels=None) -> None:
    """The one refusal of ``context``, work that needs NA1, where an NA1
    certificate of ``certs`` fails; ``labels`` (node ids) name those."""
    failing = [i for i, cert in enumerate(certs) if not cert.holds]
    if failing:
        named = "" if labels is None else f"; failing nodes: {[labels[i] for i in failing]!r}"
        raise PreconditionError(f"{context} requires no scalable arbitrage{named}")


def _gated(markets, context: str, task, labels=None):
    """Task: ``task``'s answer behind :func:`_with_na1`, ``context`` refused
    where NA1 fails (:func:`_refuse`)."""
    certs, answer = yield from _with_na1(markets, task)
    _refuse(certs, context, labels)
    return read(answer)


def find_classical_arbitrage(market: DiscreteMarket, tol: float = GAIN_TOL) -> ArbitrageCertificate:
    """Search the allowed polyhedron for a classical arbitrage.

    Maximizes the expected gain over strategies in the allowed set (within
    the return span) whose gains are nonnegative in every state; an optimum
    above ``tol`` certifies an arbitrage, whose strategy is scaled to
    sup-norm at most ``CERTIFICATE_SCALE`` and re-verified in numpy: in the
    allowed set, no state gain below ``-1e-12`` and one above ``GAIN_TOL``,
    else :class:`~na1lab.errors.NumericError`.  Task: :func:`_classical`,
    one per tolerance, gathered with NA1 at ``tol``.
    """
    classical, _ = run(gather(_classical(market, tol), _check_na1_all([market], tol)))
    return read(classical)[0]


def _classical(market: DiscreteMarket, tol: float = GAIN_TOL):
    return _memoized([market], [("classical", float(tol))], _search_classical)


def _search_classical(market: DiscreteMarket, tol: float):
    return _arbitrage(market, None, tol)


def _arbitrage(market: DiscreteMarket, reference, tol: float):
    """Task: the classical search (``reference`` None), or the relative one
    over the allowed set translated by ``-reference``: the expected-gain
    :func:`_gain_search` within ``|pi_j| <= BIG_BOUND``, whose optimum
    above ``tol`` gives a strategy, tamed and re-verified in numpy."""
    shift = 0.0 if reference is None else market.allowed.normals @ reference
    offsets = market.allowed.offsets - shift
    objective, delta = yield from _gain_search(market, market.probs, offsets, BIG_BOUND, "arbitrage search")
    if delta is None or objective <= tol:
        return ArbitrageCertificate("no_arbitrage", None, None, objective, reference=reference, threshold=tol)
    scale = _tame_scale(delta)
    if scale < 1.0:
        logger.debug("arbitrage certificate tamed by a factor %.3e", scale)
    delta = delta * scale
    gains = market.returns @ delta
    strategy = delta if reference is None else reference + delta
    _verify_gain_certificate(market, strategy, gains)
    return ArbitrageCertificate("arbitrage_found", strategy, gains, float(market.probs @ gains),
                                reference=reference, threshold=tol)


def relative_arbitrage(market: DiscreteMarket, reference, tol: float = GAIN_TOL) -> ArbitrageCertificate:
    """Search for an allowed strategy whose wealth dominates the reference's,
    over the allowed polyhedron translated by ``-reference``; the
    certificate's ``strategy`` is the dominating strategy and ``gains`` the
    state-wise wealth differences."""
    reference = np.asarray(reference, dtype=float).reshape(-1)
    if reference.size != market.n_assets:
        raise InvalidParameterError("reference strategy has the wrong dimension")
    if not market.allowed.contains(reference):
        raise InvalidParameterError("reference strategy is not in the allowed polyhedron")
    return run(_arbitrage(market, reference, tol))


def check_na1(market: DiscreteMarket, tol: float = GAIN_TOL) -> Na1Certificate:
    """Decide whether scalable arbitrage is absent (NA1).

    The allowed set ``{C theta <= b}`` (``C`` the allowed normals in span
    coordinates, ``b >= 0``) is bounded in the return span exactly when every
    signed coordinate direction ``c_k = +-basis[i]`` is a nonnegative
    combination ``C^T lambda_k`` of its rows (Farkas).  ``na1_holds`` carries
    the multipliers of the support LPs ``max c_k . theta``, accepted when numpy
    finds every residual ``|C^T lambda_k - c_k|`` below ``1 / sqrt(d)``, and
    the largest support value as ``bound_radius``.  ``na1_fails`` carries a
    witness ray (:func:`_witness_ray`) whose total gain exceeds ``tol``.
    Neither multipliers nor a ray raises :class:`~na1lab.errors.NumericError`.
    Task: :func:`_check_na1_all`, one per tolerance.
    """
    return run(_check_na1_all([market], tol))[0]


def _check_na1_all(markets, tol: float = GAIN_TOL):
    return _memoized(markets, [("na1", float(tol))] * len(markets), _decide_na1)


def _cone_spans(markets):
    """Task: per market, :func:`~na1lab.lp.cone_span` of the cone generated
    by its allowed set, in the return span's coordinates.  Callers gate it
    on NA1 (:func:`_with_na1`)."""
    return _memoized(markets, [("cone_span", ZERO_OFFSET_TOL)] * len(markets),
                     lambda m, tol: cone_span(generated_cone(m.allowed, tol=tol).normals @ m.span.basis))


def _decide_na1(market: DiscreteMarket, tol: float):
    def holds(market, support):
        basis, d = market.span.basis, market.n_assets
        multipliers = np.maximum(-np.array([lp.marginals_ub for lp in support]), 0.0)
        residual = multipliers @ (market.allowed.normals @ basis) - np.vstack([basis, -basis])
        if not float(np.max(np.linalg.norm(residual, axis=1))) < 1.0 / np.sqrt(d):
            return None
        radius = float(np.max(multipliers @ market.allowed.offsets))
        spread = np.max(np.sum(np.abs(residual @ basis.T), axis=1))  # below 1, as accepted above
        bound = radius / (1.0 - spread) if spread < 1.0 else np.inf
        return Na1Certificate("na1_holds", bound_radius=radius, multipliers=multipliers,
                              threshold=tol, radius_bound=bound)

    cert = yield from _settle(
        market, np.vstack([market.span.basis, -market.span.basis]), np.ones(market.n_states), tol,
        holds, lambda market, ray: Na1Certificate("na1_fails", witness_ray=ray, threshold=tol),
    )
    return cert or Na1Certificate("na1_holds", bound_radius=0.0, threshold=tol)


def _settle(market, costs, weights, tol: float, settled, unbounded):
    """Task: sup of linear functionals over the allowed set, the rows of
    ``costs`` in span coordinates (:func:`_allowed_lp`).  With every
    optimum inside the box, ``settled(market, results)`` re-verifies them
    and returns the answer, or None.  Else a recession ray of the set with
    positive gain under ``weights`` (:func:`_witness_ray`) makes the answer
    ``unbounded(market, ray)``; without one the set is bounded, and
    ``settled`` must accept its optima without the box.  A span of ``{0}``
    answers None."""
    if not market.span.basis.shape[1]:
        return None
    for boxed in (True, False):
        shared = _allowed_lp(market, None, boxed)  # one constraint matrix for all costs
        support = yield [dict(shared, cost=cost) for cost in costs]
        if all(lp.status == OPTIMAL and not (boxed and _on_box(lp)) for lp in support):
            answer = settled(market, support)
            if answer is not None:
                return answer
        if boxed:
            ray = yield from _witness_ray(market, weights, tol)
            if ray is not None:
                return unbounded(market, ray)
            logger.debug("no gaining ray; solving %d allowed-set LPs again without the box", len(costs))
    raise NumericError(
        "allowed polyhedron is unbounded in the return span although "
        "no gaining ray was found; tolerance boundary case"
    )


def _witness_ray(market: DiscreteMarket, weights, tol: float):
    """Task: a scalable arbitrage, or None: the :func:`_gain_search` of the
    recession cone of the allowed set (zero offsets) under ``weights``, in
    the unit sup-norm box; its direction, scaled to sup-norm one, is the
    answer if the optimum exceeds ``tol`` and numpy finds it in the
    recession cone with nonnegative gains and a positive weighted gain."""
    zeros = np.zeros(market.allowed.offsets.size)
    value, ray = yield from _gain_search(market, weights, zeros, 1.0, "recession-ray LP")
    if not value > tol:
        return None
    ray = ray / np.max(np.abs(ray))
    gains = market.returns @ ray
    cone = Cone(market.n_assets, market.allowed.normals)
    if cone.contains(ray) and np.all(gains >= -1e-12) and float(weights @ gains) > 0.0:
        return ray
    return None


def max_expected_gain(market: DiscreteMarket, probs) -> float:
    """LP optimum of the weighted expected gain ``probs @ (R pi)`` over the
    allowed polyhedron intersected with the return span; +inf when it is
    unbounded along a recession ray of positive weighted gain, checked in
    numpy.  The weights need not sum to one: the wealth-ratio and deflator
    checks of :mod:`na1lab.portfolio` are this LP under deflated
    probabilities.  Task: :func:`_max_expected_gains`, by the weights.
    """
    return run(_max_expected_gains([market], [probs]))[0]


def _max_expected_gains(markets, weights):
    """Task: :func:`max_expected_gain` of each market under its weights."""
    def decide(market, raw):
        w = np.frombuffer(raw)
        value = yield from _settle(market, [w @ (market.returns @ market.span.basis)], w, GAIN_TOL,
                                   lambda market, results: float(results[0].value),
                                   lambda market, ray: float("inf"))
        return 0.0 if value is None else value

    keys = [("max_expected_gain", np.asarray(w, dtype=float).tobytes()) for w in weights]
    return _memoized(markets, keys, decide)


def _dual_bound(market, weights, dual) -> float:
    """Weak-duality bound on :func:`max_expected_gain` under ``weights``, held
    on the market by their bytes if their sum plus it is at most ``1 +
    SUPERMARTINGALE_TOL``.  In ``dual = (coords, rows, lam)``, ``lam >= 0``
    are multipliers of allowed rows ``C theta <= b`` and ``coords`` is
    orthonormal, projecting (``P``) onto a subspace holding the allowed set,
    where ``w . R theta <= lam . b + |P (R^T w - C^T lam)|_1 |theta|_inf``;
    NA1 multipliers (radius ``rho``, residuals ``e_k``) prove ``|theta|_inf
    <= rho / (1 - max_k |e_k|_1)``, their ``radius_bound``.  Without them,
    or ``dual``, the bound is +inf."""
    na1 = market.certificates.get(("na1", GAIN_TOL))
    if dual is None or na1 is None or na1.multipliers is None:
        return np.inf
    (coords, rows, lam), allowed = dual, market.allowed
    lam = np.maximum(lam, 0.0)
    residual = coords @ (coords.T @ (market.returns.T @ weights - allowed.normals[rows].T @ lam))
    bound = float(lam @ allowed.offsets[rows] + np.sum(np.abs(residual)) * na1.radius_bound)
    if np.sum(weights) + bound <= 1.0 + SUPERMARTINGALE_TOL:
        market.certificates.setdefault(("gain_bound", weights.tobytes()), bound)
    return bound


def _certified_gains(markets, weights):
    """Task: per market, a certified upper bound on :func:`max_expected_gain`
    under its weights: the dual bound held for them (:func:`_dual_bound`),
    else the LP optimum."""
    weights = [np.asarray(w, dtype=float) for w in weights]
    held = [m.certificates.get(("gain_bound", w.tobytes())) for m, w in zip(markets, weights)]
    lps = [i for i, bound in enumerate(held) if bound is None]
    gains = iter((yield from _max_expected_gains([markets[i] for i in lps], [weights[i] for i in lps])))
    return [next(gains) if bound is None else bound for bound in held]


def _deflator_bounds(markets, weights):
    """Task: the one deflator bound, on sup E[Z (1 + <pi, R>)] over allowed
    pi, per market: its weights ``probs * Z`` summed, plus :func:`_certified_gains`."""
    gains = yield from _certified_gains(markets, weights)
    return [float(np.sum(w) + gain) for w, gain in zip(weights, gains)]


def construct_esmm(market: DiscreteMarket, tol: float = GAIN_TOL) -> Esmm:
    """Build an equivalent supermartingale measure for an arbitrage-free market.

    Reweights states by ``exp(-|R|^2)``, minimizes the logarithm of the
    exponential moment of wealth over the cone generated by the allowed
    polyhedron, and normalizes ``p * exp(-wealth - |R|^2)`` at the minimizer,
    floored at ``1e-300``.  Its ``slack`` is certified by the minimizer's
    multipliers (:func:`_dual_bound`) or by the LP; above
    ``SUPERMARTINGALE_TOL`` it raises :class:`~na1lab.errors.NumericError`.  A
    classical arbitrage at ``tol`` raises
    :class:`~na1lab.errors.PreconditionError`.  Task: :func:`_esmm`.
    """
    return run(_esmm(market, tol))


def _esmm(market: DiscreteMarket, tol: float = GAIN_TOL):
    classical, gated = yield from gather(
        _classical(market, tol), _with_na1([market], _cone_spans([market]), tol=tol))
    if read(classical)[0].found:
        raise PreconditionError(
            "market admits a classical arbitrage; no supermartingale measure exists"
        )
    [na1], spans = read(gated)
    if not na1.holds:
        raise NumericError("no classical arbitrage was found, but NA1 fails")
    basis, returns = market.span.basis, market.returns
    log_aux = np.log(market.probs) - np.sum(returns * returns, axis=1)
    strategy, dual, residual = np.zeros(market.n_assets), None, 0.0
    if basis.shape[1]:
        diameter = 2.0 * np.sqrt(market.n_assets) * na1.bound_radius
        cone = np.flatnonzero(market.allowed.offsets <= ZERO_OFFSET_TOL)  # generated_cone's rows
        [span] = read(spans)
        u, lam, residual = _minimize_log_moment(
            log_aux, returns @ basis, market.allowed.normals[cone] @ basis, diameter, span)
        strategy, dual = basis @ u, (basis @ span[0], cone[span[1]], lam)
    # extreme states can underflow to exactly zero in double precision; the
    # true mass is positive, so floor it at the smallest safe normal value
    weights = _normalized(log_aux - returns @ strategy)
    if logger.isEnabledFor(logging.DEBUG) and np.any(weights < 1e-300):
        logger.debug("esmm: %d state weights lifted to the 1e-300 floor",
                     np.count_nonzero(weights < 1e-300))
    q = np.maximum(weights, 1e-300)
    q = q / q.sum()
    _dual_bound(market, q, dual)
    [slack] = yield from _certified_gains([market], [q])
    if not slack <= SUPERMARTINGALE_TOL:
        stalled = (f"; the exponential-moment search stalled at residual {residual:.3e}"
                   if residual > MOMENT_TOL else "")
        raise NumericError(
            f"supermartingale verification failed: expected-gain slack {slack:.3e}{stalled}"
        )
    logger.debug("esmm constructed: slack %.3e", slack)
    return Esmm(measure=q, density=q / market.probs, strategy=strategy, slack=slack)


def _normalized(log_weights) -> np.ndarray:
    """``exp(log_weights)`` scaled to sum one, shifted by its largest entry
    so that nothing overflows (a tenth of the cost of ``logsumexp``)."""
    with np.errstate(under="ignore"):
        weights = np.exp(log_weights - np.max(log_weights))
    return weights / weights.sum()


def _minimize_log_moment(log_weights, returns_r, cone_rows, diameter, span):
    """Minimize ``log sum exp(log_weights - returns_r @ u)`` over the cone
    ``{u : cone_rows @ u <= 0}`` from ``u = 0``, in the cone's span ``span``
    (:func:`~na1lab.lp.cone_span`), where the rows that are not implicit
    equalities are strictly feasible.  Returns u, their multipliers and the
    solver's residual."""
    reduce_basis, strict = span
    rows = cone_rows[strict] @ reduce_basis
    mat = returns_r @ reduce_basis

    def derivatives(z, live):  # a batch of one
        q = _normalized(log_weights - mat @ z[0, :, 0])
        mean = mat.T @ q
        return -mean[None, :, None], (mat.T @ (q[:, None] * mat) - np.outer(mean, mean))[None]

    [result] = minimize_convex(derivatives, rows[None], np.zeros((1, rows.shape[0])),
                               np.zeros((1, mat.shape[1])), diameter, MOMENT_TOL)
    return reduce_basis @ result.x, result.multipliers, result.residual
