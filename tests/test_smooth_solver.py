"""Seeded fuzz corpus for the interior-point solver behind the numeraire
portfolio and the supermartingale measure.

Every market is drawn here.  Box markets always satisfy NA1, so the
numeraire must be certified on each; the ESMM must be certified on each
market without a classical arbitrage.  The corpus includes the sizes where
the earlier projected-gradient and fixed-tolerance solvers failed: a few
hundred states with up to six assets, 10k and 50k states, and draw 6 of
``random_bounded_market`` with seed 0.
"""

import tracemalloc

import numpy as np

import na1lab.lp
from conftest import random_bounded_market, random_market_any
from na1lab.arbitrage import (
    SUPERMARTINGALE_TOL,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
    max_expected_gain,
)
from na1lab.hedging import Claim, indifference_price
from na1lab.lp import minimize_convex
from na1lab.market import ConstraintSet, DiscreteMarket, preset_constraints
from na1lab.portfolio import UtilitySpec, numeraire_portfolio, verify_numeraire


def random_box_market(rng, n, d):
    probs = rng.uniform(0.5, 1.5, n)
    constraints = preset_constraints(
        "box", d, lower=rng.uniform(0.2, 1.5, d), upper=rng.uniform(0.2, 1.5, d)
    )
    return DiscreteMarket(probs / probs.sum(), rng.uniform(-0.9, 1.5, size=(n, d)), constraints)


def fuzz_corpus():
    rng = np.random.default_rng(2024)
    markets = [
        random_box_market(rng, int(rng.integers(50, 501)), int(rng.integers(2, 7)))
        for _ in range(40)
    ]
    markets += [random_box_market(rng, 10_000, 4), random_box_market(rng, 50_000, 3)]
    draws = np.random.default_rng(0)
    for _ in range(7):
        draw = random_bounded_market(draws)
    return markets + [draw]


def test_numeraire_and_esmm_are_certified_on_the_fuzz_corpus():
    numeraires = measures = 0
    for market in fuzz_corpus():
        if check_na1(market).holds:
            opt = numeraire_portfolio(market)
            assert verify_numeraire(market, opt.strategy) <= 1.0 + SUPERMARTINGALE_TOL
            numeraires += 1
        if not find_classical_arbitrage(market).found:
            assert construct_esmm(market).slack <= SUPERMARTINGALE_TOL
            measures += 1
    assert numeraires == 43
    assert measures == 43


def test_esmm_classifies_the_cone_rows_in_one_lp(linprog_calls):
    rng = np.random.default_rng(3)
    # every asset loses in the last state, so no long position is an arbitrage
    returns = np.vstack([rng.uniform(-0.9, 1.5, size=(11, 4)), np.full((1, 4), -0.5)])
    # no short sales, and a zero-offset cap on the first two assets' sum,
    # which pins both at zero: an implicit equality of the cone
    no_short = preset_constraints("no_short", 4)
    pinned = ConstraintSet(4, [[1.0, 1.0, 0.0, 0.0]], [0.0])
    market = DiscreteMarket(np.full(12, 1.0 / 12), returns, no_short.intersect(pinned))
    assert not find_classical_arbitrage(market).found
    check_na1(market)
    linprog_calls.clear()
    esmm = construct_esmm(market)
    # one LP for the cone's implicit equalities; the minimizer's multipliers
    # bound the slack in the span of the cone, so no LP certifies it
    assert len(linprog_calls) == 1
    assert max_expected_gain(market, esmm.measure) - 1e-12 <= esmm.slack <= SUPERMARTINGALE_TOL


def expected_utility_batch(problems, starts, tols, diameter=10.0, sizes=None):
    """:func:`minimize_convex` on a batch of ``-E[U_k(1 + R_k x)]`` over
    ``a_k x <= b_k``, with ``U_k`` log (gamma 0) or ``x**gamma / gamma``.
    Each problem is ``(probs, returns, gamma, a, b)`` in two variables; the
    batch pads states with zero weight and rows with offset +inf.  A list
    ``sizes`` gets the number of problems of each derivatives call."""
    states = max(len(p[0]) for p in problems)
    rows = max(len(p[4]) for p in problems)
    weights, gammas = np.zeros((len(problems), states, 1)), np.zeros((len(problems), states, 1))
    returns = np.zeros((len(problems), states, 2))
    a_ub, b_ub = np.zeros((len(problems), rows, 2)), np.full((len(problems), rows), np.inf)
    h = np.full((len(problems), states), np.inf)
    for k, (probs, r, gamma, a, b) in enumerate(problems):
        weights[k, : len(probs), 0], gammas[k, : len(probs), 0] = probs, gamma
        returns[k, : len(probs)], h[k, : len(probs)] = r, 1.0
        a_ub[k, : len(b)], b_ub[k, : len(b)] = a, b

    def derivatives(x, live):
        if sizes is not None:
            sizes.append(len(x))
        r, gamma, p = returns[live], gammas[live], weights[live]
        w = 1.0 + r @ x
        first, second = w ** (gamma - 1.0), (gamma - 1.0) * w ** (gamma - 2.0)
        r_t = r.transpose(0, 2, 1)
        return -(r_t @ (p * first)), -(r_t @ (p * second * r))

    return minimize_convex(
        derivatives, a_ub, b_ub, np.array(starts), diameter, np.array(tols), domain=(-returns, h)
    )


def test_heterogeneous_batch_matches_solo_solves(caplog):
    """Problems of different state and row counts, log and power utilities
    (both signs of gamma) and tolerances, one converged at its start and one
    whose Newton system is singular, solved as one batch: each problem
    gets what it gets alone, and the singular one leaves the batch alone."""
    rng = np.random.default_rng(5)
    box = (np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 0.8))
    problems, starts, tols = [], [], []
    for states, gamma, rows, tol in [
        (3, 0.0, 4, 1e-10), (7, 0.5, 2, 1e-8), (12, -1.0, 0, 1e-12),
        (5, 0.0, 4, 1e-9), (9, -1.0, 4, 1e3), (4, 0.5, 4, 1e-10),
    ]:
        probs = rng.uniform(0.5, 1.5, states)
        returns = rng.uniform(-0.6, 0.9, size=(states, 2))
        returns[0], returns[1] = [0.5, 0.4], [-0.4, -0.5]  # every direction loses somewhere
        problems.append((probs / probs.sum(), returns, gamma, box[0][:rows], box[1][:rows]))
        starts.append(rng.uniform(-0.1, 0.1, 2))
        tols.append(tol)
    # the first asset alone moves wealth and nothing bounds the second: the
    # Hessian is singular and the problem has no rows
    problems.insert(2, (np.array([0.5, 0.5]), np.array([[0.5, 0.0], [-0.4, 0.0]]), 0.0,
                        np.zeros((0, 2)), np.zeros(0)))
    starts.insert(2, np.zeros(2))
    tols.insert(2, 1e-10)
    with caplog.at_level("DEBUG", logger="na1lab.lp"):
        batch = expected_utility_batch(problems, starts, tols)
    assert "Newton system is singular" in caplog.text
    for k, result in enumerate(batch):
        [alone] = expected_utility_batch([problems[k]], [starts[k]], [tols[k]])
        scale = 1.0 + np.max(np.abs(alone.x))
        assert np.max(np.abs(result.x - alone.x)) <= 1e-10 * scale
        assert result.iterations == alone.iterations
        assert abs(result.residual - alone.residual) <= 1e-10 * (1.0 + alone.residual)
        np.testing.assert_allclose(result.multipliers, alone.multipliers, rtol=1e-10, atol=1e-14)
        assert result.multipliers.shape == (len(problems[k][4]),)
    singular, converged = batch[2], batch[5]
    assert singular.iterations == 0 and np.array_equal(singular.x, starts[2])
    assert converged.iterations == 0
    assert all(r.iterations > 3 for k, r in enumerate(batch) if k not in (2, 5))
    assert all(r.residual <= tols[k] * (1.0 + np.linalg.norm(r.x))
               for k, r in enumerate(batch) if k != 2)


def test_starts_outside_the_rows_end_inside_them():
    """Starts that violate rows, or sit on rows with zero offset, as the
    zero strategy does on a cone: each problem leaves the batch converged
    at an iterate strictly inside every row, with the optimum that a start
    inside the rows finds."""
    rng = np.random.default_rng(6)
    box = (np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 0.8))
    cone = (np.array([[-1.0, 0.0], [-1.0, -1.0]]), np.zeros(2))  # x_1 >= 0, x_1 + x_2 >= 0
    problems, starts, inside = [], [], []
    for gamma, (a, b) in [(0.0, box), (0.5, box), (-1.0, box), (0.0, cone), (-1.0, cone)]:
        probs = rng.uniform(0.5, 1.5, 6)
        returns = rng.uniform(-0.6, 0.9, size=(6, 2))
        returns[0], returns[1] = [0.5, 0.4], [-0.4, -0.5]  # every direction loses somewhere
        problems.append((probs / probs.sum(), returns, gamma, a, b))
        # past one face of the box, still inside the utility's domain
        starts.append(np.zeros(2) if b is cone[1] else np.eye(2)[len(starts) % 2] * 0.85)
        inside.append(np.array([0.1, 0.1]) if b is cone[1] else np.zeros(2))
    outside = expected_utility_batch(problems, starts, [1e-10] * len(problems))
    reference = expected_utility_batch(problems, inside, [1e-10] * len(problems))
    for (_, _, _, a, b), got, want in zip(problems, outside, reference):
        assert np.all(a @ got.x < b)
        assert got.residual <= 1e-10 * (1.0 + np.linalg.norm(got.x))
        assert np.max(np.abs(got.x - want.x)) <= 1e-6


def wealth_row_problem(seed, gamma):
    """A utility problem over 20 states with the rows ``-R x <= 1`` (wealth
    at least zero in every state) and a random box."""
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.5, 1.5, 20)
    returns = rng.uniform(-0.6, 0.9, size=(20, 2))
    returns[0], returns[1] = [0.5, 0.4], [-0.4, -0.5]  # every direction loses somewhere
    caps = rng.uniform(0.5, 3.0, 2)
    a = np.vstack([-returns, np.eye(2), -np.eye(2)])
    return probs / probs.sum(), returns, gamma, a, np.concatenate([np.ones(20), caps, caps])


def test_a_batch_that_shortens_every_first_step_matches_solo_solves(monkeypatch):
    """Problems of one shape whose first steps of the third iteration all
    fail the KKT residual test, so the whole batch shortens them, and which
    then leave the batch at different iterations: each gets bit for bit
    what it gets alone."""
    problems = [wealth_row_problem(seed, gamma)
                for seed, gamma in [(237, 0.0), (92, 0.5), (287, 0.5), (272, 0.5)]]
    sizes, starts, step_limits = [], [], na1lab.lp._step_limits

    def iteration(value, change):  # once per Newton iteration, before its trial steps
        starts.append(len(sizes))
        return step_limits(value, change)

    monkeypatch.setattr(na1lab.lp, "_step_limits", iteration)
    batch = expected_utility_batch(problems, [np.zeros(2)] * 4, [1e-10] * 4, sizes=sizes)
    third = sizes[starts[2]:starts[3]]
    assert third[:2] == [4, 4]  # no problem took its first step
    assert len({r.iterations for r in batch}) == 4
    for problem, result in zip(problems, batch):
        [alone] = expected_utility_batch([problem], [np.zeros(2)], [1e-10])
        assert np.array_equal(result.x, alone.x)
        assert np.array_equal(result.multipliers, alone.multipliers)
        assert result.residual == alone.residual
        assert result.iterations == alone.iterations


def test_indifference_price_holds_no_optimum_of_its_per_state_utilities():
    """Each bisection step of ``indifference_price`` composes new per-state
    utilities; their optima are not held on the market, only the optimum of
    the claim-free utility is."""
    rng = np.random.default_rng(46)
    market = random_box_market(rng, 2000, 2)
    claim = Claim(rng.uniform(0.05, 0.5, 2000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        price = indifference_price(market, claim, UtilitySpec.log(), 1.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.0 < price < 1.0
    optima = [key for key in market.certificates if key[0] == "optimum"]
    assert optima and all(isinstance(key[1], UtilitySpec) for key in optima)
    assert held < 1e6  # bytes; about 11 MB when each step's optimum was held


def test_na1_radius_bound_is_the_per_call_formula_on_the_fuzz_corpus():
    """``radius_bound``, computed once as NA1 is decided, equals the radius
    that the dual bound formed from the NA1 multipliers on each call."""
    rng = np.random.default_rng(11)
    finite = 0
    for _ in range(100):
        market = random_market_any(rng, d_max=8, n_max=60)
        cert = check_na1(market)
        if cert.multipliers is None:
            assert cert.radius_bound == np.inf
            continue
        basis, normals = market.span.basis, market.allowed.normals
        farkas = (cert.multipliers @ (normals @ basis) - np.vstack([basis, -basis])) @ basis.T
        spread = np.max(np.sum(np.abs(farkas), axis=1))
        radius = cert.bound_radius / (1.0 - spread) if spread < 1.0 else np.inf
        assert cert.radius_bound == radius
        finite += np.isfinite(radius)
    assert finite > 0
