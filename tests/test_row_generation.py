"""Row generation: LPs over thousands of states solve a few dozen of their
state rows, and agree with the full-row LPs, which stay here as the oracle.

Setting ``na1lab.lp.LAZY_ROWS`` above every row count solves each LP whole,
with every state row, as before row generation; setting it to zero
generates the rows of every LP that marks them."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import na1lab.lp
from na1lab import Claim, FactorDistribution, discretize, two_dim_model
from na1lab.arbitrage import check_na1, find_classical_arbitrage, max_expected_gain
from na1lab.hedging import _hedged_states, superhedge
from na1lab.lp import OPTIMAL, _solve_stacked, solve_lp
from na1lab.market import ConstraintSet, preset_constraints
from na1lab.portfolio import numeraire_portfolio
from conftest import make_market
from test_smooth_solver import fuzz_corpus, random_box_market


def close(a, b, rel=1e-9):
    return a == b or abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def lp_answers(market, claim):
    """Verdicts and LP optima of one market, computed on a fresh copy so no
    cached certificate crosses from one setting to the other."""
    market = type(market)(market.probs, market.returns, market.constraints)
    na1 = check_na1(market)
    classical = find_classical_arbitrage(market)
    out = {
        "na1": na1.holds,
        "classical": classical.found,
        "objective": classical.objective,
        "gain": max_expected_gain(market, market.probs),
    }
    if na1.holds:
        out["radius"] = na1.bound_radius
        out["hedge"] = superhedge(market, Claim(claim)).primal_value
    return out


FACTOR_DISTS = (
    FactorDistribution.exponential(1.0), FactorDistribution.exponential(0.5, shift=-1.0)
)


def factor_market():
    return discretize(two_dim_model(0.5, 1.5, dists=FACTOR_DISTS), 80)


def test_generated_rows_agree_with_the_full_row_lps(monkeypatch):
    markets = fuzz_corpus() + [factor_market()]
    assert markets[-1].n_states >= 6400
    rng = np.random.default_rng(17)
    claims = [rng.uniform(0.0, 1.0, m.n_states) for m in markets]
    for market, claim in zip(markets, claims):
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 10**9)
        full = lp_answers(market, claim)
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 0)
        generated = lp_answers(market, claim)
        assert full.keys() == generated.keys()
        assert (full["na1"], full["classical"]) == (generated["na1"], generated["classical"])
        for key in full.keys() - {"na1", "classical"}:
            assert close(full[key], generated[key]), (market.returns.shape, key)


def hull_markets():
    """Wide markets in spans of at most three dimensions, each with the
    number of vertices of its support's convex hull."""
    rng = np.random.default_rng(23)
    t = rng.uniform(-0.8, 0.8, 400)
    line = np.array([0.2, -0.1]) + t[:, None] * np.array([1.0, 0.5])  # not through 0
    s = rng.uniform(-0.5, 0.5, (600, 2))
    plane = np.array([0.1, 0.3, -0.2]) + s @ np.array([[1.0, 0.2, 0.4], [-0.3, 0.8, 0.1]])
    distinct = rng.uniform(-0.5, 1.0, (300, 2))
    repeated = distinct[rng.integers(0, 300, 900)]
    axis = np.linspace(-0.5, 0.8, 8)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    box2 = preset_constraints("box", 2, lower=[1.0, 2.0], upper=[1.5, 1.0])
    box3 = preset_constraints("box", 3, lower=[1.0, 2.0, 0.5], upper=[1.5, 1.0, 2.0])
    return [
        (make_market(line, constraints=box2), 2),
        (make_market(line, constraints=preset_constraints("no_short", 2)), 2),
        (make_market(plane, constraints=box3), ConvexHull(s).vertices.size),
        (make_market(repeated), ConvexHull(np.unique(repeated, axis=0)).vertices.size),
        (make_market(grid, constraints=box3), 8),
        # the first asset never loses: no NA1
        (make_market(grid + [0.5, 0.0, 0.0], constraints=preset_constraints("no_short", 3)), 8),
        (make_market(grid, constraints=preset_constraints("no_short_no_borrow", 3)), 8),
        (discretize(two_dim_model(0.5, 1.5, dists=FACTOR_DISTS), 96), 4),
    ]


def test_hull_rows_agree_with_the_full_row_lps(monkeypatch, linprog_calls):
    """Wide markets in spans of at most three dimensions keep one
    admissibility row per vertex of the support's convex hull: on a line
    not through 0, a plane in a 3-D span, with repeated states, on a product
    grid, without NA1 and on the 96-node factor market, their verdicts and
    optima match those of every state's row, solved whole."""
    rng = np.random.default_rng(29)
    lazy_rows = na1lab.lp.LAZY_ROWS
    for market, vertices in hull_markets():
        assert market.n_states > na1lab.lp.LAZY_ROWS
        claim = rng.uniform(0.0, 1.0, market.n_states)
        linprog_calls.clear()
        hull = lp_answers(market, claim)
        assert market.admissible.offsets.size == vertices
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 10**9)
        full = lp_answers(market, claim)
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", lazy_rows)
        assert full.keys() == hull.keys()
        assert (full["na1"], full["classical"]) == (hull["na1"], hull["classical"])
        for key in full.keys() - {"na1", "classical"}:
            assert close(full[key], hull[key]), (market.returns.shape, key)
    # the factor market settles NA1 in one LP call
    linprog_calls.clear()
    assert check_na1(type(market)(market.probs, market.returns, market.constraints)).holds
    assert len(linprog_calls) == 1


def hedge_cases():
    """Wide markets and claims whose lifted points ``(R, payoff)`` have at
    most ``HULL_MAX_RANK`` coordinates in the return span, each with
    whether the super-hedging LP keeps every state's row."""
    rng = np.random.default_rng(37)
    distinct = rng.uniform(-0.5, 1.0, (300, 2))
    repeated = make_market(distinct[rng.integers(0, 300, 900)],
                           constraints=preset_constraints("box", 2, lower=[1.0, 1.0],
                                                          upper=[1.0, 1.0]))
    box2, box3 = random_box_market(rng, 1000, 2), random_box_market(rng, 600, 3)
    # the first asset never loses, so its return is a nonnegative payoff
    # linear in R: the lifted points lie in a plane through 0, and qhull fails
    gaining = box2.returns.copy()
    gaining[:, 0] = np.abs(gaining[:, 0]) + 0.01
    linear = type(box2)(box2.probs, gaining, box2.constraints)
    factor = factor_market()
    return [
        (factor, rng.uniform(0.0, 1.0, factor.n_states), False),
        (box2, rng.uniform(0.0, 1.0, 1000), False),
        (box3, rng.uniform(0.0, 1.0, 600), False),
        (repeated, rng.uniform(0.0, 1.0, 900), False),
        (box3, np.full(600, 0.7), False),  # a constant payoff: flat lifted points
        (linear, gaining[:, 0], True),
    ]


def test_superhedge_hull_rows_agree_with_the_full_row_lp(monkeypatch, linprog_calls):
    """The super-hedging LP of a wide market keeps one state row per vertex
    of the lifted points' convex hull, and its value, its dual reading and
    its domination of the claim in every state match the LP with every
    state's row, solved whole."""
    lazy_rows = na1lab.lp.LAZY_ROWS
    for market, payoff, every_row in hedge_cases():
        kept = _hedged_states(market, payoff)
        assert (kept.size == market.n_states) == every_row
        copy = type(market)(market.probs, market.returns, market.constraints)
        check_na1(copy)
        linprog_calls.clear()
        hull = superhedge(copy, Claim(payoff))
        if not every_row:
            # one LP with the hull's state rows and the budget rows; the
            # budget multipliers re-certify the lifted deflator
            assert kept.size <= na1lab.lp.LAZY_ROWS and len(linprog_calls) == 1
            assert linprog_calls[0]["A_ub"].shape[0] == kept.size + market.constraints.offsets.size
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 10**9)
        full = superhedge(type(market)(market.probs, market.returns, market.constraints),
                          Claim(payoff))
        monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", lazy_rows)
        assert close(hull.primal_value, full.primal_value), market.returns.shape
        assert close(hull.dual_value, full.dual_value), market.returns.shape
        wealth = hull.primal_value * (1.0 + market.returns @ hull.strategy)
        assert np.min(wealth - payoff) >= -1e-9


def test_check_na1_on_50k_states_solves_few_rows(linprog_calls):
    market = random_box_market(np.random.default_rng(50), 50_000, 3)
    cert = check_na1(market)
    assert cert.holds
    assert sum(call["A_ub"].shape[0] for call in linprog_calls) < 2000
    # the multipliers are padded to every allowed row; few are nonzero
    assert cert.multipliers.shape == (6, market.allowed.offsets.size)
    assert np.count_nonzero(cert.multipliers) < 100


def test_market_below_the_constant_solves_whole_lps(linprog_calls):
    """A 100-state market makes the LPs it made before row generation, each
    with every state row, except that the NA1 LP changed from the dual
    multiplier LP to the stacked support LPs of its six directions, the
    numeraire, which starts its search at the zero strategy, makes none,
    and the hedge makes no re-certification LP: the optima's multipliers
    bound the wealth ratios by weak duality."""
    rng = np.random.default_rng(8)
    market = random_box_market(rng, 100, 3)
    claim = Claim(rng.uniform(0.0, 1.0, 100))
    # the classical search carries two rows per state
    assert 2 * 100 <= na1lab.lp.LAZY_ROWS
    shapes = {}
    for name, run in [
        ("na1", lambda: check_na1(market)),
        ("classical", lambda: find_classical_arbitrage(market)),
        ("numeraire", lambda: numeraire_portfolio(market)),
        ("hedge", lambda: superhedge(market, claim)),
    ]:
        linprog_calls.clear()
        run()
        shapes[name] = [call["A_ub"].shape for call in linprog_calls]
    assert shapes == {
        "na1": [(6 * 106, 6 * 3)],
        "classical": [(212, 3)],
        "numeraire": [],
        "hedge": [(106, 4)],
    }


def random_lazy_block(rng, n, m, maximize):
    """A bounded LP in ``n`` variables: ``m`` lazy random rows around a
    feasible origin and a box of rows that are not lazy."""
    a_ub = np.vstack([rng.standard_normal((m, n)), np.eye(n), -np.eye(n)])
    return dict(
        cost=rng.standard_normal(n),
        a_ub=a_ub,
        b_ub=np.concatenate([rng.uniform(0.1, 1.0, m), np.full(2 * n, 10.0)]),
        maximize=maximize,
        lazy=np.arange(m + 2 * n) < m,
    )


def test_generated_block_matches_the_whole_block(monkeypatch, linprog_calls):
    rng = np.random.default_rng(6)
    blocks = [random_lazy_block(rng, int(rng.integers(2, 6)), 3000, k % 2 == 0) for k in range(6)]
    monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 100)
    generated = _solve_stacked(blocks)
    rounds = len(linprog_calls)
    assert sum(call["A_ub"].shape[0] for call in linprog_calls) < 3000
    for block, result in zip(blocks, generated):
        whole = solve_lp(**{k: v for k, v in block.items() if k != "lazy"})
        assert result.status == whole.status == OPTIMAL
        assert result.value == pytest.approx(whole.value, rel=1e-9)
        # padded multipliers: one per row, zero on rows never generated,
        # and dual feasible for the whole block
        assert result.marginals_ub.shape == (len(block["b_ub"]),)
        sign = -1.0 if block["maximize"] else 1.0
        dual = np.asarray(block["a_ub"]).T @ -result.marginals_ub
        np.testing.assert_allclose(dual, -sign * block["cost"], atol=1e-9)
    assert 1 < rounds < 20


def test_unbounded_relaxation_is_solved_whole(monkeypatch, linprog_calls):
    """A block whose other rows do not bound it starts from its seed rows;
    when that relaxation is unbounded, the next round takes every row."""
    phi = np.linspace(0.2, np.pi - 0.2, 400)
    a_ub = np.vstack([
        [[10.0, 1.0], [-10.0, 1.0], [-1.0, -0.1], [1.0, -0.1]],
        0.1 * np.column_stack([np.cos(phi), np.sin(phi)]),
    ])
    block = dict(cost=[0.0, -1.0], a_ub=a_ub, b_ub=np.ones(404), maximize=True,
                 lazy=np.ones(404, dtype=bool))
    monkeypatch.setattr(na1lab.lp, "LAZY_ROWS", 10)
    monkeypatch.setattr(na1lab.lp, "SEED_DIRECTIONS", 0)
    [result] = _solve_stacked([block])
    # the seeds (10, 1), (-10, 1) and (-1, -0.1) leave y unbounded below
    assert [call["A_ub"].shape[0] for call in linprog_calls] == [3, 404]
    assert result.status == OPTIMAL
    assert result.value == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 1000])
def test_allowed_set_past_the_box(n):
    """Allowed sets bounded in the span but reaching past the LP box
    ``BIG_BOUND``: NA1 holds with the exact radius, and the expected-gain
    LP gives the optimum past the box (closed forms: the wealth floor
    ``1 + r theta >= 0`` for one asset, the box preset otherwise)."""
    rng = np.random.default_rng(n)
    tiny = make_market([[1e-7], [-1e-7]], probs=[0.7, 0.3])
    cert = check_na1(tiny)
    assert cert.holds and cert.bound_radius == pytest.approx(1e7, rel=1e-9)
    assert max_expected_gain(tiny, tiny.probs) == pytest.approx(0.4, rel=1e-9)
    lower, upper = np.array([2e6, 3e6]), np.array([2.5e6, 2e6])
    market = make_market(
        rng.uniform(-1e-9, 1e-9, (n, 2)),
        constraints=preset_constraints("box", 2, lower=lower, upper=upper),
    )
    cert = check_na1(market)
    assert cert.holds and cert.bound_radius == pytest.approx(3e6, rel=1e-9)
    weights = rng.uniform(0.0, 1.0, n)
    gain = weights @ market.returns
    best = float(np.sum(np.maximum(gain * upper, -gain * lower)))
    assert max_expected_gain(market, weights) == pytest.approx(best, rel=1e-9)


def test_radius_when_the_box_cuts_a_support_optimum():
    """Bounded sets reaching past the box in span coordinates, where the
    support LP can reach the box in another coordinate than its own and
    still give multipliers that pass their residual check: the radius is
    the unboxed support value, solved here with ``solve_lp`` and no box."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        normals = np.vstack([rng.standard_normal((2 * d, d)), np.eye(d), -np.eye(d)])
        offsets = np.concatenate([
            rng.uniform(0.3e6, 1e6, 2 * d) * np.linalg.norm(normals[: 2 * d], axis=1),
            np.full(2 * d, 3e6),
        ])
        market = make_market(
            1e-9 * rng.standard_normal((d + 2, d)),
            constraints=ConstraintSet(d, normals, offsets),
        )
        cert = check_na1(market)
        supports = [
            solve_lp(direction, a_ub=market.allowed.normals, b_ub=market.allowed.offsets,
                     maximize=True).value
            for direction in np.vstack([np.eye(d), -np.eye(d)])
        ]
        assert cert.holds and cert.bound_radius == pytest.approx(max(supports), rel=1e-9)
