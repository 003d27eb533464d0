import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

import na1lab.arbitrage
from conftest import (
    interval_market,
    make_market,
    random_bounded_market,
    random_market_any,
    sample_feasible,
    two_factor_atom_market,
)
from na1lab.arbitrage import (
    CERTIFICATE_SCALE,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
    max_expected_gain,
    relative_arbitrage,
)
from na1lab.errors import InvalidParameterError, NumericError, PreconditionError
from na1lab.io import parse_market
from na1lab.lp import BIG_BOUND, UNBOUNDED, solve_lp
from na1lab.market import DiscreteMarket, generated_cone, preset_constraints, wealth


#: small_markets slot 147 of the benchmark generator at seed 0 (22 states, 6
#: assets, no short sales): its classical search ends on a face of zero gains
#: in several states, which the LP reports with noise of either sign.
SLOT_147 = {
    "probs": [
        0.04296942459818409, 0.024278392806797826, 0.058108040031604725,
        0.03140245347206753, 0.05107434410452931, 0.05430840395668969,
        0.04956174442238433, 0.05258918635283975, 0.0368716196117913,
        0.05276298519994944, 0.033075538739980904, 0.060071806410780776,
        0.053600327274447225, 0.038722964139848534, 0.06508068723087751,
        0.035626388625741884, 0.05918240482490198, 0.027668029985477103,
        0.06480369610440244, 0.027650443046177118, 0.03618649928788689,
        0.04440461977263951,
    ],
    "returns": [
        [1.4075366212220195, -0.5303521336832092, 0.42593404614035857,
         1.333376774234023, 1.0658914290294104, 0.03427375509006003],
        [-0.024309599296060358, 0.04787731264299799, 1.4337506329623948,
         -0.6034170009468537, -0.02988839823761813, -0.46481421362318215],
        [-0.7171777235819452, -0.47381045761553015, 1.2896292404552545,
         -0.31561321920119045, -0.8005410429849176, 0.24588742976386346],
        [0.6484253765610678, 0.06660611646414061, 0.3168612250012085,
         1.1974195484180514, 0.15362640275441797, 0.08503534631910348],
        [1.1335516193595243, -0.5565141841307186, -0.8631938253792486,
         0.9591320080209255, 0.9123209844899486, -0.16385914948700342],
        [1.4919981039208943, -0.5511991824697879, -0.7308561127286803,
         -0.2588860485548655, 0.8049733379358336, 0.11504454665235031],
        [0.7035664480034219, 1.2223681650283056, -0.5877468609243267,
         -0.598726672476067, -0.10682763715337806, -0.8530205826794329],
        [0.8978854507000177, 1.4440324351649338, -0.044754619549836394,
         0.5346722531250739, 0.7955335783764707, 0.6655169736295378],
        [-0.8460394639778172, 0.5881314874285285, 0.010362619539030837,
         -0.7675512456072543, -0.05464907997489343, 1.3889140230961892],
        [-0.7827264704097023, 1.1613284145533505, 0.615091343573508,
         1.3665418629278334, 1.1016358583897645, -0.8141133021462128],
        [0.5989310633237729, 1.1181228982571536, -0.8325364529961486,
         1.053973266926198, 1.4928860516248483, 0.39775548664612226],
        [0.918375279876077, -0.43723149117618526, 0.809440802927848,
         -0.1866580380821855, 1.3153272898550634, 0.5525439592314915],
        [-0.3876144271783346, -0.6363648339160366, -0.241012440472001,
         0.6227101276945389, 1.3349551577786243, -0.45645825046116034],
        [-0.40085741608945524, 0.6293669648457366, -0.8696253143689815,
         0.5513377223549406, 0.25650434812067047, 1.3434811598840612],
        [-0.015150933526092647, 0.9591229726154177, 0.7379199072069099,
         0.6140837284168305, -0.3452124882140478, 0.7339622428818063],
        [-0.1282093525518344, 0.4525815906145262, -0.8536425606300188,
         -0.5668805814106609, -0.3989261447370539, 1.4508881385786756],
        [-0.07018861550963651, 0.8648043271331719, 0.3760477470839937,
         0.744582795697167, 1.4115806028797286, 1.3511046855534046],
        [-0.8597676993100872, 0.7217364045113209, -0.5163695380019202,
         0.8741945233175273, -0.2909570086120242, 0.7535943855420891],
        [0.07069055645740308, -0.030931377022439976, 0.023083220921456316,
         -0.8419190079336608, 0.4857066105266946, 0.5398491525555459],
        [1.1765171406081785, 0.9938389732517391, 1.0855975804354183,
         -0.05025373723151538, -0.7181593226374791, -0.29076713100108886],
        [0.5593512259895025, -0.4803816359774738, 0.8786390410647748,
         0.7062331809957546, 1.1163428073900525, 1.16552151091531],
        [1.353936311947189, 1.3860532018815999, 1.3053366799828034,
         -0.5187537782364904, -0.6247987222708062, 1.0484308086774465],
    ],
    "constraints": {"halfspaces": [{"a": list(-row), "b": 0.0} for row in np.eye(6)]},
}


def esmm_oracle_one_asset(market):
    """Independent route for single-asset markets with allowed cone [0, inf):
    locate the exponential-moment minimizer by bisection on its derivative,
    then normalize the reweighted state masses."""
    r = market.returns[:, 0]
    p = market.probs
    w = p * np.exp(-(r**2))
    w = w / w.sum()

    def deriv(x):
        return float(np.sum(w * np.exp(-1.0 - x * r) * (-r)))

    if deriv(0.0) >= 0:
        star = 0.0
    else:
        lo, hi = 0.0, 1.0
        while deriv(hi) < 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        star = 0.5 * (lo + hi)
    q = p * np.exp(-(1.0 + star * r) - r**2)
    return star, q / q.sum()


class TestFindClassicalArbitrage:
    def test_leveraged_factor_market_has_line_arbitrage(self):
        m = two_factor_atom_market(gamma=1.5, c=1.0)
        cert = find_classical_arbitrage(m)
        assert cert.found
        pi = cert.strategy
        assert abs(pi[1] + 1.5 * pi[0]) <= 1e-6 * max(1.0, abs(pi[0]))
        assert np.all(cert.gains >= -1e-12) and cert.gains.max() > 1e-9

    def test_borrow_cap_pins_the_arbitrage(self):
        m = two_factor_atom_market(gamma=0.5, c=2.5)
        cert = find_classical_arbitrage(m)
        assert cert.found
        assert np.allclose(cert.strategy, [5.0, -2.5], atol=1e-6)

    def test_single_zero_return_state(self):
        m = make_market([[0.0]])
        cert = find_classical_arbitrage(m)
        assert not cert.found and cert.objective == 0.0

    def test_straddling_single_asset_has_none(self):
        m = interval_market([-0.5, 1.0])
        assert not find_classical_arbitrage(m).found

    def test_uniformly_positive_asset_is_arbitrage(self):
        m = make_market([[0.1], [0.3]], constraints=preset_constraints("no_short", 1))
        cert = find_classical_arbitrage(m)
        assert cert.found and np.all(cert.gains > 0)

    def test_tamed_certificate_is_logged(self, caplog):
        """A long position that never loses runs the search to its box; the
        certificate is scaled down to ``CERTIFICATE_SCALE``, by a factor
        logged at debug."""
        m = make_market([[0.1], [0.3]], constraints=preset_constraints("no_short", 1))
        with caplog.at_level(logging.DEBUG, logger="na1lab.arbitrage"):
            cert = find_classical_arbitrage(m)
        assert cert.strategy == pytest.approx([CERTIFICATE_SCALE])
        assert "arbitrage certificate tamed by a factor 1.000e-04" in caplog.messages

    def test_certificate_soundness_sweep(self):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(120):
            m = random_market_any(rng)
            cert = find_classical_arbitrage(m)
            if cert.found:
                found += 1
                theta = m.allowed
                assert theta.contains(cert.strategy, tol=1e-9)
                gains = m.returns @ cert.strategy
                assert np.all(gains >= -1e-12)
                assert gains.max() > 1e-9
                assert np.linalg.norm(m.span.project(cert.strategy)) > 0
            else:
                assert cert.objective <= 1e-9
        assert found > 0  # the sweep must exercise both verdicts

    @pytest.mark.parametrize("strategy, message", [
        (3.0, "violates the constraint polyhedron"),
        (0.5, "has a negative state gain"),
        (0.0, "has no strictly positive gain"),
        pytest.param((1.0, 1.0 - 4e-12), None, id="zero-gain-read-as-minus-2e-12"),
    ])
    def test_search_answer_is_reverified(self, monkeypatch, strategy, message):
        """The search LP's strategy is put on its zero-gain face and checked
        in numpy before it becomes a certificate: one outside the allowed
        set, one losing 0.25 in a state (far outside the face's band) and one
        gaining nowhere are refused; one whose zero gain reads -2e-12 is
        moved onto its face and accepted.  A number ``t`` is the strategy
        ``(t, 0)``, which gains ``0.5 t`` and ``-0.5 t``."""
        box = preset_constraints("box", dim=2, lower=[1.0, 1.0], upper=[1.0, 1.0])
        market = make_market([[0.5, 0.5], [-0.5, 0.5]], constraints=box)
        theta = np.array((strategy, 0.0) if np.ndim(strategy) == 0 else strategy)
        solve_stacked, rounds = na1lab.lp._solve_stacked, []

        def answered(blocks):  # the search is the first block of the first round
            results = solve_stacked(blocks)
            if not rounds:
                results[0] = replace(results[0], x=market.span.basis.T @ theta)
            rounds.append(blocks)
            return results

        monkeypatch.setattr(na1lab.lp, "_solve_stacked", answered)
        if message is not None:
            with pytest.raises(NumericError, match=message):
                find_classical_arbitrage(market)
            return
        np.testing.assert_allclose(market.returns @ theta, [1.0 - 2e-12, -2e-12], rtol=1e-3)
        cert = find_classical_arbitrage(market)
        assert cert.found
        np.testing.assert_allclose(cert.gains, [1.0, 0.0], atol=1e-11)
        assert cert.gains.min() >= -1e-12

    def test_certificate_lies_on_its_zero_gain_face(self):
        """The LP's optimum of this market has zero gains in five states,
        which HiGHS without presolve reports as low as -2.6e-12; on its face
        the certificate verifies with every gain at least -1e-12."""
        market, _ = parse_market(SLOT_147)
        cert = find_classical_arbitrage(market)
        assert cert.found
        gains = market.returns @ cert.strategy
        assert np.count_nonzero(np.abs(gains) <= 1e-9) >= 2
        assert gains.min() >= -1e-12
        assert market.allowed.contains(cert.strategy, tol=1e-9)


class TestRelativeArbitrage:
    def test_zero_reference_reduces_to_classical(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = random_market_any(rng)
            classical = find_classical_arbitrage(m)
            relative = relative_arbitrage(m, np.zeros(m.n_assets))
            assert classical.verdict == relative.verdict
            assert abs(classical.objective - relative.objective) <= 1e-7 * (
                1.0 + abs(classical.objective)
            )

    def test_reference_outside_allowed_set_rejected(self):
        m = interval_market([-0.5, 1.0], lo=0.0, hi=1.0)
        with pytest.raises(InvalidParameterError):
            relative_arbitrage(m, [2.0])

    def test_dominating_strategy_dominates_statewise(self):
        m = two_factor_atom_market(gamma=0.5, c=1.0)
        ref = np.array([0.25, 0.25])
        cert = relative_arbitrage(m, ref)
        assert cert.found
        assert np.all(wealth(m, cert.strategy) >= wealth(m, ref) - 1e-12)
        assert np.allclose(cert.gains, wealth(m, cert.strategy) - wealth(m, ref), atol=1e-12)

    def test_search_matches_an_lp_with_both_row_sets(self, monkeypatch):
        """The search's one row per state, at ``min(offset, 0)``, cuts out the
        set that a wealth row and a gain row per state cut out: its optimum
        matches an independent ``linprog`` carrying both row sets, also for
        references with zero wealth in some state, or a little below zero."""
        optima = []
        original = na1lab.arbitrage._gain_search

        def recorded(*args):
            value, strategy = yield from original(*args)
            optima.append(value)
            return value, strategy

        monkeypatch.setattr(na1lab.arbitrage, "_gain_search", recorded)
        rng = np.random.default_rng(28)
        on_the_floor = below = 0
        for _ in range(40):
            m = random_market_any(rng)
            assert m.span.basis.shape[1] == m.n_assets  # asset and span boxes agree
            theta = m.allowed
            direction = rng.standard_normal(m.n_assets)
            along = theta.normals @ direction
            references = [np.zeros(m.n_assets), sample_feasible(rng, theta.normals, theta.offsets, m.n_assets)]
            if np.any(along > 0):  # the allowed set's boundary along the direction, and 1e-10 past it
                ratios = np.where(along > 0, theta.offsets / np.where(along > 0, along, 1.0), np.inf)
                k = np.argmin(ratios)
                references += [direction * ratios[k], direction * (ratios[k] + 1e-10 / np.max(along))]
            for reference in references:
                on_the_floor += bool(np.min(wealth(m, reference)) <= 1e-12)
                below += bool(np.min(wealth(m, reference)) < 0.0)
                cert = relative_arbitrage(m, reference)
                shifted = theta.offsets - theta.normals @ reference
                oracle = linprog(
                    -(m.probs @ m.returns),
                    A_ub=np.vstack([theta.normals, -m.returns]),
                    b_ub=np.concatenate([shifted, np.zeros(m.n_states)]),
                    bounds=[(-BIG_BOUND, BIG_BOUND)] * m.n_assets, method="highs",
                )
                assert oracle.status == 0
                assert abs(optima[-1] + oracle.fun) <= 1e-9 * max(1.0, abs(oracle.fun))
                assert cert.found == (-oracle.fun > cert.threshold)
        assert on_the_floor >= 10 and below >= 5

    def test_max_line_strategy_cannot_be_improved(self):
        m = two_factor_atom_market(gamma=0.5, c=1.0)
        top = np.array([2.0, -1.0])  # exhausts the borrowing cap on the gain line
        assert not relative_arbitrage(m, top).found
        assert relative_arbitrage(m, np.zeros(2)).found


class TestCheckNa1:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
    def test_moderate_loading_holds(self, gamma):
        cert = check_na1(two_factor_atom_market(gamma, c=1.0))
        assert cert.holds and cert.witness_ray is None
        assert cert.bound_radius is not None and np.isfinite(cert.bound_radius)

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_heavy_loading_fails(self, gamma):
        cert = check_na1(two_factor_atom_market(gamma, c=1.0))
        assert not cert.holds
        ray = cert.witness_ray
        assert ray is not None and abs(ray[1] + gamma * ray[0]) <= 1e-7
        gains = two_factor_atom_market(gamma, c=1.0).returns @ ray
        assert np.all(gains >= -1e-12) and gains.max() > 0

    def test_set_past_the_box_is_logged_and_solved_whole(self, caplog):
        """Wealth bounds the position at 1e8 and the box at 3e6, past the
        LPs' box of ``BIG_BOUND``: no ray gains, so the support LPs are
        solved again without it."""
        box = preset_constraints("box", 1, lower=[3e6], upper=[3e6])
        with caplog.at_level(logging.DEBUG, logger="na1lab.arbitrage"):
            cert = check_na1(DiscreteMarket([0.5, 0.5], [[1e-8], [-1e-8]], box))
        assert cert.holds and cert.bound_radius == pytest.approx(3e6, rel=1e-9)
        [record] = [r for r in caplog.records if r.name == "na1lab.arbitrage"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == "no gaining ray; solving 2 allowed-set LPs again without the box"

    def test_box_market_radius(self):
        m = make_market(
            [[0.3, -0.2], [-0.5, 0.8], [0.9, 0.1]],
            constraints=preset_constraints("box", 2, lower=[1.0, 1.0], upper=[1.0, 1.0]),
        )
        cert = check_na1(m)
        assert cert.holds
        assert 0.0 < cert.bound_radius <= 1.0 + 1e-9

    def test_single_riskless_state(self):
        m = make_market([[0.0, 0.0]])
        cert = check_na1(m)
        assert cert.holds and cert.bound_radius == 0.0

    def test_agreement_with_direct_boundedness(self):
        # the verdict must coincide with unboundedness of the allowed set
        # inside the return span, probed by coordinate LPs with free variables
        rng = np.random.default_rng(17)
        both = set()
        for _ in range(150):
            m = random_market_any(rng)
            cert = check_na1(m)
            basis = m.span.basis
            a = m.allowed.normals @ basis
            unbounded = False
            radius = 0.0
            for i in range(m.n_assets):
                for sign in (1.0, -1.0):
                    res = solve_lp(sign * basis[i], a_ub=a, b_ub=m.allowed.offsets, maximize=True)
                    if res.status == UNBOUNDED:
                        unbounded = True
                    else:
                        radius = max(radius, res.value)
            assert cert.holds == (not unbounded)
            if cert.holds:
                assert abs(cert.bound_radius - radius) <= 1e-9 * (1.0 + radius)
            both.add(cert.holds)
        assert both == {True, False}

    def test_multipliers_certify_boundedness(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(60):
            m = random_market_any(rng)
            cert = check_na1(m)
            if not cert.holds:
                continue
            basis = m.span.basis
            lam = cert.multipliers
            directions = np.vstack([basis, -basis])
            assert lam.shape == (2 * m.n_assets, m.allowed.offsets.size)
            assert np.all(lam >= 0.0)
            assert np.max(np.abs(lam @ (m.allowed.normals @ basis) - directions)) <= 1e-7
            assert cert.bound_radius == pytest.approx(np.max(lam @ m.allowed.offsets))
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("failing_rounds", [1, 3])
    def test_failed_multipliers_take_the_ray_then_the_whole_lps(
        self, monkeypatch, failing_rounds
    ):
        """Support-LP multipliers that fail their numpy re-check do not end
        the decision: the recession-ray LP runs, and without a gaining ray
        the support LPs are solved again whole.  Their multipliers certify
        NA1; when they fail too, the tolerance-boundary error is raised."""
        solve = na1lab.lp._solve_stacked
        sizes = []

        def zero_multipliers(blocks):
            results = solve(blocks)
            sizes.append(len(blocks))
            if len(sizes) > failing_rounds:
                return results
            return [replace(r, marginals_ub=0.0 * r.marginals_ub) for r in results]

        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_bounded_market(rng)
            expected = check_na1(make_market(m.returns, m.probs, m.constraints))
            sizes.clear()
            monkeypatch.setattr(na1lab.lp, "_solve_stacked", zero_multipliers)
            if failing_rounds == 1:
                cert = check_na1(m)
                assert cert.holds
                assert cert.bound_radius == pytest.approx(expected.bound_radius, rel=1e-9)
            else:
                with pytest.raises(NumericError, match="tolerance boundary"):
                    check_na1(m)
            monkeypatch.undo()
            assert sizes == [2 * m.n_assets, 1, 2 * m.n_assets]

    def test_lp_count_and_cache(self, linprog_calls):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_market_any(rng)
            linprog_calls.clear()
            cert = check_na1(m)
            assert len(linprog_calls) <= 2
            linprog_calls.clear()
            assert check_na1(m) is cert
            assert not linprog_calls
            loose = check_na1(m, tol=1e-6)
            assert loose is not cert and loose.threshold == 1e-6
            assert loose.holds == cert.holds
            assert 1 <= len(linprog_calls) <= 2
            linprog_calls.clear()
            assert check_na1(m, tol=1e-6) is loose
            classical = find_classical_arbitrage(m)
            assert len(linprog_calls) == 1
            assert find_classical_arbitrage(m) is classical
            assert len(linprog_calls) == 1

    def test_wide_market_generates_its_state_rows(self, linprog_calls):
        """With thousands of states in a 5-D span, past the hull's largest
        dimension, the support LPs of all ten directions are stacked and
        gain their state rows round by round; without NA1 the recession-ray
        LP follows and finds the witness."""
        rng = np.random.default_rng(12)
        returns = rng.uniform(-0.5, 1.0, size=(5000, 5))
        probs = np.full(5000, 1.0 / 5000)
        box = preset_constraints("box", 5, lower=np.ones(5), upper=np.ones(5))
        market = make_market(returns, probs, box)
        cert = check_na1(market)
        # a span of five dimensions keeps one admissibility row per state
        assert market.admissible.offsets.size == 5000
        assert cert.holds and cert.multipliers.shape == (10, 5010)
        # the first round stacks the ten directions, five columns each
        assert linprog_calls[0]["A_ub"].shape[1] == 10 * 5
        assert 1 < len(linprog_calls) <= 10
        # a whole LP would carry 10 * 5,010 rows
        assert sum(call["A_ub"].shape[0] for call in linprog_calls) < 8000
        # the first asset never loses and may be bought without limit
        returns = np.column_stack([np.abs(returns[:, 0]), returns[:, 1:]])
        linprog_calls.clear()
        cert = check_na1(make_market(returns, probs, preset_constraints("no_short", 5)))
        assert not cert.holds and cert.witness_ray[0] > 0
        assert len(linprog_calls) <= 10
        assert sum(call["A_ub"].shape[0] for call in linprog_calls) < 2500

    def test_wide_planar_market_keeps_its_hull_rows(self, linprog_calls):
        """With thousands of states in a 2-D span only the vertices of the
        support's convex hull keep an admissibility row, so the support LPs
        of all four directions are one LP call with every row; without NA1
        the recession-ray LP is the second."""
        rng = np.random.default_rng(12)
        returns = rng.uniform(-0.5, 1.0, size=(5000, 2))
        probs = np.full(5000, 1.0 / 5000)
        box = preset_constraints("box", 2, lower=[1.0, 1.0], upper=[1.0, 1.0])
        market = make_market(returns, probs, box)
        cert = check_na1(market)
        vertices = np.sort(ConvexHull(returns).vertices)
        np.testing.assert_array_equal(market.admissible.normals, -returns[vertices])
        assert vertices.size == 24
        assert cert.holds and cert.multipliers.shape == (4, 24 + 4)
        assert [call["A_ub"].shape for call in linprog_calls] == [(4 * 28, 4 * 2)]
        returns = np.column_stack([np.abs(returns[:, 0]), returns[:, 1]])
        linprog_calls.clear()
        cert = check_na1(make_market(returns, probs, preset_constraints("no_short", 2)))
        assert not cert.holds and cert.witness_ray[0] > 0
        assert len(linprog_calls) == 2

    def test_conic_constraints_collapse_to_classical(self):
        rng = np.random.default_rng(29)
        both = set()
        for _ in range(150):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(d + 1, 7))
            returns = rng.uniform(-0.9, 1.5, size=(n, d))
            probs = np.full(n, 1.0 / n)
            m = make_market(returns, probs, preset_constraints("no_short", d))
            na1 = check_na1(m)
            classical = find_classical_arbitrage(m)
            assert na1.holds == (not classical.found)
            both.add(na1.holds)
        assert both == {True, False}


class TestMaxExpectedGain:
    @pytest.mark.parametrize("draw", [172, 330])
    def test_unbounded_gain_is_infinite(self, draw):
        """Draws without NA1 on which HiGHS reported the unbounded LP as
        infeasible."""
        rng = np.random.default_rng(0)
        for _ in range(draw + 1):
            m = random_market_any(rng, d_max=6, n_max=40)
        assert not check_na1(m).holds
        assert max_expected_gain(m, m.probs) == np.inf

    def test_infinite_only_along_a_gaining_ray(self):
        # one asset that never loses and no constraint: the allowed set is
        # [-1, inf), unbounded, but the gain is bounded for some weights
        m = make_market([[0.5], [1.0]])
        assert not check_na1(m).holds
        assert max_expected_gain(m, [1.0, 1.0]) == np.inf
        assert max_expected_gain(m, [1.0, -1.0]) == pytest.approx(0.5, rel=1e-12)
        # a gain that is flat along the ray is bounded: zero everywhere
        assert max_expected_gain(m, [1.0, -0.5]) == pytest.approx(0.0, abs=1e-12)


class TestEsmm:
    def test_boundary_minimizer_oracle(self):
        m = interval_market([-0.5, 1.0], lo=0.0, hi=1.0)
        star, q_expected = esmm_oracle_one_asset(m)
        assert star == 0.0
        esmm = construct_esmm(m)
        assert np.allclose(esmm.strategy, [star], atol=1e-6)
        assert np.allclose(esmm.measure, q_expected, atol=1e-6)
        assert float(esmm.measure @ m.returns[:, 0]) <= 1e-8

    def test_interior_minimizer_oracle(self):
        m = interval_market([-0.3, 0.8], lo=0.0, hi=1.0)
        star, q_expected = esmm_oracle_one_asset(m)
        assert star > 0.0
        esmm = construct_esmm(m)
        assert np.allclose(esmm.strategy, [star], atol=1e-6)
        assert np.allclose(esmm.measure, q_expected, atol=1e-6)

    def test_single_riskless_state_keeps_p(self):
        m = make_market([[0.0]])
        esmm = construct_esmm(m)
        assert np.allclose(esmm.measure, [1.0])
        assert np.allclose(esmm.density, [1.0])

    def test_classical_arbitrage_rejected(self):
        m = two_factor_atom_market(gamma=0.5, c=1.0)
        with pytest.raises(PreconditionError):
            construct_esmm(m)

    def test_floored_state_weights_are_logged(self, caplog):
        """The state with return 30 weighs ``exp(-900)`` at the optimum
        ``u = 0``, which underflows; it is lifted to ``1e-300``, and the
        count of lifted weights is logged at debug."""
        m = make_market([[-0.5], [30.0]], constraints=preset_constraints("no_short", 1))
        with caplog.at_level(logging.DEBUG, logger="na1lab.arbitrage"):
            esmm = construct_esmm(m)
        assert esmm.measure[1] == pytest.approx(1e-300)
        assert "esmm: 1 state weights lifted to the 1e-300 floor" in caplog.messages

    def test_shifted_normalization_matches_logsumexp(self):
        """The max-shifted normalization of the ESMM's state weights agrees
        with scipy's ``logsumexp`` route on log weights up to +-700, where
        the plain exponential overflows or underflows."""
        from scipy.special import logsumexp

        rng = np.random.default_rng(17)
        for size in (1, 2, 7, 40, 400):
            for spread in (1.0, 50.0, 700.0):
                v = rng.uniform(-spread, spread, size)
                expected = np.exp(v - logsumexp(v))
                got = na1lab.arbitrage._normalized(v)
                assert abs(got.sum() - 1.0) <= 1e-12
                big = expected > 1e-300
                np.testing.assert_allclose(got[big], expected[big], rtol=1e-12, atol=0.0)
                assert np.all(got[~big] <= 1e-300)
        np.testing.assert_allclose(
            na1lab.arbitrage._normalized(np.array([700.0, 700.0, -700.0])),
            np.exp(np.array([700.0, 700.0, -700.0]) - logsumexp([700.0, 700.0, -700.0])),
            rtol=1e-12,
        )

    def test_failed_slack_is_refused(self, monkeypatch):
        """A measure whose certified expected-gain slack exceeds the
        tolerance is refused; the search converged, so only the slack is
        named."""
        def gains(markets, weights):
            yield from ()
            return [1.0] * len(markets)

        monkeypatch.setattr(na1lab.arbitrage, "_certified_gains", gains)
        with pytest.raises(NumericError, match=r"expected-gain slack 1\.000e\+00$"):
            construct_esmm(interval_market([-0.5, 0.2, 0.8]))

    def test_stalled_search_is_named(self):
        """Draws 5 and 19 of this corpus, with probabilities skewed over six
        decades, stall the exponential-moment search; the slack failure names
        the stalled search and its residual."""
        rng = np.random.default_rng(5)
        draws = [random_market_any(rng, d_max=4, n_max=12) for _ in range(20)]
        for m, slack in ((draws[5], "1.059e+00"), (draws[19], "9.110e-01")):
            probs = m.probs * np.logspace(0, -6, m.n_states)
            skewed = DiscreteMarket(probs / probs.sum(), m.returns, m.constraints)
            with pytest.raises(NumericError) as caught:
                construct_esmm(skewed)
            assert str(caught.value).startswith(f"supermartingale verification failed: "
                                                f"expected-gain slack {slack}; the "
                                                f"exponential-moment search stalled at residual ")

    def test_random_markets_certified(self):
        rng = np.random.default_rng(63)
        checked = 0
        for _ in range(60):
            m = random_bounded_market(rng)
            if find_classical_arbitrage(m).found:
                continue
            esmm = construct_esmm(m)
            checked += 1
            assert np.all(esmm.measure > 0)
            assert abs(esmm.measure.sum() - 1.0) <= 1e-12
            assert esmm.slack <= 1e-8
            # independent re-verification of the supermartingale property
            assert max_expected_gain(m, esmm.measure) <= 1e-8
        assert checked >= 20

    def test_generated_cone_absorbs_scaled_allowed_points(self):
        rng = np.random.default_rng(101)
        total = 0
        for _ in range(10):
            m = random_market_any(rng)
            cone = generated_cone(m.allowed)
            theta = m.allowed
            for _ in range(100):
                pi = sample_feasible(rng, theta.normals, theta.offsets, m.n_assets)
                lam = float(rng.uniform(0.0, 10.0))
                assert cone.contains(lam * pi, tol=1e-9)
                total += 1
        assert total == 1000
