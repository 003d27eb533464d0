"""Super-hedging, shortfall hedging, and pricing tests.

Oracles:

* the cheapest super-replication cost on a one-dimensional market is
  ``min over allowed pi of max over states of payoff / wealth``, evaluated by
  staged grid refinement (the inner function is convex in pi);
* shortfall risk on the two-state fixture is minimized over a dense (v, y)
  grid using the loss definition directly;
* the log indifference price on the two-state fixture has a closed form,
  and is also bracketed by a dense scan over candidate prices with a
  brute-force inner maximization.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest

import na1lab.arbitrage
import na1lab.hedging
import na1lab.lp
from na1lab.arbitrage import check_na1
from na1lab.errors import InvalidParameterError, NumericError, PreconditionError
from na1lab.hedging import (
    DEFLATOR_BUMP,
    PRICE_TOL,
    Claim,
    PiecewiseLinearLoss,
    ValuationReport,
    indifference_price,
    real_world_price,
    shortfall_hedge,
    superhedge,
)
from na1lab.market import DiscreteMarket, preset_constraints
from na1lab.portfolio import UtilitySpec, maximize_utility, verify_deflator

from conftest import interval_market, random_bounded_market, two_factor_atom_market


def interval_superhedge_oracle(points, payoff, lo=0.0, hi=1.0):
    """Definition-based cost on a one-asset market with interval constraints.

    For each allowed position the cheapest dominating capital is the largest
    payoff-to-wealth ratio across states; minimize that over the interval by
    staged grid refinement (valid because the ratio envelope is convex).
    """
    points = np.asarray(points, dtype=float)
    payoff = np.asarray(payoff, dtype=float)

    def cost(pi_grid):
        wealth = 1.0 + np.outer(pi_grid, points)
        assert np.all(wealth > 0.0), "oracle assumes positive wealth on the interval"
        return np.max(payoff / wealth, axis=1)

    left, right = float(lo), float(hi)
    for _ in range(3):
        grid = np.linspace(left, right, 2001)
        values = cost(grid)
        k = int(np.argmin(values))
        step = grid[1] - grid[0]
        left = max(float(lo), grid[k] - step)
        right = min(float(hi), grid[k] + step)
    return float(values[k])


def two_state_fixture():
    """One asset, returns -0.5 and 1.0 with equal odds, positions in [0, 1]."""
    return interval_market([-0.5, 1.0], [0.5, 0.5], lo=0.0, hi=1.0)


def random_claim(rng, n):
    payoff = rng.uniform(0.0, 3.0, size=n)
    payoff[rng.uniform(size=n) < 0.2] = 0.0
    return Claim(payoff)


class TestClaimAndLoss:
    def test_claim_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError):
            Claim(np.array([0.5, -0.1]))

    def test_claim_rejects_non_finite_entries(self):
        with pytest.raises(InvalidParameterError):
            Claim(np.array([1.0, np.inf]))

    def test_claim_scaling(self):
        claim = Claim(np.array([1.0, 2.0])).scaled(2.5)
        assert np.allclose(claim.payoff, [2.5, 5.0])
        with pytest.raises(InvalidParameterError):
            claim.scaled(-1.0)

    def test_loss_validation(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseLinearLoss(((-1.0, 0.0),))
        with pytest.raises(InvalidParameterError):
            PiecewiseLinearLoss(((1.0, 0.5),))

    def test_hinge_loss_values(self):
        loss = PiecewiseLinearLoss()
        assert np.allclose(loss.value([-2.0, 0.0, 1.5]), [0.0, 0.0, 1.5])

    def test_two_piece_loss_values(self):
        loss = PiecewiseLinearLoss(((1.0, 0.0), (2.0, -0.2)))
        x = np.array([-1.0, 0.1, 0.2, 1.0])
        assert np.allclose(loss.value(x), [0.0, 0.1, 0.2, 1.8])


class TestSuperhedge:
    def test_two_state_value_by_hand(self):
        market = two_state_fixture()
        report = superhedge(market, Claim(np.array([0.0, 1.5])))
        assert abs(report.primal_value - 0.75) <= 1e-9
        assert abs(report.strategy[0] - 1.0) <= 1e-9
        assert abs(report.dual_value - 0.75) <= 1e-7
        assert report.gap <= 1e-7 * (1.0 + report.primal_value)
        # The only optimal deflator is (0, 1); the zero is lifted.
        assert report.dual_deflator[0] == pytest.approx(DEFLATOR_BUMP)
        assert report.dual_deflator[1] == pytest.approx(1.0, abs=1e-7)
        assert not report.attainable

    def test_lifted_deflator_is_logged(self, caplog):
        """The state multiplier that is zero is lifted to ``DEFLATOR_BUMP``,
        and the count of lifted values is logged at debug."""
        with caplog.at_level(logging.DEBUG, logger="na1lab.hedging"):
            superhedge(two_state_fixture(), Claim(np.array([0.0, 1.5])))
        assert "super-hedging: 1 deflator values lifted to DEFLATOR_BUMP" in caplog.messages

    @pytest.mark.parametrize("perturb, message", [
        (lambda r: dataclasses.replace(r, x=r.x - [0.1, 0.0]), "fails to dominate the claim"),
        (lambda r: dataclasses.replace(r, marginals_ub=2.0 * r.marginals_ub), "duality gap"),
    ])
    def test_lp_answer_is_checked_on_its_own(self, monkeypatch, perturb, message):
        """The position must dominate the claim in every state, and the
        deflator read off the multipliers must price the claim at the LP
        value: a capital lowered by 0.1, or multipliers doubled, are
        refused."""
        market = two_state_fixture()
        check_na1(market)  # held, so the super-hedging LP is the only one
        solve = na1lab.lp._solve_stacked
        monkeypatch.setattr(na1lab.lp, "_solve_stacked",
                            lambda blocks: [perturb(result) for result in solve(blocks)])
        with pytest.raises(NumericError, match=message):
            superhedge(market, Claim(np.array([0.0, 1.5])))

    def test_replicable_claim_is_attainable(self):
        market = two_state_fixture()
        payoff = 1.0 + 0.5 * market.returns[:, 0]
        report = superhedge(market, Claim(payoff))
        assert abs(report.primal_value - 1.0) <= 1e-9
        assert abs(report.strategy[0] - 0.5) <= 1e-8
        assert report.attainable
        assert np.allclose(report.dual_deflator, [4.0 / 3.0, 2.0 / 3.0], atol=1e-7)

    def test_failed_recertification_is_logged_and_not_attainable(self, monkeypatch, caplog):
        """A lifted deflator whose certified gain bound lets a wealth ratio
        exceed 1 + 1e-8 is still reported, with a warning, and makes a
        replicable claim's report not attainable."""
        payoff = 1.0 + 0.5 * two_state_fixture().returns[:, 0]
        assert superhedge(two_state_fixture(), Claim(payoff)).attainable

        def unit_bound(markets, weights):
            return [1.0] * len(markets)
            yield

        monkeypatch.setattr(na1lab.arbitrage, "_certified_gains", unit_bound)
        with caplog.at_level(logging.WARNING, logger="na1lab.hedging"):
            report = superhedge(two_state_fixture(), Claim(payoff))
        assert report.attainable is False
        assert abs(report.primal_value - 1.0) <= 1e-9
        assert "failed re-certification" in caplog.text

    def test_refusal_names_super_hedging(self):
        market = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(PreconditionError, match="^super-hedging requires no scalable arbitrage$"):
            superhedge(market, Claim(np.ones(market.n_states)))

    def test_cash_claim_costs_face_value(self):
        market = two_state_fixture()
        report = superhedge(market, Claim(np.ones(2)))
        assert abs(report.primal_value - 1.0) <= 1e-9
        assert report.attainable

    def test_zero_claim_is_free(self):
        market = two_state_fixture()
        report = superhedge(market, Claim(np.zeros(2)))
        assert report.primal_value <= 1e-12
        assert report.dual_value <= 1e-9
        assert report.attainable

    def test_matches_grid_refinement_on_interval_markets(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = rng.integers(2, 6)
            points = rng.uniform(-0.9, 1.5, size=n)
            probs = rng.dirichlet(np.ones(n))
            market = interval_market(points, probs, lo=0.0, hi=1.0)
            payoff = rng.uniform(0.0, 3.0, size=n)
            report = superhedge(market, Claim(payoff))
            oracle = interval_superhedge_oracle(points, payoff)
            assert report.primal_value <= oracle + 1e-9
            assert oracle - report.primal_value <= 1e-5

    def test_duality_and_dual_feasibility_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            market = random_bounded_market(rng)
            claim = random_claim(rng, market.n_states)
            report = superhedge(market, claim)
            primal = report.primal_value
            assert report.gap <= 1e-7 * (1.0 + primal)
            assert np.all(report.dual_deflator > 0.0)
            assert verify_deflator(market, report.dual_deflator) <= 1.0 + 1e-8
            assert report.dual_value >= primal - 1e-7 * (1.0 + primal)
            wealth = primal * (1.0 + market.returns @ report.strategy)
            assert float(np.min(wealth - claim.payoff)) >= -1e-9

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            market = random_bounded_market(rng)
            claim = random_claim(rng, market.n_states)
            base = superhedge(market, claim).primal_value
            for lam in (0.5, 2.0, 10.0):
                scaled = superhedge(market, claim.scaled(lam)).primal_value
                assert abs(scaled - lam * base) <= 1e-9

    def test_monotone_in_the_claim(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            market = random_bounded_market(rng)
            claim = random_claim(rng, market.n_states)
            bumped = Claim(claim.payoff + rng.uniform(0.0, 1.0, market.n_states))
            small = superhedge(market, claim).primal_value
            large = superhedge(market, bumped).primal_value
            assert small <= large + 1e-9

    def test_scalable_arbitrage_rejected(self):
        market = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(PreconditionError):
            superhedge(market, Claim(np.ones(market.n_states)))

    def test_state_count_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            superhedge(two_state_fixture(), Claim(np.ones(3)))


class TestShortfallHedge:
    def test_half_budget_risk_by_hand(self):
        # With half the super-replication cost and hinge loss, the best the
        # hedger can do is v = y = 0.375, leaving half the claim uncovered in
        # the up state: risk = 0.5 * (1.5 - 0.75) = 0.375.
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        v, strategy, risk = shortfall_hedge(
            market, claim, PiecewiseLinearLoss(), v0=0.375
        )
        assert abs(risk - 0.375) <= 1e-9
        assert v <= 0.375 + 1e-12
        wealth = v * (1.0 + market.returns @ strategy)
        direct = float(market.probs @ np.maximum(claim.payoff - wealth, 0.0))
        assert abs(direct - risk) <= 1e-9

    def test_matches_dense_grid(self):
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        for loss in (
            PiecewiseLinearLoss(),
            PiecewiseLinearLoss(((1.0, 0.0), (2.0, -0.2))),
        ):
            _, _, risk = shortfall_hedge(market, claim, loss, v0=0.375)
            v_grid = np.linspace(0.0, 0.375, 751)
            y_grid = np.linspace(0.0, 0.375, 751)
            vv, yy = np.meshgrid(v_grid, y_grid, indexing="ij")
            feasible = yy <= vv + 1e-15
            shortfall = claim.payoff[None, None, :] - (
                vv[..., None] + yy[..., None] * market.returns[None, None, :, 0]
            )
            grid_risk = loss.value(shortfall) @ market.probs
            grid_min = float(np.min(np.where(feasible, grid_risk, np.inf)))
            assert risk <= grid_min + 1e-9
            assert grid_min - risk <= 2e-3

    def test_full_budget_means_no_risk(self):
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        _, _, risk = shortfall_hedge(
            market, claim, PiecewiseLinearLoss(), v0=0.8
        )
        assert risk <= 1e-10

    def test_zero_claim_has_no_risk(self):
        market = two_state_fixture()
        _, _, risk = shortfall_hedge(
            market, Claim(np.zeros(2)), PiecewiseLinearLoss(), v0=0.1
        )
        assert risk <= 1e-12

    def test_risk_decreases_with_budget(self):
        rng = np.random.default_rng(45)
        market = random_bounded_market(rng)
        claim = random_claim(rng, market.n_states)
        loss = PiecewiseLinearLoss()
        risks = [
            shortfall_hedge(market, claim, loss, v0=v0)[2] for v0 in (0.1, 0.4, 1.6)
        ]
        assert risks[0] >= risks[1] - 1e-10
        assert risks[1] >= risks[2] - 1e-10

    def test_na1_and_the_lp_share_one_call(self, linprog_calls):
        """NA1 is decided behind the one gate, in the round of the shortfall
        LP: one ``linprog`` call on a fresh market, none for the repeated
        call, whose answer the market holds."""
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        loss = PiecewiseLinearLoss()
        v, strategy, risk = shortfall_hedge(market, claim, loss, v0=0.375)
        assert len(linprog_calls) == 1
        assert abs(risk - 0.375) <= 1e-9
        assert shortfall_hedge(market, claim, loss, v0=0.375) == (v, strategy, risk)
        assert len(linprog_calls) == 1

    def test_scalable_arbitrage_rejected_after_the_budget(self):
        """Without NA1 the hedge is refused in its own words, but an invalid
        capital is named first."""
        market = two_factor_atom_market(1.5, 1.0)
        claim, loss = Claim(np.ones(market.n_states)), PiecewiseLinearLoss()
        with pytest.raises(PreconditionError, match="^shortfall hedging requires no scalable arbitrage$"):
            shortfall_hedge(market, claim, loss, v0=1.0)
        with pytest.raises(InvalidParameterError, match="capital budget"):
            shortfall_hedge(market, claim, loss, v0=0.0)

    def test_invalid_budget_rejected(self):
        market = two_state_fixture()
        with pytest.raises(InvalidParameterError):
            shortfall_hedge(
                market,
                Claim(np.zeros(2)),
                PiecewiseLinearLoss(),
                v0=0.0,
            )


def test_a_repeated_call_answers_alike(linprog_calls):
    """A super-hedge report and a shortfall answer are held on their market:
    calling again on the same market returns them, read-only, without an
    LP, though the first call's LPs shared a HiGHS call with NA1's."""
    rng = np.random.default_rng(2027)
    for _ in range(200):
        market = random_bounded_market(rng)
        claim = Claim(rng.uniform(0.0, 1.0, market.n_states))
        report = superhedge(market, claim)
        calls = len(linprog_calls)
        assert superhedge(market, Claim(claim.payoff.copy())) is report
        assert not report.strategy.flags.writeable and not report.dual_deflator.flags.writeable

        market = random_bounded_market(rng)
        claim = Claim(rng.uniform(0.0, 1.0, market.n_states))
        loss = (PiecewiseLinearLoss() if rng.uniform() < 0.5
                else PiecewiseLinearLoss(((1.0, 0.0), (2.0, -0.5))))
        v0 = float(rng.uniform(0.05, 2.0))
        answer = shortfall_hedge(market, claim, loss, v0)
        again = shortfall_hedge(market, claim, PiecewiseLinearLoss(loss.pieces), v0)
        assert again[1] is answer[1] and again == answer and not answer[1].flags.writeable
        assert len(linprog_calls) == calls + 1  # the shortfall's first call only


class TestIndifferencePrice:
    def test_zero_claim_is_free(self):
        market = two_state_fixture()
        price = indifference_price(market, Claim(np.zeros(2)), UtilitySpec.log(), 1.0)
        assert abs(price) <= 1e-7

    def test_cash_claim_prices_at_face(self):
        market = two_state_fixture()
        price = indifference_price(
            market, Claim(0.3 * np.ones(2)), UtilitySpec.log(), 1.0
        )
        assert abs(price - 0.3) <= 1e-6

    def test_log_price_closed_form(self):
        # With the up-state claim, holding it removes any reason to invest, so
        # the with-claim optimum sits at the zero position and the matching
        # price solves (1 - p) (2.5 - p) = 1.125.
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        price = indifference_price(market, claim, UtilitySpec.log(), 1.0)
        closed_form = (3.5 - math.sqrt(6.75)) / 2.0
        assert abs(price - closed_form) <= 1e-6

    def test_log_price_matches_dense_scan(self):
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        price = indifference_price(market, claim, UtilitySpec.log(), 1.0)

        pi = np.linspace(0.0, 1.0, 1001)
        returns = market.returns[:, 0]

        def brute_best(p_block, payoff):
            wealth = (
                (1.0 - p_block)[:, None, None] * (1.0 + pi[None, :, None] * returns)
                + payoff
            )
            values = np.where(wealth > 0.0, np.log(np.maximum(wealth, 1e-300)), -np.inf)
            return np.max(values @ market.probs, axis=1)

        baseline = brute_best(np.zeros(1), 0.0)[0]
        p_grid = np.arange(0.0, 0.9999, 1e-4)
        best = np.concatenate(
            [
                brute_best(block, claim.payoff[None, None, :])
                for block in np.array_split(p_grid, 10)
            ]
        )
        crossing = p_grid[np.searchsorted(-best, -baseline)]
        assert abs(price - crossing) <= 5e-4

    def test_power_utility_price_matches_local_scan(self):
        market = two_state_fixture()
        claim = Claim(np.array([0.0, 1.5]))
        spec = UtilitySpec.power(0.5)
        price = indifference_price(market, claim, spec, 1.0)

        pi = np.linspace(0.0, 1.0, 4001)
        returns = market.returns[:, 0]

        def brute_best(p_values, payoff):
            wealth = (
                (1.0 - p_values)[:, None, None] * (1.0 + pi[None, :, None] * returns)
                + payoff
            )
            values = 2.0 * np.sqrt(np.maximum(wealth, 0.0))
            return np.max(values @ market.probs, axis=1)

        baseline = brute_best(np.zeros(1), 0.0)[0]
        p_local = np.linspace(price - 0.01, price + 0.01, 2001)
        best = brute_best(p_local, claim.payoff[None, None, :])
        crossing = p_local[np.searchsorted(-best, -baseline)]
        assert abs(price - crossing) <= 5e-4

    def test_claim_worth_more_than_capital_rejected(self):
        market = two_state_fixture()
        with pytest.raises(InvalidParameterError):
            indifference_price(
                market, Claim(100.0 * np.ones(2)), UtilitySpec.log(), 1.0
            )

    def test_nonpositive_capital_rejected(self):
        market = two_state_fixture()
        with pytest.raises(InvalidParameterError):
            indifference_price(market, Claim(np.zeros(2)), UtilitySpec.log(), 0.0)


def box_market_and_claim(n):
    """``n`` states of two assets with returns U(-0.5, 0.8) in the unit box,
    equally likely, and the claim ``max(R1 + R2, 0)``."""
    returns = np.random.default_rng(0).uniform(-0.5, 0.8, size=(n, 2))
    market = DiscreteMarket(np.full(n, 1.0 / n), returns,
                            preset_constraints("box", 2, lower=[1.0, 1.0], upper=[1.0, 1.0]))
    return market, Claim(np.maximum(returns.sum(axis=1), 0.0))


class TestIndifferenceUtilities:
    """The indifference price composes its utility with the capital and the
    payoff once, as arrays, and prices as per-state specs would."""

    def test_composes_the_utility_at_most_once(self, monkeypatch):
        market, claim = box_market_and_claim(200)
        calls = []
        compose = UtilitySpec.compose_affine

        def counted(self, scale, shift):
            calls.append(shift)
            return compose(self, scale, shift)

        monkeypatch.setattr(UtilitySpec, "compose_affine", counted)
        assert 0.0 < indifference_price(market, claim, UtilitySpec.log(), 1.0) < 1.0
        assert len(calls) <= 1

    @pytest.mark.parametrize("u", [UtilitySpec.log(), UtilitySpec.power(0.5)])
    def test_price_is_the_bisection_over_per_state_specs(self, u):
        market, claim = box_market_and_claim(200)
        price = indifference_price(market, claim, u, 1.0)
        fresh = DiscreteMarket(market.probs, market.returns, market.constraints)

        def best_value(capital):
            return maximize_utility(fresh, [u.compose_affine(capital, x) for x in claim.payoff]).value

        baseline = maximize_utility(fresh, u.compose_affine(1.0, 0.0)).value
        lo, hi = 0.0, 1.0 - 1e-12
        while hi - lo > PRICE_TOL:
            mid = 0.5 * (lo + hi)
            if best_value(1.0 - mid) >= baseline:
                lo = mid
            else:
                hi = mid
        assert price == 0.5 * (lo + hi)


class TestRealWorldPrice:
    def test_zero_claim(self):
        assert real_world_price(two_state_fixture(), Claim(np.zeros(2))) == 0.0

    def test_cash_claim_never_above_face(self):
        market = two_state_fixture()
        price = real_world_price(market, Claim(np.ones(2)))
        assert price <= 1.0 + 1e-9

    def test_numeraire_wealth_prices_at_one(self):
        from na1lab.portfolio import numeraire_portfolio

        market = two_state_fixture()
        rho = numeraire_portfolio(market).strategy
        payoff = 1.0 + market.returns @ rho
        price = real_world_price(market, Claim(payoff))
        assert abs(price - 1.0) <= 1e-8

    def test_never_exceeds_superhedge_value(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            market = random_bounded_market(rng)
            claim = random_claim(rng, market.n_states)
            lower = real_world_price(market, claim)
            upper = superhedge(market, claim).primal_value
            assert lower <= upper + 1e-7

    def test_scalable_arbitrage_rejected(self):
        market = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(PreconditionError):
            real_world_price(market, Claim(np.ones(market.n_states)))


class TestReportSerialization:
    def test_round_trip_fields(self):
        market = two_state_fixture()
        report = superhedge(market, Claim(np.array([0.0, 1.5])))
        payload = report.to_dict()
        assert isinstance(report, ValuationReport)
        assert payload["lp_status"] == "optimal"
        assert payload["attainable"] is False
        assert payload["primal_value"] == pytest.approx(0.75)
        assert len(payload["dual_deflator"]) == 2
