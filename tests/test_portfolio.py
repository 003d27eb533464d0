import dataclasses

import numpy as np
import pytest

import na1lab.lp
import na1lab.portfolio
from conftest import (
    gauss_hermite_lognormal_market,
    interval_market,
    make_market,
    random_bounded_market,
    sample_feasible,
    two_factor_atom_market,
)
from na1lab.arbitrage import check_na1, max_expected_gain
from na1lab.errors import InvalidParameterError, NumericError, PreconditionError
from na1lab.lp import run
from na1lab.market import ConstraintSet
from na1lab.portfolio import (
    Deflator,
    UtilitySpec,
    _maximize_all,
    deflator_from_numeraire,
    expected_utility,
    expected_utility_gradient,
    maximize_utility,
    numeraire_portfolio,
    relative_log_optimality_gap,
    verify_deflator,
    verify_numeraire,
)


def one_asset_log_optimum(market, lo, hi):
    """Bisection on the derivative of pi -> E[log(1 + pi R)], which is
    strictly decreasing; independent of the package optimizer."""
    r = market.returns[:, 0]
    p = market.probs

    def deriv(pi):
        return float(np.sum(p * r / (1.0 + pi * r)))

    if deriv(lo) <= 0:
        return lo
    if deriv(hi) >= 0:
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if deriv(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def two_point_power_optimum(ra, rb, pa, gamma, lo, hi):
    """Closed-form interior maximizer of p a-state power utility with two
    return states, clamped to [lo, hi].  First-order condition:
    pa*ra*(1+pi*ra)^(g-1) = -(1-pa)*rb*(1+pi*rb)^(g-1)."""
    k = (-(1.0 - pa) * rb / (pa * ra)) ** (1.0 / (gamma - 1.0))
    pi = (k - 1.0) / (ra - k * rb)
    return min(max(pi, lo), hi)


class TestUtilitySpec:
    def test_power_rejects_bad_gamma(self):
        with pytest.raises(InvalidParameterError):
            UtilitySpec.power(1.0)
        with pytest.raises(InvalidParameterError):
            UtilitySpec.power(0.0)
        UtilitySpec.power(-2.0)

    def test_piecewise_rejects_nonconcave_and_flat(self):
        with pytest.raises(InvalidParameterError):
            UtilitySpec.piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.5, 1.5])
        with pytest.raises(InvalidParameterError):
            UtilitySpec.piecewise_linear([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidParameterError):
            UtilitySpec.piecewise_linear([0.0, 0.0], [0.0, 1.0])

    def test_log_value_and_derivative(self):
        u = UtilitySpec.log()
        x = np.array([0.5, 1.0, 2.0])
        assert np.allclose(u.value(x), np.log(x))
        assert np.allclose(u.derivative(x), 1.0 / x)
        assert u.value(np.array([-1.0]))[0] == -np.inf

    def test_compose_affine_shifts_argument(self):
        u = UtilitySpec.log().compose_affine(2.0, 0.5)
        x = np.array([0.25, 1.0, 3.0])
        assert np.allclose(u.value(x), np.log(2.0 * x + 0.5))
        assert np.allclose(u.derivative(x), 2.0 / (2.0 * x + 0.5))
        again = u.compose_affine(3.0, 1.0)
        assert np.allclose(again.value(x), np.log(2.0 * (3.0 * x + 1.0) + 0.5))

    def test_compose_affine_requires_positive_scale(self):
        with pytest.raises(InvalidParameterError):
            UtilitySpec.log().compose_affine(-1.0, 0.0)

    def test_piecewise_value_is_min_of_pieces(self):
        u = UtilitySpec.piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        pieces = u.pieces()
        xs = np.linspace(-1.0, 5.0, 41)
        direct = u.value(xs)
        from_pieces = np.min(pieces[:, 0][:, None] * xs[None, :] + pieces[:, 1][:, None], axis=0)
        assert np.allclose(direct, from_pieces)


class TestMaximizeUtility:
    def test_stalled_solver_is_refused(self, monkeypatch):
        """An optimum whose certified residual misses the tolerance is
        refused with that residual."""
        solve = na1lab.portfolio.minimize_convex
        monkeypatch.setattr(
            na1lab.portfolio, "minimize_convex",
            lambda *args, **kwargs: [dataclasses.replace(result, residual=1.0)
                                     for result in solve(*args, **kwargs)])
        with pytest.raises(NumericError, match=r"stalled at stationarity residual 1\.000e\+00"):
            maximize_utility(interval_market([-0.5, 0.8], probs=[0.4, 0.6]), UtilitySpec.log())

    def test_iteration_cap_is_a_stall(self, monkeypatch):
        """A solve cut by the Newton iteration cap is refused as a stall,
        carrying its best strategy and value."""
        monkeypatch.setattr(na1lab.lp, "NEWTON_ITERATIONS", 1)
        market = random_bounded_market(np.random.default_rng(11))
        with pytest.raises(NumericError, match="stalled at stationarity residual") as exc:
            maximize_utility(market, UtilitySpec.log())
        assert exc.value.best is not None and exc.value.best.shape == (market.n_assets,)
        assert exc.value.value == pytest.approx(expected_utility(market, UtilitySpec.log(), exc.value.best))

    def test_log_interior_matches_bisection(self):
        m = interval_market([-0.5, 0.8], probs=[0.4, 0.6])
        opt = maximize_utility(m, UtilitySpec.log(), tol=1e-10)
        oracle = one_asset_log_optimum(m, 0.0, 1.0)
        assert abs(opt.strategy[0] - oracle) <= 1e-8
        assert opt.gradient_norm <= 1e-10

    def test_log_binding_cap(self):
        # positive drift pushes the optimum to the right endpoint
        m = interval_market([-0.2, 0.9], probs=[0.3, 0.7], hi=0.25)
        opt = maximize_utility(m, UtilitySpec.log(), tol=1e-10)
        assert abs(opt.strategy[0] - 0.25) <= 1e-10
        assert opt.active_constraints

    def test_power_two_point_closed_form(self):
        for gamma in (0.5, -1.0, -3.0):
            m = interval_market([-0.4, 0.7], probs=[0.45, 0.55])
            opt = maximize_utility(m, UtilitySpec.power(gamma), tol=1e-10)
            oracle = two_point_power_optimum(-0.4, 0.7, 0.45, gamma, 0.0, 1.0)
            # oracle arguments: state order is sorted by conftest helper
            assert abs(opt.strategy[0] - oracle) <= 1e-7

    def test_gh_lognormal_interior_optimum_half(self):
        m = gauss_hermite_lognormal_market(64, c=1.0)
        opt = maximize_utility(m, UtilitySpec.log(), tol=1e-10)
        # symmetric quadrature makes the first-order condition vanish at 1/2
        assert abs(opt.strategy[0] - 0.5) <= 1e-6

    def test_gh_lognormal_cap_binds(self):
        m = gauss_hermite_lognormal_market(64, c=0.3)
        opt = maximize_utility(m, UtilitySpec.log(), tol=1e-10)
        assert abs(opt.strategy[0] - 0.3) <= 1e-9

    def test_zero_return_state_flat_objective(self):
        m = make_market([[0.0, 0.0]])
        opt = maximize_utility(m, UtilitySpec.log())
        assert opt.value == 0.0
        assert np.allclose(opt.strategy, 0.0)
        assert opt.gradient_norm == 0.0

    def test_flat_allowed_set(self):
        # Opposite halfspaces pin the first asset to zero, so the allowed set
        # is a segment of the plane: the one-asset problem in the second.
        returns, probs = [-0.5, 0.8], [0.4, 0.6]
        oracle = one_asset_log_optimum(interval_market(returns, probs=probs), 0.0, 1.0)
        pinned = make_market(
            [[0.2, returns[0]], [-0.1, returns[1]]],
            probs,
            ConstraintSet(
                2,
                np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]),
                np.array([0.0, 0.0, 0.0, 1.0]),
            ),
        )
        opt = maximize_utility(pinned, UtilitySpec.log(), tol=1e-10)
        assert np.allclose(opt.strategy, [0.0, oracle], atol=1e-8)
        # Rows with zero and positive offsets make theta_1 = theta_2 <= 1:
        # the one-asset market with returns R_1 + R_2 and the cap 1.
        rng = np.random.default_rng(17)
        for _ in range(5):
            returns = rng.uniform(-0.45, 0.6, size=(6, 2))
            returns[0], returns[1] = [0.3, 0.4], [-0.4, -0.3]  # the sum gains and loses
            probs = rng.uniform(0.5, 1.5, 6)
            probs /= probs.sum()
            diagonal = make_market(returns, probs, ConstraintSet(
                2, np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]), np.array([0.0, 0.0, 2.0])))
            single = make_market(returns.sum(axis=1, keepdims=True), probs,
                                 ConstraintSet(1, np.array([[1.0]]), np.array([1.0])))
            for solve in (
                lambda m: maximize_utility(m, UtilitySpec.log(), tol=1e-12),
                lambda m: maximize_utility(m, UtilitySpec.power(-1.0), tol=1e-12),
                lambda m: maximize_utility(m, UtilitySpec.power(0.5), tol=1e-12),
                numeraire_portfolio,
            ):
                got, expected = solve(diagonal), solve(single)
                assert np.max(np.abs(got.strategy - expected.strategy[0])) <= 1e-9
                assert got.value == pytest.approx(expected.value, rel=1e-9, abs=1e-12)

    def test_strategy_stays_allowed_and_in_span(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = random_bounded_market(rng)
            opt = maximize_utility(m, UtilitySpec.log(), tol=1e-8)
            assert m.allowed.contains(opt.strategy, tol=1e-9)
            off_span = opt.strategy - m.span.project(opt.strategy)
            assert np.linalg.norm(off_span, np.inf) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        checked = 0
        specs = [UtilitySpec.log(), UtilitySpec.power(0.5), UtilitySpec.power(-1.5)]
        while checked < 50:
            m = random_bounded_market(rng)
            pi = 0.3 * sample_feasible(
                rng, m.allowed.normals, m.allowed.offsets, m.n_assets
            )
            wealth_min = float(np.min(1.0 + m.returns @ pi))
            if wealth_min < 0.2:
                continue
            u = specs[checked % len(specs)]
            grad = expected_utility_gradient(m, u, pi)
            h = 1e-6
            fd = np.zeros_like(grad)
            for j in range(m.n_assets):
                e = np.zeros(m.n_assets)
                e[j] = h
                fd[j] = (expected_utility(m, u, pi + e) - expected_utility(m, u, pi - e)) / (
                    2 * h
                )
            denom = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / denom <= 1e-5
            checked += 1

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m = random_bounded_market(rng)
            a = sample_feasible(rng, m.allowed.normals, m.allowed.offsets, m.n_assets)
            b = sample_feasible(rng, m.allowed.normals, m.allowed.offsets, m.n_assets)
            a, b = 0.2 * a, 0.2 * b
            lam = rng.uniform(0.1, 0.9)
            mid = lam * a + (1 - lam) * b
            va = expected_utility(m, UtilitySpec.log(), a)
            vb = expected_utility(m, UtilitySpec.log(), b)
            vm = expected_utility(m, UtilitySpec.log(), mid)
            if not (np.isfinite(va) and np.isfinite(vb)):
                continue
            assert vm >= lam * va + (1 - lam) * vb - 1e-10

    def test_search_from_the_zero_strategy_needs_no_lp(self, linprog_calls):
        """The search starts at the zero strategy, strictly inside a set whose
        offsets are all positive: with NA1 cached, maximizing utility takes
        no LP, and neither does the numeraire, whose wealth ratios the log
        optimum's multipliers bound; verifying its strategy on a copy of
        the market, which holds no bound, takes the wealth-ratio LP."""
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10:
            m = random_bounded_market(rng)
            if not np.all(m.constraints.offsets > 0.0):
                continue
            assert check_na1(m).holds
            linprog_calls.clear()
            opt = maximize_utility(m, UtilitySpec.log())
            assert not linprog_calls
            numeraire = numeraire_portfolio(m)
            assert not linprog_calls
            verify_numeraire(type(m)(m.probs, m.returns, m.constraints), numeraire.strategy)
            assert len(linprog_calls) >= 1
            assert opt.value == pytest.approx(numeraire.value, abs=1e-8)
            checked += 1

    def test_na1_failure_refused(self):
        m = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(PreconditionError):
            maximize_utility(m, UtilitySpec.log())

    def test_divergence_detection_log(self):
        m = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(NumericError) as exc:
            maximize_utility(m, UtilitySpec.log(), divergence_bound=1e3)
        assert exc.value.value > 1e3
        assert exc.value.best is not None
        assert np.all(np.isfinite(exc.value.best))

    def test_divergence_detection_power_crosses_finitely(self):
        m = two_factor_atom_market(1.5, 1.0)
        with pytest.raises(NumericError) as exc:
            maximize_utility(m, UtilitySpec.power(0.5), divergence_bound=1e3)
        assert 1e3 < exc.value.value < np.inf

    def test_divergence_detection_piecewise(self):
        """A piecewise utility is escalated along the witness ray too, before
        its LP, which is unbounded where NA1 fails."""
        m = make_market([[0.0], [0.5]], probs=[0.5, 0.5],
                        constraints=ConstraintSet(1, np.array([[-1.0]]), np.array([0.0])))
        assert not check_na1(m).holds
        u = UtilitySpec.piecewise_linear([0.2, 1.0, 2.0], [-1.0, 0.0, 0.4])
        with pytest.raises(NumericError) as exc:
            maximize_utility(m, u, divergence_bound=10.0)
        assert exc.value.value > 10.0
        assert exc.value.best is not None
        assert np.all(np.isfinite(exc.value.best))

    def test_state_dependent_shifts_match_bisection(self):
        m = interval_market([-0.5, 0.8], probs=[0.4, 0.6])
        shifts = np.array([0.3, 0.1])
        specs = [UtilitySpec.log().compose_affine(1.0, s) for s in shifts]
        opt = maximize_utility(m, specs, tol=1e-10)
        r = m.returns[:, 0]
        p = m.probs

        def deriv(pi):
            return float(np.sum(p * r / (1.0 + pi * r + shifts)))

        a, b = 0.0, 1.0
        if deriv(b) >= 0:
            oracle = b
        elif deriv(a) <= 0:
            oracle = a
        else:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if deriv(mid) > 0:
                    a = mid
                else:
                    b = mid
            oracle = 0.5 * (a + b)
        assert abs(opt.strategy[0] - oracle) <= 1e-8

    def test_piecewise_matches_breakpoint_enumeration(self):
        u = UtilitySpec.piecewise_linear([0.2, 1.0, 2.0], [-1.0, 0.0, 0.4])
        m = interval_market([-0.6, 0.9, 0.2], probs=[0.3, 0.4, 0.3])
        opt = maximize_utility(m, u, tol=1e-10)
        # the composed objective is piecewise linear in pi; its maximum sits
        # where some state's wealth crosses a knot, or at an endpoint
        candidates = {0.0, 1.0}
        for knot in u.knots_x:
            for r in m.returns[:, 0]:
                if abs(r) > 1e-12:
                    pi = (knot - 1.0) / r
                    if 0.0 <= pi <= 1.0:
                        candidates.add(pi)
        best = max(candidates, key=lambda pi: expected_utility(m, u, np.array([pi])))
        assert abs(opt.value - expected_utility(m, u, np.array([best]))) <= 1e-9

    def test_piecewise_state_tables(self):
        xs = [0.2, 1.0, 2.0]
        specs = [
            UtilitySpec.piecewise_linear(xs, [-1.0, 0.0, 0.4]),
            UtilitySpec.piecewise_linear(xs, [-2.0, 0.0, 0.1]),
        ]
        m = interval_market([-0.5, 0.7], probs=[0.5, 0.5])
        opt = maximize_utility(m, specs, tol=1e-10)
        grid = np.linspace(0.0, 1.0, 20001)
        vals = [expected_utility(m, specs, np.array([g])) for g in grid]
        assert opt.value >= max(vals) - 1e-6

    def test_mixed_piecewise_and_smooth_rejected(self):
        m = interval_market([-0.5, 0.7])
        specs = [UtilitySpec.log(), UtilitySpec.piecewise_linear([0.0, 1.0], [0.0, 1.0])]
        with pytest.raises(InvalidParameterError):
            maximize_utility(m, specs)

    def test_infeasible_shifted_domain(self):
        """A shift that leaves the utility undefined at the zero strategy,
        which every allowed set contains, is refused before any search."""
        m = interval_market([-0.5, 0.8])
        shifted = UtilitySpec.log().compose_affine(1.0, -2.0)
        with pytest.raises(InvalidParameterError, match="zero strategy"):
            maximize_utility(m, shifted)


class TestNumeraire:
    def test_atom_market_matches_maximal_strategy(self):
        # independent factors, second factor mean zero: the growth winner is
        # the borrow-cap point of the arbitrage line
        m = two_factor_atom_market(0.5, 2.5)
        opt = numeraire_portfolio(m)
        assert np.allclose(opt.strategy, [5.0, -2.5], atol=1e-6)
        lp_value = verify_numeraire(m, opt.strategy)
        assert 1.0 - 1e-8 <= lp_value <= 1.0 + 1e-8

    def test_riskless_market(self):
        m = make_market([[0.0], [0.0]])
        opt = numeraire_portfolio(m)
        assert np.allclose(opt.strategy, 0.0)
        assert opt.value == 0.0

    def test_random_markets_certified(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            m = random_bounded_market(rng)
            opt = numeraire_portfolio(m)
            lp_value = verify_numeraire(m, opt.strategy)
            assert lp_value <= 1.0 + 1e-8
            for _ in range(8):
                pi = sample_feasible(rng, m.allowed.normals, m.allowed.offsets, m.n_assets)
                gap = relative_log_optimality_gap(m, opt.strategy, pi)
                assert gap <= 1e-8

    def test_verify_numeraire_detects_drift_at_zero(self):
        m = interval_market([0.1, 0.5], probs=[0.5, 0.5])
        value = verify_numeraire(m, np.zeros(1))
        assert abs(value - (1.0 + 0.3)) <= 1e-9

    def test_verify_numeraire_rejects_nonpositive_wealth(self):
        m = interval_market([-1.0, 0.5], probs=[0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            verify_numeraire(m, np.array([1.0]))

    def test_verify_numeraire_dimension_check(self):
        m = interval_market([-0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            verify_numeraire(m, np.array([1.0, 2.0]))


class TestDeflator:
    def test_zero_numeraire_gives_unit_deflator(self):
        m = interval_market([-0.5, 0.5], probs=[0.5, 0.5])
        d = deflator_from_numeraire(m, np.zeros(1))
        assert np.allclose(d.values, 1.0)
        assert d.certificate <= 1.0 + 1e-8

    def test_lognormal_small_cap_mass_below_one(self):
        m = gauss_hermite_lognormal_market(64, c=0.3)
        opt = numeraire_portfolio(m)
        d = deflator_from_numeraire(m, opt.strategy)
        mass = float(m.probs @ d.values)
        assert mass < 1.0 - 1e-4

    def test_random_certified_deflators(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_bounded_market(rng)
            opt = numeraire_portfolio(m)
            d = deflator_from_numeraire(m, opt.strategy)
            assert np.all(d.values > 0)
            assert d.certificate <= 1.0 + 1e-8

    def test_non_numeraire_rejected_with_lp_value(self):
        m = interval_market([0.1, 0.5], probs=[0.5, 0.5])
        with pytest.raises(PreconditionError) as exc:
            deflator_from_numeraire(m, np.zeros(1))
        assert "1.3" in str(exc.value)

    def test_verify_deflator_requires_positive_values(self):
        m = interval_market([-0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            verify_deflator(m, np.array([1.0, 0.0]))

    def test_deflator_serialization(self):
        d = Deflator(values=np.array([1.0, 0.5]), certificate=1.0)
        payload = d.to_dict()
        assert payload["values"] == [1.0, 0.5]
        assert payload["threshold"] == 1.0 + 1e-8


class TestExpectedGainCache:
    """Each expected-gain answer is held on its market by the weights, so
    the certificates that read it again make no LP."""

    def test_verifying_the_numeraire_makes_no_lp(self, linprog_calls):
        rng = np.random.default_rng(19)
        for _ in range(5):
            m = random_bounded_market(rng)
            numeraire = numeraire_portfolio(m)
            linprog_calls.clear()
            value = verify_numeraire(m, numeraire.strategy)
            assert not linprog_calls
            assert value == numeraire.deflator.certificate
            assert deflator_from_numeraire(m, numeraire.strategy).certificate == value
            # the deflator's weights probs * Z are the wealth ratio's weights
            assert verify_deflator(m, numeraire.deflator.values) == value
            assert not linprog_calls
            other = 0.5 * numeraire.strategy
            verify_numeraire(m, other)
            assert len(linprog_calls) == 1
            verify_numeraire(m, other)
            assert len(linprog_calls) == 1

    def test_interrupted_lp_leaves_no_entry(self, monkeypatch):
        m = random_bounded_market(np.random.default_rng(20))
        check_na1(m)
        held = set(m.certificates)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(na1lab.lp, "linprog", interrupted)
        with pytest.raises(KeyboardInterrupt):
            verify_deflator(m, np.ones(m.n_states))
        assert set(m.certificates) == held
        monkeypatch.undo()
        assert verify_deflator(m, np.ones(m.n_states)) == 1.0 + max_expected_gain(m, m.probs)
        assert len(m.certificates) == len(held) + 1


def _held_optima(market):
    return [key for key in market.certificates if isinstance(key, tuple) and key[0] == "optimum"]


class TestHeldOptimum:
    """Each utility optimum is held on its market by utility and weights, at
    its tolerance, and serves every later call at that tolerance or a
    looser one without solving again."""

    @pytest.fixture
    def newton_calls(self, monkeypatch):
        """Problem count of every smooth-solver batch, in order."""
        calls = []
        minimize = na1lab.portfolio.minimize_convex

        def counted(derivatives, a_ub, b_ub, start, *args, **kwargs):
            calls.append(len(start))
            return minimize(derivatives, a_ub, b_ub, start, *args, **kwargs)

        monkeypatch.setattr(na1lab.portfolio, "minimize_convex", counted)
        return calls

    def test_repeated_call_returns_the_held_optimum(self, newton_calls, linprog_calls):
        m = random_bounded_market(np.random.default_rng(41))
        u = UtilitySpec.power(0.5)
        first = maximize_utility(m, u)
        assert newton_calls == [1]
        linprog_calls.clear()
        assert maximize_utility(m, u) is first
        assert newton_calls == [1] and not linprog_calls
        assert not first.strategy.flags.writeable  # shared by every later call

    def test_numeraire_serves_the_log_optimum(self, newton_calls, linprog_calls):
        m = random_bounded_market(np.random.default_rng(42))
        numeraire = numeraire_portfolio(m)
        newton_calls.clear()
        linprog_calls.clear()
        opt = maximize_utility(m, UtilitySpec.log())
        assert not newton_calls and not linprog_calls
        assert np.array_equal(opt.strategy, numeraire.strategy)

    def test_tighter_call_solves_again_and_then_serves(self, newton_calls):
        m = random_bounded_market(np.random.default_rng(43))
        loose = maximize_utility(m, UtilitySpec.log(), tol=1e-6)
        tight = maximize_utility(m, UtilitySpec.log(), tol=1e-10)
        assert newton_calls == [1, 1]
        assert tight is not loose and tight.gradient_norm <= 1e-10 * (1.0 + np.linalg.norm(tight.strategy))
        assert maximize_utility(m, UtilitySpec.log(), tol=1e-6) is tight
        assert newton_calls == [1, 1]

    def test_refused_call_holds_nothing(self):
        m = two_factor_atom_market(1.5, 1.0)
        for _ in range(2):
            with pytest.raises(PreconditionError):
                maximize_utility(m, UtilitySpec.log())
            assert not _held_optima(m)

    def test_divergent_call_holds_nothing(self):
        m = two_factor_atom_market(1.5, 1.0)
        for _ in range(2):
            with pytest.raises(NumericError):
                maximize_utility(m, UtilitySpec.log(), divergence_bound=1e3)
            assert not _held_optima(m)

    def test_repeated_entries_share_one_problem(self, newton_calls):
        """Entries of one market and weights are one problem of the batch,
        and get one object."""
        m, m2 = interval_market([-0.5, 0.5]), interval_market([-0.4, 0.2, 0.6])
        out = run(_maximize_all([m, m, m2], [m.probs, m.probs, m2.probs],
                                UtilitySpec.power(0.5), 1e-8))
        assert newton_calls == [2]
        assert out[0] is out[1] and out[2] is not out[0]
        assert len(_held_optima(m)) == len(_held_optima(m2)) == 1


class TestRelativeLogGap:
    def test_same_strategy_zero(self):
        m = interval_market([-0.5, 0.5])
        assert relative_log_optimality_gap(m, np.array([0.3]), np.array([0.3])) == 0.0

    def test_zero_wealth_sentinel(self):
        m = interval_market([-1.0, 0.5])
        gap = relative_log_optimality_gap(m, np.zeros(1), np.array([1.0]))
        assert gap == -np.inf

    def test_reference_nonpositive_wealth_rejected(self):
        m = interval_market([-1.0, 0.5])
        with pytest.raises(InvalidParameterError):
            relative_log_optimality_gap(m, np.array([1.0]), np.zeros(1))


def state_values(specs, w):
    """``UtilitySpec.value`` of each state's spec at its wealth, one call
    per state: the oracle of the per-state form."""
    return np.array([spec.value(np.array([wi]))[0] for spec, wi in zip(specs, w)])


def state_derivatives(specs, w):
    return np.array([spec.derivative(np.array([wi]))[0] for spec, wi in zip(specs, w)])


def mixed_smooth_specs(rng, n):
    """Log and power states, some composed with an affine map, some sharing
    one spec object."""
    shared = UtilitySpec.power(-1.0).compose_affine(1.5, 0.25)
    specs = []
    for _ in range(n):
        pick = int(rng.integers(4))
        base = (UtilitySpec.log(), UtilitySpec.power(0.5), UtilitySpec.power(0.3), shared)[pick]
        specs.append(base if pick == 3 or rng.uniform() < 0.3
                     else base.compose_affine(rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5)))
    return specs


def piecewise_specs(rng, n):
    """Concave piecewise-linear states with knots of their own, some
    composed with an affine map, two states sharing one spec."""
    specs = []
    for _ in range(n):
        k = int(rng.integers(2, 6))
        xs = np.sort(rng.uniform(0.0, 3.0, k)) + np.arange(k) * 1e-3
        slopes = np.sort(rng.uniform(0.1, 2.0, k - 1))[::-1]
        ys = np.concatenate([[rng.uniform(-1.0, 1.0)], slopes * np.diff(xs)]).cumsum()
        spec = UtilitySpec.piecewise_linear(xs, ys)
        specs.append(spec if rng.uniform() < 0.5 else spec.compose_affine(rng.uniform(0.5, 2.0),
                                                                           rng.uniform(-0.5, 0.5)))
    specs[-1] = specs[0]
    return specs


class TestPerStateUtilities:
    """One spec per state evaluates, bit for bit, as a loop of
    ``UtilitySpec.value`` over the states, each spec called on its state
    alone."""

    @pytest.fixture
    def values_seen(self, monkeypatch):
        """``(w, out)`` of every per-state evaluation from now on."""
        seen = []
        value = na1lab.portfolio._Utilities.value

        def recorded(self, w):
            out = value(self, w)
            seen.append((np.array(w), out))
            return out

        monkeypatch.setattr(na1lab.portfolio._Utilities, "value", recorded)
        return seen

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_log_and_power_states(self, seed, values_seen):
        rng = np.random.default_rng(seed)
        m = random_bounded_market(rng, d_max=3, n_max=12)
        specs = mixed_smooth_specs(rng, m.n_states)
        opt = maximize_utility(m, specs)
        w, out = values_seen[-1]  # the optimum's value
        assert np.array_equal(out, state_values(specs, w))
        assert opt.value == float(m.probs @ state_values(specs, w))
        points = [opt.strategy, np.zeros(m.n_assets),
                  *sample_feasible(rng, m.allowed.normals, m.allowed.offsets, m.n_assets, 3)]
        for pi in points:
            w = 1.0 + m.returns @ pi
            assert expected_utility(m, specs, pi) == float(m.probs @ state_values(specs, w))
            terms = m.returns.T * (m.probs * state_derivatives(specs, w))
            scale = np.sum(np.abs(terms), axis=1)
            assert np.all(np.abs(expected_utility_gradient(m, specs, pi) - terms.sum(axis=1))
                          <= 1e-14 * scale)

    @pytest.mark.parametrize("seed", range(5))
    def test_piecewise_states_with_different_knots(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_bounded_market(rng, d_max=3, n_max=12)
        specs = piecewise_specs(rng, m.n_states)
        tables = na1lab.portfolio._Utilities(specs, m.n_states).pieces()
        assert all(np.array_equal(table, spec.pieces()) for table, spec in zip(tables, specs))
        opt = maximize_utility(m, specs)
        w = 1.0 + m.returns @ opt.strategy
        assert abs(opt.value - float(m.probs @ state_values(specs, w))) <= 1e-9 * (1.0 + abs(opt.value))
        for pi in [opt.strategy, *sample_feasible(rng, m.allowed.normals, m.allowed.offsets,
                                                  m.n_assets, 3)]:
            w = 1.0 + m.returns @ pi
            assert expected_utility(m, specs, pi) == float(m.probs @ state_values(specs, w))
            terms = m.returns.T * (m.probs * state_derivatives(specs, w))
            scale = np.sum(np.abs(terms), axis=1)
            assert np.all(np.abs(expected_utility_gradient(m, specs, pi) - terms.sum(axis=1))
                          <= 1e-14 * scale)

    def test_malformed_state_lists_are_refused(self):
        m = interval_market([-0.5, 0.5])
        with pytest.raises(InvalidParameterError, match="cannot mix"):
            maximize_utility(m, [UtilitySpec.log(), UtilitySpec.piecewise_linear([0, 1], [0, 1])])
        with pytest.raises(InvalidParameterError, match=r"need one utility per state \(2\), got 3"):
            expected_utility(m, [UtilitySpec.log()] * 3, np.zeros(1))
        with pytest.raises(InvalidParameterError, match="UtilitySpec instances"):
            maximize_utility(m, [UtilitySpec.log(), "log"])
