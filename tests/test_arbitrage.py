import numpy as np
import pytest

from conftest import (
    interval_market,
    make_market,
    random_bounded_market,
    random_market_any,
    sample_feasible,
    two_factor_atom_market,
)
from na1lab.arbitrage import (
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
    max_expected_gain,
    relative_arbitrage,
)
from na1lab.errors import InvalidParameterError, PreconditionError
from na1lab.lp import UNBOUNDED, solve_lp
from na1lab.market import generated_cone, preset_constraints, wealth


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

    def test_lp_count_and_cache(self, monkeypatch):
        import na1lab.lp

        calls = []
        original = na1lab.lp.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(na1lab.lp, "linprog", counted)
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_market_any(rng)
            calls.clear()
            cert = check_na1(m)
            assert len(calls) <= 2
            calls.clear()
            assert check_na1(m) is cert
            assert not calls
            loose = check_na1(m, tol=1e-6)
            assert loose is not cert and loose.threshold == 1e-6
            assert loose.holds == cert.holds
            assert 1 <= len(calls) <= 2
            calls.clear()
            assert check_na1(m, tol=1e-6) is loose
            classical = find_classical_arbitrage(m)
            assert len(calls) == 1
            assert find_classical_arbitrage(m) is classical
            assert len(calls) == 1

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
