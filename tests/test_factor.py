"""Factor-model algebra: positivity, arbitrage rays, triangular recursions,
the two-asset worked case, and quadrature discretization.

Oracles used here:

* the two-asset model has everything in closed form (hand-inverted 2x2
  normal equations give the ray (1, -gamma); the capped arbitrage is then
  borrow_limit / (1 - gamma) times it),
* first-row-of-inverse coefficients are recomputed with numpy's generic
  inverse, independently of the module's triangular solve,
* expectation identities for exponential factors reduce to the exponential
  integral, evaluated through scipy.special.exp1,
* admissibility halfspaces are compared point-by-point against the explicit
  two-asset case split.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from na1lab.arbitrage import check_na1, find_classical_arbitrage, relative_arbitrage
from na1lab.errors import InvalidParameterError, PreconditionError
from na1lab.factor import (
    DiscretizationNote,
    FactorDistribution,
    FactorModel,
    admissibility_halfspaces,
    alpha_recursion,
    arbitrage_ray,
    discretize,
    example_3_7_ratio,
    example_3_8_condition,
    from_standard_form,
    largest_two_dim_supports,
    max_arbitrage_strategy,
    na1_factor,
    na1_triangular,
    two_dim_admissibility,
    two_dim_model,
    validate_positivity,
)


def ray_oracle_two_dim(gamma):
    # Normal equations by hand: for loadings [[1, g], [0, 1]] the Gram matrix
    # is [[1 + g^2, g], [g, 1]] with unit determinant, so its inverse times
    # the first loading column collapses to exactly (1, -g).
    return np.array([1.0, -float(gamma)])


def displayed_d4_alpha(q):
    # Chain expansion of a generic 4x4 unit upper-triangular inverse's first
    # row, written out longhand.
    return np.array(
        [
            1.0,
            -q[0, 1],
            -q[0, 2] + q[0, 1] * q[1, 2],
            -q[0, 3]
            + q[0, 1] * q[1, 3]
            + q[0, 2] * q[2, 3]
            - q[0, 1] * q[1, 2] * q[2, 3],
        ]
    )


def random_unit_triangular(rng, d, spread=1.0):
    q = np.eye(d)
    for i in range(d):
        for k in range(i + 1, d):
            q[i, k] = rng.uniform(-spread, spread)
    return q


def atoms(*values):
    return FactorDistribution.point_mass(list(values))


def straddling_point_mass_model(rng, d, spread=2.0):
    """Unit-triangular model with small point-mass factors straddling zero.

    Atom magnitudes are kept small enough that every discretized return stays
    above total loss regardless of the drawn loadings.
    """
    q = random_unit_triangular(rng, d, spread=spread)
    supports = [(0.0, math.inf)]
    dists = [atoms(0.0, rng.uniform(0.5, 1.0))]
    for _ in range(1, d):
        lo, hi = -rng.uniform(0.05, 0.1), rng.uniform(0.05, 0.1)
        supports.append((lo, hi))
        dists.append(atoms(0.8 * lo, 0.8 * hi))
    return FactorModel(q, tuple(supports), dists=tuple(dists), borrow_limit=1.0)


def exponential_pair_model(beta, borrow_limit=1.0):
    # First factor a unit-rate exponential; the second's gross value is
    # exponential with rate beta (so the factor itself starts at -1).
    dists = (
        FactorDistribution.exponential(1.0),
        FactorDistribution.exponential(beta, shift=-1.0),
    )
    return two_dim_model(0.5, borrow_limit, dists=dists)


class TestFactorDistribution:
    def test_point_mass_roundtrip(self):
        dist = FactorDistribution.point_mass([0.5, -0.25], [0.25, 0.75])
        assert dist.support() == (-0.25, 0.5)
        assert dist.mean() == pytest.approx(0.5 * 0.25 - 0.25 * 0.75)
        assert dist.expectation(lambda y: y * y) == pytest.approx(
            0.25 * 0.25 + 0.75 * 0.0625
        )

    def test_point_mass_quantile_steps(self):
        dist = FactorDistribution.point_mass([1.0, -1.0], [0.5, 0.5])
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(dist.quantile(levels), [-1.0, -1.0, -1.0, 1.0, 1.0])

    def test_exponential_matches_scipy(self):
        dist = FactorDistribution.exponential(2.0, shift=-1.0)
        assert dist.support() == (-1.0, math.inf)
        assert dist.mean() == pytest.approx(-0.5)
        assert dist.quantile(0.5) == pytest.approx(-1.0 + math.log(2.0) / 2.0)

    def test_lognormal_and_uniform(self):
        assert FactorDistribution.lognormal(0.1, 0.2).mean() == pytest.approx(
            math.exp(0.1 + 0.02), rel=1e-12
        )
        assert FactorDistribution.uniform(-1.0, 3.0).mean() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "dist, frozen",
        [
            (FactorDistribution.exponential(2.0, shift=-1.0), ("expon", {"loc": -1.0, "scale": 0.5})),
            (FactorDistribution.lognormal(0.1, 0.4), ("lognorm", {"s": 0.4, "scale": math.exp(0.1)})),
            (FactorDistribution.uniform(-1.0, 3.0), ("uniform", {"loc": -1.0, "scale": 4.0})),
        ],
    )
    def test_closed_forms_match_scipy_stats(self, dist, frozen):
        from scipy import stats

        name, params = frozen
        ref = getattr(stats, name)(**params)
        levels = np.array([0.0, 1e-9, 0.05, 0.5, 0.95, 1.0 - 1e-9, 1.0])
        np.testing.assert_allclose(dist.quantile(levels), ref.ppf(levels), rtol=1e-12)
        assert dist.mean() == pytest.approx(ref.mean(), rel=1e-12)
        func = lambda y: 1.0 / (1.0 + 0.3 * abs(y))  # noqa: E731
        assert dist.expectation(func) == pytest.approx(ref.expect(func), rel=1e-10)

    def test_import_does_not_load_scipy_stats(self):
        import os
        import subprocess
        import sys

        import na1lab

        src = os.path.dirname(os.path.dirname(na1lab.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, na1lab; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            FactorDistribution.exponential(0.0)
        with pytest.raises(InvalidParameterError):
            FactorDistribution.lognormal(0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            FactorDistribution.uniform(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            FactorDistribution.point_mass([0.0, 1.0], [0.5, 0.7])
        with pytest.raises(InvalidParameterError):
            FactorDistribution("weibull", args=(1.0, 1.0))


class TestFactorModelValidation:
    def test_rank_deficient_loadings_rejected(self):
        q = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(InvalidParameterError, match="rank deficient"):
            FactorModel(q, ((0.0, math.inf), (-1.0, 1.0)))

    def test_first_support_must_be_nonnegative_halfline(self):
        with pytest.raises(InvalidParameterError, match="first factor"):
            FactorModel(np.eye(2), ((-1.0, math.inf), (-1.0, 1.0)))
        with pytest.raises(InvalidParameterError, match="first factor"):
            FactorModel(np.eye(2), ((0.0, 5.0), (-1.0, 1.0)))

    def test_later_supports_must_straddle_zero(self):
        with pytest.raises(InvalidParameterError, match="straddle"):
            FactorModel(np.eye(2), ((0.0, math.inf), (0.5, 1.0)))

    def test_distribution_outside_declared_support(self):
        dists = (atoms(0.0, 1.0), atoms(-2.0, 1.0))
        with pytest.raises(InvalidParameterError, match="outside"):
            FactorModel(np.eye(2), ((0.0, math.inf), (-1.0, 2.0)), dists=dists)

    def test_borrow_limit_positive(self):
        with pytest.raises(InvalidParameterError, match="borrow_limit"):
            two_dim_model(0.5, 0.0)

    def test_valid_model_is_frozen(self):
        model = two_dim_model(0.5, 1.0)
        assert not model.loadings.flags.writeable
        assert model.n_assets == 2 and model.n_factors == 2


class TestStandardForm:
    def test_mean_plus_idiosyncratic(self):
        model = from_standard_form([0.05, 0.08])
        assert model.loadings.shape == (2, 3)
        assert np.array_equal(model.loadings[:, 0], [0.05, 0.08])
        assert np.array_equal(model.loadings[:, 1:], np.eye(2))
        assert model.labels == ("mean", "idio_1", "idio_2")

    def test_single_common_factor_shape(self):
        model = from_standard_form([0.05, 0.08], common=[[1.2], [0.7]])
        assert model.loadings.shape == (2, 4)
        assert model.labels == ("mean", "common_1", "idio_1", "idio_2")

    def test_empty_common_block_dropped(self):
        model = from_standard_form([0.05, 0.08], common=np.zeros((2, 0)))
        assert model.loadings.shape == (2, 3)

    def test_rank_deficiency_after_assembly(self):
        with pytest.raises(InvalidParameterError, match="rank deficient"):
            from_standard_form([0.05, 0.08], idio=False)

    def test_skeleton_fails_positivity_until_supports_refined(self):
        # Whole-line placeholder supports make every worst case infinite.
        model = from_standard_form([0.05, 0.08])
        assert not validate_positivity(model).all_ok


class TestValidatePositivity:
    def test_two_dim_widest_supports_pass(self):
        report = validate_positivity(two_dim_model(0.5, 1.0))
        assert report.asset_ok == (True, True)
        assert report.all_ok and report.violations == ()

    def test_large_cross_loading_needs_narrower_support(self):
        model = two_dim_model(2.0, 1.0, supports=((0.0, math.inf), (-1.0, math.inf)))
        report = validate_positivity(model)
        assert report.asset_ok == (False, True)
        assert "asset 1" in report.violations[0]
        # The widest admissible support for this loading passes on the nose.
        assert validate_positivity(two_dim_model(2.0, 1.0)).all_ok

    def test_identity_loadings_pass_when_downside_is_bounded(self):
        model = FactorModel(
            np.eye(3), ((0.0, math.inf), (-1.0, 1.0), (-0.5, 2.0))
        )
        assert validate_positivity(model).all_ok

    def test_negative_loading_on_nonnegative_factor(self):
        model = FactorModel(np.array([[-1.0]]), ((0.0, math.inf),))
        report = validate_positivity(model)
        assert report.asset_ok == (False,)
        assert "negative" in report.violations[0]

    def test_triangular_cross_check_runs_clean(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model = straddling_point_mass_model(rng, int(rng.integers(2, 5)))
            report = validate_positivity(model)
            assert len(report.asset_ok) == model.n_assets


class TestArbitrageRay:
    def test_two_dim_closed_form(self):
        for gamma in (-1.0, 0.0, 0.5, 1.0, 1.7):
            ray = arbitrage_ray(two_dim_model(gamma, 1.0))
            assert ray is not None
            assert np.max(np.abs(ray - ray_oracle_two_dim(gamma))) <= 1e-12

    def test_square_loadings_match_generic_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            q = rng.normal(size=(d, d)) * 0.4 + np.eye(d)
            supports = ((0.0, math.inf),) + ((-1.0, 1.0),) * (d - 1)
            ray = arbitrage_ray(FactorModel(q, supports))
            assert ray is not None
            assert np.max(np.abs(ray - np.linalg.inv(q)[0])) <= 1e-9

    def test_wide_loadings_reachability_boundary(self):
        supports = ((0.0, math.inf), (-1.0, 1.0), (-1.0, 1.0))
        reachable = FactorModel(
            np.array([[1.0, 0.0, 0.0], [0.0, 0.4, 1.0]]), supports
        )
        ray = arbitrage_ray(reachable)
        assert ray is not None and np.max(np.abs(ray - [1.0, 0.0])) <= 1e-12
        blocked = FactorModel(
            np.array([[1.0, 0.1, 0.0], [0.0, 0.4, 1.0]]), supports
        )
        assert arbitrage_ray(blocked) is None

    def test_zero_first_column_unreachable(self):
        model = FactorModel(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ((0.0, math.inf), (-1.0, 1.0), (-1.0, 1.0)),
        )
        assert arbitrage_ray(model) is None


class TestNa1Factor:
    def test_two_dim_threshold_sweep(self):
        for gamma, expected in ((0.0, True), (0.5, True), (0.99, True), (1.0, False), (1.5, False)):
            assert na1_factor(two_dim_model(gamma, 1.0)) is expected

    def test_requires_reachable_first_factor(self):
        model = FactorModel(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ((0.0, math.inf), (-1.0, 1.0), (-1.0, 1.0)),
        )
        with pytest.raises(PreconditionError):
            na1_factor(model)


class TestMaxArbitrageStrategy:
    def test_closed_form_values(self):
        assert np.max(np.abs(max_arbitrage_strategy(two_dim_model(0.5, 2.5)) - [5.0, -2.5])) <= 1e-12
        assert np.max(np.abs(max_arbitrage_strategy(two_dim_model(0.5, 1.0)) - [2.0, -1.0])) <= 1e-12
        assert np.max(np.abs(max_arbitrage_strategy(two_dim_model(0.0, 1.0)) - [1.0, 0.0])) <= 1e-12

    def test_sits_on_borrowing_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gamma = rng.uniform(-1.5, 0.95)
            c = rng.uniform(0.2, 4.0)
            pi = max_arbitrage_strategy(two_dim_model(gamma, c))
            assert pi.sum() == pytest.approx(c, abs=1e-10)

    def test_no_maximum_when_cap_never_binds(self):
        for gamma in (1.0, 1.5):
            with pytest.raises(PreconditionError, match="does not exist"):
                max_arbitrage_strategy(two_dim_model(gamma, 1.0))

    def test_requires_reachable_first_factor(self):
        model = FactorModel(
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ((0.0, math.inf), (-1.0, 1.0), (-1.0, 1.0)),
        )
        with pytest.raises(PreconditionError):
            max_arbitrage_strategy(model)

    def test_dominates_every_scaled_arbitrage_statewise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gamma = rng.uniform(-1.0, 0.9)
            c = rng.uniform(0.5, 3.0)
            model = two_dim_model(gamma, c)
            ray = arbitrage_ray(model)
            pi_max = max_arbitrage_strategy(model)
            lam_cap = c / float(ray.sum())
            y = np.column_stack(
                [rng.exponential(1.0, size=200), rng.uniform(-0.9, 4.0, size=200)]
            )
            returns = y @ model.loadings.T
            v_max = 1.0 + returns @ pi_max
            for lam in np.linspace(0.0, lam_cap, 7):
                v_scaled = 1.0 + returns @ (lam * ray)
                assert np.all(v_max >= v_scaled - 1e-10)


class TestAlphaRecursion:
    def test_displayed_four_dim_expansion(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = random_unit_triangular(rng, 4, spread=2.0)
            assert np.max(np.abs(alpha_recursion(q) - displayed_d4_alpha(q))) <= 1e-12

    def test_identity_and_two_dim(self):
        assert np.array_equal(alpha_recursion(np.eye(3)), [1.0, 0.0, 0.0])
        assert np.array_equal(alpha_recursion([[1.0, 0.5], [0.0, 1.0]]), [1.0, -0.5])

    def test_matches_generic_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            q = random_unit_triangular(rng, d, spread=1.5)
            assert np.max(np.abs(alpha_recursion(q) - np.linalg.inv(q)[0])) <= 1e-9

    def test_rejects_non_triangular(self):
        with pytest.raises(InvalidParameterError):
            alpha_recursion(np.array([[1.0, 0.2], [0.1, 1.0]]))
        with pytest.raises(InvalidParameterError):
            alpha_recursion(np.array([[2.0, 0.2], [0.0, 1.0]]))
        with pytest.raises(InvalidParameterError):
            alpha_recursion(np.zeros((2, 3)))

    def test_ray_and_recursion_are_parallel(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            model = straddling_point_mass_model(rng, d)
            ray = arbitrage_ray(model)
            alpha = alpha_recursion(model.loadings)
            inv_row = np.linalg.inv(model.loadings)[0]
            for u, v in ((ray, alpha), (alpha, inv_row), (ray, inv_row)):
                # sin of the angle via the rejection norm; acos loses all
                # precision this close to zero.
                rejection = v - (u @ v) / (u @ u) * u
                assert np.linalg.norm(rejection) / np.linalg.norm(v) <= 1e-8


class TestNa1Triangular:
    def test_two_dim_chain_totals(self):
        assert na1_triangular([[1.0, 0.5], [0.0, 1.0]]) is True
        assert na1_triangular([[1.0, 1.5], [0.0, 1.0]]) is False
        assert na1_triangular(np.eye(4)) is True

    def test_boundary_total_counts_as_failure(self):
        assert na1_triangular([[1.0, 1.0], [0.0, 1.0]]) is False

    def test_verdict_equals_coefficient_sum_sign(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            q = random_unit_triangular(rng, d, spread=2.0)
            assert na1_triangular(q) is bool(alpha_recursion(q).sum() > 1e-12)

    def test_agrees_with_model_and_lp_routes(self):
        rng = np.random.default_rng(29)
        seen = {True: 0, False: 0}
        for _ in range(50):
            model = straddling_point_mass_model(rng, int(rng.integers(2, 5)))
            verdict = na1_triangular(model.loadings)
            assert na1_factor(model) is verdict
            assert check_na1(discretize(model, 2)).holds is verdict
            seen[verdict] += 1
        assert seen[True] >= 5 and seen[False] >= 5


class TestTwoDimAdmissibility:
    def test_case_split_examples(self):
        assert two_dim_admissibility(0.5, (1.0, -0.5)) is True
        assert two_dim_admissibility(0.5, (1.0, 0.6)) is False
        assert two_dim_admissibility(-1.0, (1.0, 0.0)) is True

    def test_short_first_asset_never_allowed(self):
        for gamma in (-1.0, 0.0, 0.5, 1.5):
            assert two_dim_admissibility(gamma, (-0.1, 0.0)) is False

    def test_matches_generated_halfspaces(self):
        rng = np.random.default_rng(31)
        for gamma in (-1.3, -0.4, 0.0, 0.5, 0.99, 1.0, 1.7):
            halfspaces = admissibility_halfspaces(two_dim_model(gamma, 1.0))
            for _ in range(300):
                pi = rng.uniform(-3.0, 3.0, size=2)
                residuals = halfspaces.residuals(pi)
                if np.min(np.abs(residuals)) < 1e-9:
                    continue
                assert two_dim_admissibility(gamma, pi) is bool(np.all(residuals < 0))


class TestDiscretize:
    def test_point_mass_market_is_exact(self):
        dists = (atoms(0.0, 1.0), atoms(-0.5, 0.25))
        market = discretize(two_dim_model(0.5, 1.0, dists=dists), 2)
        grid = [(a, b) for a in (0.0, 1.0) for b in (-0.5, 0.25)]
        expected = np.array([[a + 0.5 * b, b] for a, b in grid])
        assert np.array_equal(market.returns, expected)
        assert np.array_equal(market.probs, np.full(4, 0.25))
        assert market.note == DiscretizationNote(0.0, 0, (2, 2))

    def test_borrowing_row_present(self):
        dists = (atoms(0.0, 1.0), atoms(-0.5, 0.25))
        market = discretize(two_dim_model(0.5, 2.5, dists=dists), 2)
        pi_max = max_arbitrage_strategy(two_dim_model(0.5, 2.5))
        assert market.constraints.contains(pi_max)
        assert not market.constraints.contains(pi_max * 1.001)

    def test_quadrature_means_converge(self):
        market = discretize(exponential_pair_model(0.3), 64)
        second = market.returns[:, 1]
        assert market.probs @ second == pytest.approx(1.0 / 0.3 - 1.0, abs=1e-3)
        assert market.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_truncation_mass_reported(self):
        market = discretize(exponential_pair_model(1.0), 8, truncation_mass=1e-4)
        assert market.note.truncated_mass == pytest.approx(1.0 - (1.0 - 1e-4) ** 2)

    def test_clipping_reported(self):
        dists = (atoms(0.0, 1.0), FactorDistribution.uniform(-1.5, 0.5))
        model = FactorModel(
            np.eye(2), ((0.0, math.inf), (-1.6, 0.6)), dists=dists, borrow_limit=1.0
        )
        market = discretize(model, 16)
        # Independent count: returns on the second asset equal the second
        # factor itself, so clips happen exactly where its quadrature atoms
        # fall below -1 (once per first-factor atom).
        from numpy.polynomial.legendre import leggauss

        x, _ = leggauss(16)
        levels = 0.5e-6 + (1.0 - 1e-6) * (x + 1.0) / 2.0
        below = int(np.count_nonzero(dists[1].quantile(levels) < -1.0))
        assert market.note.clipped_entries == 2 * below > 0
        assert market.returns.min() >= -1.0

    def test_lognormal_single_asset_strategy_interval(self):
        dists = (FactorDistribution.lognormal(0.05, 0.3), atoms(1.0))
        model = FactorModel(
            np.array([[1.0, -1.0]]),
            ((0.0, math.inf), (-0.5, 1.0)),
            dists=dists,
            borrow_limit=2.0,
        )
        market = discretize(model, 64)
        assert market.n_assets == 1
        assert market.probs @ market.returns[:, 0] == pytest.approx(
            math.exp(0.05 + 0.045) - 1.0, abs=1e-3
        )
        assert market.constraints.contains([0.99])
        assert not market.constraints.contains([1.01])
        assert not market.constraints.contains([-0.01])
        assert check_na1(market).holds

    def test_rejects_bad_inputs(self):
        model = two_dim_model(0.5, 1.0)
        with pytest.raises(InvalidParameterError, match="without distributions"):
            discretize(model, 4)
        dists = (atoms(0.0, 1.0), atoms(-0.5, 0.25))
        with pytest.raises(InvalidParameterError, match="nodes"):
            discretize(two_dim_model(0.5, 1.0, dists=dists), 1)
        with pytest.raises(InvalidParameterError, match="truncation_mass"):
            discretize(exponential_pair_model(1.0), 4, truncation_mass=1.0)

    def test_deterministic(self):
        a = discretize(exponential_pair_model(0.7), 12)
        b = discretize(exponential_pair_model(0.7), 12)
        assert np.array_equal(a.returns, b.returns)
        assert np.array_equal(a.probs, b.probs)


class TestDiscretizedArbitrageGeometry:
    def test_lp_arbitrage_lies_on_the_ray(self):
        dists = (atoms(0.0, 1.0), atoms(-0.5, 1.0))
        for gamma in (0.5, 1.5):
            model = two_dim_model(gamma, 1.0, dists=dists)
            cert = find_classical_arbitrage(discretize(model, 2))
            assert cert.found
            exposures = model.loadings.T @ cert.strategy
            assert exposures[0] > 0.0
            assert abs(exposures[1]) <= 1e-8

    def test_relative_arbitrage_against_market_portfolio(self):
        dists = (atoms(0.0, 1.0), atoms(-0.5, 1.0))
        even_split = np.array([0.5, 0.5])
        tight = discretize(two_dim_model(0.5, 1.0, dists=dists), 2)
        assert not relative_arbitrage(tight, even_split).found
        loose = discretize(two_dim_model(0.5, 1.5, dists=dists), 2)
        assert relative_arbitrage(loose, even_split).found


class TestExpectationIdentities:
    def test_ratio_reference_values(self):
        assert example_3_7_ratio(1.0) == pytest.approx(0.461, abs=1e-3)
        assert example_3_7_ratio(0.461) == pytest.approx(1.0, abs=2e-3)
        assert example_3_7_ratio(0.3) > 1.0

    def test_ratio_scales_inversely_in_beta(self):
        base = example_3_7_ratio(1.0)
        for beta in (0.25, 0.5, 2.0, 10.0):
            assert example_3_7_ratio(beta) * beta == pytest.approx(base, rel=1e-12)

    def test_ratio_matches_special_function(self):
        assert example_3_7_ratio(1.0) == pytest.approx(
            math.sqrt(math.e) / 2.0 * exp1(0.5), abs=1e-10
        )

    def test_ratio_rejects_nonpositive_beta(self):
        with pytest.raises(InvalidParameterError):
            example_3_7_ratio(0.0)

    def test_ratio_agrees_with_discretized_expectation(self):
        beta = 0.3
        market = discretize(exponential_pair_model(beta), 48)
        second_factor = market.returns[:, 1]
        first_factor = market.returns[:, 0] - 0.5 * second_factor
        ratio = market.probs @ ((1.0 + second_factor) / (1.0 + 2.0 * first_factor))
        assert ratio == pytest.approx(example_3_7_ratio(beta), abs=5e-3)

    def test_optimality_residual_positive_when_second_mean_vanishes(self):
        dists = (FactorDistribution.exponential(1.0), atoms(-0.1, 0.1))
        model = two_dim_model(-0.5, 1.0, dists=dists)
        residual = example_3_8_condition(model)
        s = 1.0 / 1.5
        mean_inverse = math.exp(1.0 / s) / s * exp1(1.0 / s)
        lhs = (1.0 - mean_inverse) / s
        assert residual == pytest.approx(lhs, abs=1e-8)
        assert residual > 0.0

    def test_optimality_residual_degenerate_first_factor(self):
        dists = (atoms(0.0), atoms(0.1, 0.3))
        model = two_dim_model(
            -0.5, 1.0, dists=dists, supports=((0.0, math.inf), (-0.05, 0.35))
        )
        assert example_3_8_condition(model) == pytest.approx(-1.5 * 0.2, abs=1e-12)

    def test_optimality_residual_crossing_found_by_bisection(self):
        s = 1.0 / 1.5
        mean_inverse = math.exp(1.0 / s) / s * exp1(1.0 / s)
        lhs = (1.0 - mean_inverse) / s

        def residual(t):
            dists = (
                FactorDistribution.exponential(1.0),
                FactorDistribution.uniform(-0.5, t),
            )
            model = two_dim_model(
                -0.5, 1.0, dists=dists, supports=((0.0, math.inf), (-0.6, 2.6))
            )
            return example_3_8_condition(model)

        lo, hi = 0.1, 2.5
        assert residual(lo) > 0.0 > residual(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        analytic = 0.5 + 2.0 * lhs / (1.5 * mean_inverse)
        assert crossing == pytest.approx(analytic, abs=1e-6)

    def test_optimality_residual_preconditions(self):
        with pytest.raises(PreconditionError, match="negative cross-loading"):
            example_3_8_condition(two_dim_model(0.5, 1.0))
        with pytest.raises(PreconditionError, match="distributions"):
            example_3_8_condition(two_dim_model(-0.5, 1.0))
        model = FactorModel(
            np.eye(3), ((0.0, math.inf), (-1.0, 1.0), (-1.0, 1.0))
        )
        with pytest.raises(PreconditionError, match="two-asset"):
            example_3_8_condition(model)


class TestSupportTable:
    def test_widest_supports_by_cross_loading(self):
        assert largest_two_dim_supports(0.0)[1] == (-1.0, math.inf)
        assert largest_two_dim_supports(0.5)[1] == (-1.0, math.inf)
        assert largest_two_dim_supports(2.0)[1] == (-0.5, math.inf)
        assert largest_two_dim_supports(-2.0)[1] == (-1.0, 0.5)

    def test_first_slot_always_nonnegative_halfline(self):
        for gamma in (-1.0, 0.0, 1.0):
            assert largest_two_dim_supports(gamma)[0] == (0.0, math.inf)
