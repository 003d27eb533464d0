"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) with the
wall-clock time and budget.  The checks restate results established module by
module elsewhere, at the stated tolerances and sizes:

1. two-asset arbitrage-line geometry, closed form and CSV output,
2. the scalability phase boundary in the cross-loading,
3. exponential-factor reference values and the certified growth portfolio,
4. the lognormal quadrature market's optimum, capped optimum and measure,
5. super-hedging duality and positive homogeneity on random markets,
6. triple agreement of the inverse-coefficient routes,
7. growth-portfolio certification and log-optimality on random markets,
8. two-period dynamic programming against exhaustive policy enumeration,
9. analytic gradients against central finite differences.

Oracles are independent of the code under test: hand closed forms, numpy's
generic matrix inverse, explicit increasing-path chain sums, brute-force
policy enumeration, and finite differences.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    gauss_hermite_lognormal_market,
    random_bounded_market,
    random_market_any,
    sample_feasible,
    two_factor_atom_market,
)
from na1lab.arbitrage import check_na1, construct_esmm
from na1lab.cli import main
from na1lab.factor import (
    FactorDistribution,
    alpha_recursion,
    discretize,
    example_3_7_ratio,
    max_arbitrage_strategy,
    na1_factor,
    two_dim_model,
)
from na1lab.hedging import Claim, superhedge
from na1lab.market import DiscreteMarket, preset_constraints, wealth
from na1lab.portfolio import (
    UtilitySpec,
    expected_utility,
    expected_utility_gradient,
    maximize_utility,
    numeraire_portfolio,
    relative_log_optimality_gap,
    verify_numeraire,
)
from na1lab.tree import backward_induction, iid_tree


def _checked(label, budget):
    """Context manager printing one pass/fail line with the runtime."""

    class _Check:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            status = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance {label}: {status} ({elapsed:.2f}s, budget {budget:g}s)")
            if exc_type is None and elapsed >= budget:
                raise AssertionError(
                    f"{label} exceeded its time budget: {elapsed:.2f}s >= {budget:g}s"
                )
            return False

    return _Check()


def line_through(x0, y0, x1, y1):
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


def test_criterion_1_arbitrage_line_geometry(tmp_path):
    with _checked("1 arbitrage-line geometry", 1.0):
        model = two_dim_model(0.5, 2.5)
        np.testing.assert_allclose(
            max_arbitrage_strategy(model), [5.0, -2.5], atol=1e-12
        )

        doc = {
            "loadings": [[1.0, 0.5], [0.0, 1.0]],
            "supports": [[0.0, "inf"], [-1.0, "inf"]],
            "borrow_limit": 2.5,
        }
        src = tmp_path / "factor.json"
        src.write_text(json.dumps(doc))
        rc = main(["--command", "factor", "--input", str(src),
                   "--output", str(tmp_path / "report.json")])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "arbitrage_line.csv", delimiter=",", skiprows=1)
        sa, ia = line_through(rows[0, 0], rows[0, 1], rows[1, 0], rows[1, 1])
        sb, ib = line_through(rows[0, 0], rows[0, 2], rows[1, 0], rows[1, 2])
        x_cross = (ib - ia) / (sa - sb)
        assert x_cross == pytest.approx(5.0, abs=1e-9)
        assert sa * x_cross + ia == pytest.approx(-2.5, abs=1e-9)


def test_criterion_2_scalability_phase_boundary():
    with _checked("2 scalability phase boundary", 5.0):
        for gamma in (0.0, 0.5, 0.99):
            assert na1_factor(two_dim_model(gamma, 1.0)) is True
            assert check_na1(two_factor_atom_market(gamma, 1.0)).holds is True
        for gamma in (1.0, 1.5):
            assert na1_factor(two_dim_model(gamma, 1.0)) is False
            assert check_na1(two_factor_atom_market(gamma, 1.0)).holds is False


def test_criterion_3_exponential_factor_reference_values():
    with _checked("3 exponential-factor reference values", 60.0):
        assert example_3_7_ratio(1.0) == pytest.approx(0.461, abs=1e-3)

        dists = (
            FactorDistribution.exponential(1.0),
            FactorDistribution.exponential(0.3, shift=-1.0),
        )
        model = two_dim_model(0.5, 1.0, dists=dists)
        market = discretize(model, 64)
        assert market.n_states == 64 * 64
        rho = numeraire_portfolio(market).strategy
        np.testing.assert_allclose(rho, [1.335, -0.335], atol=0.01)

        pi_max = max_arbitrage_strategy(model)
        np.testing.assert_allclose(pi_max, [2.0, -1.0], atol=1e-12)
        assert verify_numeraire(market, pi_max) > 1.0


def test_criterion_4_lognormal_quadrature_example():
    with _checked("4 lognormal quadrature example", 10.0):
        unconstrained = gauss_hermite_lognormal_market(64, c=1.0)
        pi_star = numeraire_portfolio(unconstrained).strategy
        assert pi_star[0] == pytest.approx(0.5, abs=1e-3)

        capped = gauss_hermite_lognormal_market(64, c=0.3)
        rho = numeraire_portfolio(capped).strategy
        assert rho[0] == pytest.approx(0.3, abs=1e-8)
        deflated = float(capped.probs @ (1.0 / wealth(capped, rho)))
        assert deflated < 1.0 - 1e-4
        esmm = construct_esmm(capped)
        assert esmm.slack <= 1e-8
        assert float(np.sum(esmm.measure)) == pytest.approx(1.0, abs=1e-12)


def test_criterion_5_superhedge_duality_properties():
    with _checked("5 super-hedging duality", 60.0):
        rng = np.random.default_rng(20240805)
        worst_gap = worst_hom = 0.0
        for _ in range(500):
            market = random_bounded_market(rng)
            payoff = rng.uniform(0.0, 2.0, market.n_states)
            report = superhedge(market, Claim(payoff))
            gap = abs(report.primal_value - report.dual_value) / (
                1.0 + abs(report.primal_value)
            )
            scaled = superhedge(market, Claim(3.0 * payoff))
            hom = abs(scaled.primal_value - 3.0 * report.primal_value)
            worst_gap = max(worst_gap, gap)
            worst_hom = max(worst_hom, hom)
        assert worst_gap <= 1e-7
        assert worst_hom <= 1e-9


def chain_sum_inverse_row(q):
    """First row of the inverse by explicit increasing-path enumeration."""
    d = q.shape[0]
    alpha = np.zeros(d)
    alpha[0] = 1.0
    for j in range(1, d):
        total = 0.0
        for k in range(j):
            for mids in itertools.combinations(range(1, j), k):
                path = (0, *mids, j)
                weight = 1.0
                for a, b in zip(path[:-1], path[1:]):
                    weight *= -q[a, b]
                total += weight
        alpha[j] = total
    return alpha


def displayed_four_dim_row(q):
    # Longhand expansion of the first inverse row for d = 4.
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


def test_criterion_6_inverse_coefficient_triple_agreement():
    with _checked("6 inverse-coefficient triple agreement", 5.0):
        rng = np.random.default_rng(20240806)
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(2, 7))
            q = np.eye(d)
            rows, cols = np.triu_indices(d, 1)
            q[rows, cols] = rng.standard_normal(rows.size)
            recursion = alpha_recursion(q)
            inverse = np.linalg.inv(q)[0]
            chains = chain_sum_inverse_row(q)
            worst = max(
                worst,
                float(np.max(np.abs(recursion - inverse))),
                float(np.max(np.abs(recursion - chains))),
                float(np.max(np.abs(inverse - chains))),
            )
        assert worst <= 1e-9

        for _ in range(5):
            q = np.eye(4)
            rows, cols = np.triu_indices(4, 1)
            q[rows, cols] = rng.standard_normal(rows.size)
            np.testing.assert_allclose(
                alpha_recursion(q), displayed_four_dim_row(q), atol=1e-12
            )


def test_criterion_7_numeraire_certification_properties():
    with _checked("7 growth-portfolio certification", 120.0):
        rng = np.random.default_rng(20240807)
        accepted = 0
        gap_checks = 0
        while accepted < 200:
            market = random_market_any(rng)
            if not check_na1(market).holds:
                continue
            accepted += 1
            rho = numeraire_portfolio(market).strategy
            value = verify_numeraire(market, rho)
            assert 1.0 - 1e-6 <= value <= 1.0 + 1e-6
            if gap_checks < 100:
                for _ in range(5):
                    pi = sample_feasible(
                        rng,
                        market.allowed.normals,
                        market.allowed.offsets,
                        market.n_assets,
                    )
                    gap = relative_log_optimality_gap(market, rho, pi)
                    assert gap <= 1e-6
                    gap_checks += 1
        assert gap_checks >= 100


def two_state_box_market():
    constraints = preset_constraints("box", 1, lower=[1.0], upper=[1.0])
    return DiscreteMarket(
        np.array([0.5, 0.5]), np.array([[0.8], [-0.4]]), constraints
    )


def test_criterion_8_dynamic_program_matches_enumeration():
    with _checked("8 dynamic program vs enumeration", 30.0):
        market = two_state_box_market()
        tree = iid_tree(market, 2)
        menu = np.linspace(-1.0, 1.0, 21).reshape(-1, 1)
        u = UtilitySpec.log()
        result = backward_induction(tree, u, candidates=menu)

        def root_path(node_id):
            steps = []
            while tree.node(node_id).parent is not None:
                steps.append(node_id)
                node_id = tree.node(node_id).parent
            return steps[::-1]

        internal = tree.internal_ids()
        best = -math.inf
        for combo in itertools.product(range(len(menu)), repeat=len(internal)):
            pick = dict(zip(internal, (menu[i] for i in combo)))
            total = 0.0
            for leaf in tree.leaf_ids:
                rolled, prob = 1.0, 1.0
                for step in root_path(leaf):
                    parent = tree.node(step).parent
                    rolled *= 1.0 + float(np.asarray(tree.node(step).returns, dtype=float) @ pick[parent])
                    prob *= tree.node(step).prob
                total += prob * math.log(rolled)
            best = max(best, total)
        assert result.value == pytest.approx(best, abs=1e-10)

        one_period = iid_tree(market, 1)
        for utility in (UtilitySpec.log(), UtilitySpec.power(0.5)):
            assert (
                backward_induction(one_period, utility).value
                == maximize_utility(market, utility).value
            )


def test_criterion_9_gradient_finite_difference_agreement():
    with _checked("9 gradient finite-difference agreement", 5.0):
        rng = np.random.default_rng(20240809)
        step = 1e-6
        for _ in range(50):
            market = random_bounded_market(rng)
            if rng.integers(0, 2):
                u = UtilitySpec.log()
            else:
                gamma = float(rng.uniform(-2.0, 0.9))
                u = UtilitySpec.power(gamma if gamma != 0.0 else 0.5)
            pi = rng.uniform(0.0, 0.3, market.n_assets)
            analytic = expected_utility_gradient(market, u, pi)
            numeric = np.zeros_like(analytic)
            for j in range(market.n_assets):
                offset = np.zeros(market.n_assets)
                offset[j] = step
                numeric[j] = (
                    expected_utility(market, u, pi + offset)
                    - expected_utility(market, u, pi - offset)
                ) / (2.0 * step)
            rel = np.linalg.norm(analytic - numeric) / (
                1.0 + np.linalg.norm(analytic)
            )
            assert rel <= 1e-5
