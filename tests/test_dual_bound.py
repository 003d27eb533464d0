"""Weak-duality bounds certify the numeraire, the ESMM and super-hedge
deflators without an LP, and the LP decides wherever a bound misses.

Oracles used here:

* the exact expected-gain LP, :func:`max_expected_gain` on a fresh copy of
  the market, which holds no bound: every bound used must lie above it;
* the thresholds the certificates are judged at (``1 + 1e-8`` on the sum of
  the weights plus the gain);
* the same calls with the multipliers zeroed, whose bounds miss, so the LP
  that decided before the bounds existed decides again.
"""

import numpy as np
import pytest

import na1lab.arbitrage
import na1lab.hedging
import na1lab.portfolio
from conftest import random_market_any
from na1lab.arbitrage import (
    SUPERMARTINGALE_TOL,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
    max_expected_gain,
)
from na1lab.errors import Na1LabError
from na1lab.hedging import Claim, superhedge
from na1lab.market import ConstraintSet, DiscreteMarket, admissible_polyhedron, preset_constraints
from na1lab.portfolio import numeraire_portfolio, verify_numeraire
from na1lab.tree import iid_tree, numeraire_process, superhedge_tree
from test_smooth_solver import random_box_market

DUAL_BOUND = na1lab.arbitrage._dual_bound


def patch_dual_bound(monkeypatch, replacement):
    """Replace ``_dual_bound`` in every module that computes one."""
    for module in (na1lab.arbitrage, na1lab.portfolio, na1lab.hedging):
        monkeypatch.setattr(module, "_dual_bound", replacement)


def fresh(market):
    return type(market)(market.probs, market.returns, market.constraints)


@pytest.fixture
def bounds(monkeypatch):
    """``(market, weights, bound, limit)`` of every dual bound computed from
    now on, ``limit`` the largest bound that keeps the sum of the weights
    within ``1 + SUPERMARTINGALE_TOL``."""
    seen = []

    def recorded(market, weights, dual):
        bound = DUAL_BOUND(market, weights, dual)
        seen.append((market, np.array(weights), bound,
                     1.0 + SUPERMARTINGALE_TOL - float(np.sum(weights))))
        return bound

    patch_dual_bound(monkeypatch, recorded)
    return seen


@pytest.fixture
def zeroed(monkeypatch):
    """Dual bounds computed with every multiplier zero."""

    def without_multipliers(market, weights, dual):
        coords, rows, lam = dual
        return DUAL_BOUND(market, weights, (coords, rows, np.zeros_like(lam)))

    patch_dual_bound(monkeypatch, without_multipliers)


def assert_sound(seen):
    """Every bound within its limit, which the market then holds, lies
    above the exact LP optimum and within its threshold; returns how many
    were held."""
    held = 0
    for market, weights, bound, limit in seen:
        if not bound <= limit:
            continue  # it missed, so the LP decides
        assert ("gain_bound", weights.tobytes()) in market.certificates
        held += 1
        assert bound >= max_expected_gain(fresh(market), weights) - 1e-12
        assert float(np.sum(weights)) + bound <= 1.0 + 1e-8 + 1e-15
    return held


def kernels(market, claim):
    for step in (lambda: numeraire_portfolio(market), lambda: construct_esmm(market),
                 lambda: superhedge(market, claim)):
        try:
            step()
        except Na1LabError:
            pass


def wide_box_market():
    """1,024 states in a 4-D span: admissibility keeps its hull's rows."""
    market = random_box_market(np.random.default_rng(11), 1024, 4)
    assert admissible_polyhedron(market).offsets.size < market.n_states
    return market


def test_bounds_of_random_markets_are_sound(bounds):
    rng = np.random.default_rng(31)
    for _ in range(40):
        market = random_market_any(rng, d_max=4, n_max=12)
        kernels(market, Claim(rng.uniform(0.0, 2.0, market.n_states)))
    assert assert_sound(bounds) >= 40


def test_bounds_of_a_wide_market_are_sound(bounds):
    market = wide_box_market()
    kernels(market, Claim(np.random.default_rng(12).uniform(0.0, 2.0, market.n_states)))
    assert assert_sound(bounds) == 3


def test_bounds_of_an_iid_tree_are_sound(bounds):
    market = DiscreteMarket(np.array([0.3, 0.3, 0.4]),
                            np.array([[0.5, -0.2], [-0.3, 0.4], [0.1, 0.1]]),
                            preset_constraints("box", 2, lower=[1.0, 0.5], upper=[0.8, 1.0]))
    tree = iid_tree(market, 3)
    numeraire_process(tree)
    superhedge_tree(tree, np.linspace(0.0, 2.0, len(tree.leaf_ids)))
    assert assert_sound(bounds) >= 2


def capped_market(n):
    """``n`` states, two assets, no short sales and a cap of 0.3 on each:
    the numeraire holds the cap of the first asset, which gains on
    average, and none of the second, which loses, so rows bind in the
    numeraire, in the ESMM's cone and in the budget of a call on the first
    asset's hedge; 1,024 states keep their hull's rows."""
    rng = np.random.default_rng(n)
    returns = np.column_stack([rng.uniform(-0.5, 1.0, n), rng.uniform(-0.8, 0.4, n)])
    probs = rng.uniform(0.5, 1.5, n)
    caps = ConstraintSet(2, [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                         [0.0, 0.0, 0.3, 0.3])
    return DiscreteMarket(probs / probs.sum(), returns, caps)


@pytest.mark.parametrize("n", [9, 40, 1024])
def test_without_multipliers_the_lp_decides(n, linprog_calls, monkeypatch, zeroed):
    """With NA1 and the classical search cached, each certificate whose
    multipliers are zeroed takes exactly one LP, the one it took before the
    bounds, and gets its verdict and value."""
    market = capped_market(n)
    claim = Claim(2.0 * np.maximum(market.returns[:, 0], 0.0))
    assert check_na1(market).holds and not find_classical_arbitrage(market).found
    linprog_calls.clear()
    numeraire = numeraire_portfolio(market)
    assert len(linprog_calls) == 1
    assert numeraire.deflator.certificate == verify_numeraire(fresh(market), numeraire.strategy)
    assert numeraire.deflator.certificate <= 1.0 + SUPERMARTINGALE_TOL
    linprog_calls.clear()
    esmm = construct_esmm(market)
    assert len(linprog_calls) == 1
    assert esmm.slack == max_expected_gain(fresh(market), esmm.measure) <= SUPERMARTINGALE_TOL
    linprog_calls.clear()
    hedge = superhedge(market, claim)
    assert len(linprog_calls) == 2  # the hedge's LP, then its deflator's
    patch_dual_bound(monkeypatch, DUAL_BOUND)
    copy = fresh(market)
    check_na1(copy)
    linprog_calls.clear()
    assert superhedge(copy, claim).attainable == hedge.attainable
    assert len(linprog_calls) == 1
