"""Seeded fuzz corpus for the interior-point solver behind the numeraire
portfolio and the supermartingale measure.

Every market is drawn here.  Box markets always satisfy NA1, so the
numeraire must be certified on each; the ESMM must be certified on each
market without a classical arbitrage.  The corpus includes the sizes where
the earlier projected-gradient and fixed-tolerance solvers failed: a few
hundred states with up to six assets, 10k and 50k states, and draw 6 of
``random_bounded_market`` with seed 0.
"""

import numpy as np

from conftest import random_bounded_market
from na1lab.arbitrage import (
    SUPERMARTINGALE_TOL,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
)
from na1lab.market import DiscreteMarket, preset_constraints
from na1lab.portfolio import NUMERAIRE_TOL, numeraire_portfolio, verify_numeraire


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
            assert verify_numeraire(market, opt.strategy) <= 1.0 + NUMERAIRE_TOL
            numeraires += 1
        if not find_classical_arbitrage(market).found:
            assert construct_esmm(market).slack <= SUPERMARTINGALE_TOL
            measures += 1
    assert numeraires == 43
    assert measures == 43


def test_esmm_classifies_the_cone_rows_in_one_lp(monkeypatch):
    import na1lab.lp

    rng = np.random.default_rng(3)
    # every asset loses in the last state, so no long position is an arbitrage
    returns = np.vstack([rng.uniform(-0.9, 1.5, size=(11, 4)), np.full((1, 4), -0.5)])
    market = DiscreteMarket(np.full(12, 1.0 / 12), returns, preset_constraints("no_short", 4))
    assert not find_classical_arbitrage(market).found
    check_na1(market)
    calls = []
    original = na1lab.lp.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(na1lab.lp, "linprog", counted)
    construct_esmm(market)
    # one LP for the cone's implicit equalities, one certifying the slack
    assert len(calls) == 2
