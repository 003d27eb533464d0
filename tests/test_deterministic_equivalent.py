"""The deterministic equivalent (``lp.deterministic_equivalent``), the tree
LP of ``lp.tree_block`` behind every piecewise-linear objective: the
one-period utility optimum, the shortfall hedge and the scenario-tree
utility optimum.

Independent oracles of its answers live with the callers: breakpoint
enumeration and a strategy grid (``test_portfolio.py``), a dense grid of
shortfall hedges (``test_hedging.py``) and policy enumeration on trees
(``test_tree.py``).  Here: its LP is one block of the LP round with no
leaf-wealth columns, its value re-check catches a wrong optimum in every
caller, and no LP outside ``lp.py`` bypasses the rounds.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import na1lab.lp
from conftest import make_market, random_bounded_market
from na1lab.arbitrage import check_na1
from na1lab.errors import NumericError
from na1lab.hedging import Claim, PiecewiseLinearLoss, shortfall_hedge
from na1lab.lp import run
from na1lab.market import ConstraintSet, DiscreteMarket, preset_constraints
from na1lab.portfolio import UtilitySpec, _maximize_all, maximize_utility
from na1lab.tree import backward_induction, global_na1, iid_tree

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "na1lab"

PIECEWISE = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])


def test_piecewise_markets_share_one_lp_call(linprog_calls):
    """With NA1 cached, the piecewise optima of several markets are one
    block each of one LP round: one ``linprog`` call for all of them, with
    the optima each market gets alone.  The joint call runs on fresh copies
    of the markets, since the originals hold their optima and take no LP."""
    rng = np.random.default_rng(31)
    markets = [random_bounded_market(rng) for _ in range(5)]
    copies = [DiscreteMarket(m.probs, m.returns, m.constraints) for m in markets]
    for m in markets + copies:
        assert check_na1(m).holds
    alone = [maximize_utility(m, PIECEWISE) for m in markets]
    linprog_calls.clear()
    together = run(_maximize_all(copies, [m.probs for m in copies], PIECEWISE, 1e-8))
    assert len(linprog_calls) == 1
    for single, joint in zip(alone, together):
        assert joint.value == pytest.approx(single.value, rel=1e-9, abs=1e-9)
    linprog_calls.clear()
    held = run(_maximize_all(markets, [m.probs for m in markets], PIECEWISE, 1e-8))
    assert not linprog_calls
    assert all(h is single for h, single in zip(held, alone))


@pytest.fixture
def tampered(monkeypatch):
    """Every deterministic-equivalent LP (the blocks with equality rows)
    reports an optimum 1e-6 above the one it found."""
    solve = na1lab.lp._solve_stacked

    def shifted(blocks):
        return [replace(r, value=r.value + 1e-6) if b.get("a_eq") is not None else r
                for b, r in zip(blocks, solve(blocks))]

    monkeypatch.setattr(na1lab.lp, "_solve_stacked", shifted)


def test_value_check_catches_a_wrong_one_period_optimum(tampered):
    m = random_bounded_market(np.random.default_rng(32))
    with pytest.raises(NumericError, match="piecewise-utility LP.*differs from the LP optimum"):
        maximize_utility(m, PIECEWISE)


def test_value_check_catches_a_wrong_shortfall_optimum(tampered):
    m = random_bounded_market(np.random.default_rng(33))
    claim = Claim(np.linspace(0.5, 2.0, m.n_states))
    with pytest.raises(NumericError, match="shortfall hedging.*differs from the LP optimum"):
        shortfall_hedge(m, claim, PiecewiseLinearLoss(), v0=0.3)


def test_value_check_catches_a_wrong_tree_optimum(tampered):
    cs = preset_constraints("box", dim=1, lower=[1.0], upper=[1.0])
    tree = iid_tree(make_market([[0.8], [-0.4]], constraints=cs), horizon=2)
    with pytest.raises(NumericError, match="tree LP.*differs from the LP optimum"):
        backward_induction(tree, PIECEWISE)


def test_shortfall_strategy_lies_in_the_return_span():
    """Two assets with equal returns span one direction: the hedge holds no
    position orthogonal to it, and its risk is that of the one-asset
    market of their sum."""
    returns = np.array([[-0.5, -0.5], [0.2, 0.2], [1.0, 1.0]])
    box = ConstraintSet(2, np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 1.0]))
    m = make_market(returns, probs=[0.3, 0.4, 0.3], constraints=box)
    claim = Claim(np.array([0.0, 0.4, 1.5]))
    loss = PiecewiseLinearLoss(((1.0, 0.0), (2.0, -0.2)))
    v, strategy, risk = shortfall_hedge(m, claim, loss, v0=0.4)
    assert risk > 0.0
    assert np.max(np.abs(strategy - m.span.project(strategy))) <= 1e-12
    assert np.allclose(strategy[0], strategy[1], atol=1e-12)
    single = make_market(returns[:, :1], probs=[0.3, 0.4, 0.3],
                         constraints=ConstraintSet(1, np.array([[1.0], [-1.0]]),
                                                   np.array([1.0, 1.0])))
    assert risk == pytest.approx(shortfall_hedge(single, claim, loss, v0=0.4)[2], abs=1e-12)
    wealth = v * (1.0 + m.returns @ strategy)
    assert risk == pytest.approx(float(m.probs @ loss.value(claim.payoff - wealth)), abs=1e-9)


def _span_market():
    """Four states, three assets whose last two have equal returns: a return
    span of two dimensions, in a box on it."""
    returns = np.array([[0.3, -0.2], [-0.4, 0.5], [0.6, 0.2], [-0.2, -0.3]])
    normals = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    box = ConstraintSet(3, np.vstack([normals, -normals]), np.ones(4))
    m = make_market(returns[:, [0, 1, 1]], constraints=box)
    assert m.span.basis.shape[1] == 2 and check_na1(m).holds
    return m


def test_depth_one_lps_have_no_leaf_wealth_columns(linprog_calls):
    """The piecewise one-period optimum and the shortfall hedge are each one
    LP with the root wealth, ``k`` span positions and one epigraph column
    per state as columns, and no equality row: a state's wealth is written
    through the root's columns."""
    m = _span_market()
    claim = Claim(np.array([0.5, 0.0, 1.2, 0.3]))
    for solve in (lambda: maximize_utility(m, PIECEWISE),
                  lambda: shortfall_hedge(m, claim, PiecewiseLinearLoss(), v0=0.3)):
        linprog_calls.clear()
        solve()
        [call] = linprog_calls
        assert call["A_ub"].shape[1] == 1 + 2 + m.n_states
        assert call["A_eq"] is None


def test_tree_lp_has_one_equality_row_per_inner_edge(linprog_calls):
    """On a depth-2 iid tree the piecewise LP's equality rows are the edges
    into the internal nodes other than the root, one each; the edges into
    the leaves carry no row of their own."""
    m = _span_market()
    tree = iid_tree(m, horizon=2)
    assert global_na1(tree).holds
    linprog_calls.clear()
    backward_induction(tree, PIECEWISE)
    [call] = linprog_calls
    assert len(call["A_eq"]) == len(tree.internal_ids()) - 1 == m.n_states


def _solve_lp_callers():
    """``(module file, enclosing function)`` of every call of ``solve_lp``
    in the package outside ``lp.py``."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "lp.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "solve_lp":
                        callers.add((path.name, function.name))
    return callers


def test_no_lp_outside_the_rounds():
    """Every LP of the package, the wealth grid's included, is a block of an
    LP task's round."""
    assert _solve_lp_callers() == set()


def test_no_module_asks_na1_outside_the_gate():
    """No module of the package calls ``check_na1``: work that needs NA1
    asks ``arbitrage._with_na1``, whose LPs share its rounds."""
    calls = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "check_na1" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert calls == set()
