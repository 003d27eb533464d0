"""The LP wrapper: every LP runs without presolve and the presolve-on retry
of status 4 is taken and logged, stacked block-diagonal LPs give every block
the result it gets on its own, and a cone's span takes an LP only when the
cone has implicit equalities."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

import na1lab.lp
from na1lab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, _solve_stacked, solve_lp
from test_cli import market_doc, run_command, scalable_doc, tree_doc


def test_presolve_retry_is_logged(linprog_calls, monkeypatch, caplog):
    counted = na1lab.lp.linprog

    def status_four_then_solve(*args, **kwargs):
        result = counted(*args, **kwargs)
        if len(linprog_calls) == 1:
            return SimpleNamespace(status=4, message="model_status is Unknown")
        return result

    monkeypatch.setattr(na1lab.lp, "linprog", status_four_then_solve)
    with caplog.at_level(logging.DEBUG, logger="na1lab.lp"):
        result = solve_lp(
            np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0])
        )
    assert result.status == OPTIMAL
    assert result.value == pytest.approx(2.0)
    assert [call.get("options") for call in linprog_calls] == [{"presolve": False}, None]
    [record] = [r for r in caplog.records if r.name == "na1lab.lp"]
    assert record.levelno == logging.DEBUG
    assert "presolve on" in record.getMessage()
    assert "model_status is Unknown" in record.getMessage()


@pytest.mark.parametrize("command, doc", [
    ("analyze", market_doc(claim=[0.0, 1.5])),
    ("analyze", scalable_doc()),
    ("tree", tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0}, utility={"kind": "log"})),
    ("tree", tree_doc(utility={"kind": "log"}, bad_middle=True)),
])
def test_every_lp_runs_without_presolve(tmp_path, linprog_calls, command, doc):
    """Commands whose LPs include the classical search, NA1, the witness ray,
    super-hedging and a tree pass pass presolve off to every call."""
    rc, _ = run_command(tmp_path, command, doc)
    assert rc == 0
    assert linprog_calls
    assert all(call.get("options") == {"presolve": False} for call in linprog_calls)


def random_block(rng, n, maximize):
    """A bounded feasible LP in ``n`` variables with a generic (unique)
    optimum: random rows around a feasible origin, a box, sometimes one
    equality through a random box point, and a cost of random magnitude."""
    a_ub = rng.standard_normal((n + 2, n))
    block = dict(
        cost=rng.standard_normal(n) * 10.0 ** rng.integers(-13, 6),
        a_ub=a_ub,
        b_ub=rng.uniform(0.1, 1.0, n + 2),
        bounds=[(-1.0, 1.0)] * n,
        maximize=maximize,
    )
    if rng.random() < 0.5:
        a_eq = rng.standard_normal((1, n))
        block.update(a_eq=a_eq, b_eq=a_eq @ rng.uniform(-0.05, 0.05, n))
    return block


def test_stacked_blocks_match_separate_solves(linprog_calls):
    rng = np.random.default_rng(3)
    blocks = [random_block(rng, int(rng.integers(1, 5)), bool(rng.random() < 0.5)) for _ in range(16)]
    separate = [solve_lp(**block) for block in blocks]
    linprog_calls.clear()
    stacked = _solve_stacked(blocks)
    assert len(linprog_calls) == 1
    for alone, together in zip(separate, stacked):
        assert together.status == alone.status == OPTIMAL
        assert together.value == pytest.approx(alone.value, rel=1e-9, abs=1e-12 * abs(alone.value))
        np.testing.assert_allclose(together.x, alone.x, atol=1e-9)
        np.testing.assert_allclose(together.marginals_ub, alone.marginals_ub, rtol=1e-7, atol=1e-12)


def test_failed_stack_gives_every_block_its_own_status(linprog_calls):
    rng = np.random.default_rng(4)
    good = random_block(rng, 2, False)
    infeasible = dict(cost=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    unbounded = dict(cost=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], maximize=True)
    results = _solve_stacked([good, infeasible, unbounded, good])
    assert [r.status for r in results] == [OPTIMAL, INFEASIBLE, UNBOUNDED, OPTIMAL]
    # the stacked LP, its presolve-on retry of status 4, then one LP per
    # block of the failed chunk
    assert len(linprog_calls) == 6
    assert results[0].value == pytest.approx(solve_lp(**good).value, rel=1e-12)


def test_failed_stack_is_logged(caplog):
    rng = np.random.default_rng(4)
    good = random_block(rng, 2, False)
    infeasible = dict(cost=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    unbounded = dict(cost=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], maximize=True)
    with caplog.at_level(logging.DEBUG, logger="na1lab.lp"):
        _solve_stacked([good, infeasible, unbounded, good])
    retry, split = [r for r in caplog.records if r.name == "na1lab.lp"]
    assert retry.levelno == split.levelno == logging.DEBUG
    assert retry.getMessage().startswith("LP status 4 (")
    assert retry.getMessage().endswith("); retrying with presolve on")
    assert split.getMessage() == "stacked LP of 4 blocks not optimal; solving them one by one"


def test_entry_budget_splits_the_stack(monkeypatch, linprog_calls):
    rng = np.random.default_rng(5)
    # every block is 5 rows by 3 columns
    blocks = [random_block(rng, 3, True) for _ in range(7)]
    for block in blocks:
        block.pop("a_eq", None)
        block.pop("b_eq", None)
    monkeypatch.setattr(na1lab.lp, "STACK_ENTRIES", (3 * 5) * (3 * 3))
    results = _solve_stacked(blocks)
    assert len(linprog_calls) == 3  # chunks of 3, 3 and 1 blocks
    for block, result in zip(blocks, results):
        assert result.value == pytest.approx(solve_lp(**block).value, rel=1e-9)


def test_cone_span_needs_an_lp_only_for_implicit_equalities(linprog_calls):
    """The quadrant has an interior point, which numpy finds; cut by
    ``x0 <= 0`` it becomes a ray, whose two rows on ``x0`` are implicit
    equalities that only the LP finds."""
    quadrant = np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -2.0]])
    basis, strict = na1lab.lp.run(na1lab.lp.cone_span(quadrant))
    assert not linprog_calls
    np.testing.assert_array_equal(basis, np.eye(2))
    assert strict.tolist() == [True, True, True]
    basis, strict = na1lab.lp.run(na1lab.lp.cone_span(np.vstack([quadrant, [[1.0, 0.0]]])))
    assert len(linprog_calls) == 1
    assert strict.tolist() == [False, True, True, False]
    np.testing.assert_allclose(np.abs(basis), [[0.0], [1.0]], atol=1e-12)
