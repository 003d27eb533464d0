"""The LP wrapper: the presolve-off retry is taken and logged."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest

import na1lab.lp
from na1lab.lp import OPTIMAL, solve_lp


def test_presolve_retry_is_logged(monkeypatch, caplog):
    linprog = na1lab.lp.linprog
    options = []

    def status_four_then_solve(*args, **kwargs):
        options.append(kwargs.get("options"))
        if len(options) == 1:
            return SimpleNamespace(status=4, message="model_status is Unknown")
        return linprog(*args, **kwargs)

    monkeypatch.setattr(na1lab.lp, "linprog", status_four_then_solve)
    with caplog.at_level(logging.DEBUG, logger="na1lab.lp"):
        result = solve_lp(
            np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0])
        )
    assert result.status == OPTIMAL
    assert result.value == pytest.approx(2.0)
    assert options == [None, {"presolve": False}]
    [record] = [r for r in caplog.records if r.name == "na1lab.lp"]
    assert record.levelno == logging.DEBUG
    assert "presolve off" in record.getMessage()
    assert "model_status is Unknown" in record.getMessage()
