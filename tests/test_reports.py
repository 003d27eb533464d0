"""The report rule shared by every result class.

Each class reports its dataclass fields less ``_unreported`` as plain JSON
data.  One hand-built instance per class is checked against a hand-written
dict, types included: a float stays a float, an int an int, a bool a bool,
arrays and tuples become lists and node ids become strings.
"""

from dataclasses import fields

import numpy as np
import pytest

from na1lab.arbitrage import ArbitrageCertificate, Esmm, Na1Certificate
from na1lab.hedging import ValuationReport
from na1lab.market import ConstraintSet
from na1lab.portfolio import Deflator, OptimalPortfolio
from na1lab.tree import (
    BackwardInductionResult,
    PolicyProcess,
    ScenarioTree,
    TreeHedge,
    TreeNa1Report,
    TreeNode,
    global_na1,
)


def assert_same(got, expected, path="$"):
    """``got == expected`` with equal types at every level."""
    assert type(got) is type(expected), f"{path}: {type(got).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), path
        for key in expected:
            assert_same(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), path
        for i, (a, b) in enumerate(zip(got, expected)):
            assert_same(a, b, f"{path}[{i}]")
    else:
        assert got == expected, path


HOLDS = Na1Certificate("na1_holds", bound_radius=np.float64(2.0), threshold=1e-9,
                       multipliers=np.ones((2, 1)), radius_bound=3.0)
FAILS = Na1Certificate("na1_fails", witness_ray=np.array([1.0, 0.0]), threshold=1e-9)
HOLDS_REPORT = {"verdict": "na1_holds", "witness_ray": None, "bound_radius": 2.0, "threshold": 1e-9}
FAILS_REPORT = {"verdict": "na1_fails", "witness_ray": [1.0, 0.0], "bound_radius": None,
                "threshold": 1e-9}
POLICY = PolicyProcess({"r": np.array([0.25])}, {"r": 1.0, "u": np.float64(1.2), "d": 0.9})
POLICY_REPORT = {"strategies": {"r": [0.25]}, "wealth": {"r": 1.0, "u": 1.2, "d": 0.9}}

CASES = [
    (ArbitrageCertificate("arbitrage_found", np.array([1.0, -0.5]), np.array([0.5, 0.0]),
                          np.float64(0.25), reference=np.array([0.0, 0.0]), threshold=1e-9),
     {"verdict": "arbitrage_found", "strategy": [1.0, -0.5], "gains": [0.5, 0.0],
      "objective": 0.25, "reference": [0.0, 0.0], "threshold": 1e-9}),
    (HOLDS, HOLDS_REPORT),
    (Esmm(np.array([0.25, 0.75]), np.array([0.5, 1.5]), np.array([-0.125]), np.float64(0.0)),
     {"measure": [0.25, 0.75], "density": [0.5, 1.5], "strategy": [-0.125], "slack": 0.0,
      "threshold": 1e-8}),
    (OptimalPortfolio(np.array([0.5]), np.float64(0.0625), 1e-11, 7, (np.int64(1), 0), (),
                      Deflator(np.array([1.0]), 1.0)),
     {"strategy": [0.5], "value": 0.0625, "gradient_norm": 1e-11, "iterations": 7,
      "active_constraints": [1, 0], "active_wealth_floors": []}),
    (Deflator(np.array([1.25, 0.75]), np.float64(0.999)),
     {"values": [1.25, 0.75], "certificate": 0.999, "threshold": 1.0 + 1e-8}),
    (ValuationReport(np.float64(0.75), np.array([0.5]), 0.75, np.array([1.5, 0.5]), 0.0,
                     np.bool_(False), "optimal"),
     {"primal_value": 0.75, "strategy": [0.5], "dual_value": 0.75, "dual_deflator": [1.5, 0.5],
      "gap": 0.0, "attainable": False, "lp_status": "optimal"}),
    (TreeNa1Report(False, {0: HOLDS, 1: FAILS}, (1,)),
     {"holds": False, "certificates": {"0": HOLDS_REPORT, "1": FAILS_REPORT}, "failing": ["1"]}),
    (TreeHedge(np.float64(0.5), {"r": 0.5, "u": 1.0, "d": 0.0}, {"r": np.array([0.75])}),
     {"value": 0.5, "node_values": {"r": 0.5, "u": 1.0, "d": 0.0}, "strategies": {"r": [0.75]}}),
    (POLICY, POLICY_REPORT),
    (BackwardInductionResult(np.float64(0.125), POLICY, {"r": 0.125, "u": 0.0, "d": 0.0},
                             {"utility_form": "log", "exact": True}),
     {"value": 0.125, "policy": POLICY_REPORT, "node_values": {"r": 0.125, "u": 0.0, "d": 0.0},
      "diagnostics": {"utility_form": "log", "exact": True}}),
]


@pytest.mark.parametrize("result, expected", CASES, ids=[type(r).__name__ for r, _ in CASES])
def test_report_is_the_reported_fields_as_plain_data(result, expected):
    report = result.to_dict()
    assert_same(report, expected)
    reported = {f.name for f in fields(result)} - set(result._unreported)
    assert set(report) == reported
    assert not set(report) & set(result._unreported)


def test_deflator_constructs_from_values_and_certificate():
    deflator = Deflator(np.array([1.0, 0.5]), 1.0)
    assert deflator.threshold == 1.0 + 1e-8
    assert deflator.to_dict()["threshold"] == 1.0 + 1e-8
    with pytest.raises(TypeError):
        Deflator(np.array([1.0]), 1.0, 2.0)


def test_integer_node_ids_are_reported_as_strings():
    """A tree whose nodes are 0, 1 and 2 and whose root market scales an
    arbitrage without bound reports its failing node as "0", as the
    certificate's key is."""
    nodes = (TreeNode(0), TreeNode(1, parent=0, prob=0.5, returns=[0.5]),
             TreeNode(2, parent=0, prob=0.5, returns=[0.0]))
    report = global_na1(ScenarioTree(nodes, {0: ConstraintSet(1, [[-1.0]], [0.0])}))
    assert report.failing == (0,)
    data = report.to_dict()
    assert data["failing"] == ["0"]
    assert list(data["certificates"]) == ["0"]
    assert_same(data["certificates"]["0"], report.certificates[0].to_dict())
