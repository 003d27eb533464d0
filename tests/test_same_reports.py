"""``tools/same_reports.py``'s comparison of report texts, on synthetic
reports."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_reports.py"
_SPEC = importlib.util.spec_from_file_location("same_reports", _PATH)
same_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_reports)

REPORT = {"na1": {"verdict": "na1_holds", "bound_radius": 2.0},
          "esmm": {"measure": [0.25, 0.75], "slack": 0.0},
          "hedge": None}


def text(report):
    return json.dumps(report, indent=2, sort_keys=True)


def edited(**changes):
    report = json.loads(json.dumps(REPORT))
    for path, value in changes.items():
        section, key = path.split("__")
        report[section][key] = value
    return report


class TestLargestChange:
    def test_equal_reports_change_nothing(self):
        assert same_reports.largest_change(REPORT, json.loads(text(REPORT))) == (0.0, "$")

    def test_the_largest_relative_change_is_named(self):
        after = edited(esmm__measure=[0.25 * (1 + 1e-9), 0.75 * (1 + 1e-3)], na1__bound_radius=2.5)
        change, path = same_reports.largest_change(REPORT, after)
        assert path == "$.na1.bound_radius"
        assert change == pytest.approx(0.2)

    @pytest.mark.parametrize("after, path", [
        (edited(na1__verdict="na1_fails"), "$.na1.verdict"),
        (edited(esmm__measure=[1.0]), "$.esmm.measure"),
        (edited(esmm__slack=None), "$.esmm.slack"),
        (edited(esmm__extra=1.0), "$.esmm"),
        ({**REPORT, "hedge": {}}, "$.hedge"),
    ])
    def test_a_changed_shape_is_an_infinite_change(self, after, path):
        assert same_reports.largest_change(REPORT, after) == (math.inf, path)

    def test_an_int_is_not_its_float(self):
        assert same_reports.largest_change({"x": 1}, {"x": 1.0}) == (math.inf, "$.x")
        assert same_reports.largest_change([True], [1]) == (math.inf, "$[0]")


class TestDifferences:
    def test_identical_texts_give_no_line(self):
        reports = {"small_markets 0 analyze": text(REPORT), "ci tree-log": "exit 2\n"}
        assert same_reports.differences(reports, dict(reports)) == []

    def test_each_differing_operation_gets_a_line(self):
        before = {"a": text(REPORT), "b": text(REPORT), "c": "exit 2\n", "d": text(REPORT)}
        after = {"a": text(REPORT), "b": text(edited(esmm__slack=1e-9)), "c": "exit 3\n",
                 "e": text(REPORT)}
        assert same_reports.differences(before, after) == [
            "b: largest relative change 1.000e+00 at $.esmm.slack",
            "c: largest relative change inf at $",
            "d: only before ran it",
            "e: only after ran it",
        ]

    def test_bytes_that_differ_with_equal_values_still_differ(self):
        before = {"a": text(REPORT)}
        after = {"a": json.dumps(REPORT)}
        assert same_reports.differences(before, after) == [
            "a: largest relative change 0.000e+00 at $"]
