"""Command-line frontend: document parsing, canonical serialization, the five
commands, exit-code mapping, and the plotted line geometry.

Oracles used here:

* the two-state hedging document is priced by hand: the cover rows are
  v - 0.5 y >= 0 and v + y >= 1.5 with 0 <= y <= v, the cap y = v binds,
  so v = 1.5 / 2 = 0.75,
* the CSV intersection is recovered by solving the two affine columns as
  lines through their first two rows, independently of how the grid was
  generated,
* the admissibility columns are compared against two_dim_admissibility just
  inside and just outside the band,
* reports are re-serialized after a JSON parse and compared byte for byte.
"""

import json
import logging
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from na1lab.cli import RunConfig, main, run
from na1lab.errors import InvalidParameterError, NumericError, SchemaError
from na1lab.factor import FactorDistribution, two_dim_admissibility
from na1lab.io import (
    dumps_canonical,
    load_document,
    parse_factor_model,
    parse_market,
    parse_tree,
    parse_utility,
)
from na1lab.tree import global_na1


def market_doc(claim=None):
    doc = {
        "probs": [0.5, 0.5],
        "returns": [[-0.5], [1.0]],
        "constraints": {
            "halfspaces": [{"a": [-1.0], "b": 0.0}, {"a": [1.0], "b": 1.0}]
        },
    }
    if claim is not None:
        doc["claim"] = claim
    return doc


def scalable_doc():
    # One asset that never loses; long positions scale without bound.
    return {
        "probs": [0.5, 0.5],
        "returns": [[0.5], [0.0]],
        "constraints": {"halfspaces": [{"a": [-1.0], "b": 0.0}], "preset": "no_short"},
    }


def factor_doc(gamma=0.5, borrow_limit=2.5):
    return {
        "loadings": [[1.0, gamma], [0.0, 1.0]],
        "supports": [[0.0, "inf"], [-1.0, "inf"]],
        "borrow_limit": borrow_limit,
    }


def tree_doc(claim=None, utility=None, bad_middle=False, distinct=False):
    """Two-period binomial tree, the same market at every node; ``distinct``
    perturbs node ``d``'s returns (on the edge into ``d`` and the one into
    ``dd``) so that the three node markets differ."""
    box = {"halfspaces": [{"a": [-1.0], "b": 1.0}, {"a": [1.0], "b": 1.0}]}
    free_long = {"halfspaces": [{"a": [-1.0], "b": 0.0}]}
    down, down_down = (-0.3, -0.2) if distinct else (-0.4, -0.4)
    doc = {
        "constraint_sets": {"box": box, "free_long": free_long},
        "nodes": [
            {"id": "root", "constraints": "box"},
            {"id": "u", "parent": "root", "prob": 0.5, "returns": [0.8],
             "constraints": "free_long" if bad_middle else "box"},
            {"id": "d", "parent": "root", "prob": 0.5, "returns": [down],
             "constraints": "box"},
            {"id": "uu", "parent": "u", "prob": 0.5, "returns": [0.8]},
            {"id": "ud", "parent": "u", "prob": 0.5,
             "returns": [0.0 if bad_middle else -0.4]},
            {"id": "du", "parent": "d", "prob": 0.5, "returns": [0.8]},
            {"id": "dd", "parent": "d", "prob": 0.5, "returns": [down_down]},
        ],
    }
    if claim is not None:
        doc["claim"] = claim
    if utility is not None:
        doc["utility"] = utility
    return doc


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_command(tmp_path, command, doc, *extra):
    src = write_doc(tmp_path / "input.json", doc)
    out = tmp_path / "report.json"
    rc = main(["--command", command, "--input", src, "--output", str(out), *extra])
    return rc, out


class TestDocumentParsing:
    def test_market_fields_survive_parsing(self):
        market, claim = parse_market(market_doc(claim=[0.0, 1.5]))
        assert market.n_states == 2
        assert market.n_assets == 1
        np.testing.assert_allclose(market.returns, [[-0.5], [1.0]])
        np.testing.assert_allclose(market.constraints.normals, [[-1.0], [1.0]])
        np.testing.assert_allclose(claim, [0.0, 1.5])

    def test_market_without_claim(self):
        _, claim = parse_market(market_doc())
        assert claim is None

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.pop("probs"), "probs"),
            (lambda d: d.pop("constraints"), "constraints"),
            (lambda d: d.update(probs="half"), "must be a JSON array"),
            (lambda d: d.update(probs=[0.5, "x"]), "probs[1]"),
            (lambda d: d.update(returns=[[0.1], [0.1, 0.2]]), "inconsistent"),
            (lambda d: d.update(returns=[]), "must not be empty"),
            (
                lambda d: d["constraints"]["halfspaces"].append(
                    {"a": [1.0, 2.0], "b": 0.0}
                ),
                "expected 1",
            ),
            (lambda d: d["constraints"].pop("halfspaces"), "halfspaces"),
        ],
    )
    def test_market_schema_errors_name_the_field(self, mutate, fragment):
        doc = market_doc()
        mutate(doc)
        with pytest.raises(SchemaError, match=None) as err:
            parse_market(doc)
        assert fragment in str(err.value)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            parse_market([1, 2, 3])

    def test_infinite_supports_spelled_as_strings(self):
        model = parse_factor_model(factor_doc())
        assert model.supports[0] == (0.0, math.inf)
        assert model.supports[1] == (-1.0, math.inf)
        assert model.borrow_limit == 2.5

    def test_factor_distributions_parse(self):
        doc = factor_doc()
        doc["supports"] = [[0.0, "inf"], [-1.0, 1.0]]
        doc["dists"] = [
            {"kind": "exponential", "rate": 2.0},
            {"kind": "uniform", "lo": -1.0, "hi": 1.0},
        ]
        doc["labels"] = ["growth", "spread"]
        model = parse_factor_model(doc)
        assert model.dists is not None and len(model.dists) == 2
        assert model.labels == ("growth", "spread")

    @pytest.mark.parametrize("factor, dist, expected", [
        (1, {"kind": "point_mass", "values": [-1.0, 0.5, 1.0]}, FactorDistribution.point_mass([-1.0, 0.5, 1.0])),
        (1, {"kind": "point_mass", "values": [-1.0, 1.0], "weights": [0.25, 0.75]},
         FactorDistribution.point_mass([-1.0, 1.0], [0.25, 0.75])),
        (0, {"kind": "lognormal", "mu": 0.1, "sigma": 0.4}, FactorDistribution.lognormal(0.1, 0.4)),
    ])
    def test_factor_distribution_documents_match_their_constructors(self, factor, dist, expected):
        doc = factor_doc()
        doc["supports"] = [[0.0, "inf"], [-1.0, 1.0]]
        doc["dists"] = [{"kind": "uniform", "lo": 0.0, "hi": 1.0}, {"kind": "uniform", "lo": -1.0, "hi": 1.0}]
        doc["dists"][factor] = dist
        assert parse_factor_model(doc).dists[factor] == expected

    def test_factor_rejects_unknown_distribution_kind(self):
        doc = factor_doc()
        doc["dists"] = [{"kind": "cauchy"}, {"kind": "uniform", "lo": -1, "hi": 1}]
        with pytest.raises(SchemaError, match="point_mass"):
            parse_factor_model(doc)

    def test_factor_rejects_nan_support(self):
        doc = factor_doc()
        doc["supports"][1][0] = "nan"
        with pytest.raises(SchemaError, match="number"):
            parse_factor_model(doc)

    def test_factor_support_takes_json_infinity_but_not_nan(self):
        doc = factor_doc()
        doc["supports"][0][1] = math.inf  # what JSON's Infinity parses to
        assert parse_factor_model(doc).supports[0] == (0.0, math.inf)
        doc["supports"][0][1] = math.nan
        with pytest.raises(SchemaError, match="finite"):
            parse_factor_model(doc)

    def test_integer_past_float_range_is_a_schema_error(self):
        doc = market_doc()
        doc["returns"][0][0] = 10**400
        with pytest.raises(SchemaError, match="finite"):
            parse_market(doc)

    def test_tree_document_parses(self):
        tree, claim, utility = parse_tree(
            tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                     utility={"kind": "log"})
        )
        assert tree.horizon == 2
        assert set(tree.leaf_ids) == {"uu", "ud", "du", "dd"}
        assert claim == {"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0}
        assert utility.kind == "log"

    def test_tree_claim_as_array(self):
        _, claim, _ = parse_tree(tree_doc(claim=[2.0, 0.5, 0.5, 0.0]))
        np.testing.assert_allclose(claim, [2.0, 0.5, 0.5, 0.0])

    def test_tree_unknown_constraint_reference(self):
        doc = tree_doc()
        doc["nodes"][0]["constraints"] = "missing_table"
        with pytest.raises(SchemaError, match="missing_table"):
            parse_tree(doc)

    def test_tree_nonstring_id_rejected(self):
        doc = tree_doc()
        doc["nodes"][3]["id"] = 7
        with pytest.raises(SchemaError, match="id must be a string"):
            parse_tree(doc)

    def test_utility_kinds(self):
        assert parse_utility({"kind": "log"}).kind == "log"
        power = parse_utility({"kind": "power", "gamma": -1.0})
        assert power.kind == "power" and power.gamma == -1.0
        pw = parse_utility(
            {"kind": "piecewise_linear", "knots_x": [0.5, 1.0, 2.0],
             "knots_y": [-1.0, 0.0, 0.5]}
        )
        assert pw.kind == "piecewise_linear"
        with pytest.raises(SchemaError, match="kind"):
            parse_utility({"kind": "quadratic"})

    def test_load_document_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "probs": [0.5,]\n}')
        with pytest.raises(SchemaError) as err:
            load_document(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_load_document_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_document(tmp_path / "absent.json")


class TestCanonicalJson:
    def test_seventeen_significant_digits(self):
        assert dumps_canonical(1.0 / 3.0) == "0.33333333333333331\n"

    def test_negative_zero_is_normalized(self):
        assert dumps_canonical(-0.0) == "0\n"

    def test_nonfinite_values_become_strings(self):
        text = dumps_canonical([math.inf, -math.inf, math.nan])
        assert json.loads(text) == ["inf", "-inf", "nan"]

    def test_keys_sorted_and_indented(self):
        text = dumps_canonical({"b": [1, True], "a": None})
        assert text == '{\n  "a": null,\n  "b": [\n    1,\n    true\n  ]\n}\n'

    def test_numpy_scalars_and_arrays_serialize(self):
        text = dumps_canonical(
            {"v": np.array([0.5, 0.25]), "n": np.int64(3), "f": np.bool_(False)}
        )
        assert json.loads(text) == {"v": [0.5, 0.25], "n": 3, "f": False}

    def test_rejects_non_string_keys(self):
        with pytest.raises(SchemaError, match="strings"):
            dumps_canonical({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(SchemaError, match="cannot serialize"):
            dumps_canonical(object())

    def test_random_documents_round_trip_byte_identically(self):
        rng = np.random.default_rng(20240817)

        def random_value(depth):
            kind = rng.integers(0, 6 if depth < 3 else 4)
            if kind == 0:
                return float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            if kind == 1:
                return int(rng.integers(-10**9, 10**9))
            if kind == 2:
                return bool(rng.integers(0, 2))
            if kind == 3:
                return None
            if kind == 4:
                return [random_value(depth + 1) for _ in range(rng.integers(0, 4))]
            return {
                f"k{j}": random_value(depth + 1)
                for j in range(rng.integers(0, 4))
            }

        for _ in range(200):
            doc = {"payload": random_value(0)}
            text = dumps_canonical(doc)
            assert dumps_canonical(json.loads(text)) == text


class TestAnalyzeCommand:
    def test_fixture_claim_prices_at_three_quarters(self, tmp_path):
        rc, out = run_command(tmp_path, "analyze", market_doc(claim=[0.0, 1.5]))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["hedge"]["primal_value"] == pytest.approx(0.75, abs=1e-9)
        assert report["hedge"]["dual_value"] == pytest.approx(0.75, abs=1e-9)
        assert report["classical_arbitrage"]["verdict"] == "no_arbitrage"
        assert report["na1"]["verdict"] == "na1_holds"
        assert report["esmm"]["slack"] <= 1e-8

    def test_one_round_of_lps(self, tmp_path, linprog_calls):
        """The classical search, NA1, the cone span of the ESMM and the
        super-hedging LP in one LP; the ESMM's slack and the deflator's
        re-certification are the weak-duality bounds of their optima's
        multipliers, which need no LP (they took a second one before)."""
        rc, out = run_command(tmp_path, "analyze", market_doc(claim=[0.0, 1.5]))
        assert rc == 0
        assert len(linprog_calls) == 1
        report = json.loads(out.read_text())
        assert report["esmm"]["slack"] <= report["esmm"]["threshold"]

    def test_without_claim_the_hedge_section_is_null(self, tmp_path):
        rc, out = run_command(tmp_path, "analyze", market_doc())
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["hedge"] is None
        assert report["esmm"] is not None

    def test_scalable_market_reports_failures_without_erroring(self, tmp_path):
        rc, out = run_command(
            tmp_path, "analyze", scalable_doc() | {"claim": [1.0, 1.0]}
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_arbitrage"]["verdict"] == "arbitrage_found"
        assert report["na1"]["verdict"] == "na1_fails"
        assert report["esmm"] is None
        assert report["hedge"] is None

    def test_bounded_arbitrage_keeps_na1_and_nulls_the_esmm(self, tmp_path):
        # The asset never loses, but the box caps the position: a classical
        # arbitrage that does not scale, so NA1 holds and no ESMM exists.
        doc = {
            "probs": [0.5, 0.5],
            "returns": [[0.5], [0.0]],
            "constraints": {
                "halfspaces": [{"a": [-1.0], "b": 1.0}, {"a": [1.0], "b": 1.0}]
            },
            "claim": [1.0, 0.0],
        }
        rc, out = run_command(tmp_path, "analyze", doc)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_arbitrage"]["verdict"] == "arbitrage_found"
        assert report["na1"]["verdict"] == "na1_holds"
        assert report["esmm"] is None
        assert report["hedge"] is not None

    def test_tolerance_override_reaches_the_certificates(self, tmp_path):
        rc, out = run_command(
            tmp_path, "analyze", market_doc(), "--tol-lp", "5e-9"
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_arbitrage"]["threshold"] == pytest.approx(5e-9)
        assert report["na1"]["threshold"] == pytest.approx(5e-9)
        assert report["tolerances"]["lp"] == pytest.approx(5e-9)

    def test_gain_tolerance_reaches_the_esmm(self, tmp_path):
        # The best expected gain, 5e-9, is an arbitrage at the default
        # tolerance but not at --tol-lp 1e-8; the ESMM's own classical search
        # must use the same tolerance as the reported one.
        doc = {
            "probs": [0.5, 0.5],
            "returns": [[1e-8], [0.0]],
            "constraints": {
                "halfspaces": [{"a": [1.0], "b": 1.0}, {"a": [-1.0], "b": 1.0}]
            },
        }
        rc, out = run_command(tmp_path, "analyze", doc, "--tol-lp", "1e-8")
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_arbitrage"]["verdict"] == "no_arbitrage"
        assert report["esmm"]["slack"] <= 1e-8


class TestNumeraireCommand:
    def test_report_carries_certified_growth_portfolio(self, tmp_path):
        rc, out = run_command(tmp_path, "numeraire", market_doc())
        assert rc == 0
        report = json.loads(out.read_text())
        # Closed form: 0.5 * 0.5 / (1 - 0.5 pi) = 0.5 / (1 + pi) at pi = 0.5.
        assert report["portfolio"]["strategy"][0] == pytest.approx(0.5, abs=1e-8)
        assert report["wealth_ratio_certificate"] <= 1.0 + 1e-8
        np.testing.assert_allclose(
            report["deflator"]["values"], [4.0 / 3.0, 2.0 / 3.0], atol=1e-7
        )

    def test_one_round_of_lps(self, tmp_path, linprog_calls):
        """NA1 in one LP; the weak-duality bound of the log optimum's
        multipliers both certifies the numeraire and gives the deflator's
        certificate, with no wealth-ratio LP (which took a second one
        before)."""
        rc, out = run_command(tmp_path, "numeraire", market_doc())
        assert rc == 0
        assert len(linprog_calls) == 1
        report = json.loads(out.read_text())
        assert report["deflator"]["certificate"] == report["wealth_ratio_certificate"]
        assert 1.0 <= report["wealth_ratio_certificate"] <= 1.0 + 1e-8

    def test_optimizer_tolerance_override(self, tmp_path):
        rc, out = run_command(
            tmp_path, "numeraire", market_doc(), "--tol-opt", "1e-12"
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["portfolio"]["gradient_norm"] <= 1e-12

    def test_loose_optimizer_tolerance_fails_certification_as_numeric(self, tmp_path, capsys):
        """A numeraire solved to a loose tolerance whose wealth ratios miss
        1 + 1e-8 is a numeric failure (exit 3), as on the default path."""
        doc = {"probs": [0.3, 0.3, 0.4],
               "returns": [[0.5, -0.2], [-0.3, 0.4], [-0.2, -0.3]],
               "constraints": {"halfspaces": []}}
        rc, _ = run_command(tmp_path, "numeraire", doc, "--tol-opt", "1e-2")
        assert rc == 3
        assert "wealth-ratio certification failed" in capsys.readouterr().err


class TestHedgeCommand:
    def test_valuation_matches_the_hand_price(self, tmp_path):
        rc, out = run_command(tmp_path, "hedge", market_doc(claim=[0.0, 1.5]))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["valuation"]["primal_value"] == pytest.approx(0.75, abs=1e-9)
        assert report["valuation"]["gap"] <= 1e-7

    def test_one_round_of_lps(self, tmp_path, linprog_calls):
        """NA1 and the super-hedging LP in one LP; the budget rows'
        multipliers re-certify the deflator without the LP that took a
        second round before."""
        rc, _ = run_command(tmp_path, "hedge", market_doc(claim=[0.0, 1.5]))
        assert rc == 0
        assert len(linprog_calls) == 1

    def test_claim_is_mandatory(self, tmp_path):
        rc, _ = run_command(tmp_path, "hedge", market_doc())
        assert rc == 1


def line_through(x0, y0, x1, y1):
    slope = (y1 - y0) / (x1 - x0)
    return slope, y0 - slope * x0


class TestFactorCommand:
    def test_csv_lines_intersect_at_the_maximal_arbitrage(self, tmp_path):
        rc, out = run_command(tmp_path, "factor", factor_doc(0.5, 2.5))
        assert rc == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(
            report["max_arbitrage_strategy"], [5.0, -2.5], atol=1e-12
        )
        assert report["na1"] is True
        assert report["csv"] == "arbitrage_line.csv"

        rows = np.loadtxt(tmp_path / "arbitrage_line.csv", delimiter=",", skiprows=1)
        assert rows.shape == (200, 5)
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] == pytest.approx(1.2 * 2.5 / 0.5)
        # Solve the two affine columns as lines; they must cross at the
        # maximal arbitrage point.
        sa, ia = line_through(rows[0, 0], rows[0, 1], rows[1, 0], rows[1, 1])
        sb, ib = line_through(rows[0, 0], rows[0, 2], rows[1, 0], rows[1, 2])
        x_cross = (ib - ia) / (sa - sb)
        y_cross = sa * x_cross + ia
        assert x_cross == pytest.approx(5.0, abs=1e-9)
        assert y_cross == pytest.approx(-2.5, abs=1e-9)
        # Every tabulated row keeps the two lines exact.
        np.testing.assert_allclose(rows[:, 1], -0.5 * rows[:, 0], atol=1e-14)
        np.testing.assert_allclose(rows[:, 2], 2.5 - rows[:, 0], atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.3, 0.0, -0.7])
    def test_admissibility_band_brackets_the_case_split(self, tmp_path, gamma):
        rc, out = run_command(tmp_path, "factor", factor_doc(gamma, 1.0))
        assert rc == 0
        rows = np.loadtxt(tmp_path / "arbitrage_line.csv", delimiter=",", skiprows=1)
        eps = 1e-6
        for pi1, _, _, upper, lower in rows[::37]:
            assert two_dim_admissibility(gamma, (pi1, upper - eps))
            assert two_dim_admissibility(gamma, (pi1, lower + eps))
            assert not two_dim_admissibility(gamma, (pi1, upper + eps))
            assert not two_dim_admissibility(gamma, (pi1, lower - eps))

    def test_point_mass_and_lognormal_laws_write_the_csv_here(self, tmp_path, monkeypatch, capsys):
        """Without ``--output`` the report goes to stdout and the CSV to the
        working directory."""
        doc = factor_doc(0.5, 2.5)
        doc["supports"] = [[0.0, "inf"], [-1.0, 1.0]]
        doc["dists"] = [
            {"kind": "lognormal", "mu": -0.5, "sigma": 0.3},
            {"kind": "point_mass", "values": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25]},
        ]
        monkeypatch.chdir(tmp_path)
        assert main(["--command", "factor", "--input", write_doc(tmp_path / "input.json", doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["csv"] == "arbitrage_line.csv"
        rows = np.loadtxt(tmp_path / "arbitrage_line.csv", delimiter=",", skiprows=1)
        assert rows.shape == (200, 5)

    def test_no_csv_when_scaling_is_unbounded(self, tmp_path):
        doc = factor_doc(1.5, 1.0)
        doc["supports"] = [[0.0, "inf"], [-1.0 / 1.5, "inf"]]
        rc, out = run_command(tmp_path, "factor", doc)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["na1"] is False
        assert report["max_arbitrage_strategy"] is None
        assert report["csv"] is None
        assert not (tmp_path / "arbitrage_line.csv").exists()

    def test_no_ray_leaves_verdicts_null(self, tmp_path):
        doc = {
            "loadings": [[0.0, 1.0]],
            "supports": [[0.0, "inf"], [-1.0, 1.0]],
        }
        rc, out = run_command(tmp_path, "factor", doc)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["arbitrage_ray"] is None
        assert report["na1"] is None
        assert report["max_arbitrage_strategy"] is None


class TestTreeCommand:
    def test_full_report_sections(self, tmp_path):
        rc, out = run_command(
            tmp_path,
            "tree",
            tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                     utility={"kind": "log"}),
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["na1"]["holds"] is True
        assert report["tree"]["horizon"] == 2
        # The iid two-state step has log optimum pi = 0.625 at every node.
        for pi in report["numeraire"]["strategies"].values():
            assert pi[0] == pytest.approx(0.625, abs=1e-8)
        assert report["deflator"]["root"] == pytest.approx(1.0)
        assert report["hedge"]["value"] == pytest.approx(
            report["hedge"]["node_values"]["root"]
        )
        assert report["optimal"]["value"] == pytest.approx(
            2.0 * (0.5 * math.log(1.5) + 0.5 * math.log(0.75)), abs=1e-9
        )

    def test_failing_node_skips_valuations_but_exits_zero(self, tmp_path):
        rc, out = run_command(
            tmp_path,
            "tree",
            tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                     bad_middle=True),
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["na1"]["holds"] is False
        assert report["na1"]["failing"] == ["u"]
        assert report["numeraire"] is None
        assert report["deflator"] is None
        assert report["hedge"] is None

    def test_piecewise_utility_is_solved_exactly(self, tmp_path):
        rc, out = run_command(
            tmp_path,
            "tree",
            tree_doc(utility={"kind": "piecewise_linear",
                              "knots_x": [0.25, 1.0, 4.0],
                              "knots_y": [-1.0, 0.0, 0.6]}),
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["optimal"] is not None
        assert report["optimal"]["diagnostics"] == {
            "utility_form": "piecewise_linear", "exact": True
        }

    def test_each_node_market_is_built_and_certified_once(self, tmp_path, monkeypatch):
        """One run builds each distinct node market once and decides NA1
        once per market, however many nodes and tree operations read it:
        the three nodes of this tree share one market.  Power utilities tilt
        the node weights on the node market itself."""
        assert self.builds_and_decisions(tmp_path, monkeypatch, distinct=False) == [(1, 1)] * 2

    def test_each_distinct_node_market_is_built_and_certified_once(self, tmp_path, monkeypatch):
        """The twin tree with three different node markets builds and
        certifies each of them once."""
        assert self.builds_and_decisions(tmp_path, monkeypatch, distinct=True) == [(3, 3)] * 2

    @staticmethod
    def builds_and_decisions(tmp_path, monkeypatch, distinct):
        """Market builds and markets decided for NA1 in one run of the tree
        command, with a log and with a power utility."""
        import na1lab.arbitrage
        from na1lab.market import DiscreteMarket

        builds, decisions = [], []
        post_init = DiscreteMarket.__post_init__
        decide = na1lab.arbitrage._decide_na1

        def counted_post_init(market):
            builds.append(1)
            post_init(market)

        def counted_decide(market, tol):
            decisions.append(market)
            return decide(market, tol)

        monkeypatch.setattr(DiscreteMarket, "__post_init__", counted_post_init)
        monkeypatch.setattr(na1lab.arbitrage, "_decide_na1", counted_decide)
        counts = []
        for utility in ({"kind": "log"}, {"kind": "power", "gamma": 0.5}):
            builds.clear()
            decisions.clear()
            rc, _ = run_command(
                tmp_path,
                "tree",
                tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                         utility=utility, distinct=distinct),
            )
            assert rc == 0
            counts.append((len(builds), len(decisions)))
        return counts

    def test_each_log_optimum_is_solved_once(self, tmp_path, monkeypatch):
        """The numeraire process and log-utility backward induction share
        each distinct node market's log optimum: one solver call with one
        problem for the one market of this tree."""
        assert self.solver_batches(tmp_path, monkeypatch, distinct=False) == [1]

    def test_each_distinct_log_optimum_is_solved_once(self, tmp_path, monkeypatch):
        """Three node markets: one solver call with three problems."""
        assert self.solver_batches(tmp_path, monkeypatch, distinct=True) == [3]

    @staticmethod
    def solver_batches(tmp_path, monkeypatch, distinct):
        """Problems in each smooth-solver call of a log-utility tree run."""
        import na1lab.portfolio

        batches = []
        minimize = na1lab.portfolio.minimize_convex

        def counted(derivatives, a_ub, b_ub, start, *args, **kwargs):
            batches.append(len(start))
            return minimize(derivatives, a_ub, b_ub, start, *args, **kwargs)

        monkeypatch.setattr(na1lab.portfolio, "minimize_convex", counted)
        rc, _ = run_command(
            tmp_path, "tree", tree_doc(utility={"kind": "log"}, distinct=distinct)
        )
        assert rc == 0
        return batches

    def test_stacked_passes_need_few_lps(self, tmp_path, linprog_calls, monkeypatch):
        """A 255-node binary tree with its own market at every node: the
        passes share rounds, so the whole run takes at most ``horizon + 1``
        rounds of stacked LPs (the entry budget may split a round into
        several LP calls) and at most one LP per two internal nodes."""
        rounds = self.rounds(monkeypatch)
        rng = np.random.default_rng(17)
        sets, nodes, frontier = {}, [{"id": "n", "constraints": "c_n"}], ["n"]
        horizon = 7
        for depth in range(horizon):
            next_frontier = []
            for parent in frontier:
                sets[f"c_{parent}"] = {"halfspaces": [
                    {"a": a, "b": float(b)}
                    for a, b in zip([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                                    rng.uniform(0.2, 1.5, 4))
                ]}
                p = float(rng.uniform(0.3, 0.7))
                # one state where both assets gain, one where both lose
                up, down = rng.uniform(0.1, 0.9, 2), rng.uniform(-0.6, -0.1, 2)
                for k, (prob, returns) in enumerate(((p, up), (1.0 - p, down))):
                    child = f"{parent}{k}"
                    node = {"id": child, "parent": parent, "prob": prob,
                            "returns": [float(x) for x in returns]}
                    if depth < horizon - 1:
                        node["constraints"] = f"c_{child}"
                    nodes.append(node)
                    next_frontier.append(child)
            frontier = next_frontier
        doc = {
            "constraint_sets": sets,
            "nodes": nodes,
            "claim": {leaf: float(x) for leaf, x in zip(frontier, rng.uniform(0.0, 1.5, 128))},
            "utility": {"kind": "power", "gamma": 0.5},
        }
        rc, out = run_command(tmp_path, "tree", doc)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["tree"]["n_nodes"] == 255
        assert report["na1"]["holds"]
        assert report["hedge"] is not None and report["optimal"] is not None
        assert len(rounds) <= horizon + 1
        assert len(linprog_calls) <= 0.5 * 127

    @staticmethod
    def rounds(monkeypatch):
        """The blocks of each round of stacked LPs, from now on."""
        import na1lab.lp

        rounds = []
        solve_stacked = na1lab.lp._solve_stacked

        def counted(blocks):
            rounds.append(blocks)
            return solve_stacked(blocks)

        monkeypatch.setattr(na1lab.lp, "_solve_stacked", counted)
        return rounds

    @pytest.mark.parametrize("horizon", [3, 4])
    def test_claim_and_log_utility_take_one_lp(self, tmp_path, linprog_calls, monkeypatch, horizon):
        """Each level with its own market: the whole tree is one band, so
        NA1 and the tree's super-hedging LP share the one round.  The
        deflator checks and the re-certifications of the hedges' deflators
        are the weak-duality bounds of their optima's multipliers; with one
        round per level the tree took ``horizon`` rounds."""
        rounds = self.rounds(monkeypatch)
        box = {"halfspaces": [{"a": [-1.0], "b": 1.0}, {"a": [1.0], "b": 1.0}]}
        nodes, frontier = [{"id": "r", "constraints": "box"}], ["r"]
        for depth in range(horizon):
            children = []
            for parent in frontier:
                for step, ret in (("u", 0.8), ("d", -0.4 + 0.05 * depth)):
                    node = {"id": parent + step, "parent": parent, "prob": 0.5, "returns": [ret]}
                    nodes.append(node | ({"constraints": "box"} if depth < horizon - 1 else {}))
                    children.append(parent + step)
            frontier = children
        doc = {"constraint_sets": {"box": box}, "nodes": nodes, "utility": {"kind": "log"},
               "claim": {leaf: float(k % 3) for k, leaf in enumerate(frontier)}}
        rc, out = run_command(tmp_path, "tree", doc)
        assert rc == 0
        assert json.loads(out.read_text())["hedge"] is not None
        assert len(rounds) == len(linprog_calls) == 1

    def test_a_tree_without_na1_makes_only_na1s_lps(self, tmp_path, linprog_calls):
        """The passes run alongside NA1's rounds and stop when it fails."""
        doc = tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                       utility={"kind": "log"}, bad_middle=True)
        rc, out = run_command(tmp_path, "tree", doc)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["na1"]["failing"] == ["u"]
        assert [report[k] for k in ("numeraire", "deflator", "hedge", "optimal")] == [None] * 4
        made = len(linprog_calls)
        linprog_calls.clear()
        assert not global_na1(parse_tree(doc)[0]).holds
        assert made == len(linprog_calls) == 2  # the support LPs, then the ray

    def test_piecewise_tree_lp_is_solved_in_the_first_round(self, tmp_path, monkeypatch):
        rounds = self.rounds(monkeypatch)
        rc, _ = run_command(
            tmp_path, "tree", tree_doc(utility={"kind": "piecewise_linear",
                                                "knots_x": [0.25, 1.0, 4.0],
                                                "knots_y": [-1.0, 0.0, 0.6]}))
        assert rc == 0
        # the tree LP is the one block with equality rows, and the deflator
        # checks, a second round before, are the log optima's dual bounds
        assert [sum("a_eq" in block for block in blocks) for blocks in rounds] == [1]

    def test_speculative_work_stays_held_without_na1(self, tmp_path, monkeypatch, caplog):
        """The tree is one band, so its super-hedging LP, over node u
        without NA1 too, runs in round 1, with NA1's.  Where NA1 fails, no
        error or warning of the passes may surface, not even a failure of
        that hedge."""
        import na1lab.tree

        claim = {"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0}
        bad = tree_doc(claim=claim, utility={"kind": "log"}, bad_middle=True)
        bands = []
        reports = na1lab.tree._superhedge_bands

        def failing(asked):
            bands.append([len(markets) for markets, _ in asked])
            yield from reports(asked)
            raise NumericError("synthetic hedge failure")

        for patched in (False, True):
            if patched:
                monkeypatch.setattr(na1lab.tree, "_superhedge_bands", failing)
            rc, out = run_command(tmp_path, "tree", bad)
            assert rc == 0
            report = json.loads(out.read_text())
            assert (report["na1"]["holds"], report["na1"]["failing"]) == (False, ["u"])
            assert [report[k] for k in ("numeraire", "deflator", "hedge", "optimal")] == [None] * 4
        assert bands == [[3]]
        assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
        # with NA1 the same failure is read
        rc, _ = run_command(tmp_path, "tree", tree_doc(claim=claim, utility={"kind": "log"}))
        assert rc == 3


class TestRunPlumbing:
    def test_stdout_when_no_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = write_doc(tmp_path / "m.json", market_doc())
        rc = main(["--command", "analyze", "--input", src])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"

    def test_reports_are_byte_stable_and_reparse_canonically(self, tmp_path):
        docs = {
            "analyze": market_doc(claim=[0.0, 1.5]),
            "numeraire": market_doc(),
            "hedge": market_doc(claim=[0.0, 1.5]),
            "factor": factor_doc(),
            "tree": tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                             utility={"kind": "power", "gamma": 0.5}),
        }
        for command, doc in docs.items():
            base = tmp_path / command
            base.mkdir()
            rc1, out1 = run_command(base, command, doc)
            text = out1.read_text()
            # Identical config and seed must reproduce the bytes.
            rc2 = main(["--command", command, "--input", str(base / "input.json"),
                        "--output", str(base / "again.json"), "--seed", "0"])
            assert (rc1, rc2) == (0, 0)
            assert (base / "again.json").read_text() == text
            # Parse and re-serialize must also reproduce the bytes.
            assert dumps_canonical(json.loads(text)) == text

    def test_seed_is_recorded(self, tmp_path):
        rc, out = run_command(tmp_path, "analyze", market_doc(), "--seed", "7")
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_run_config_validation(self):
        with pytest.raises(InvalidParameterError, match="unknown command"):
            RunConfig(command="plot", input_path="x.json")
        with pytest.raises(InvalidParameterError, match="tol_opt"):
            RunConfig(command="analyze", input_path="x.json", tol_opt=0.0)
        with pytest.raises(InvalidParameterError, match="seed"):
            RunConfig(command="analyze", input_path="x.json", seed=True)

    def test_one_parser_serves_every_call(self, tmp_path):
        """The parser is built once per process; a call with other options
        in between leaves the next call's report bytes as they were."""
        src = write_doc(tmp_path / "m.json", market_doc())
        paths = [tmp_path / f"r{k}.json" for k in range(3)]
        extras = ([], ["--seed", "5", "--tol-lp", "1e-6"], [])
        for out, extra in zip(paths, extras):
            assert main(["--command", "analyze", "--input", src, "--output", str(out), *extra]) == 0
        assert paths[2].read_bytes() == paths[0].read_bytes()
        assert paths[1].read_bytes() != paths[0].read_bytes()

    def test_bad_command_exits_two_through_argparse(self, tmp_path):
        src = write_doc(tmp_path / "m.json", market_doc())
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["--command", "plot", "--input", src])
            assert stop.value.code == 2

    def test_run_writes_through_config_object(self, tmp_path):
        src = write_doc(tmp_path / "m.json", market_doc())
        out = tmp_path / "r.json"
        assert run(RunConfig("numeraire", src, str(out))) == 0
        assert json.loads(out.read_text())["command"] == "numeraire"


class TestExitCodes:
    def test_malformed_json_exits_one_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"probs": [0.5, 0.5,]}')
        rc = main(["--command", "analyze", "--input", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_non_finite_return_exits_one(self, tmp_path, capsys, literal):
        """JSON's non-finite literals are malformed input: no market is
        built from them and no report is written."""
        path = tmp_path / "input.json"
        path.write_text('{"probs": [0.5, 0.5], "returns": [[%s], [-0.5]], '
                        '"constraints": {"halfspaces": []}}' % literal)
        out = tmp_path / "report.json"
        rc = main(["--command", "analyze", "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert "returns[0][0] must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_one(self, tmp_path):
        rc = main(["--command", "analyze", "--input", str(tmp_path / "none.json")])
        assert rc == 1

    def test_domain_violation_exits_two(self, tmp_path):
        doc = market_doc()
        doc["probs"] = [0.7, 0.5]
        rc, _ = run_command(tmp_path, "analyze", doc)
        assert rc == 2

    def test_precondition_violation_exits_two(self, tmp_path):
        rc, _ = run_command(tmp_path, "numeraire", scalable_doc())
        assert rc == 2

    @pytest.mark.parametrize("command, doc, context", [
        ("hedge", scalable_doc() | {"claim": [1.0, 1.0]}, "super-hedging"),
        ("numeraire", scalable_doc(), "expected-utility maximization"),
    ])
    def test_refusal_names_its_context(self, tmp_path, capsys, command, doc, context):
        """Without NA1 the kernel the command runs refuses it, in the one
        wording of that refusal."""
        rc, out = run_command(tmp_path, command, doc)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {context} requires no scalable arbitrage\n"
        assert not out.exists()

    def test_bad_tolerance_exits_two(self, tmp_path):
        rc, _ = run_command(tmp_path, "analyze", market_doc(), "--tol-lp", "-1")
        assert rc == 2

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("synthetic certification failure")

        monkeypatch.setattr("na1lab.cli.numeraire_portfolio", explode)
        rc, _ = run_command(tmp_path, "numeraire", market_doc())
        assert rc == 3

    def test_invalid_log_level_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NA1LAB_LOG", "chatty")
        rc, _ = run_command(tmp_path, "analyze", market_doc())
        assert rc == 2

    def test_valid_log_level_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NA1LAB_LOG", "debug")
        rc, _ = run_command(tmp_path, "analyze", market_doc())
        assert rc == 0

    @pytest.mark.parametrize("doc, logged", [
        (scalable_doc(), ["arbitrage certificate tamed by a factor"]),
        ({**market_doc(claim=[1.0, 0.0]), "returns": [[-0.5], [30.0]]},
         ["esmm: 1 state weights lifted to the 1e-300 floor",
          "super-hedging: 1 deflator values lifted to DEFLATOR_BUMP"]),
    ])
    def test_debug_log_leaves_the_report_bytes(self, tmp_path, monkeypatch, capsys, doc, logged):
        """``NA1LAB_LOG=debug`` logs the fallbacks an ``analyze`` run takes
        (taming, the ESMM's floor, the lifted hedge deflator) and writes the
        same report bytes as a run without it."""
        package = logging.getLogger("na1lab")
        level, handlers = package.level, package.handlers[:]
        package.handlers.clear()  # a handler left by another test writes to its stderr
        try:
            monkeypatch.delenv("NA1LAB_LOG", raising=False)
            rc, out = run_command(tmp_path, "analyze", doc)
            assert rc == 0
            quiet = out.read_bytes()
            capsys.readouterr()
            monkeypatch.setenv("NA1LAB_LOG", "debug")
            rc, out = run_command(tmp_path, "analyze", doc)
            assert rc == 0
            assert out.read_bytes() == quiet
            err = capsys.readouterr().err
            assert all(message in err for message in logged)
        finally:
            package.setLevel(level)
            package.handlers[:] = handlers

    def test_module_runs_without_a_runtime_warning(self):
        # the package must not import na1lab.cli itself, or ``-m`` re-runs a
        # module already in sys.modules and warns
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "na1lab.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "--command" in proc.stdout

    def test_console_script_is_installed(self, tmp_path):
        exe = shutil.which("na1lab")
        if exe is None:
            pytest.skip("console script not on PATH in this environment")
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = subprocess.run(
            [exe, "--command", "analyze", "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "line 1" in proc.stderr
