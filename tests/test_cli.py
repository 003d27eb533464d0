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
import math
import shutil
import subprocess

import numpy as np
import pytest

from na1lab.cli import RunConfig, main, run
from na1lab.errors import InvalidParameterError, NumericError, SchemaError
from na1lab.factor import two_dim_admissibility
from na1lab.io import (
    dumps_canonical,
    load_document,
    parse_factor_model,
    parse_market,
    parse_tree,
    parse_utility,
)


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


def tree_doc(claim=None, utility=None, bad_middle=False):
    box = {"halfspaces": [{"a": [-1.0], "b": 1.0}, {"a": [1.0], "b": 1.0}]}
    free_long = {"halfspaces": [{"a": [-1.0], "b": 0.0}]}
    doc = {
        "constraint_sets": {"box": box, "free_long": free_long},
        "nodes": [
            {"id": "root", "constraints": "box"},
            {"id": "u", "parent": "root", "prob": 0.5, "returns": [0.8],
             "constraints": "free_long" if bad_middle else "box"},
            {"id": "d", "parent": "root", "prob": 0.5, "returns": [-0.4],
             "constraints": "box"},
            {"id": "uu", "parent": "u", "prob": 0.5, "returns": [0.8]},
            {"id": "ud", "parent": "u", "prob": 0.5,
             "returns": [0.0 if bad_middle else -0.4]},
            {"id": "du", "parent": "d", "prob": 0.5, "returns": [0.8]},
            {"id": "dd", "parent": "d", "prob": 0.5, "returns": [-0.4]},
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

    def test_optimizer_tolerance_override(self, tmp_path):
        rc, out = run_command(
            tmp_path, "numeraire", market_doc(), "--tol-opt", "1e-12"
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["portfolio"]["gradient_norm"] <= 1e-12


class TestHedgeCommand:
    def test_valuation_matches_the_hand_price(self, tmp_path):
        rc, out = run_command(tmp_path, "hedge", market_doc(claim=[0.0, 1.5]))
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["valuation"]["primal_value"] == pytest.approx(0.75, abs=1e-9)
        assert report["valuation"]["gap"] <= 1e-7

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

    def test_piecewise_utility_uses_the_default_grid(self, tmp_path):
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
        assert report["optimal"]["diagnostics"]["exact"] is False


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

    def test_bad_tolerance_exits_two(self, tmp_path):
        rc, _ = run_command(tmp_path, "analyze", market_doc(), "--tol-lp", "-1")
        assert rc == 2

    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch):
        def explode(market):
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
