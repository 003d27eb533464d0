"""Seeded fuzz corpus through the command-line frontend: the exit-code
contract of the README on random markets and random scenario trees.

A well-posed document exits 0, or 2 when a precondition of the command
fails (``numeraire`` without NA1, ``hedge`` without a super-hedging
price); it never exits 1 (malformed input) or 3 (numeric failure).  The
corpus is 100 draws of ``random_market_any(default_rng(11), d_max=8,
n_max=60)``, each with a claim, through ``analyze``, ``numeraire`` and
``hedge``, and through ``tree`` 12 random trees of up to 121 nodes, half
with and half without NA1, and one of 1,093 nodes.  The ``tree`` command
solves its passes together; the same trees check each of its sections
against the public pass called on its own.  Time budget: about 13 s on a
2-core x86 machine (5 s of it the tree oracle), 20 s at most.
"""

import json

import numpy as np

from conftest import random_market_any
from na1lab.cli import main
from na1lab.errors import PreconditionError
from na1lab.io import parse_tree
from na1lab.tree import backward_induction, global_na1, numeraire_process, superhedge_tree


def run(tmp_path, command, doc):
    src = tmp_path / "input.json"
    out = tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    rc = main(["--command", command, "--input", str(src), "--output", str(out)])
    return rc, json.loads(out.read_text()) if rc == 0 else None


def halfspaces(normals, offsets):
    return [{"a": [float(x) for x in a], "b": float(b)} for a, b in zip(normals, offsets)]


def market_doc(market, claim):
    return {
        "probs": [float(p) for p in market.probs],
        "returns": [[float(x) for x in row] for row in market.returns],
        "constraints": {
            "halfspaces": halfspaces(market.constraints.normals, market.constraints.offsets)
        },
        "claim": [float(c) for c in claim],
    }


def random_tree_doc(rng, na1: bool, branching=None, horizon=None):
    """Tree of branching 2-3 and horizon 2-5 unless given, with at most as
    many assets as branches, so the returns span every asset.  Every node
    allows a random box and every asset gains in one child and loses in
    another, so NA1 holds; without it, one internal node allows unbounded
    long positions in an asset that never loses there."""
    branching = branching or int(rng.integers(2, 4))
    horizon = horizon or int(rng.integers(2, 6 if branching == 2 else 5))
    d = int(rng.integers(1, branching + 1))
    sets, nodes, internal = {}, [{"id": "r", "constraints": "c_r"}], []
    frontier = ["r"]
    for depth in range(horizon):
        next_frontier = []
        for parent in frontier:
            internal.append(parent)
            returns = rng.uniform(-0.6, 0.9, size=(branching, d))
            returns[0] = rng.uniform(0.2, 0.9, size=d)
            returns[1] = rng.uniform(-0.6, -0.1, size=d)
            probs = rng.uniform(0.5, 1.5, size=branching)
            probs /= probs.sum()
            normals = np.vstack([np.eye(d), -np.eye(d)])
            sets[f"c_{parent}"] = {"halfspaces": halfspaces(normals, rng.uniform(0.2, 1.5, 2 * d))}
            for k in range(branching):
                child = f"{parent}{k}"
                node = {"id": child, "parent": parent, "prob": float(probs[k]),
                        "returns": [float(x) for x in returns[k]]}
                if depth < horizon - 1:
                    node["constraints"] = f"c_{child}"
                nodes.append(node)
                next_frontier.append(child)
        frontier = next_frontier
    if not na1:
        bad = internal[int(rng.integers(len(internal)))]
        sets[f"c_{bad}"] = {"halfspaces": halfspaces(-np.eye(d), np.zeros(d))}
        for node in nodes:
            if node.get("parent") == bad:
                node["returns"][0] = float(rng.uniform(0.0, 0.5))
    utility = [{"kind": "log"}, {"kind": "power", "gamma": 0.5},
               {"kind": "piecewise_linear", "knots_x": [0.0, 1.0, 2.0, 4.0],
                "knots_y": [0.0, 1.0, 1.5, 1.8]}][int(rng.integers(3))]
    return {
        "constraint_sets": sets,
        "nodes": nodes,
        "claim": {leaf: float(c) for leaf, c in zip(frontier, rng.uniform(0.0, 2.0, len(frontier)))},
        "utility": utility,
    }


def test_market_commands_keep_the_exit_code_contract(tmp_path):
    rng = np.random.default_rng(11)
    claims = np.random.default_rng(12)
    codes = {}
    for _ in range(100):
        market = random_market_any(rng, d_max=8, n_max=60)
        doc = market_doc(market, claims.uniform(0.0, 2.0, market.n_states))
        for command in ("analyze", "numeraire", "hedge"):
            rc, _ = run(tmp_path, command, doc)
            assert rc in (0, 2), (command, doc)
            codes[command, rc] = codes.get((command, rc), 0) + 1
    # every market is analyzed; the corpus reaches both sides of NA1
    assert codes["analyze", 0] == 100
    assert codes.get(("numeraire", 2), 0) > 0 and codes.get(("numeraire", 0), 0) > 0


def tree_docs():
    """The tree corpus: (document, whether NA1 holds)."""
    rng = np.random.default_rng(13)
    docs = [(random_tree_doc(rng, k % 2 == 0), k % 2 == 0) for k in range(12)]
    docs.append((random_tree_doc(rng, True, branching=3, horizon=6), True))
    return docs


def test_tree_command_keeps_the_exit_code_contract(tmp_path):
    for doc, na1 in tree_docs():
        rc, report = run(tmp_path, "tree", doc)
        assert rc == 0
        assert report["na1"]["holds"] is na1
        assert (report["hedge"] is None) is not na1


def test_tree_command_matches_the_passes_one_by_one(tmp_path):
    """The public passes, called one by one on a fresh parse in the
    command's order, give equal verdicts and failing nodes, strategies,
    deflator values, hedge node values and optimal values within 1e-9
    relative, and the very log- and power-utility strategies.

    Every Newton solve starts at the zero strategy, so its answer does not
    depend on which LPs share a round with the command's other passes; an
    LP optimum may move by rounding when its round is stacked otherwise."""
    from test_cli import tree_doc

    def close(got: dict, want: dict, tol=1e-9):
        assert got.keys() == {str(k) for k in want}
        for key, value in want.items():
            value = np.asarray(value, dtype=float)
            gap = np.max(np.abs(np.asarray(got[str(key)]) - value))
            assert gap <= tol * max(1.0, float(np.max(np.abs(value)))), key

    docs = [doc for doc, _ in tree_docs()]
    docs.append(tree_doc(claim={"uu": 2.0, "ud": 0.5, "du": 0.5, "dd": 0.0},
                         utility={"kind": "log"}))
    for doc in docs:
        rc, report = run(tmp_path, "tree", doc)
        assert rc == 0
        tree, claim, utility = parse_tree(doc)
        try:
            policy, deflator = numeraire_process(tree)
        except PreconditionError:
            policy = None
        na1 = global_na1(tree)
        assert report["na1"]["holds"] is na1.holds is (policy is not None)
        assert report["na1"]["failing"] == [str(n) for n in na1.failing]
        if not na1.holds:
            continue
        close(report["numeraire"]["strategies"], policy.strategies)
        close(report["deflator"], deflator.values)
        close(report["hedge"]["node_values"], superhedge_tree(tree, claim).node_values)
        optimal = backward_induction(tree, utility)
        close({"value": report["optimal"]["value"]}, {"value": optimal.value})
        close(report["optimal"]["node_values"], optimal.node_values)
        close(report["optimal"]["policy"]["strategies"], optimal.policy.strategies,
              1e-9 if utility.kind == "piecewise_linear" else 0.0)
