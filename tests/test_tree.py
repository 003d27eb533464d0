"""Scenario trees: construction, backward induction, numeraire processes and
super-replication.

Oracles, written before the code they check:

* exhaustive policy enumeration prices every combination of a finite strategy
  menu by simulating terminal wealth leaf by leaf, with no dynamic program;
* a stacked recession-cone LP over all node markets searches for a scalable
  direction anywhere in the tree in one shot, independent of the per-node
  certificates;
* iid trees have closed-form optima (log values add across periods, power
  multipliers compound), checked against the one-period optimizer.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import make_market, sample_feasible
from na1lab.arbitrage import check_na1
from na1lab.errors import InvalidParameterError, NumericError, PreconditionError
from na1lab.hedging import Claim, superhedge
from na1lab.io import parse_tree
from na1lab.market import ConstraintSet, DiscreteMarket, preset_constraints
from na1lab.portfolio import (
    NUMERAIRE_GRADIENT_TOL,
    UtilitySpec,
    maximize_utility,
    numeraire_portfolio,
    verify_deflator,
)
from na1lab.tree import (
    DeflatorProcess,
    PolicyProcess,
    ScenarioTree,
    TreeNode,
    backward_induction,
    default_wealth_grid,
    global_na1,
    iid_tree,
    node_market,
    numeraire_process,
    superhedge_tree,
    verify_deflator_process,
)
from test_cli_fuzz import random_tree_doc


def two_state_market(up=0.8, down=-0.4, box=1.0):
    cs = preset_constraints("box", dim=1, lower=[box], upper=[box])
    return make_market([[up], [down]], constraints=cs)


def scalable_arbitrage_market():
    """One asset that never loses and sometimes gains, long side unbounded."""
    cs = preset_constraints("no_short", dim=1)
    return make_market([[0.5], [0.0]], constraints=cs)


def path_to_root(tree, node_id):
    """Edges (parent, child) from the root down to ``node_id``."""
    chain = []
    current = tree.node(node_id)
    while current.parent is not None:
        chain.append((current.parent, current.node_id))
        current = tree.node(current.parent)
    return list(reversed(chain))


def enumerate_policies(tree, candidate_sets, u):
    """Best expected terminal utility over every combination of candidate
    strategies, one pick per non-leaf node, by direct leaf-path simulation.

    All combinations are simulated at once: axis ``i`` of the wealth arrays
    indexes the pick at the ``i``-th non-leaf node, and each leaf's wealth is
    the product of its path's one-period growth factors, broadcast along the
    axis of the node that chose each factor.
    """
    internal = tree.internal_ids()
    menus = [np.atleast_2d(np.asarray(candidate_sets[n], dtype=float)) for n in internal]
    axis = {n: i for i, n in enumerate(internal)}
    shape = tuple(len(m) for m in menus)

    def growth(parent, child):
        factor = 1.0 + menus[axis[parent]] @ np.asarray(tree.node(child).returns, dtype=float)
        index = [1] * len(shape)
        index[axis[parent]] = shape[axis[parent]]
        return factor.reshape(index)

    total = np.zeros(shape)
    for leaf in tree.leaf_ids:
        x = np.ones(shape)
        for parent, child in path_to_root(tree, leaf):
            x = x * growth(parent, child)
        total = total + tree.path_probability(leaf) * u.value(x)
    return float(total.max())


def enumerate_policies_loop(tree, candidate_sets, u):
    """One combination at a time; the reference for :func:`enumerate_policies`."""
    internal = tree.internal_ids()
    menus = [np.atleast_2d(np.asarray(candidate_sets[n], dtype=float)) for n in internal]
    best = -np.inf
    for combo in itertools.product(*[range(len(m)) for m in menus]):
        assign = {n: menus[i][j] for i, (n, j) in enumerate(zip(internal, combo))}
        total = 0.0
        for leaf in tree.leaf_ids:
            x = 1.0
            for parent, child in path_to_root(tree, leaf):
                x *= 1.0 + float(np.asarray(tree.node(child).returns, dtype=float) @ assign[parent])
            total += tree.path_probability(leaf) * float(u.value(np.array([x]))[0])
        best = max(best, total)
    return best


def stacked_cone_optimum(tree):
    """LP over one recession direction per node market, searching for positive
    path-probability-weighted edge gains.

    Each node's block is constrained to the recession cone of its allowed set
    (normals with zeroed offsets), which already forces every edge gain to be
    nonnegative; a positive optimum therefore exhibits a scalable arbitrage at
    some node, and boxing each coordinate in [-1, 1] keeps the LP bounded.
    """
    internal = tree.internal_ids()
    d = tree.n_assets
    offsets = {n: i * d for i, n in enumerate(internal)}
    width = d * len(internal)
    cost = np.zeros(width)
    rows, rhs = [], []
    for n in internal:
        market = node_market(tree, n)
        block = np.zeros((market.allowed.normals.shape[0], width))
        block[:, offsets[n] : offsets[n] + d] = market.allowed.normals
        rows.append(block)
        rhs.append(np.zeros(block.shape[0]))
        for child in tree.children(n):
            cost[offsets[n] : offsets[n] + d] -= tree.path_probability(
                child
            ) * np.asarray(tree.node(child).returns, dtype=float)
    res = linprog(
        cost,
        A_ub=np.vstack(rows),
        b_ub=np.concatenate(rhs),
        bounds=[(-1.0, 1.0)] * width,
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def span_combination_constraints(rng, returns):
    """Random constraint rows as combinations of the node's return vectors, so
    every normal lies in the span the market validation demands; offsets mix
    conic (zero) and affine (positive) rows, keeping zero feasible."""
    m = int(rng.integers(0, 4))
    rows = rng.standard_normal((m, returns.shape[0])) @ returns
    offsets = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.1, 1.5, m))
    return ConstraintSet(returns.shape[1], rows, offsets)


def random_tree(rng, d_max=2, t_max=3, kid_max=3):
    d = int(rng.integers(1, d_max + 1))
    horizon = int(rng.integers(1, t_max + 1))
    counter = itertools.count(1)
    nodes = [TreeNode("n0")]
    constraints = {}
    frontier = ["n0"]
    for _ in range(horizon):
        nxt = []
        for parent in frontier:
            k = int(rng.integers(1, kid_max + 1))
            probs = rng.uniform(0.2, 1.0, k)
            probs = probs / probs.sum()
            returns = rng.uniform(-0.9, 1.4, size=(k, d))
            for j in range(k):
                nid = f"n{next(counter)}"
                nodes.append(
                    TreeNode(nid, parent=parent, prob=float(probs[j]), returns=returns[j])
                )
                nxt.append(nid)
            constraints[parent] = span_combination_constraints(rng, returns)
        frontier = nxt
    return ScenarioTree(tuple(nodes), constraints)


def tree_with_repeats(rng, d_max=2, t_max=3, kid_max=3):
    """Random tree like :func:`random_tree`, of horizon 2 or more, except
    that with probability one half a node repeats the whole subtree of an
    earlier node at its depth, markets and constraints all the way down: node
    contents repeat, and below a repeated subtree the continuation values
    repeat too."""
    d = int(rng.integers(1, d_max + 1))
    horizon = int(rng.integers(2, t_max + 1))
    drawn = [[] for _ in range(horizon)]

    def subtree(depth):
        if depth == horizon:
            return None
        if drawn[depth] and rng.random() < 0.5:
            return drawn[depth][int(rng.integers(len(drawn[depth])))]
        k = int(rng.integers(2, kid_max + 1))
        probs = rng.uniform(0.2, 1.0, k)
        returns = rng.uniform(-0.9, 1.4, size=(k, d))
        spec = (probs / probs.sum(), returns, span_combination_constraints(rng, returns),
                [subtree(depth + 1) for _ in range(k)])
        drawn[depth].append(spec)
        return spec

    counter = itertools.count(1)
    nodes, constraints = [TreeNode("n0")], {}

    def place(node_id, spec):
        if spec is None:
            return
        probs, returns, cs, kids = spec
        constraints[node_id] = cs
        for j, kid in enumerate(kids):
            child = f"n{next(counter)}"
            nodes.append(TreeNode(child, parent=node_id, prob=float(probs[j]), returns=returns[j]))
            place(child, kid)

    place("n0", subtree(0))
    return ScenarioTree(tuple(nodes), constraints)


def empty_constraints(d):
    return ConstraintSet(d, np.zeros((0, d)), np.zeros(0))


def mixed_na1_tree():
    """T=2 tree whose only scalable arbitrage sits at node "m"; the root and
    the other depth-1 node are clean two-state markets."""
    good = two_state_market()
    bad = scalable_arbitrage_market()
    nodes = [
        TreeNode("r"),
        TreeNode("m", parent="r", prob=0.5, returns=[0.8]),
        TreeNode("g", parent="r", prob=0.5, returns=[-0.4]),
        TreeNode("m0", parent="m", prob=0.5, returns=[0.5]),
        TreeNode("m1", parent="m", prob=0.5, returns=[0.0]),
        TreeNode("g0", parent="g", prob=0.5, returns=[0.8]),
        TreeNode("g1", parent="g", prob=0.5, returns=[-0.4]),
    ]
    constraints = {"r": good.constraints, "m": bad.constraints, "g": good.constraints}
    return ScenarioTree(tuple(nodes), constraints)


def depth_first_nodes():
    """Binary tree of horizon 2 listed depth-first, so `nodes` order and
    breadth-first order differ."""
    nodes = [TreeNode("r")]
    for a in "ud":
        nodes.append(TreeNode(a, parent="r", prob=0.5, returns=[0.1 if a == "u" else -0.1]))
        for b in "ud":
            nodes.append(TreeNode(a + b, parent=a, prob=0.5, returns=[0.2 if b == "u" else -0.2]))
    return tuple(nodes)


def edit_edges(nodes, **edits):
    return tuple(dataclasses.replace(n, **edits.get(n.node_id, {})) for n in nodes)


def check_layout(tree):
    """The tree's accessors against children, depths and levels derived
    from ``tree.nodes`` alone."""
    kids = {n.node_id: [k.node_id for k in tree.nodes if k.parent == n.node_id]
            for n in tree.nodes}
    levels = [[n.node_id for n in tree.nodes if n.parent is None]]
    while any(kids[n] for n in levels[-1]):
        levels.append([k for n in levels[-1] for k in kids[n]])
    assert tree.horizon == len(levels) - 1
    assert tree.bfs_ids() == tuple(itertools.chain(*levels))
    assert tree.internal_ids() == tuple(itertools.chain(*levels[:-1]))
    assert tree.leaf_ids == tuple(levels[-1])
    for depth, level in enumerate(levels):
        for node_id in level:
            assert tree.depth(node_id) == depth
            assert tree.children(node_id) == tuple(kids[node_id])


class TestConstruction:
    def test_iid_tree_shape(self):
        tree = iid_tree(two_state_market(), horizon=3)
        assert tree.horizon == 3
        assert len(tree.nodes) == 1 + 2 + 4 + 8
        assert len(tree.leaf_ids) == 8
        assert tree.n_assets == 1
        assert tree.root_id == "root"
        assert tree.depth("root/1/0/1") == 3
        assert tree.path_probability("root/1/0/1") == pytest.approx(0.125)

    def test_node_market_round_trip(self):
        market = two_state_market()
        tree = iid_tree(market, horizon=2)
        got = node_market(tree, "root/1")
        assert np.allclose(got.probs, market.probs)
        assert np.allclose(got.returns, market.returns)
        assert got.constraints is market.constraints

    def test_node_market_on_leaf_rejected(self):
        tree = iid_tree(two_state_market(), horizon=1)
        with pytest.raises(InvalidParameterError):
            node_market(tree, "root/0")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioTree(
                (TreeNode("a"), TreeNode("a", parent="a", prob=1.0, returns=[0.1])),
                {},
            )

    def test_two_roots_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioTree((TreeNode("a"), TreeNode("b")), {})

    def test_root_with_returns_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioTree((TreeNode("a", returns=[0.1]),), {})

    def test_unknown_parent_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioTree(
                (TreeNode("a"), TreeNode("b", parent="zz", prob=1.0, returns=[0.1])),
                {},
            )

    def test_cycle_rejected(self):
        nodes = (
            TreeNode("a"),
            TreeNode("b", parent="c", prob=1.0, returns=[0.1]),
            TreeNode("c", parent="b", prob=1.0, returns=[0.1]),
        )
        with pytest.raises(InvalidParameterError, match="disconnected"):
            ScenarioTree(nodes, {})

    def test_uneven_depth_rejected(self):
        nodes = (
            TreeNode("a"),
            TreeNode("b", parent="a", prob=0.5, returns=[0.1]),
            TreeNode("c", parent="a", prob=0.5, returns=[0.2]),
            TreeNode("d", parent="b", prob=1.0, returns=[0.1]),
        )
        cs = empty_constraints(1)
        with pytest.raises(InvalidParameterError, match="depth"):
            ScenarioTree(nodes, {"a": cs, "b": cs})

    def test_child_probs_must_sum_to_one(self):
        nodes = (
            TreeNode("a"),
            TreeNode("b", parent="a", prob=0.5, returns=[0.1]),
            TreeNode("c", parent="a", prob=0.4, returns=[0.2]),
        )
        with pytest.raises(InvalidParameterError, match="summing"):
            ScenarioTree(nodes, {"a": empty_constraints(1)})

    def test_returns_below_minus_one_rejected(self):
        nodes = (
            TreeNode("a"),
            TreeNode("b", parent="a", prob=1.0, returns=[-1.5]),
        )
        with pytest.raises(InvalidParameterError, match="below -1"):
            ScenarioTree(nodes, {"a": empty_constraints(1)})

    def test_missing_constraints_rejected(self):
        nodes = (TreeNode("a"), TreeNode("b", parent="a", prob=1.0, returns=[0.1]))
        with pytest.raises(InvalidParameterError, match="ConstraintSet"):
            ScenarioTree(nodes, {})

    def test_constraints_on_leaf_rejected(self):
        nodes = (TreeNode("a"), TreeNode("b", parent="a", prob=1.0, returns=[0.1]))
        cs = empty_constraints(1)
        with pytest.raises(InvalidParameterError, match="not a non-leaf"):
            ScenarioTree(nodes, {"a": cs, "b": cs})

    def test_constraint_dimension_checked(self):
        nodes = (TreeNode("a"), TreeNode("b", parent="a", prob=1.0, returns=[0.1]))
        with pytest.raises(InvalidParameterError, match="dim"):
            ScenarioTree(nodes, {"a": empty_constraints(2)})

    @pytest.mark.parametrize("edit, message", [
        (lambda nodes: (), "a scenario tree needs at least one node"),
        (lambda nodes: nodes[:2] + (("uu", "u", 0.5, [0.1]),) + nodes[3:],
         "nodes must be TreeNode instances"),
        (lambda nodes: (TreeNode("r", prob=0.5),) + nodes[1:], "the root's probability must be 1"),
        (lambda nodes: nodes[:1], "a scenario tree needs at least one period"),
        # "uu" comes first in `nodes`, "d" first breadth-first
        (lambda nodes: edit_edges(nodes, uu={"returns": [np.nan]}, d={"returns": [np.inf]}),
         "node 'uu' needs a finite return vector"),
        (lambda nodes: edit_edges(nodes, ud={"prob": 1.5}, d={"prob": 0.0}),
         "node 'ud' branch probability 1.5 outside (0, 1]"),
        (lambda nodes: edit_edges(nodes, uu={"returns": [0.1, 0.2]}),
         "inconsistent asset counts across edges: [1, 2]"),
    ])
    def test_malformed_trees_are_named(self, edit, message):
        nodes = depth_first_nodes()
        cs = empty_constraints(1)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            ScenarioTree(edit(nodes), {"r": cs, "u": cs, "d": cs})

    @pytest.mark.parametrize("branching, horizon",
                             list(itertools.product((2, 3, 4), (1, 2, 3, 4))))
    def test_layout_matches_a_brute_force_derivation(self, branching, horizon):
        rng = np.random.default_rng(100 * branching + horizon)
        tree, _, _ = parse_tree(random_tree_doc(rng, True, branching, horizon))
        shuffled = list(tree.nodes)
        rng.shuffle(shuffled)
        for nodes in (tree.nodes, tuple(shuffled)):
            check_layout(ScenarioTree(nodes, tree.constraints))
        check_layout(iid_tree(two_state_market(), horizon))

    def test_node_order_is_irrelevant(self):
        market = two_state_market()
        canonical = iid_tree(market, horizon=2)
        rng = np.random.default_rng(7)
        shuffled = list(canonical.nodes)
        rng.shuffle(shuffled)
        tree = ScenarioTree(tuple(shuffled), canonical.constraints)
        u = UtilitySpec.log()
        assert backward_induction(tree, u).value == pytest.approx(
            backward_induction(canonical, u).value, abs=1e-12
        )

    def test_bfs_ids_parents_first(self):
        tree = mixed_na1_tree()
        order = tree.bfs_ids()
        pos = {nid: i for i, nid in enumerate(order)}
        for node in tree.nodes:
            if node.parent is not None:
                assert pos[node.parent] < pos[node.node_id]


class TestGlobalNa1:
    def test_all_nodes_clean(self):
        tree = iid_tree(two_state_market(), horizon=2)
        report = global_na1(tree)
        assert report.holds
        assert report.failing == ()
        assert set(report.certificates) == set(tree.internal_ids())
        assert all(cert.holds for cert in report.certificates.values())

    def test_single_bad_node_is_named_with_witness(self):
        report = global_na1(mixed_na1_tree())
        assert not report.holds
        assert report.failing == ("m",)
        cert = report.certificates["m"]
        assert not cert.holds
        ray = np.asarray(cert.witness_ray)
        gains = node_market(mixed_na1_tree(), "m").returns @ ray
        assert np.all(gains >= -1e-9)
        assert np.max(gains) > 1e-9

    def test_matches_stacked_cone_oracle(self):
        rng = np.random.default_rng(20240817)
        verdicts = {True: 0, False: 0}
        for _ in range(100):
            tree = random_tree(rng)
            holds = global_na1(tree).holds
            optimum = stacked_cone_optimum(tree)
            assert holds == (optimum <= 1e-7), (
                f"local-global mismatch: per-node says holds={holds}, "
                f"stacked LP optimum {optimum:.3e}"
            )
            verdicts[holds] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10

    def test_report_serializes(self):
        report = global_na1(mixed_na1_tree())
        data = report.to_dict()
        assert data["holds"] is False
        assert data["failing"] == ["m"]
        assert "witness_ray" in str(data["certificates"]["m"]) or data["certificates"]["m"]

    def test_operations_refuse_arbitrage_trees(self):
        tree = mixed_na1_tree()
        with pytest.raises(PreconditionError, match="'m'"):
            backward_induction(tree, UtilitySpec.log())
        with pytest.raises(PreconditionError, match="'m'"):
            numeraire_process(tree)
        with pytest.raises(PreconditionError, match="'m'"):
            superhedge_tree(tree, [1.0] * len(tree.leaf_ids))
        with pytest.raises(PreconditionError, match="'m'"):
            default_wealth_grid(tree)


class TestBackwardInductionSeparable:
    def test_one_period_matches_single_market(self):
        market = two_state_market()
        tree = iid_tree(market, horizon=1)
        for u in (UtilitySpec.log(), UtilitySpec.power(0.5), UtilitySpec.power(-1.0)):
            res = backward_induction(tree, u)
            one = maximize_utility(market, u)
            assert res.value == pytest.approx(one.value, abs=1e-10)
            assert res.policy.strategies["root"] == pytest.approx(one.strategy, abs=1e-7)

    def test_iid_log_value_is_additive(self):
        market = two_state_market()
        one = maximize_utility(market, UtilitySpec.log()).value
        for horizon in (1, 2, 3):
            res = backward_induction(iid_tree(market, horizon), UtilitySpec.log())
            assert res.value == pytest.approx(horizon * one, abs=1e-10)

    def test_iid_power_multiplier_compounds(self):
        market = two_state_market()
        gamma = -0.5
        one = maximize_utility(market, UtilitySpec.power(gamma)).value
        for horizon in (1, 2, 3):
            res = backward_induction(iid_tree(market, horizon), UtilitySpec.power(gamma))
            assert res.value == pytest.approx((gamma * one) ** horizon / gamma, rel=1e-10)

    def test_matches_exhaustive_enumeration(self):
        tree = iid_tree(two_state_market(), horizon=2)
        menu = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
        menus = {n: menu for n in tree.internal_ids()}
        for u in (UtilitySpec.log(), UtilitySpec.power(0.5), UtilitySpec.power(-1.0)):
            res = backward_induction(tree, u, candidates=menu)
            oracle = enumerate_policies(tree, menus, u)
            assert res.value == pytest.approx(oracle, abs=1e-10)

    def test_vectorized_enumeration_matches_loop(self):
        tree = iid_tree(two_state_market(), horizon=2)
        rng = np.random.default_rng(5)
        menus = {n: rng.uniform(-1.0, 1.0, size=(5, 1)) for n in tree.internal_ids()}
        piecewise = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])
        for u in (UtilitySpec.log(), UtilitySpec.power(-1.0), piecewise):
            assert enumerate_policies(tree, menus, u) == enumerate_policies_loop(tree, menus, u)

    def test_enumeration_with_per_node_menus(self):
        tree = iid_tree(two_state_market(), horizon=2)
        rng = np.random.default_rng(3)
        menus = {
            n: rng.uniform(-1.0, 1.0, size=(6, 1)) for n in tree.internal_ids()
        }
        res = backward_induction(tree, UtilitySpec.log(), candidates=menus)
        assert res.value == pytest.approx(
            enumerate_policies(tree, menus, UtilitySpec.log()), abs=1e-10
        )

    def test_candidates_outside_allowed_set_are_ignored(self):
        tree = iid_tree(two_state_market(box=0.5), horizon=1)
        menu = np.array([[0.2], [5.0]])
        res = backward_induction(tree, UtilitySpec.log(), candidates=menu)
        assert res.policy.strategies["root"] == pytest.approx([0.2])
        with pytest.raises(InvalidParameterError, match="candidate"):
            backward_induction(tree, UtilitySpec.log(), candidates=np.array([[5.0]]))

    def test_menu_dict_missing_a_node_is_named(self):
        """A per-node menu dict without an internal node is refused naming
        that node, within the package's errors."""
        tree = iid_tree(two_state_market(up=1.0, down=-0.5), horizon=2)
        with pytest.raises(InvalidParameterError, match="'root/1'"):
            backward_induction(tree, UtilitySpec.log(), candidates={"root": [[0.1]]})

    def test_log_consistency_across_node_values(self):
        """The root log value equals the path-probability-weighted sum of the
        node markets' one-period log optima."""
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 10:
            tree = random_tree(rng)
            if not global_na1(tree).holds:
                continue
            res = backward_induction(tree, UtilitySpec.log())
            total = sum(
                tree.path_probability(n)
                * maximize_utility(node_market(tree, n), UtilitySpec.log()).value
                for n in tree.internal_ids()
            )
            assert res.value == pytest.approx(total, abs=1e-8)
            checked += 1

    def test_policy_wealth_consistent(self):
        tree = iid_tree(two_state_market(), horizon=2)
        res = backward_induction(tree, UtilitySpec.log())
        res.policy.validate(tree, require_positive_wealth=True)
        for leaf in tree.leaf_ids:
            x = 1.0
            for parent, child in path_to_root(tree, leaf):
                x *= 1.0 + float(
                    np.asarray(tree.node(child).returns, dtype=float) @ res.policy.strategies[parent]
                )
            assert res.policy.wealth[leaf] == pytest.approx(x, rel=1e-12)

    def test_scaled_utility_shifts_value_only(self):
        tree = iid_tree(two_state_market(), horizon=2)
        plain = backward_induction(tree, UtilitySpec.log())
        scaled = backward_induction(tree, UtilitySpec.log().compose_affine(2.0, 0.0))
        assert scaled.value == pytest.approx(plain.value + np.log(2.0), abs=1e-12)
        assert scaled.policy.strategies["root"] == pytest.approx(
            plain.policy.strategies["root"], abs=1e-9
        )

    def test_tower_property_with_dummy_node(self):
        """Interposing a single-child zero-return node between the root and
        the market leaves every tree quantity unchanged."""
        market = two_state_market()
        base = iid_tree(market, horizon=2)
        nodes = [TreeNode("pre")] + [
            TreeNode(
                n.node_id,
                parent=n.parent if n.parent is not None else "pre",
                prob=n.prob,
                returns=n.returns if n.parent is not None else [0.0],
            )
            for n in base.nodes
        ]
        constraints = dict(base.constraints)
        constraints["pre"] = empty_constraints(1)
        padded = ScenarioTree(tuple(nodes), constraints)
        assert padded.horizon == base.horizon + 1

        for u in (UtilitySpec.log(), UtilitySpec.power(0.5)):
            assert backward_induction(padded, u).value == pytest.approx(
                backward_induction(base, u).value, abs=1e-8
            )
        claim = {leaf: 1.5 if leaf.endswith("/0") else 0.25 for leaf in base.leaf_ids}
        assert superhedge_tree(padded, claim).value == pytest.approx(
            superhedge_tree(base, claim).value, abs=1e-8
        )
        _, deflator = numeraire_process(padded)
        assert deflator.values["pre"] == pytest.approx(1.0)
        assert deflator.values["root"] == pytest.approx(1.0)

    def test_riskless_tree_is_trivial(self):
        riskless = make_market([[0.0, 0.0]], constraints=empty_constraints(2))
        tree = iid_tree(riskless, horizon=2)
        res = backward_induction(tree, UtilitySpec.log())
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert all(
            np.allclose(s, 0.0) for s in res.policy.strategies.values()
        )
        policy, deflator = numeraire_process(tree)
        assert all(v == pytest.approx(1.0) for v in deflator.values.values())
        assert superhedge_tree(tree, [0.7]).value == pytest.approx(0.7, abs=1e-9)


class TestBackwardInductionPiecewise:
    def test_non_separable_inputs_rejected(self):
        tree = iid_tree(two_state_market(), horizon=1)
        u = UtilitySpec.piecewise_linear([0.5, 1.0, 2.0], [-1.0, 0.0, 0.5])
        with pytest.raises(InvalidParameterError, match="candidate"):
            backward_induction(tree, u, candidates=np.array([[0.1]]))
        for shifted in (UtilitySpec.log(), UtilitySpec.power(0.5)):
            with pytest.raises(InvalidParameterError, match="shift"):
                backward_induction(tree, shifted.compose_affine(1.0, 0.5))

    def test_one_period_matches_maximize_utility(self):
        """Both sides are the one deterministic-equivalent builder, so this
        checks the tree adapter; the enumeration tests here and in
        ``test_portfolio.py`` are the independent oracles."""
        market = two_state_market()
        tree = iid_tree(market, horizon=1)
        u = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])
        res = backward_induction(tree, u)
        exact = maximize_utility(market, u)
        assert res.value == pytest.approx(exact.value, abs=1e-9)
        assert res.diagnostics == {"utility_form": "piecewise_linear", "exact": True}

    def test_two_period_bounds_enumeration(self):
        tree = iid_tree(two_state_market(), horizon=2)
        u = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])
        res = backward_induction(tree, u)
        menu = np.linspace(-1.0, 1.0, 81).reshape(-1, 1)
        oracle = enumerate_policies(tree, {n: menu for n in tree.internal_ids()}, u)
        # The LP optimizes over every allowed strategy, the oracle over a
        # finite menu of them: the LP value is an upper bound, and close.
        assert res.value >= oracle - 1e-9
        assert res.value == pytest.approx(oracle, abs=1e-3)

    def test_node_values_are_conditional_expected_utility(self):
        tree = iid_tree(two_state_market(), horizon=2)
        u = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])
        res = backward_induction(tree, u)
        res.policy.validate(tree)
        for leaf in tree.leaf_ids:
            x = 1.0
            for parent, child in path_to_root(tree, leaf):
                x *= 1.0 + float(np.asarray(tree.node(child).returns, dtype=float) @ res.policy.strategies[parent])
            assert res.policy.wealth[leaf] == pytest.approx(x, rel=1e-12)
            assert res.node_values[leaf] == pytest.approx(float(u.value(np.array([x]))[0]))
        for n in tree.internal_ids():
            expected = sum(
                tree.node(k).prob * res.node_values[k] for k in tree.children(n)
            )
            assert res.node_values[n] == pytest.approx(expected, abs=1e-12)
        assert res.value == res.node_values[tree.root_id]

    def test_one_lp_per_tree(self, linprog_calls):
        """Once the node certificates are cached, the whole tree is one LP."""
        tree = iid_tree(two_state_market(), horizon=3)
        global_na1(tree)
        linprog_calls.clear()
        u = UtilitySpec.piecewise_linear([0.2, 0.8, 1.3, 2.5], [-2.0, -0.2, 0.4, 1.0])
        backward_induction(tree, u)
        assert len(linprog_calls) == 1


class TestBackwardInductionGrid:
    def test_default_wealth_grid_covers_reachable_wealth(self):
        tree = iid_tree(two_state_market(), horizon=2)
        grid = default_wealth_grid(tree, points=33)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] > 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = 1.0
            node = tree.root_id
            while tree.children(node):
                market = node_market(tree, node)
                pi = sample_feasible(
                    rng, market.allowed.normals, market.allowed.offsets, 1
                )
                kids = tree.children(node)
                pick = kids[int(rng.integers(len(kids)))]
                x *= 1.0 + float(np.asarray(tree.node(pick).returns, dtype=float) @ pi)
                node = pick
            assert grid[0] - 1e-9 <= max(x, grid[0]) and x <= grid[-1] + 1e-9


class TestNumeraireProcess:
    def test_deflator_is_reciprocal_wealth_and_certified(self):
        tree = iid_tree(two_state_market(), horizon=2)
        policy, deflator = numeraire_process(tree)
        for nid in tree.bfs_ids():
            assert deflator.values[nid] == pytest.approx(1.0 / policy.wealth[nid])
        assert verify_deflator_process(tree, deflator) <= 1e-8
        one = numeraire_portfolio(two_state_market())
        for nid in tree.internal_ids():
            assert policy.strategies[nid] == pytest.approx(one.strategy, abs=1e-7)

    def test_deflated_wealth_is_supermartingale_for_sampled_policies(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 15:
            tree = random_tree(rng)
            if not global_na1(tree).holds:
                continue
            _, deflator = numeraire_process(tree)
            strategies = {}
            for nid in tree.internal_ids():
                market = node_market(tree, nid)
                pi = market.span.project(
                    sample_feasible(
                        rng, market.allowed.normals, market.allowed.offsets, tree.n_assets
                    )
                )
                if not market.allowed.contains(pi, tol=1e-12):
                    # Degenerate allowed sets (empty interior) defeat the
                    # Chebyshev-center sampler; zero is always allowed.
                    pi = np.zeros(tree.n_assets)
                strategies[nid] = pi
            wealth = {tree.root_id: 1.0}
            for nid in tree.bfs_ids():
                node = tree.node(nid)
                if node.parent is None:
                    continue
                gain = float(np.asarray(tree.node(nid).returns, dtype=float) @ strategies[node.parent])
                wealth[nid] = wealth[node.parent] * (1.0 + gain)
            for nid in tree.internal_ids():
                lhs = sum(
                    float(tree.node(c).prob) * deflator.values[c] * wealth[c]
                    for c in tree.children(nid)
                )
                rhs = deflator.values[nid] * wealth[nid]
                assert lhs <= rhs + 1e-8 * (1.0 + abs(rhs))
            checked += 1

    def test_verify_deflator_process_flags_bad_processes(self):
        tree = iid_tree(two_state_market(), horizon=1)
        with pytest.raises(InvalidParameterError, match="missing"):
            verify_deflator_process(tree, DeflatorProcess({"root": 1.0}))
        with pytest.raises(InvalidParameterError, match="start at 1"):
            verify_deflator_process(
                tree,
                DeflatorProcess({"root": 2.0, "root/0": 1.0, "root/1": 1.0}),
            )
        with pytest.raises(InvalidParameterError, match="positive"):
            verify_deflator_process(
                tree,
                DeflatorProcess({"root": 1.0, "root/0": -1.0, "root/1": 1.0}),
            )
        inflated = DeflatorProcess({"root": 1.0, "root/0": 4.0, "root/1": 4.0})
        assert verify_deflator_process(tree, inflated) > 1.0

    def test_deflator_values_are_tied_to_the_certified_ratios(self, monkeypatch):
        """The wealth-ratio LPs run under the weights ``probs / (1 + R rho)``;
        a deflator value off those ratios, here by 1e-10, is refused."""
        import na1lab.tree

        tree = iid_tree(two_state_market(), horizon=2)
        wealth_process = na1lab.tree._wealth_process

        def nudged(tree, strategies):
            wealth = wealth_process(tree, strategies)
            wealth[tree.leaf_ids[0]] *= 1.0 + 1e-10
            return wealth

        monkeypatch.setattr(na1lab.tree, "_wealth_process", nudged)
        with pytest.raises(NumericError, match="one-step ratios"):
            numeraire_process(tree)

    def test_supermartingale_violation_is_refused(self, monkeypatch):
        """Certified expected-gain bounds above the tolerance at the nodes
        refuse the numeraire deflator, with the one-period refusal naming
        the first failing node."""
        import na1lab.arbitrage

        certified = na1lab.arbitrage._certified_gains

        def inflated(markets, weights):
            gains = yield from certified(markets, weights)
            return [gain + 1e-6 for gain in gains]

        monkeypatch.setattr(na1lab.arbitrage, "_certified_gains", inflated)
        with pytest.raises(NumericError, match=r"^wealth-ratio certification failed at node 'root': "
                                               r"wealth-ratio LP value 1\.000001\d* exceeds 1 \+ 1e-08; "
                                               r"the candidate is not a numeraire$"):
            numeraire_process(iid_tree(two_state_market(), horizon=2))

    def test_stalled_node_is_named(self, monkeypatch):
        """A node optimum whose residual misses the tolerance is refused,
        naming the first such node of the batch."""
        import na1lab.portfolio

        solve = na1lab.portfolio.minimize_convex
        monkeypatch.setattr(
            na1lab.portfolio, "minimize_convex",
            lambda *args, **kwargs: [dataclasses.replace(result, residual=1.0)
                                     for result in solve(*args, **kwargs)])
        with pytest.raises(NumericError, match="^optimization failed at node 'root': utility "
                                               "maximization stalled at stationarity residual"):
            numeraire_process(iid_tree(two_state_market(up=1.0, down=-0.5), horizon=2))

    def test_policy_validate_rejects_a_strategy_off_the_return_span(self):
        twin = make_market([[0.8, 0.8], [-0.4, -0.4]],
                           constraints=ConstraintSet(2, np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                                     np.array([1.0, 1.0])))
        tree = iid_tree(twin, horizon=1)
        wealth = dict.fromkeys(tree.bfs_ids(), 1.0)
        bad = PolicyProcess({"root": np.array([0.5, -0.5])}, wealth)
        with pytest.raises(NumericError, match="leaves the return span"):
            bad.validate(tree)

    def test_policy_validate_rejects_missing_wealth(self):
        tree = iid_tree(two_state_market(), horizon=1)
        bad = PolicyProcess({"root": np.zeros(1)}, {"root": 1.0})
        with pytest.raises(NumericError, match="no wealth recorded at node 'root/0'"):
            bad.validate(tree)

    def test_policy_validate_rejects_nonpositive_wealth(self):
        tree = iid_tree(two_state_market(), horizon=1)
        bad = PolicyProcess({"root": np.zeros(1)}, {"root": 1.0, "root/0": 1.0, "root/1": 0.0})
        bad.validate(tree)
        with pytest.raises(NumericError, match="wealth at node 'root/1' is 0.0, not positive"):
            bad.validate(tree, require_positive_wealth=True)

    def test_policy_validate_rejects_forbidden_strategy(self):
        tree = iid_tree(two_state_market(box=0.5), horizon=1)
        bad = PolicyProcess({"root": np.array([3.0])}, {"root": 1.0})
        with pytest.raises(NumericError, match="allowed"):
            bad.validate(tree)


class TestSuperhedgeTree:
    def test_refusal_names_the_failing_node(self):
        tree = mixed_na1_tree()
        with pytest.raises(PreconditionError, match=r"^tree super-replication requires no scalable "
                                                    r"arbitrage; failing nodes: \['m'\]$"):
            superhedge_tree(tree, [1.0] * len(tree.leaf_ids))

    def test_one_period_matches_single_market(self):
        market = two_state_market()
        tree = iid_tree(market, horizon=1)
        payoff = np.array([0.9, 0.3])
        hedge = superhedge_tree(tree, payoff)
        report = superhedge(market, Claim(payoff))
        assert hedge.value == pytest.approx(report.primal_value, abs=1e-9)
        assert hedge.strategies["root"] == pytest.approx(report.strategy, abs=1e-8)

    def test_unit_claim_costs_one_with_zero_strategy(self):
        tree = iid_tree(two_state_market(), horizon=2)
        hedge = superhedge_tree(tree, {leaf: 1.0 for leaf in tree.leaf_ids})
        assert hedge.value == pytest.approx(1.0, abs=1e-9)
        for strat in hedge.strategies.values():
            assert np.max(np.abs(strat)) <= 1e-8

    def test_positively_homogeneous_in_the_claim(self):
        tree = iid_tree(two_state_market(), horizon=2)
        rng = np.random.default_rng(13)
        payoff = rng.uniform(0.0, 2.0, len(tree.leaf_ids))
        v1 = superhedge_tree(tree, payoff).value
        v3 = superhedge_tree(tree, 3.0 * payoff).value
        assert v3 == pytest.approx(3.0 * v1, rel=1e-9)

    def test_value_funds_the_rollout(self):
        """Compounding the root cost through the hedge fractions covers the
        claim at every leaf."""
        tree = iid_tree(two_state_market(), horizon=2)
        rng = np.random.default_rng(4)
        payoff = dict(zip(tree.leaf_ids, rng.uniform(0.0, 2.0, len(tree.leaf_ids))))
        hedge = superhedge_tree(tree, payoff)
        capital = {tree.root_id: hedge.value}
        for nid in tree.bfs_ids():
            node = tree.node(nid)
            if node.parent is None:
                continue
            pi = hedge.strategies[node.parent]
            capital[nid] = capital[node.parent] * (
                1.0 + float(np.asarray(tree.node(nid).returns, dtype=float) @ pi)
            )
        for leaf in tree.leaf_ids:
            assert capital[leaf] >= payoff[leaf] - 1e-8

    def test_node_values_match_subtree_prices(self):
        tree = iid_tree(two_state_market(), horizon=2)
        payoff = {leaf: (1.2 if leaf.endswith("/0") else 0.1) for leaf in tree.leaf_ids}
        hedge = superhedge_tree(tree, payoff)
        sub = node_market(tree, "root/1")
        expected = superhedge(
            sub, Claim(np.array([payoff["root/1/0"], payoff["root/1/1"]]))
        ).primal_value
        assert hedge.node_values["root/1"] == pytest.approx(expected, abs=1e-9)

    def test_claim_validation(self):
        tree = iid_tree(two_state_market(), horizon=1)
        with pytest.raises(InvalidParameterError, match="missing"):
            superhedge_tree(tree, {"root/0": 1.0})
        with pytest.raises(InvalidParameterError, match="non-leaf"):
            superhedge_tree(tree, {"root": 1.0, "root/0": 1.0, "root/1": 1.0})
        with pytest.raises(InvalidParameterError, match="entries"):
            superhedge_tree(tree, [1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            superhedge_tree(tree, [1.0, -0.5])


def binomial_tree(horizon):
    """Binomial tree with a box at every node, its down return rising with
    the depth, so each level has its own market."""
    box = preset_constraints("box", dim=1, lower=[1.0], upper=[1.0])
    nodes, constraints, frontier = [TreeNode("r")], {}, ["r"]
    for depth in range(horizon):
        children = []
        for parent in frontier:
            constraints[parent] = box
            for step, ret in (("u", 0.8), ("d", -0.4 + 0.05 * depth)):
                nodes.append(TreeNode(parent + step, parent, 0.5, [ret]))
                children.append(parent + step)
        frontier = children
    return ScenarioTree(tuple(nodes), constraints)


class TestBands:
    """The tree's super-hedging LPs are solved in bands of levels, one LP
    per subtree of a band, whose duals certify every node of it."""

    @staticmethod
    def rounds(monkeypatch):
        import na1lab.lp

        rounds, solve = [], na1lab.lp._solve_stacked

        def counted(blocks):
            rounds.append(len(blocks))
            return solve(blocks)

        monkeypatch.setattr(na1lab.lp, "_solve_stacked", counted)
        return rounds

    @pytest.mark.parametrize("entries, bands", [(100, 2), (1, 4)])
    def test_rounds_follow_the_bands(self, monkeypatch, entries, bands):
        """Depth-2 subtrees of this tree take 72 entries and depth-3 ones
        392, so a budget of 100 makes bands of two levels, and a budget of 1
        one band per level."""
        import na1lab.lp
        from na1lab.tree import _bands

        claim = np.random.default_rng(30).uniform(0.0, 2.0, 16)
        tree = binomial_tree(4)
        assert global_na1(tree).holds
        rounds = self.rounds(monkeypatch)
        whole = superhedge_tree(tree, claim)
        assert len(_bands(tree)) == len(rounds) == 1
        monkeypatch.setattr(na1lab.lp, "STACK_ENTRIES", entries)
        rounds.clear()
        banded = superhedge_tree(tree, claim)
        assert len(_bands(tree)) == len(rounds) == bands
        for node_id, value in whole.node_values.items():
            assert banded.node_values[node_id] == pytest.approx(value, rel=1e-9, abs=1e-12)
        for node_id, strategy in whole.strategies.items():
            np.testing.assert_allclose(banded.strategies[node_id], strategy, atol=1e-7)

    def test_scaled_multipliers_fail_their_node_gap(self, monkeypatch):
        """The claim keeps every node's cost above 1, so scaling one node's
        normalized multipliers by 1 + 1e-6 moves its deflator reading by
        more than ``DUALITY_TOL``; every other node still passes."""
        import na1lab.hedging

        tree = binomial_tree(3)
        claim = np.random.default_rng(31).uniform(1.0, 3.0, 8)
        report = na1lab.hedging._superhedge_report
        for node in range(len(tree.internal_ids())):
            calls = []

            def scaled(market, payoff, states, primal, y_opt, multipliers):
                calls.append(primal)
                if len(calls) == node + 1:
                    multipliers = multipliers * (1.0 + 1e-6)
                return report(market, payoff, states, primal, y_opt, multipliers)

            monkeypatch.setattr(na1lab.hedging, "_superhedge_report", scaled)
            with pytest.raises(NumericError, match="duality gap"):
                superhedge_tree(tree, claim)
            assert len(calls) == node + 1 and calls[-1] > 1.0
        monkeypatch.setattr(na1lab.hedging, "_superhedge_report", report)
        assert superhedge_tree(tree, claim).value > 1.0


def fresh_market(tree, node_id):
    """The node's one-period market built anew, so no certificate cached on
    the tree's own market reaches it."""
    kids = tree.children(node_id)
    return DiscreteMarket(
        np.array([float(tree.node(k).prob) for k in kids]),
        np.vstack([np.asarray(tree.node(k).returns, dtype=float) for k in kids]),
        tree.constraints[node_id],
    )


class TestStackedPasses:
    """Every tree pass solves its per-node LPs stacked; each node must get
    what a per-node call on a freshly built node market gives."""

    def test_na1_matches_per_node_checks(self):
        rng = np.random.default_rng(20261018)
        mixed = 0
        for _ in range(60):
            tree = random_tree(rng)
            report = global_na1(tree)
            failing = []
            for n in tree.internal_ids():
                alone = check_na1(fresh_market(tree, n))
                stacked = report.certificates[n]
                assert stacked.verdict == alone.verdict
                if alone.holds:
                    radius = alone.bound_radius
                    assert abs(stacked.bound_radius - radius) <= 1e-9 * (1.0 + radius)
                else:
                    failing.append(n)
                    np.testing.assert_allclose(stacked.witness_ray, alone.witness_ray, atol=1e-12)
            assert report.failing == tuple(failing)
            mixed += 0 < len(failing) < len(tree.internal_ids())
        assert mixed >= 5

    def test_deflator_check_matches_per_node_checks(self):
        rng = np.random.default_rng(31)
        unbounded = 0
        for _ in range(40):
            tree = random_tree(rng)
            values = {n: float(rng.uniform(0.5, 1.5)) for n in tree.bfs_ids()}
            values[tree.root_id] = 1.0
            expected = max(
                verify_deflator(
                    fresh_market(tree, n),
                    np.array([values[k] for k in tree.children(n)]) / values[n],
                )
                - 1.0
                for n in tree.internal_ids()
            )
            worst = verify_deflator_process(tree, DeflatorProcess(values))
            if math.isinf(expected):
                assert worst == expected
                unbounded += 1
            else:
                assert worst == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert unbounded >= 5

    def test_superhedge_matches_per_node_loop(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 25:
            tree = random_tree(rng)
            if not global_na1(tree).holds:
                continue
            claim = rng.uniform(0.0, 1.5, len(tree.leaf_ids))
            hedge = superhedge_tree(tree, claim)
            values = dict(zip(tree.leaf_ids, claim.tolist()))
            for n in reversed(tree.internal_ids()):
                payoff = np.array([values[k] for k in tree.children(n)])
                report = superhedge(fresh_market(tree, n), Claim(payoff))
                values[n] = max(report.primal_value, 0.0)
                assert hedge.node_values[n] == pytest.approx(values[n], rel=1e-9, abs=1e-9)
                np.testing.assert_allclose(hedge.strategies[n], report.strategy, atol=1e-7)
            checked += 1

    @staticmethod
    def trees_with_repeats(seed, count):
        """``count`` draws of :func:`tree_with_repeats` without scalable
        arbitrage; at least half of them share a node market."""
        rng = np.random.default_rng(seed)
        trees = []
        while len(trees) < count:
            tree = tree_with_repeats(rng)
            if global_na1(tree).holds:
                trees.append(tree)
        shared = sum(
            len({id(node_market(tree, n)) for n in tree.internal_ids()})
            < len(tree.internal_ids())
            for tree in trees
        )
        assert 2 * shared >= count
        return trees

    def test_numeraire_matches_per_node_solves_with_repeated_subtrees(self):
        for tree in self.trees_with_repeats(8, 12):
            policy, _ = numeraire_process(tree)
            for n in tree.internal_ids():
                alone = maximize_utility(
                    fresh_market(tree, n), UtilitySpec.log(), tol=NUMERAIRE_GRADIENT_TOL
                )
                scale = 1.0 + np.max(np.abs(alone.strategy))
                assert np.max(np.abs(policy.strategies[n] - alone.strategy)) <= 1e-8 * scale

    @pytest.mark.parametrize("gamma", [0.5, -1.0])
    def test_power_backward_induction_matches_per_node_solves_with_repeated_subtrees(self, gamma):
        for tree in self.trees_with_repeats(9, 10):
            result = backward_induction(tree, UtilitySpec.power(gamma))
            values = {leaf: 1.0 for leaf in tree.leaf_ids}
            for n in reversed(tree.internal_ids()):
                market = fresh_market(tree, n)
                continuation = np.array([values[k] for k in tree.children(n)])
                tilt = market.probs * continuation
                tilted = DiscreteMarket(tilt / tilt.sum(), market.returns, market.constraints)
                alone = maximize_utility(tilted, UtilitySpec.power(gamma))
                values[n] = float(market.probs @ continuation) * gamma * alone.value
                scale = 1.0 + np.max(np.abs(alone.strategy))
                strategy = result.policy.strategies[n]
                assert np.max(np.abs(strategy - alone.strategy)) <= 1e-8 * scale
                assert result.node_values[n] == pytest.approx(values[n], rel=1e-8)


class TestDistinctNodeContent:
    """Nodes with equal content share one market, so each pass builds,
    certifies and solves once per distinct market (and power tilt), and an
    optimum held on the market serves every later node and level."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Market builds, markets decided for NA1, and the problems in each
        smooth-solver call, from the moment the fixture is set up."""
        import na1lab.arbitrage
        import na1lab.portfolio

        counts = {"builds": 0, "decided": 0, "batches": []}
        post_init = DiscreteMarket.__post_init__
        decide = na1lab.arbitrage._decide_na1
        minimize = na1lab.portfolio.minimize_convex

        def counted_post_init(market):
            counts["builds"] += 1
            post_init(market)

        def counted_decide(market, tol):
            counts["decided"] += 1
            return decide(market, tol)

        def counted_minimize(derivatives, a_ub, b_ub, start, *args, **kwargs):
            counts["batches"].append(len(start))
            return minimize(derivatives, a_ub, b_ub, start, *args, **kwargs)

        monkeypatch.setattr(DiscreteMarket, "__post_init__", counted_post_init)
        monkeypatch.setattr(na1lab.arbitrage, "_decide_na1", counted_decide)
        monkeypatch.setattr(na1lab.portfolio, "minimize_convex", counted_minimize)
        return counts

    @pytest.fixture
    def iid_h6(self):
        market = DiscreteMarket(
            np.array([0.3, 0.3, 0.4]),
            np.array([[0.5, -0.2], [-0.3, 0.4], [0.1, 0.1]]),
            preset_constraints("box", 2, lower=[1.0, 1.0], upper=[1.0, 1.0]),
        )
        return iid_tree(market, 6)

    def test_iid_tree_is_one_market(self, iid_h6, counts):
        assert global_na1(iid_h6).holds
        assert (counts["builds"], counts["decided"]) == (1, 1)
        numeraire_process(iid_h6)
        assert counts["batches"] == [1]
        counts["batches"].clear()
        backward_induction(iid_h6, UtilitySpec.power(0.5))
        # one call per distinct tilt: the six levels' tilted weights round
        # to two byte patterns, and a held optimum serves the later levels
        assert counts["batches"] == [1, 1]
        assert (counts["builds"], counts["decided"]) == (1, 1)

    def test_iid_deflator_check_is_one_lp(self, iid_h6, monkeypatch):
        """Each node is certified under the one-step weights of its
        strategy, so where the LP decides (here every dual bound is made to
        miss) the 364 nodes of one market and one strategy share one
        wealth-ratio LP."""
        import na1lab.arbitrage
        import na1lab.portfolio

        groups = []
        settle = na1lab.arbitrage._settle

        def counted(market, *args):
            groups.append(market)
            return settle(market, *args)

        assert global_na1(iid_h6).holds
        monkeypatch.setattr(na1lab.arbitrage, "_settle", counted)
        monkeypatch.setattr(na1lab.portfolio, "_dual_bound", lambda *args: math.inf)
        numeraire_process(iid_h6)
        assert len(iid_h6.internal_ids()) == 364 and len(groups) == 1

    def test_numeraire_process_of_a_large_tree_is_one_solver_call(self, counts):
        from test_cli_fuzz import random_tree_doc
        from na1lab.io import parse_tree

        doc = random_tree_doc(np.random.default_rng(1), True, branching=3, horizon=6)
        tree = parse_tree(doc)[0]
        numeraire_process(tree)
        assert len(tree.nodes) == 1093
        assert counts["batches"] == [len(tree.internal_ids())]
