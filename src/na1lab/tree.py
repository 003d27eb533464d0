"""Multi-period markets on finite scenario trees.

A scenario tree assigns each non-root node a branch probability and the
return vector realized on the edge from its parent; each non-leaf node
carries the constraint set of the strategy chosen there.  Every question
about the tree reduces to its one-period node markets:

* NA1 holds globally exactly when it holds at every node (``global_na1``),
* expected-utility maximization is exact (``backward_induction``): log and
  power values separate into a per-node constant plus (or times) a wealth
  term, so each node solves one wealth-independent problem; a concave
  piecewise-linear utility is the deterministic equivalent of the tree,
* the reciprocal wealth of the per-node log optima deflates every allowed
  wealth process to a supermartingale (``numeraire_process``),
* cheapest super-replication composes backward, and the duals of the tree
  LP certify each node as its one-period LP would (``superhedge_tree``).

The tree and its node markets are held once, breadth-first
(:class:`ScenarioTree`); nodes with equal content share a market.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import arbitrage, lp
from .arbitrage import _Report, _deflator_bounds, _max_expected_gains
from .errors import InvalidParameterError, NumericError
from .hedging import _recertified, _superhedge_bands
from .lp import FEAS_TOL, deterministic_equivalent, run
from .market import PROB_TOL, ConstraintSet, DiscreteMarket
from .portfolio import GRADIENT_TOL, NUMERAIRE_GRADIENT_TOL, UtilitySpec, _maximize_all, _numeraires

#: The numeraire deflator's one-step ratios times the node's gross returns
#: must be one within this.
RATIO_TOL = 1e-12


@dataclass(frozen=True)
class TreeNode:
    """One tree node: identity, parent link, and the incoming edge data:
    ``prob``, the conditional probability of reaching it from its parent, and
    ``returns``, the asset returns on that edge.  The root's ``parent`` and
    ``returns`` are None and its ``prob`` is 1."""

    node_id: object
    parent: object | None = None
    prob: float = 1.0
    returns: object | None = None


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Finite scenario tree with per-node strategy constraints.

    ``nodes`` must contain exactly one root; every leaf must sit at the same
    depth.  ``constraints`` maps each non-leaf node id to its ConstraintSet.
    Children keep their order in ``nodes``; claims follow ``leaf_ids``.  Node
    ``i`` of ``bfs_ids`` has edge probability ``_probs[i]``, edge returns
    ``_returns[i]`` and parent ``_parents[i]`` (the root's: 1, zeros and 0);
    its children are ``_offsets[i]:_offsets[i + 1]``, and depth ``t`` is
    ``_levels[t]:_levels[t + 1]``.
    """

    nodes: tuple[TreeNode, ...]
    constraints: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if not nodes:
            raise InvalidParameterError("a scenario tree needs at least one node")
        by_id: dict = {}
        for node in nodes:
            if not isinstance(node, TreeNode):
                raise InvalidParameterError("nodes must be TreeNode instances")
            if node.node_id in by_id:
                raise InvalidParameterError(f"duplicate node id {node.node_id!r}")
            by_id[node.node_id] = node
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise InvalidParameterError(
                f"expected exactly one root (parent None), found {len(roots)}"
            )
        root = roots[0]
        if root.returns is not None:
            raise InvalidParameterError("the root has no incoming edge; returns must be None")
        if float(root.prob) != 1.0:
            raise InvalidParameterError("the root's probability must be 1")
        children: dict = {n.node_id: [] for n in nodes}
        for node in nodes:
            if node.parent is None:
                continue
            if node.parent not in by_id:
                raise InvalidParameterError(
                    f"node {node.node_id!r} references unknown parent {node.parent!r}"
                )
            children[node.parent].append(node.node_id)
        bfs, offsets = [root.node_id], []
        for node_id in bfs:  # appended to while walked: breadth-first
            offsets.append(len(bfs))
            bfs.extend(children[node_id])
        offsets.append(len(bfs))
        if len(bfs) != len(nodes):
            raise InvalidParameterError(
                "tree is disconnected (some nodes unreachable from the root)"
            )
        levels = [0]  # a level's children start the next one
        while levels[-1] < len(bfs):
            levels.append(offsets[levels[-1]])
        counts = np.diff(offsets)
        depths = [t for t in range(len(levels) - 1) if not counts[levels[t]:levels[t + 1]].all()]
        if len(depths) != 1:
            raise InvalidParameterError(
                f"all leaves must sit at the same depth, found depths {depths}"
            )
        if len(levels) < 3:
            raise InvalidParameterError("a scenario tree needs at least one period")
        cleaned: dict = {}
        for node in nodes:
            if node.parent is None:
                continue
            returns = np.asarray(node.returns, dtype=float).reshape(-1)
            if returns.size == 0 or not np.all(np.isfinite(returns)):
                raise InvalidParameterError(f"node {node.node_id!r} needs a finite return vector")
            if np.any(returns < -1.0):
                raise InvalidParameterError(f"node {node.node_id!r} has a return below -1")
            cleaned[node.node_id] = returns
            prob = float(node.prob)
            if not 0.0 < prob <= 1.0:
                raise InvalidParameterError(
                    f"node {node.node_id!r} branch probability {prob} outside (0, 1]"
                )
        dims = {returns.size for returns in cleaned.values()}
        if len(dims) > 1:
            raise InvalidParameterError(f"inconsistent asset counts across edges: {sorted(dims)}")
        n_assets = dims.pop()
        for node_id, kids in children.items():
            total = sum(float(by_id[k].prob) for k in kids)
            if kids and abs(total - 1.0) > PROB_TOL:
                raise InvalidParameterError(
                    f"children of node {node_id!r} have probabilities summing to {total!r}"
                )
        index = {node_id: i for i, node_id in enumerate(bfs)}
        for node_id in bfs[:levels[-2]]:
            cs = self.constraints.get(node_id)
            if not isinstance(cs, ConstraintSet):
                raise InvalidParameterError(f"non-leaf node {node_id!r} needs a ConstraintSet")
            if cs.dim != n_assets:
                raise InvalidParameterError(
                    f"constraints at node {node_id!r} have dim {cs.dim}, expected {n_assets}"
                )
        for node_id in self.constraints:
            if index.get(node_id, len(bfs)) >= levels[-2]:
                raise InvalidParameterError(
                    f"constraints given for {node_id!r}, which is not a non-leaf node"
                )
        probs = np.array([float(by_id[k].prob) for k in bfs])
        returns = np.vstack([np.zeros(n_assets)] + [cleaned[k] for k in bfs[1:]])
        parents = np.concatenate([[0], np.repeat(np.arange(len(bfs)), counts)])
        for array in (probs, returns, parents):
            array.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "constraints", dict(self.constraints))
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_bfs", tuple(bfs))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_returns", returns)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_levels", tuple(levels))

    @property
    def root_id(self):
        return self._bfs[0]

    @property
    def leaf_ids(self) -> tuple:
        return self._bfs[self._levels[-2]:]

    @property
    def horizon(self) -> int:
        return len(self._levels) - 2

    @property
    def n_assets(self) -> int:
        return self._returns.shape[1]

    def _at(self, node_id) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise InvalidParameterError(f"unknown node id {node_id!r}") from None

    def node(self, node_id) -> TreeNode:
        self._at(node_id)
        return self._by_id[node_id]

    def children(self, node_id) -> tuple:
        i = self._at(node_id)
        return self._bfs[self._offsets[i]:self._offsets[i + 1]]

    def depth(self, node_id) -> int:
        return int(np.searchsorted(self._levels, self._at(node_id), side="right")) - 1

    def bfs_ids(self) -> tuple:
        """Node ids in breadth-first order (parents before children)."""
        return self._bfs

    def internal_ids(self) -> tuple:
        """Non-leaf ids in breadth-first order; reverse for backward passes."""
        return self._bfs[:self._levels[-2]]

    def path_probability(self, node_id) -> float:
        """Probability of reaching the node from the root."""
        prob, i = 1.0, self._at(node_id)
        while i:
            prob *= float(self._probs[i])
            i = self._parents[i]
        return prob

    @cached_property
    def _markets(self) -> tuple:
        """The internal nodes' markets in breadth-first order, built on first
        use; nodes with equal content share one (:func:`node_market`)."""
        markets, by_content = [], {}
        for i, node_id in enumerate(self.internal_ids()):
            kids = slice(self._offsets[i], self._offsets[i + 1])
            probs, returns = self._probs[kids], self._returns[kids]
            cs = self.constraints[node_id]
            key = (probs.tobytes(), returns.tobytes(), cs.normals.tobytes(), cs.offsets.tobytes())
            if key not in by_content:
                by_content[key] = DiscreteMarket(probs, returns, cs)
            markets.append(by_content[key])
        return tuple(markets)


def node_market(tree: ScenarioTree, node_id) -> DiscreteMarket:
    """One-period market seen standing at a non-leaf node.

    States are the node's children with their branch probabilities and edge
    returns; the constraint set is the node's own.  The first call builds
    every node market, so an invalid one raises on any node.  Nodes with equal
    probabilities, returns and constraints share one market and its
    certificates.
    """
    i = tree._at(node_id)
    if i >= tree._levels[-2]:
        raise InvalidParameterError(f"node {node_id!r} is a leaf; it has no market")
    return tree._markets[i]


def iid_tree(market: DiscreteMarket, horizon: int, root_id: str = "root") -> ScenarioTree:
    """Tree repeating one market at every node for ``horizon`` periods; child
    ids extend the parent id with ``/k``."""
    if horizon < 1:
        raise InvalidParameterError("horizon must be at least 1")
    nodes, constraints, frontier = [TreeNode(root_id)], {}, [root_id]
    for _ in range(horizon):
        constraints.update((parent, market.constraints) for parent in frontier)
        edges = [(parent, k) for parent in frontier for k in range(market.n_states)]
        nodes += [TreeNode(f"{parent}/{k}", parent, float(market.probs[k]), market.returns[k])
                  for parent, k in edges]
        frontier = [f"{parent}/{k}" for parent, k in edges]
    return ScenarioTree(tuple(nodes), constraints)


# -- processes ----------------------------------------------------------------


@dataclass(frozen=True)
class PolicyProcess(_Report):
    """Strategy per non-leaf node plus the wealth reached at every node.

    ``wealth`` starts at 1 at the root and multiplies by one plus the chosen
    strategy's gain along each edge.
    """

    strategies: dict
    wealth: dict

    def validate(self, tree: ScenarioTree, require_positive_wealth: bool = False) -> None:
        """Check that every strategy lies in its node's allowed polyhedron and
        in the span of its return support, within ``FEAS_TOL``."""
        for node_id, market in zip(tree.internal_ids(), tree._markets):
            if node_id not in self.strategies:
                raise NumericError(f"no strategy recorded at node {node_id!r}")
            pi = np.asarray(self.strategies[node_id], dtype=float)
            if not market.allowed.contains(pi):
                raise NumericError(f"policy at node {node_id!r} leaves the allowed polyhedron")
            off_span = pi - market.span.project(pi)
            scale = 1.0 + float(np.max(np.abs(pi), initial=0.0))
            if np.max(np.abs(off_span), initial=0.0) > FEAS_TOL * scale:
                raise NumericError(f"policy at node {node_id!r} leaves the return span")
        for node_id in tree.bfs_ids():
            if node_id not in self.wealth:
                raise NumericError(f"no wealth recorded at node {node_id!r}")
            if require_positive_wealth and not self.wealth[node_id] > 0.0:
                raise NumericError(
                    f"wealth at node {node_id!r} is {self.wealth[node_id]!r}, not positive"
                )


@dataclass(frozen=True)
class DeflatorProcess:
    """Positive node process, 1 at the root, deflating allowed wealth: at each
    non-leaf node, every allowed strategy's deflated one-step wealth has
    conditional expectation at most the node's own value
    (``verify_deflator_process``)."""

    values: dict


def _wealth_process(tree: ScenarioTree, strategies) -> dict:
    """Wealth by node id under the internal nodes' strategies, a list in
    breadth-first order."""
    offsets, values = tree._offsets, [1.0] * len(tree._bfs)
    for i, strategy in enumerate(strategies):
        for k in range(offsets[i], offsets[i + 1]):
            values[k] = values[i] * (1.0 + float(tree._returns[k] @ strategy))
    return dict(zip(tree._bfs, values))


def verify_deflator_process(tree: ScenarioTree, process: DeflatorProcess) -> float:
    """Worst relative supermartingale violation across nodes (<= 0 is clean):
    per non-leaf node, the certified bound on the deflated expected one-step
    wealth over the allowed polyhedron
    (:func:`~na1lab.arbitrage._deflator_bounds`) less the node's value."""
    missing = [nid for nid in tree.bfs_ids() if nid not in process.values]
    if missing:
        raise InvalidParameterError(f"deflator process missing nodes {missing!r}")
    values = np.array([float(process.values[n]) for n in tree.bfs_ids()])
    if abs(values[0] - 1.0) > 1e-12:
        raise InvalidParameterError("a deflator process must start at 1")
    bad = np.flatnonzero(~(values > 0.0))
    if bad.size:
        raise InvalidParameterError(f"deflator at node {tree.bfs_ids()[bad[0]]!r} is not positive")
    offsets, markets = tree._offsets, tree._markets
    weights = [market.probs * (values[offsets[i]:offsets[i + 1]] / values[i])
               for i, market in enumerate(markets)]
    return max(bound - 1.0 for bound in run(_deflator_bounds(markets, weights)))


# -- global no-scalable-arbitrage ---------------------------------------------


@dataclass(frozen=True)
class TreeNa1Report(_Report):
    """Per-node scalable-arbitrage certificates and the overall verdict."""

    holds: bool
    certificates: dict
    failing: tuple

    def to_dict(self) -> dict:
        # node ids are reported as strings, in ``failing`` as in the keys
        return {**super().to_dict(), "failing": [str(node_id) for node_id in self.failing]}


def global_na1(tree: ScenarioTree) -> TreeNa1Report:
    """Check every node market for scalable arbitrage.

    The verdict is the conjunction over the nodes; failing nodes keep their
    witness rays in the per-node certificates.  Task: :func:`_with_na1`.
    """
    return run(_with_na1(tree))[0]


def _with_na1(tree: ScenarioTree, *passes):
    """Task: the tree's :class:`TreeNa1Report` and the answers of the tasks
    ``passes``, gated on the node markets' NA1 by
    :func:`~na1lab.arbitrage._with_na1` (None where it fails)."""
    internal = tree.internal_ids()
    certs, *answers = yield from arbitrage._with_na1(tree._markets, *passes)
    failing = tuple(n for n, cert in zip(internal, certs) if not cert.holds)
    return (TreeNa1Report(not failing, dict(zip(internal, certs)), failing), *answers)


def _gated(tree: ScenarioTree, context: str, task):
    """Task: ``task``'s answer behind the node markets' NA1 gate; a tree with
    scalable arbitrage is refused, naming its failing nodes
    (:func:`~na1lab.arbitrage._gated`)."""
    return arbitrage._gated(tree._markets, context, task, tree.internal_ids())


# -- backward induction -------------------------------------------------------


@dataclass(frozen=True)
class BackwardInductionResult(_Report):
    """Root value, per-node policy, and per-node continuation data.

    ``node_values[n]`` is, for log utility, the additive continuation constant
    (the value at node ``n`` with unit wealth); for power utility the
    multiplicative one (``value = node_values[n] * x**gamma / gamma``); for
    piecewise-linear utilities the conditional expected terminal utility at
    the wealth the optimal policy reaches at ``n``.  ``diagnostics`` is
    ``{"utility_form", "exact"}``.
    """

    value: float
    policy: PolicyProcess
    node_values: dict
    diagnostics: dict


def _node_candidates(candidates, node_id) -> np.ndarray:
    if isinstance(candidates, dict):
        if node_id not in candidates:
            raise InvalidParameterError(f"no candidate set for node {node_id!r}")
        candidates = candidates[node_id]
    chosen = np.atleast_2d(np.asarray(candidates, dtype=float))
    if chosen.shape[0] == 0:
        raise InvalidParameterError(f"empty candidate set at node {node_id!r}")
    return chosen


def _feasible_candidates(market: DiscreteMarket, chosen: np.ndarray, node_id) -> np.ndarray:
    keep = [pi for pi in chosen if market.allowed.contains(pi)]
    if not keep:
        raise InvalidParameterError(
            f"no candidate strategy at node {node_id!r} lies in the allowed set"
        )
    return np.vstack(keep)


def _best_candidate(weights, returns, candidates, base: UtilitySpec):
    """Expected-utility argmax over a finite strategy set."""
    values = base.value(1.0 + candidates @ returns.T) @ weights
    best = int(np.argmax(values))
    if not np.isfinite(values[best]):
        raise NumericError("every candidate strategy has expected utility -inf")
    return candidates[best], float(values[best])


def _separable_backward(tree, u: UtilitySpec, candidates):
    """Task: exact DP for log and power utilities.

    Each node solves one wealth-independent one-period problem on its market,
    its child weights tilted by the continuation constants for power utility.
    The utility's ``scale`` shifts (log) or rescales (power) the value without
    moving the optimizer, so nodes use the unit-scale utility and the root
    value is adjusted at the end.  A level is one
    :func:`~na1lab.portfolio._maximize_all`.
    """
    is_log = u.kind == "log"
    base = UtilitySpec.log() if is_log else UtilitySpec.power(u.gamma)
    ids, offsets, levels, markets = tree._bfs, tree._offsets, tree._levels, tree._markets
    values = [0.0 if is_log else 1.0] * len(ids)
    strategies = [None] * len(markets)
    for depth in reversed(range(tree.horizon)):
        level = range(levels[depth], levels[depth + 1])[::-1]
        continuation = [np.array(values[offsets[i]:offsets[i + 1]]) for i in level]
        tilts = [markets[i].probs * c for i, c in zip(level, continuation)]
        weights = [markets[i].probs if is_log else t / t.sum() for i, t in zip(level, tilts)]
        if candidates is None:
            optima = yield from _maximize_all([markets[i] for i in level], weights, base, GRADIENT_TOL,
                                              labels=[ids[i] for i in level])
        for j, i in enumerate(level):
            market = markets[i]
            if candidates is None:
                strategy, value = optima[j].strategy, optima[j].value
            else:
                chosen = _node_candidates(candidates, ids[i])
                try:
                    chosen = _feasible_candidates(market, chosen, ids[i])
                    strategy, value = _best_candidate(weights[j], market.returns, chosen, base)
                except NumericError as exc:
                    raise NumericError(f"optimization failed at node {ids[i]!r}: {exc}") from exc
                strategy = market.span.project(strategy)
            strategies[i] = np.asarray(strategy, dtype=float)
            expected = float(market.probs @ continuation[j])
            values[i] = expected + value if is_log else expected * u.gamma * value
    if is_log:
        root_value = values[0] + math.log(u.scale)
    else:
        root_value = u.scale**u.gamma * values[0] / u.gamma
    policy = PolicyProcess(dict(zip(tree.internal_ids(), strategies)), _wealth_process(tree, strategies))
    policy.validate(tree, require_positive_wealth=True)
    return BackwardInductionResult(float(root_value), policy, dict(zip(ids, values)),
                                   {"utility_form": u.kind, "exact": True})


def _piecewise_backward(tree, u: UtilitySpec):
    """Task: the deterministic equivalent
    (:func:`~na1lab.lp.deterministic_equivalent`) of a concave
    piecewise-linear utility over the tree, root wealth 1, every wealth
    floored at 0 and each leaf weighted by its path probability.  The policy
    is validated; node values are its conditional expected utilities."""
    offsets, markets = tree._offsets, tree._markets
    cut = len(markets)
    pieces = u.pieces()
    _, strategies, _ = yield from deterministic_equivalent(
        [(m.returns, m.span.basis, m.constraints.normals, m.constraints.offsets) for m in markets],
        [(tree.path_probability(leaf), pieces) for leaf in tree.leaf_ids],
        (1.0, 1.0), True, "piecewise-utility tree LP")
    policy = PolicyProcess(dict(zip(tree.internal_ids(), strategies)), _wealth_process(tree, strategies))
    policy.validate(tree)
    values = list(policy.wealth.values())
    values[cut:] = u.value(np.array(values[cut:])).tolist()
    probs = tree._probs.tolist()
    for i in reversed(range(cut)):
        values[i] = sum(p * v for p, v in zip(probs[offsets[i]:offsets[i + 1]],
                                               values[offsets[i]:offsets[i + 1]]))
    return BackwardInductionResult(
        values[0], policy, dict(zip(tree._bfs, values)), {"utility_form": u.kind, "exact": True}
    )


def backward_induction(
    tree: ScenarioTree,
    u: UtilitySpec,
    candidates=None,
) -> BackwardInductionResult:
    """Maximize expected terminal utility of wealth over the tree.

    Log and power utilities separate across periods, so the DP is exact: each
    node contributes one wealth-independent one-period problem, solved as
    ``maximize_utility`` solves it, or by enumeration over ``candidates``, a
    strategy array for every node or a dict keyed by non-leaf node id.  A
    piecewise-linear utility is solved exactly over the whole tree
    (:func:`_piecewise_backward`).  Candidates with a piecewise-linear
    utility, or a log or power utility with a wealth shift (it breaks the
    separation), raise :class:`~na1lab.errors.InvalidParameterError`; a tree
    with scalable arbitrage raises :class:`~na1lab.errors.PreconditionError`,
    naming its failing nodes.
    """
    if u.kind == "piecewise_linear":
        if candidates is not None:
            raise InvalidParameterError("candidate menus apply to log and power utilities only")
        task = _piecewise_backward(tree, u)
    elif u.shift != 0.0:
        raise InvalidParameterError(
            "a shifted log or power utility does not separate across periods"
        )
    else:
        task = _separable_backward(tree, u, candidates)
    return run(_gated(tree, "backward induction", task))


def default_wealth_grid(tree: ScenarioTree, points: int = 257) -> np.ndarray:
    """Geometric wealth grid spanning the reachable range.

    Per edge, the largest gain and loss over the node's allowed set, the
    expected-gain LPs (:func:`~na1lab.arbitrage.max_expected_gain`) under the
    weights ``+e_k`` and ``-e_k`` of the edge's child ``k``, bound the
    one-step gain; their products bound terminal wealth, the lower end
    floored at a tiny positive fraction.
    """
    if points < 2:
        raise InvalidParameterError("a wealth grid needs at least two points")
    offsets, markets, cut = tree._offsets, tree._markets, tree._levels[-2]
    edges = [(m, sign * row) for m in markets for row in np.eye(m.n_states) for sign in (1.0, -1.0)]
    gains = iter(run(_gated(tree, "wealth-grid construction", _max_expected_gains(*zip(*edges)))))
    lo, hi = [1.0] * len(tree._bfs), [1.0] * len(tree._bfs)
    for i in range(cut):
        for k in range(offsets[i], offsets[i + 1]):
            best, worst = next(gains), -next(gains)
            lo[k] = lo[i] * max(1.0 + worst, 0.0)
            hi[k] = hi[i] * (1.0 + best)
    floor = max(min(lo[cut:]), 1e-6)
    ceil = max(max(hi[cut:]), floor * (1.0 + 1e-6))
    return np.geomspace(floor, ceil, points)


# -- numeraire and deflator processes -----------------------------------------


def numeraire_process(tree: ScenarioTree) -> tuple[PolicyProcess, DeflatorProcess]:
    """Per-node log-optimal strategies and the reciprocal-wealth deflator.

    The log optimum at each node makes every allowed wealth ratio a one-step
    supermartingale, so the inverse of its wealth process deflates every
    allowed wealth.  Each node is certified as a market's numeraire is, under
    the one-step weights ``probs / (1 + R rho)`` of its strategy ``rho``,
    which numpy ties to the deflator within ``RATIO_TOL``; a failure raises
    :class:`~na1lab.errors.NumericError`.  Task: :func:`_numeraire_process`.
    """
    return run(_gated(tree, "the numeraire process", _numeraire_process(tree)))


def _numeraire_process(tree: ScenarioTree):
    internal = tree.internal_ids()
    optima, _, _ = yield from _numeraires(tree._markets, NUMERAIRE_GRADIENT_TOL, internal)
    strategies = [optimum.strategy for optimum in optima]
    policy = PolicyProcess(dict(zip(internal, strategies)), _wealth_process(tree, strategies))
    policy.validate(tree, require_positive_wealth=True)
    inverse = [1.0 / w for w in policy.wealth.values()]
    ties = np.array([inverse[k] / inverse[p] * (1.0 + tree._returns[k] @ strategies[p])
                     for k, p in enumerate(tree._parents[1:].tolist(), 1)])
    if np.max(np.abs(ties - 1.0)) > RATIO_TOL:
        raise NumericError("numeraire deflator strays from the one-step ratios it is certified by")
    return policy, DeflatorProcess(dict(zip(tree._bfs, inverse)))


# -- super-replication ---------------------------------------------------------


@dataclass(frozen=True)
class TreeHedge(_Report):
    """Cheapest super-replication of a terminal claim over the tree.

    ``node_values`` gives the cost of covering the claim from each node on,
    and ``strategies`` the wealth fractions backing it at each non-leaf node:
    hedge capital compounds as ``x * (1 + <strategy, returns>)`` per edge.
    """

    value: float
    node_values: dict
    strategies: dict


def _leaf_payoffs(tree: ScenarioTree, claim) -> list:
    if isinstance(claim, dict):
        missing = [leaf for leaf in tree.leaf_ids if leaf not in claim]
        if missing:
            raise InvalidParameterError(f"claim missing leaves {missing!r}")
        leaves = set(tree.leaf_ids)
        extra = [k for k in claim if k not in leaves]
        if extra:
            raise InvalidParameterError(f"claim names non-leaf nodes {extra!r}")
        payoffs = [float(claim[leaf]) for leaf in tree.leaf_ids]
    else:
        values = np.asarray(claim, dtype=float).reshape(-1)
        if values.size != len(tree.leaf_ids):
            raise InvalidParameterError(
                f"claim has {values.size} entries for {len(tree.leaf_ids)} leaves"
            )
        payoffs = values.tolist()
    bad = {k: v for k, v in zip(tree.leaf_ids, payoffs) if not (math.isfinite(v) and v >= 0.0)}
    if bad:
        raise InvalidParameterError(f"claim must be finite and nonnegative, got {bad!r}")
    return payoffs


def superhedge_tree(tree: ScenarioTree, claim) -> TreeHedge:
    """Cheapest capital covering a nonnegative terminal claim from the root.

    Each node's cost is the one-period super-replication price of its
    children's costs, certified as :func:`~na1lab.hedging.superhedge`
    certifies a market.  ``claim`` maps leaf id to payoff, or is a sequence in
    ``leaf_ids`` order.  Task: :func:`_superhedge_tree`.
    """
    return run(_gated(tree, "tree super-replication", _superhedge_tree(tree, claim)))


def _superhedge_tree(tree: ScenarioTree, claim):
    levels, markets = tree._levels, tree._markets
    values = np.array([0.0] * levels[-2] + _leaf_payoffs(tree, claim))
    strategies = [None] * levels[-2]
    for lo, hi in _bands(tree):
        subtrees = [_subtree(tree, root, hi - lo) for root in range(levels[lo], levels[lo + 1])]
        bands = [([markets[i] for i in inner], values[leaves]) for inner, leaves in subtrees]
        nodes = [i for inner, _ in subtrees for i in inner]
        reports = [r for band in (yield from _superhedge_bands(bands)) for r in band]
        for i, report in zip(nodes, (yield from _recertified([markets[i] for i in nodes], reports))):
            # The cost of a nonnegative claim is nonnegative; clip LP noise.
            values[i] = max(float(report.primal_value), 0.0)
            strategies[i] = report.strategy
    return TreeHedge(float(values[0]), dict(zip(tree._bfs, values.tolist())),
                     dict(zip(tree.internal_ids(), strategies)))


def _bands(tree: ScenarioTree) -> list:
    """The internal levels ``lo:hi`` of each band, deepest first: a band
    grows upward by whole levels while the LP of its largest subtree
    (:func:`~na1lab.lp.tree_block`, every state row kept) keeps at most
    ``lp.STACK_ENTRIES`` entries, and has at least one level."""
    offsets, levels = np.array(tree._offsets), tree._levels
    budget = [tree.constraints[node_id].offsets.size for node_id in tree.internal_ids()]
    own = np.diff(offsets)[: levels[-2]] + budget
    width, bands, hi, below = 1 + tree.n_assets, [], tree.horizon, None
    for depth in reversed(range(tree.horizon)):
        level = slice(levels[depth], levels[depth + 1])
        rows, nodes = own[level], np.ones(level.stop - level.start, dtype=int)
        if below is not None:
            kids = offsets[level] - level.stop  # the next level's children ranges
            grown = rows + np.add.reduceat(below[0], kids), nodes + np.add.reduceat(below[1], kids)
            if np.max(grown[0] * grown[1]) * width <= lp.STACK_ENTRIES:
                rows, nodes = grown
            else:
                bands.append((depth + 1, hi))
                hi = depth + 1
        below = rows, nodes
    return bands + [(0, hi)]


def _subtree(tree: ScenarioTree, root: int, depth: int):
    """Positions of ``root``'s subtree ``depth`` levels down, breadth-first:
    its internal nodes as a list, then its leaves as a slice."""
    inner, lo, hi = [], root, root + 1
    for _ in range(depth):
        inner.extend(range(lo, hi))
        lo, hi = tree._offsets[lo], tree._offsets[hi]
    return inner, slice(lo, hi)
