"""Seeded input generators for the three workloads.

Every generator is a pure function of ``(seed, index)``, so the same seed
gives the same inputs and a document never depends on how far an earlier run
got.  The structure of each slot (preset, size, tree shape) follows a fixed
cycle.  The market of slot ``i`` (probabilities, returns, constraints, tree
shape and utility) is drawn from ``numpy.random.default_rng([0, i])``, the
same in every run; the seed draws the claim from ``default_rng([seed, i])``.

Why the markets do not follow the seed: a run completes 30 to 600
operations, and an operation's cost and outcome depend on the drawn numbers
(optimizer iterations, whether the numeraire or ESMM fails, whether an
arbitrage exists).  With markets drawn from the seed, op_p50_ms moved by
12-15 % and fail_rate by up to a fifth from seed to seed, more than any bound
a regression check can use.  The package only ever sees the generated JSON
documents or arrays.
"""

from __future__ import annotations

import numpy as np

SMALL_PRESETS = ("box", "no_short_no_borrow", "no_short", "borrow_limit", "none")
SMALL_MAX_ASSETS = 6
SMALL_MAX_STATES = 40
#: Every FACTOR_EVERY-th small-market slot is a factor document.
FACTOR_EVERY = 10
#: Slots per small_markets period: every (preset, assets) pair once, and
#: three factor documents.
SMALL_PERIOD = len(SMALL_PRESETS) * SMALL_MAX_ASSETS
SMALL_COMMANDS = ("analyze", "numeraire", "hedge")

#: large_markets cycles through these market specs, alternating the two
#: sources: ("factor", nodes per factor) and ("box", states, assets).
LARGE_SPECS = (
    ("factor", 32),
    ("box", 256, 2),
    ("factor", 48),
    ("box", 512, 3),
    ("factor", 64),
    ("box", 1024, 4),
    ("factor", 80),
    ("box", 2048, 2),
    ("factor", 96),
    ("box", 256, 4),
    ("factor", 40),
    ("box", 1024, 3),
)
#: Operations per large_markets period; a run covers whole periods.
LARGE_PERIOD = 4 * len(LARGE_SPECS)

#: scenario_trees cycles through these shapes:
#: (branching, assets, horizon, iid, utility, one node without NA1).
#: One tree in a period is piecewise-linear (the grid DP, about 1.4 s per
#: internal node), on the smallest shape; a run covers whole periods of
#: TREE_PERIOD operations.
TREE_SPECS = (
    (2, 1, 2, True, "log", False),
    (3, 2, 2, False, "power", False),
    (2, 1, 3, True, "power", False),
    (4, 1, 2, False, "log", True),
    (2, 1, 2, False, "piecewise_linear", False),
    (4, 2, 2, True, "log", False),
    (3, 1, 3, False, "power", False),
    (4, 3, 2, True, "log", False),
    (3, 2, 2, True, "log", False),
    (2, 1, 2, False, "power", False),
    (2, 1, 4, True, "log", False),
    (4, 1, 2, True, "power", True),
    (3, 1, 2, False, "log", False),
    (4, 1, 2, False, "power", False),
    (2, 1, 3, False, "log", False),
    (3, 2, 2, False, "power", False),
)
TREE_PERIOD = len(TREE_SPECS)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _claim(seed: int, index: int, size: int) -> np.ndarray:
    return _rng(seed, index).uniform(0.0, 1.5, size=size)


def _probs(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.5, 1.5, size=n)
    return p / p.sum()


def _halfspaces(normals, offsets) -> list:
    return [
        {"a": [float(x) for x in a], "b": float(b)} for a, b in zip(normals, offsets)
    ]


def _preset_rows(rng, preset: str, d: int):
    """(normals, offsets, preset label) of a constraint preset, as in
    ``na1lab.preset_constraints``."""
    eye = np.eye(d)
    if preset == "box":
        lower = rng.uniform(0.2, 1.5, d)
        upper = rng.uniform(0.2, 1.5, d)
        return np.vstack([-eye, eye]), np.concatenate([lower, upper]), "box"
    if preset == "no_short_no_borrow":
        return np.vstack([-eye, np.ones(d)]), np.concatenate([np.zeros(d), [1.0]]), preset
    if preset == "no_short":
        return -eye, np.zeros(d), preset
    if preset == "borrow_limit":
        c = float(rng.uniform(0.5, 3.0))
        return np.ones((1, d)), np.array([c]), f"borrow_limit:{c:g}"
    return np.zeros((0, d)), np.zeros(0), None


# -- small_markets ------------------------------------------------------------


def small_doc(seed: int, index: int) -> tuple[str, dict]:
    """Document of slot ``index``: ("market", doc) or ("factor", doc)."""
    rng = _rng(0, index)
    if index % FACTOR_EVERY == FACTOR_EVERY - 1:
        return "factor", factor_doc(rng)
    preset = SMALL_PRESETS[index % len(SMALL_PRESETS)]
    d = 1 + (index // len(SMALL_PRESETS)) % SMALL_MAX_ASSETS
    n = int(rng.integers(d + 1, SMALL_MAX_STATES + 1))
    returns = rng.uniform(-0.9, 1.5, size=(n, d))
    normals, offsets, label = _preset_rows(rng, preset, d)
    constraints = {"halfspaces": _halfspaces(normals, offsets)}
    if label is not None:
        constraints["preset"] = label
    return "market", {
        "probs": [float(x) for x in _probs(rng, n)],
        "returns": [[float(x) for x in row] for row in returns],
        "constraints": constraints,
        "claim": [float(x) for x in _claim(seed, index, n)],
    }


def factor_doc(rng) -> dict:
    """Unit upper-triangular factor document with two or three assets."""
    d = 2 if rng.random() < 0.7 else 3
    loadings = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            loadings[i, j] = rng.uniform(0.1, 1.6)
    return {
        "loadings": [[float(x) for x in row] for row in loadings],
        "supports": [[0.0, "inf"]] + [[-1.0, "inf"]] * (d - 1),
        "borrow_limit": float(rng.uniform(0.5, 3.0)),
    }


def small_ops(seed: int):
    """Endless schedule of (index, kind, command, doc) for small_markets."""
    index = 0
    while True:
        kind, doc = small_doc(seed, index)
        commands = ("factor",) if kind == "factor" else SMALL_COMMANDS
        for command in commands:
            yield index, kind, command, doc
        index += 1


# -- large_markets ------------------------------------------------------------


def large_spec(seed: int, index: int):
    """Raw arrays of operation ``index``; the market object is built inside
    the timed operation.  Returns (spec, payload, claim)."""
    spec = LARGE_SPECS[index % len(LARGE_SPECS)]
    rng = _rng(0, index)
    if spec[0] == "factor":
        gamma = float(rng.uniform(0.1, 1.5))
        payload = {
            "gamma": gamma,
            "borrow_limit": float(rng.uniform(0.5, 2.5)),
            "rates": (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 1.0))),
            "shift": -1.0 if gamma < 1.0 else -1.0 / gamma,
            "nodes": spec[1],
        }
        n_states = spec[1] ** 2
    else:
        _, n_states, d = spec
        payload = {
            "probs": _probs(rng, n_states),
            "returns": rng.uniform(-0.9, 1.5, size=(n_states, d)),
            "lower": rng.uniform(0.2, 1.5, d),
            "upper": rng.uniform(0.2, 1.5, d),
        }
    return spec, payload, _claim(seed, index, n_states)


def build_large_market(na1lab, spec, payload):
    """Build the market of one large_markets slot through the public API."""
    if spec[0] == "factor":
        dists = (
            na1lab.FactorDistribution.exponential(payload["rates"][0]),
            na1lab.FactorDistribution.exponential(payload["rates"][1], shift=payload["shift"]),
        )
        model = na1lab.two_dim_model(payload["gamma"], payload["borrow_limit"], dists=dists)
        return na1lab.discretize(model, payload["nodes"])
    d = payload["returns"].shape[1]
    constraints = na1lab.preset_constraints(
        "box", d, lower=payload["lower"], upper=payload["upper"]
    )
    return na1lab.DiscreteMarket(payload["probs"], payload["returns"], constraints)


# -- scenario_trees -----------------------------------------------------------


def tree_doc(seed: int, index: int) -> tuple[dict, dict]:
    """Tree document of slot ``index`` and a description of its shape."""
    rng = _rng(0, index)
    branching, d, horizon, iid, utility, bad_node = TREE_SPECS[index % len(TREE_SPECS)]

    def draw_market():
        returns = rng.uniform(-0.6, 0.9, size=(branching, d))
        # Every asset gains in one state and loses in another, so a
        # one-period market has no free lunch along a coordinate.
        returns[0] = rng.uniform(0.2, 0.9, size=d)
        returns[1] = rng.uniform(-0.6, -0.1, size=d)
        return _probs(rng, branching), returns

    def draw_box():
        normals, offsets, _ = _preset_rows(rng, "box", d)
        return {"halfspaces": _halfspaces(normals, offsets)}

    sets = {}
    shared = draw_market() if iid else None
    shared_box = draw_box() if iid else None
    nodes = [{"id": "r", "constraints": "c_r"}]
    frontier = ["r"]
    internal = []
    for depth in range(horizon):
        next_frontier = []
        for parent in frontier:
            internal.append(parent)
            probs, returns = shared if iid else draw_market()
            sets[f"c_{parent}"] = shared_box if iid else draw_box()
            for k in range(branching):
                child = f"{parent}{k}"
                node = {
                    "id": child,
                    "parent": parent,
                    "prob": float(probs[k]),
                    "returns": [float(x) for x in returns[k]],
                }
                if depth < horizon - 1:
                    node["constraints"] = f"c_{child}"
                nodes.append(node)
                next_frontier.append(child)
        frontier = next_frontier
    bad = None
    if bad_node:
        # One internal node allows unbounded long positions in an asset that
        # never loses there: scalable arbitrage, so the tree command takes
        # its early return.
        bad = internal[int(rng.integers(1, len(internal)))]
        sets[f"c_{bad}"] = {"halfspaces": _halfspaces(-np.eye(d), np.zeros(d))}
        for node in nodes:
            if node.get("parent") == bad:
                node["returns"][0] = float(rng.uniform(0.0, 0.5))
    doc = {
        "constraint_sets": sets,
        "nodes": nodes,
        "claim": dict(zip(frontier, map(float, _claim(seed, index, len(frontier))))),
    }
    if utility == "log":
        doc["utility"] = {"kind": "log"}
    elif utility == "power":
        doc["utility"] = {"kind": "power", "gamma": float(rng.choice([-1.0, 0.5]))}
    else:
        doc["utility"] = {
            "kind": "piecewise_linear",
            "knots_x": [0.0, 1.0, 2.0, 4.0],
            "knots_y": [0.0, 1.0, 1.5, 1.8],
        }
    shape = {
        "internal": len(internal),
        "bad": bad,
        "repeated": repeated_nodes(doc),
    }
    return doc, shape


def repeated_nodes(doc: dict) -> int:
    """Internal nodes whose one-period market (child probabilities, returns
    and constraint set) equals that of an earlier node, by content."""
    children: dict = {}
    for node in doc["nodes"]:
        if node.get("parent") is not None:
            children.setdefault(node["parent"], []).append(node)
    refs = {n["id"]: n.get("constraints") for n in doc["nodes"]}
    seen = set()
    repeated = 0
    for parent, kids in children.items():
        key = (
            tuple((k["prob"], tuple(k["returns"])) for k in kids),
            repr(doc["constraint_sets"][refs[parent]]),
        )
        repeated += key in seen
        seen.add(key)
    return repeated


def tree_ops(seed: int):
    """Endless schedule of (index, doc, shape) for scenario_trees."""
    index = 0
    while True:
        doc, shape = tree_doc(seed, index)
        yield index, doc, shape
        index += 1


# -- ROADMAP baseline rows ------------------------------------------------------


def random_bounded_market(na1lab, rng, d_max=3, n_max=6):
    """Same draws, in the same order, as the test suite's
    ``random_bounded_market`` fixture, so that seed 0 reproduces the
    ROADMAP baseline table."""
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(d + 1, max(d + 2, n_max + 1)))
    returns = rng.uniform(-0.9, 1.5, size=(n, d))
    probs = rng.uniform(0.5, 1.5, size=n)
    probs /= probs.sum()
    kind = rng.choice(["box", "no_short_no_borrow"])
    if kind == "box":
        cs = na1lab.preset_constraints(
            "box", d, lower=rng.uniform(0.2, 1.5, d), upper=rng.uniform(0.2, 1.5, d)
        )
    else:
        cs = na1lab.preset_constraints("no_short_no_borrow", d)
    return na1lab.DiscreteMarket(probs, returns, cs)
