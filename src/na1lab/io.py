"""Document parsing and report serialization for the command-line frontend.

Input documents are JSON.  A market document looks like::

    {"probs": [...], "returns": [[...], ...],
     "constraints": {"halfspaces": [{"a": [...], "b": 1.0}], "preset": "..."},
     "claim": [...]}                                   # claim optional

A factor document mirrors the FactorModel fields (``loadings``, ``supports``,
optional ``dists``/``labels``, ``borrow_limit``); infinite support endpoints
are spelled as the strings "inf" / "-inf".  A tree document carries a table of
named constraint sets plus a node list with parent links::

    {"constraint_sets": {"cap": {"halfspaces": [...]}},
     "nodes": [{"id": "root"},
               {"id": "u", "parent": "root", "prob": 0.5,
                "returns": [0.1], "constraints": null}],
     "claim": {...} or [...],                          # optional
     "utility": {"kind": "log"}}                       # optional

where each non-leaf node names its constraint set by the ``constraints`` key
of the enclosing node object.  Structural problems raise
:class:`~na1lab.errors.SchemaError` (with line and column for JSON syntax
errors), and so does a non-finite number (JSON ``NaN`` anywhere, and
``Infinity`` anywhere but at a factor support's endpoint); value-domain
problems surface from the constructors as InvalidParameterError.  Reports
serialize through :func:`dumps_canonical`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .factor import FactorDistribution, FactorModel
from .market import ConstraintSet, DiscreteMarket
from .portfolio import UtilitySpec
from .tree import ScenarioTree, TreeNode

_INF_STRINGS = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf, "nan": math.nan}


# -- canonical JSON -------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        # Negative zero would print as "-0", which reparses as the integer 0
        # and breaks byte-stable round trips.
        return "0"
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 2) -> str:
    """Serialize a report to deterministic JSON text.

    Dict keys are sorted and must be strings; floats are printed with 17
    significant digits, which round-trips IEEE doubles exactly, so parsing the
    output and serializing again reproduces the same bytes; non-finite numbers
    are the strings "inf", "-inf" and "nan".
    """

    def emit(value, depth):
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
        if value is None:
            return "null"
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return _format_float(float(value))
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            body = ",\n".join(inner + emit(v, depth + 1) for v in value)
            return "[\n" + body + "\n" + pad + "]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            for key in value:
                if not isinstance(key, str):
                    raise SchemaError(f"report keys must be strings, got {key!r}")
            body = ",\n".join(
                f"{inner}{json.dumps(key)}: {emit(value[key], depth + 1)}"
                for key in sorted(value)
            )
            return "{\n" + body + "\n" + pad + "}"
        raise SchemaError(f"cannot serialize value of type {type(value).__name__}")

    return emit(obj, 0) + "\n"


def load_document(path) -> object:
    """Read and JSON-decode a file, mapping failures onto SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc.msg}", exc.lineno, exc.colno) from exc


# -- parsing helpers ------------------------------------------------------------


def _require_mapping(value, where) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _require_list(value, where) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be a JSON array, got {type(value).__name__}")
    return value


def _get(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where} is missing the required key {key!r}")
    return doc[key]


def _as_float(value, where: str, allow_inf: bool = False) -> float:
    if isinstance(value, str):
        lowered = value.strip().lower()
        if allow_inf and lowered in _INF_STRINGS and lowered != "nan":
            return _INF_STRINGS[lowered]
        raise SchemaError(f"{where} must be a number, got the string {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{where} must be a finite number, got an integer beyond float range")
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise SchemaError(f"{where} must be a finite number, got {value}")
    return value


def _float_vector(value, where: str) -> np.ndarray:
    items = _require_list(value, where)
    return np.array([_as_float(v, f"{where}[{i}]") for i, v in enumerate(items)])


def _float_matrix(value, where: str) -> np.ndarray:
    rows = _require_list(value, where)
    if not rows:
        raise SchemaError(f"{where} must not be empty")
    parsed = [_float_vector(row, f"{where}[{i}]") for i, row in enumerate(rows)]
    width = {row.size for row in parsed}
    if len(width) != 1:
        raise SchemaError(f"{where} rows have inconsistent lengths {sorted(width)}")
    return np.vstack(parsed)


def parse_constraints(doc, dim: int, where: str = "constraints") -> ConstraintSet:
    doc = _require_mapping(doc, where)
    halfspaces = _require_list(_get(doc, "halfspaces", where), f"{where}.halfspaces")
    normals = []
    offsets = []
    for i, item in enumerate(halfspaces):
        item = _require_mapping(item, f"{where}.halfspaces[{i}]")
        normals.append(_float_vector(_get(item, "a", f"{where}.halfspaces[{i}]"),
                                     f"{where}.halfspaces[{i}].a"))
        offsets.append(_as_float(_get(item, "b", f"{where}.halfspaces[{i}]"),
                                 f"{where}.halfspaces[{i}].b"))
        if normals[-1].size != dim:
            raise SchemaError(
                f"{where}.halfspaces[{i}].a has {normals[-1].size} entries, expected {dim}"
            )
    preset = doc.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise SchemaError(f"{where}.preset must be a string")
    if normals:
        return ConstraintSet(dim, np.vstack(normals), np.array(offsets), preset=preset)
    return ConstraintSet(dim, np.zeros((0, dim)), np.zeros(0), preset=preset)


def parse_market(doc) -> tuple[DiscreteMarket, np.ndarray | None]:
    """Market document -> (market, optional claim payoff)."""
    doc = _require_mapping(doc, "market document")
    probs = _float_vector(_get(doc, "probs", "market document"), "probs")
    returns = _float_matrix(_get(doc, "returns", "market document"), "returns")
    constraints = parse_constraints(
        _get(doc, "constraints", "market document"), returns.shape[1]
    )
    market = DiscreteMarket(probs, returns, constraints)
    claim = None
    if doc.get("claim") is not None:
        claim = _float_vector(doc["claim"], "claim")
    return market, claim


def _parse_distribution(doc, where: str) -> FactorDistribution:
    doc = _require_mapping(doc, where)
    kind = _get(doc, "kind", where)
    if kind == "point_mass":
        values = _float_vector(_get(doc, "values", where), f"{where}.values")
        weights = None
        if doc.get("weights") is not None:
            weights = _float_vector(doc["weights"], f"{where}.weights")
        return FactorDistribution.point_mass(values, weights)
    if kind == "exponential":
        rate = _as_float(_get(doc, "rate", where), f"{where}.rate")
        shift = _as_float(doc.get("shift", 0.0), f"{where}.shift")
        return FactorDistribution.exponential(rate, shift)
    if kind == "lognormal":
        mu = _as_float(_get(doc, "mu", where), f"{where}.mu")
        sigma = _as_float(_get(doc, "sigma", where), f"{where}.sigma")
        return FactorDistribution.lognormal(mu, sigma)
    if kind == "uniform":
        lo = _as_float(_get(doc, "lo", where), f"{where}.lo")
        hi = _as_float(_get(doc, "hi", where), f"{where}.hi")
        return FactorDistribution.uniform(lo, hi)
    raise SchemaError(f"{where}.kind must be one of point_mass, exponential, "
                      f"lognormal, uniform; got {kind!r}")


def parse_factor_model(doc) -> FactorModel:
    """Factor document -> factor model."""
    doc = _require_mapping(doc, "factor document")
    loadings = _float_matrix(_get(doc, "loadings", "factor document"), "loadings")
    raw_supports = _require_list(_get(doc, "supports", "factor document"), "supports")
    supports = []
    for i, pair in enumerate(raw_supports):
        pair = _require_list(pair, f"supports[{i}]")
        if len(pair) != 2:
            raise SchemaError(f"supports[{i}] must be a [low, high] pair")
        supports.append(
            (
                _as_float(pair[0], f"supports[{i}][0]", allow_inf=True),
                _as_float(pair[1], f"supports[{i}][1]", allow_inf=True),
            )
        )
    dists = None
    if doc.get("dists") is not None:
        raw = _require_list(doc["dists"], "dists")
        dists = tuple(_parse_distribution(d, f"dists[{i}]") for i, d in enumerate(raw))
    borrow_limit = _as_float(doc.get("borrow_limit", 1.0), "borrow_limit")
    labels = None
    if doc.get("labels") is not None:
        raw = _require_list(doc["labels"], "labels")
        labels = []
        for i, label in enumerate(raw):
            if not isinstance(label, str):
                raise SchemaError(f"labels[{i}] must be a string")
            labels.append(label)
        labels = tuple(labels)
    return FactorModel(
        loadings,
        tuple(supports),
        dists=dists,
        borrow_limit=borrow_limit,
        labels=labels,
    )


def parse_utility(doc, where: str = "utility") -> UtilitySpec:
    doc = _require_mapping(doc, where)
    kind = _get(doc, "kind", where)
    if kind == "log":
        return UtilitySpec.log()
    if kind == "power":
        return UtilitySpec.power(_as_float(_get(doc, "gamma", where), f"{where}.gamma"))
    if kind == "piecewise_linear":
        return UtilitySpec.piecewise_linear(
            _float_vector(_get(doc, "knots_x", where), f"{where}.knots_x"),
            _float_vector(_get(doc, "knots_y", where), f"{where}.knots_y"),
        )
    raise SchemaError(f"{where}.kind must be log, power or piecewise_linear, got {kind!r}")


def parse_tree(doc) -> tuple[ScenarioTree, object, UtilitySpec | None]:
    """Tree document -> (tree, optional claim, optional utility)."""
    doc = _require_mapping(doc, "tree document")
    tables = _require_mapping(
        _get(doc, "constraint_sets", "tree document"), "constraint_sets"
    )
    raw_nodes = _require_list(_get(doc, "nodes", "tree document"), "nodes")
    if not raw_nodes:
        raise SchemaError("nodes must not be empty")

    nodes = []
    refs = {}
    dim = None
    for i, item in enumerate(raw_nodes):
        item = _require_mapping(item, f"nodes[{i}]")
        node_id = _get(item, "id", f"nodes[{i}]")
        if not isinstance(node_id, str):
            raise SchemaError(f"nodes[{i}].id must be a string")
        parent = item.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise SchemaError(f"nodes[{i}].parent must be a string or null")
        if parent is None:
            nodes.append(TreeNode(node_id))
        else:
            returns = _float_vector(_get(item, "returns", f"nodes[{i}]"),
                                    f"nodes[{i}].returns")
            prob = _as_float(_get(item, "prob", f"nodes[{i}]"), f"nodes[{i}].prob")
            nodes.append(TreeNode(node_id, parent=parent, prob=prob, returns=returns))
            dim = returns.size if dim is None else dim
        if item.get("constraints") is not None:
            ref = item["constraints"]
            if not isinstance(ref, str):
                raise SchemaError(f"nodes[{i}].constraints must name a constraint set")
            if ref not in tables:
                raise SchemaError(
                    f"nodes[{i}].constraints references unknown set {ref!r}"
                )
            refs[node_id] = ref
    if dim is None:
        raise SchemaError("tree document has no edges, so no returns to size against")

    constraint_sets = {
        name: parse_constraints(table, dim, where=f"constraint_sets[{name!r}]")
        for name, table in tables.items()
    }
    constraints = {node_id: constraint_sets[ref] for node_id, ref in refs.items()}
    tree = ScenarioTree(tuple(nodes), constraints)

    claim = None
    if doc.get("claim") is not None:
        raw_claim = doc["claim"]
        if isinstance(raw_claim, dict):
            claim = {
                key: _as_float(value, f"claim[{key!r}]")
                for key, value in raw_claim.items()
            }
        else:
            claim = _float_vector(raw_claim, "claim")
    utility = None
    if doc.get("utility") is not None:
        utility = parse_utility(doc["utility"])
    return tree, claim, utility


# -- plottable CSV --------------------------------------------------------------


def arbitrage_line_rows(gamma: float, borrow_limit: float, steps: int = 200):
    """Figure geometry for the two-asset triangular family with gamma < 1.

    Columns: pi1, the arbitrage ray line pi2 = -gamma*pi1, the borrowing cap
    line pi2 = c - pi1, and the admissibility band for pi2 at each pi1.  The
    ray line and the cap line intersect at the maximal arbitrage strategy.
    """
    if not gamma < 1.0:
        raise ValueError("the plotted geometry needs gamma < 1")
    c = float(borrow_limit)
    pi1 = np.linspace(0.0, 1.2 * c / (1.0 - gamma), steps)
    arbitrage = -gamma * pi1
    borrowing = c - pi1
    if gamma >= 0.0:
        upper, lower = 1.0 - gamma * pi1, -gamma * pi1
    else:
        upper, lower = 1.0 - gamma * pi1, gamma - gamma * pi1
    return pi1, arbitrage, borrowing, upper, lower


def write_arbitrage_line_csv(path, gamma: float, borrow_limit: float, steps: int = 200):
    columns = arbitrage_line_rows(gamma, borrow_limit, steps)
    header = "pi1,arbitrage_line,borrowing_line,admissible_upper,admissible_lower"
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
