"""The one LP wrapper and the one smooth convex solver, and the package's
execution model.

Every LP goes through :func:`solve_lp` (``linprog(method="highs")``), so
status handling and multiplier conventions live in one place.
:func:`tree_block` builds every scenario-tree LP, and
:func:`minimize_convex` is the one smooth convex solver.  Other docstrings
state what a function computes and name its task; how the work is
scheduled is stated here only.

*Tasks and rounds.*  A kernel that needs LPs is a task: a generator that
yields a list of blocks, each a dict of :func:`solve_lp` arguments
(``results = yield blocks``), and returns its answer.  :func:`run` drives
a task, one :func:`_solve_stacked` call per list yielded, a round.
:func:`gather` runs tasks in lockstep, their blocks sharing each round; a
task yielding no blocks waits a round.  A gathered task's
:class:`~na1lab.errors.Na1LabError` is its answer until :func:`read`
raises it; any other exception closes every task.  A public kernel runs a
private task, which the CLI commands and tree passes gather instead:
``analyze`` the classical search, NA1, the supermartingale measure and the
hedge, and ``tree`` its passes behind the node markets' NA1 gate.

*Stacking.*  :func:`_solve_together` solves the blocks of a round as
block-diagonal LPs, costs scaled to unit sup-norm, consecutive blocks
sharing one HiGHS call while it keeps at most ``STACK_ENTRIES`` dense
entries (:func:`_stack_chunks`); a stack that is not optimal is solved
again block by block.  The last bits of a block's optimum depend on the
blocks stacked with it.  Tree super-hedging solves its levels in bands
(:func:`~na1lab.tree._bands`) whose largest subtree LP fits
``STACK_ENTRIES``, one band per round, deepest first.

*Row generation and hull rows.*  A block marks its per-state rows in the
mask ``lazy``.  Past ``LAZY_ROWS`` of them it is solved by row generation
(Kelley's cutting planes): from the rows of :func:`_seed_rows`, extreme
along the signed axes and ``SEED_DIRECTIONS`` fixed directions per
column, each round adds the deepest violated rows, ``ROWS_PER_COLUMN`` per
column (:func:`_grown`), until none exceeds ``VIOLATION_TOL``.  Where the
rows' points have at most ``market.HULL_MAX_RANK`` coordinates in the
return span and would be generated, :func:`~na1lab.market._kept_rows`
keeps only their convex hull's vertices, which cut out the same set: a
market's admissibility rows past ``LAZY_ROWS / 2`` distinct states, as
NA1's support LPs carry them twice, and super-hedging's lifted points
``(R, payoff)`` (:func:`~na1lab.hedging._hedged_states`).  Certificate
checks still read every state.

*The per-market memo.*  A market is immutable, so
:func:`~na1lab.arbitrage._memoized` decides each certificate once and
holds it in ``market.certificates`` from the round its task ends, under
``("na1", tol)``, ``("classical", tol)``, ``("cone_span", tol)``,
``("max_expected_gain", weights)``, ``("superhedge", payoff)`` or
``("shortfall", (payoff, pieces, capital))``, arrays by their bytes.  An
entry is None while its task runs: a task needing it waits, and it is
dropped if the task ends without an answer, so an error is raised afresh.
``("gain_bound", weights)`` holds weak-duality bounds
(:func:`~na1lab.arbitrage._dual_bound`), and ``("optimum", spec, weights)``
a utility optimum with its tolerance, serving that tolerance or a looser
one (:func:`~na1lab.portfolio._maximize_all`).  Tree nodes with equal
content share one market (``ScenarioTree._markets``) and its entries.

*The NA1 gate.*  :func:`~na1lab.arbitrage._with_na1` is the one place NA1
is asked.  It gathers NA1's task with the gated tasks, which run
speculatively alongside NA1's LPs while it is undecided and are closed in
the round it fails or raises; their answers, errors included, are read
only where it holds.  :func:`~na1lab.arbitrage._gated` refuses the rest
by :func:`~na1lab.arbitrage._refuse`: "<context> requires no scalable
arbitrage", naming failing tree nodes.  The classical search gathers NA1
at its tolerance, so NA1 is decided in its LP calls.

*Weak-duality certificates.*  The numeraire's log optimum, the
supermartingale measure's minimizer and the super-hedge's budget rows
leave the bound their multipliers prove on the market
(:func:`~na1lab.arbitrage._dual_bound`);
:func:`~na1lab.arbitrage._certified_gains` solves the expected-gain LP,
in a later round, only where no bound is held.

*Newton batches.*  :func:`minimize_convex` runs independent problems,
padded to one shape, through one interior-point loop: each open problem
tries its own step, steps that do not reduce its KKT residual are halved,
and it leaves the batch at its own stop.
:func:`~na1lab.portfolio._maximize_all` passes the markets of a call or
tree pass through one NA1 gate and solves those not holding their optimum
as one batch per span dimension: every node's log optimum for the
numeraire process, a level at a time for backward induction.  Searches
start at the zero strategy without an LP; the span of a flat allowed set
(:func:`cone_span`) takes one where some row has zero offset.

*Presolve.*  HiGHS runs without presolve, which is back on only to retry
a solve ending in status 4 (:func:`solve_lp`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import InfeasibleError, Na1LabError, NumericError

logger = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Box used when a nominally unbounded variable needs a finite search range.
BIG_BOUND = 1e6

#: Most entries (rows times columns) of the dense constraint matrix of one
#: stacked LP, which grows with the square of the number of blocks.
STACK_ENTRIES = 1 << 20

#: Blocks with more lazy rows than this generate them; smaller blocks are
#: solved whole, since below it extra rounds cost more than the rows saved
#: (crossover measured on seeded random box markets, see CHANGES.md).
LAZY_ROWS = 256

#: Row generation: rows gained per round and column, fixed seed directions
#: per column besides the signed axes (mid-range picks of a sweep in which
#: no setting stood out, see CHANGES.md), and the violation ``a . x - b``
#: that counts, relative to ``1 + |b|``.
ROWS_PER_COLUMN = 8
SEED_DIRECTIONS = 4
VIOLATION_TOL = 1e-9

#: Newton iterations allowed to :func:`minimize_convex`.
NEWTON_ITERATIONS = 200

#: Share of the distance to the boundary that one interior-point step covers.
BOUNDARY_FRACTION = 0.99

#: Each interior-point step aims at this share of the current duality
#: measure, or at its square after a full step.
CENTERING = 0.1

#: Slack of a row that the start does not satisfy strictly, such as a row
#: with zero offset at the zero strategy.
START_SLACK = 1.0

#: Allowed gap between the optimum of a deterministic equivalent and the
#: objective recomputed from its positions, relative to ``1 + |optimum|``.
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class LpResult:
    """Outcome of one linear program.  ``marginals_ub`` are scipy's
    sensitivities of the minimized optimum to ``b_ub``: the nonnegative
    Lagrange multiplier of a row ``a.x <= b`` of a minimization is
    ``-marginals_ub``."""

    status: str
    x: np.ndarray | None
    value: float | None
    marginals_ub: np.ndarray | None


def solve_lp(
    cost,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = False,
) -> LpResult:
    """Solve ``min/max cost.x`` subject to ``a_ub x <= b_ub``, ``a_eq x = b_eq``.

    ``bounds`` follows scipy's convention, except that ``None`` leaves every
    variable free, not ``x >= 0``.  ``maximize`` negates the cost and the
    reported optimum.  Infeasible and unbounded LPs are results; any other
    failure raises :class:`~na1lab.errors.NumericError`.
    """
    cost = np.asarray(cost, dtype=float)
    sign = -1.0 if maximize else 1.0
    if bounds is None:
        bounds = [(None, None)] * cost.size
    if a_ub is not None and len(a_ub) == 0:
        a_ub, b_ub = None, None
    if a_eq is not None and len(a_eq) == 0:
        a_eq, b_eq = None, None
    # HiGHS mishandles objectives whose entries all sit near its zero
    # tolerance (observed: status 4 for costs around 1e-13), so extreme
    # objective magnitudes are normalized to 1 and undone on the way out.
    scale = float(np.max(np.abs(cost))) if cost.size else 0.0
    if not (1e-6 < scale < 1e6):
        scale = scale if scale > 0.0 else 1.0
    else:
        scale = 1.0
    # Presolve is off: every answer the package reports is re-verified in
    # numpy, so an LP only has to return an optimal vertex and its
    # multipliers, and at these sizes presolve costs more than it saves.  A
    # plain solve that ends in "model_status Unknown" (status 4), as on a
    # stack mixing an infeasible and an unbounded block, is retried with
    # presolve on, scipy's default.
    for options in ({"presolve": False}, None):
        if options is None:
            logger.debug("LP status 4 (%s); retrying with presolve on", res.message)
        res = linprog(sign * cost / scale, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs", options=options)
        if res.status != 4:
            break
    if res.status == 0:
        marginals = None
        if a_ub is not None and res.ineqlin is not None:
            marginals = scale * np.asarray(res.ineqlin.marginals, dtype=float)
        return LpResult(
            OPTIMAL, np.asarray(res.x, dtype=float), sign * scale * res.fun, marginals
        )
    if res.status == 2:
        return LpResult(INFEASIBLE, None, None, None)
    if res.status == 3:
        return LpResult(UNBOUNDED, None, None, None)
    raise NumericError(f"LP solver failure (status {res.status}): {res.message}")


def _solve_stacked(blocks) -> list[LpResult]:
    """Solve independent LPs, each a dict of :func:`solve_lp` arguments
    and an optional boolean mask ``lazy`` of its ``a_ub`` rows; one result
    per block, in order.  A block with more than ``LAZY_ROWS`` lazy rows
    must stay bounded without them, by box rows or variable bounds; its
    multipliers are zero on the rows it never generated."""
    seeds: dict = {}  # blocks sharing one matrix and mask share their seeds
    kept = [_seed_rows(block, seeds) for block in blocks]
    results: list = [None] * len(blocks)
    pending = list(range(len(blocks)))
    while pending:
        reduced = [{k: v for k, v in blocks[i].items() if k != "lazy"} for i in pending]
        for block, i in zip(reduced, pending):
            if kept[i] is not None:
                a, b = _rows(block, "a_ub", "b_ub")
                block.update(a_ub=a[kept[i]], b_ub=b[kept[i]])
        still_open = []
        for i, result in zip(pending, _solve_together(reduced)):
            grown = _grown(blocks[i], kept[i], result)
            if grown is not None:
                kept[i] = grown
                still_open.append(i)
            elif kept[i] is not None and result.marginals_ub is not None:
                marginals = np.zeros(kept[i].size)
                marginals[kept[i]] = result.marginals_ub
                results[i] = replace(result, marginals_ub=marginals)
            else:
                results[i] = result
        pending = still_open
    return results


def run(task):
    """Drive ``task`` to its answer; it is closed when anything raises."""
    try:
        blocks = next(task)
        while True:
            blocks = task.send(_solve_stacked(blocks) if blocks else [])
    except StopIteration as stop:
        return stop.value
    finally:
        task.close()


def gather(*tasks):
    """Task: the answers of ``tasks``, each round yielding all their blocks;
    a task's :class:`~na1lab.errors.Na1LabError` stands as its answer."""
    answers, sent, open_ = [None] * len(tasks), [None] * len(tasks), range(len(tasks))
    try:
        while open_:
            asked = []
            for i in open_:
                try:
                    asked.append((i, tasks[i].send(sent[i])))
                except StopIteration as stop:
                    answers[i] = stop.value
                except Na1LabError as exc:
                    answers[i] = exc
            results = (yield [block for _, blocks in asked for block in blocks]) if asked else []
            for i, blocks in asked:
                sent[i], results = results[: len(blocks)], results[len(blocks) :]
            open_ = [i for i, _ in asked]
        return answers
    finally:
        for task in tasks:
            task.close()


def read(answer):
    """A gathered answer, raising the error it holds."""
    if isinstance(answer, Na1LabError):
        raise answer
    return answer


def _seed_rows(block, seeds):
    """Mask of the ``a_ub`` rows that start row generation, or None when the
    block is solved whole: the rows that are not lazy, and the lazy rows
    extreme (largest ``a . u``) along the signed axes ``u`` and along
    ``SEED_DIRECTIONS`` fixed directions per column.  ``seeds`` holds the
    masks already built, by matrix and lazy mask."""
    lazy = block.get("lazy")
    if lazy is None or np.count_nonzero(lazy) <= LAZY_ROWS:
        return None
    key = (id(block["a_ub"]), id(lazy))
    if key not in seeds:
        a, _ = _rows(block, "a_ub", "b_ub")
        n = a.shape[1]
        fixed = np.random.default_rng(0).standard_normal((SEED_DIRECTIONS * n, n))
        rows, kept = np.flatnonzero(lazy), ~np.asarray(lazy)
        kept[rows[np.argmax(a[rows] @ np.vstack([np.eye(n), -np.eye(n), fixed]).T, axis=0)]] = True
        seeds[key] = kept
    return seeds[key]


def _grown(block, kept, result):
    """Row mask of the block's next round, or None when ``result`` is final
    (the block was solved whole, or no lazy row is violated); the deepest
    violated rows join, ``ROWS_PER_COLUMN`` per column.  A relaxation that
    is not optimal gets every row: HiGHS may call an unbounded LP infeasible."""
    if kept is None or (result.status != OPTIMAL and np.all(kept)):
        return None
    if result.status != OPTIMAL:
        return np.ones_like(kept)
    a, b = _rows(block, "a_ub", "b_ub")
    excess = a @ result.x - b
    rows = np.flatnonzero(block["lazy"] & ~kept & (excess > VIOLATION_TOL * (1.0 + np.abs(b))))
    if not rows.size:
        return None
    depth = excess[rows] / np.linalg.norm(a[rows], axis=1)
    grown = kept.copy()
    grown[rows[np.argsort(-depth, kind="stable")[: ROWS_PER_COLUMN * a.shape[1]]]] = True
    return grown


def _solve_together(blocks) -> list[LpResult]:
    """Solve independent LPs, each a dict of :func:`solve_lp` arguments, as
    dense block-diagonal LPs within ``STACK_ENTRIES``; one result per block,
    in order, with its block's own ``x``, value and multipliers in the
    conventions of :func:`solve_lp`.  The blocks share no variable and no
    row, so an optimum of the stacked LP is an optimum of every block.
    """
    results: list = [None] * len(blocks)
    for chunk in _stack_chunks(blocks):
        if len(chunk) > 1:
            stacked = _solve_chunk([blocks[i] for i in chunk])
            if stacked is not None:
                for i, result in zip(chunk, stacked):
                    results[i] = result
                continue
            logger.debug("stacked LP of %d blocks not optimal; solving them one by one", len(chunk))
        for i in chunk:
            results[i] = solve_lp(**blocks[i])
    return results


def _rows(block, a_key: str, b_key: str):
    """A block's ``(A, b)`` pair for ``a_key``/``b_key``, with no rows when absent."""
    n = np.asarray(block["cost"]).size
    if block.get(a_key) is None:
        return np.zeros((0, n)), np.zeros(0)
    return (
        np.asarray(block[a_key], dtype=float).reshape(-1, n),
        np.asarray(block[b_key], dtype=float).reshape(-1),
    )


def _stack_chunks(blocks):
    """Runs of consecutive block indices, each within the entry budget."""
    chunk, rows, cols = [], 0, 0
    for i, block in enumerate(blocks):
        r = sum(len(block[k]) for k in ("a_ub", "a_eq") if block.get(k) is not None)
        c = np.asarray(block["cost"]).size
        if chunk and (rows + r) * (cols + c) > STACK_ENTRIES:
            yield chunk
            chunk, rows, cols = [], 0, 0
        chunk.append(i)
        rows, cols = rows + r, cols + c
    if chunk:
        yield chunk


def _solve_chunk(blocks) -> list[LpResult] | None:
    """One block-diagonal LP for ``blocks``; None unless it is optimal."""
    costs = [np.asarray(b["cost"], dtype=float) for b in blocks]
    scales = [float(np.max(np.abs(c), initial=0.0)) or 1.0 for c in costs]
    signs = [-1.0 if b.get("maximize", False) else 1.0 for b in blocks]
    ub = [_rows(b, "a_ub", "b_ub") for b in blocks]
    eq = [_rows(b, "a_eq", "b_eq") for b in blocks]
    # filled by slices: scipy's block_diag costs about 0.1 ms per block
    col = np.cumsum([0] + [c.size for c in costs])
    row, eq_row = (np.cumsum([0] + [len(r) for _, r in pairs]) for pairs in (ub, eq))
    a_ub, a_eq = np.zeros((row[-1], col[-1])), np.zeros((eq_row[-1], col[-1]))
    for k in range(len(blocks)):
        a_ub[row[k] : row[k + 1], col[k] : col[k + 1]] = ub[k][0]
        a_eq[eq_row[k] : eq_row[k + 1], col[k] : col[k + 1]] = eq[k][0]
    bounds = []
    for b, c in zip(blocks, costs):
        pairs = b.get("bounds")
        if pairs is None or (len(pairs) == 2 and not isinstance(pairs[0], (tuple, list))):
            pairs = [pairs or (None, None)] * c.size
        bounds.extend(pairs)
    result = solve_lp(
        np.concatenate([s * c / scale for c, s, scale in zip(costs, signs, scales)]),
        a_ub=a_ub,
        b_ub=np.concatenate([r for _, r in ub]),
        a_eq=a_eq,
        b_eq=np.concatenate([r for _, r in eq]),
        bounds=bounds,
    )
    if result.status != OPTIMAL:
        return None
    out = []
    for k, cost in enumerate(costs):
        x = result.x[col[k] : col[k + 1]]
        marginals = None
        if blocks[k].get("a_ub") is not None:
            marginals = scales[k] * result.marginals_ub[row[k] : row[k + 1]]
        out.append(LpResult(OPTIMAL, x, float(cost @ x), marginals))
    return out


def require_optimal(result: LpResult, context: str) -> LpResult:
    """Raise with a descriptive message unless ``result`` is optimal."""
    if result.status == INFEASIBLE:
        raise InfeasibleError(f"{context}: constraint system is infeasible")
    if result.status != OPTIMAL:
        raise NumericError(f"{context}: LP ended with status {result.status}")
    return result


def is_feasible(a_ub: np.ndarray, b_ub: np.ndarray, dim: int) -> bool:
    """Whether ``{x : a_ub x <= b_ub}`` is nonempty."""
    if dim == 0:
        return bool(np.all(np.asarray(b_ub, dtype=float) >= 0)) if len(b_ub) else True
    res = solve_lp(np.zeros(dim), a_ub=a_ub, b_ub=b_ub)
    return res.status == OPTIMAL


def cone_span(rows: np.ndarray):
    """Task: linear span of the cone ``{x : rows x <= 0}``, as ``(basis,
    strict)``: an orthonormal basis of the span and the mask of the rows that
    are not implicit equalities, which some point of the span satisfies
    strictly.  The LP maximizes ``sum(t)`` subject to ``rows x + t <= 0`` and
    ``0 <= t <= 1``; scaling ``x`` shows every ``t`` is 0 or 1 at the optimum,
    and the rows with ``t = 0`` are the implicit equalities.  No LP is needed
    without rows or coordinates, or where numpy finds ``x = -rows^T 1`` inside
    every row by a margin far above float noise: the span is the whole space."""
    m, dim = rows.shape
    if m == 0 or dim == 0:
        return np.eye(dim), np.zeros(m, dtype=bool)
    x = -rows.sum(axis=0)
    if np.all(rows @ x < -1e-9 * np.linalg.norm(rows, axis=1) * np.linalg.norm(x)):
        return np.eye(dim), np.ones(m, dtype=bool)
    cost = np.concatenate([np.zeros(dim), np.ones(m)])
    bounds = [(None, None)] * dim + [(0.0, 1.0)] * m
    [res] = yield [dict(cost=cost, a_ub=np.hstack([rows, np.eye(m)]), b_ub=np.zeros(m),
                        bounds=bounds, maximize=True)]
    require_optimal(res, "cone span")
    strict = res.x[dim:] > 0.5
    return (null_space(rows[~strict]) if not np.all(strict) else np.eye(dim)), strict


def tree_block(nodes, values=None, pieces=()):
    """The one LP layout of a scenario tree, for super-hedging
    (:func:`~na1lab.hedging._superhedge_bands`) and the deterministic
    equivalent (:func:`deterministic_equivalent`) alike (King 2002, *Math.
    Program.* 91:543-562; Birge & Louveaux, *Introduction to Stochastic
    Programming*); a one-period market is the tree of depth 1.

    ``nodes`` are the internal nodes breadth-first, each ``(returns, basis,
    normals, offsets)``: the edge returns ``R_c`` of its kept children, the
    basis ``B`` of its positions and its constraints ``A pi <= b``; the
    children of node ``k`` follow those of node ``k - 1`` and are all
    internal or all leaves.  ``values`` and ``pieces``, one per leaf, are
    its value ``V_c`` and its table of pieces ``(c_j, d_j)``.  Columns:
    ``(X_k, y_k)`` per internal node, its wealth and its positions in
    ``B_k`` coordinates, then with ``pieces`` one ``t_c`` per leaf; a leaf
    has no wealth column, its wealth is ``W_c = X_k + (R_c B_k) y_k``.
    Rows of node ``k``: to each internal child the edge row ``X_c - X_k -
    (R_c B_k) y_k <= 0``, or with ``values`` to each leaf ``-W_c <= -V_c``;
    with ``pieces``, ``t_c - c_j W_c <= d_j`` per leaf child and piece;
    then its budget rows ``A B_k y_k - b_k X_k <= 0``.

    Returns ``(a_ub, b_ub, edges, cols, rows)``: the rows, the mask of the
    edge rows, each internal node's first column (then the first ``t``)
    and each node's first row (then the end).
    """
    n = len(nodes)
    first = list(accumulate((len(returns) for returns, *_ in nodes), initial=1))
    cols = list(accumulate((1 + basis.shape[1] for _, basis, _, _ in nodes), initial=0))
    tables = np.vstack([np.zeros((0, 2)), *pieces])
    owner = np.repeat(np.arange(len(pieces)), [len(table) for table in pieces])
    at = np.searchsorted(owner, [max(f - n, 0) for f in first]).tolist()  # first piece rows
    sizes = [len(returns) * (first[k] < n or values is not None) + at[k + 1] - at[k] + offsets.size
             for k, (returns, *_, offsets) in enumerate(nodes)]
    rows = list(accumulate(sizes, initial=0))
    a_ub = np.zeros((rows[-1], cols[-1] + len(pieces)))
    b_ub, edges = np.zeros(rows[-1]), np.zeros(rows[-1], dtype=bool)
    for k, (returns, basis, normals, offsets) in enumerate(nodes):
        x, y, budget = cols[k], slice(cols[k] + 1, cols[k + 1]), rows[k + 1] - offsets.size
        gains = returns @ basis
        if first[k] < n or values is not None:
            span = slice(rows[k], rows[k] + len(returns))
            a_ub[span, x] = -1.0
            a_ub[span, y] = -gains
            if first[k] < n:
                a_ub[range(span.start, span.stop), cols[first[k] : first[k + 1]]] = 1.0
                edges[span] = True
            else:
                b_ub[span] = -values[first[k] - n : first[k + 1] - n]
        if at[k + 1] > at[k]:
            leaves, (slopes, intercepts) = owner[at[k] : at[k + 1]], tables[at[k] : at[k + 1]].T
            span = slice(budget - leaves.size, budget)
            a_ub[span, x] = -slopes
            a_ub[span, y] = -slopes[:, None] * gains[leaves - (first[k] - n)]
            a_ub[range(span.start, span.stop), cols[-1] + leaves] = 1.0
            b_ub[span] = intercepts
        a_ub[budget : rows[k + 1], x] = -offsets
        a_ub[budget : rows[k + 1], y] = normals @ basis
    return a_ub, b_ub, edges, cols, rows


def deterministic_equivalent(nodes, leaves, root, floor: bool, context: str):
    """Task: the most ``sum_l w_l min_j (c_j W_l + d_j)`` over the leaf
    wealths ``W_l`` that trading on a scenario tree reaches, its
    deterministic equivalent: the LP of :func:`tree_block` over ``nodes``
    and the leaves' ``(w, pieces)`` in ``leaves``, the edge rows equalities,
    the root wealth within the bounds ``root`` and, with ``floor``, every
    other wealth nonnegative.  Returns the root wealth, each internal node's
    fractions ``B y / X`` (zero at zero wealth) and the optimum, once the
    objective at the leaf wealths that numpy recomputes from the positions
    matches the optimum within ``VALUE_TOL``; else :class:`NumericError`
    names ``context``.
    """
    weights, tables = zip(*leaves)
    a, b, edges, cols, _ = tree_block(nodes, np.zeros(len(leaves)) if floor else None, tables)
    cost = np.concatenate([np.zeros(cols[-1]), weights])
    bounds = [root] + [(None, None)] * (a.shape[1] - 1)
    for k in cols[1:-1] if floor else ():
        bounds[k] = (0.0, None)
    [res] = yield [dict(cost=cost, a_ub=a[~edges], b_ub=b[~edges], a_eq=a[edges], b_eq=b[edges],
                        bounds=bounds, maximize=True)]
    require_optimal(res, context)
    x = res.x
    wealth, strategies = [x[0]], []
    # Where wealth is floored, NA1 bounds the positions by the wealth, so at
    # zero wealth they are zero too, and every strategy reaches zero wealth.
    for k, (returns, basis, _, _) in enumerate(nodes):
        pos = basis @ x[cols[k] + 1 : cols[k + 1]]
        wealth.extend(wealth[k] + returns @ pos)  # breadth-first: the children come next
        strategies.append(pos / x[cols[k]] if x[cols[k]] > 0.0 else np.zeros(pos.size))
    value = float(sum(w * np.min(table[:, 0] * leaf + table[:, 1])
                      for w, table, leaf in zip(weights, tables, wealth[len(nodes) :])))
    if abs(value - res.value) > VALUE_TOL * (1.0 + abs(res.value)):
        raise NumericError(f"{context}: the objective {value!r} of its positions differs "
                           f"from the LP optimum {res.value!r}")
    return x[0], strategies, res.value


@dataclass(frozen=True)
class ConvexResult:
    """Outcome of :func:`minimize_convex`: the last iterate, the multipliers
    of the constraint rows, the certified residual (see there) and the
    Newton iterations taken."""

    x: np.ndarray
    multipliers: np.ndarray
    residual: float
    iterations: int


def minimize_convex(
    derivatives, a_ub, b_ub, start, diameter, tol, domain=None
) -> list[ConvexResult]:
    """Minimize smooth convex ``f_k`` over ``{x : a_ub[k] x <= b_ub[k]}`` for
    a batch of problems; one result per problem, in order.

    An infeasible-start primal-dual interior-point Newton method (Boyd &
    Vandenberghe, *Convex Optimization*, secs. 10.3 and 11.7; Nocedal &
    Wright, *Numerical Optimization*, ch. 19) on ``x``, the slacks ``s`` and
    the multipliers ``lam``.  ``a_ub`` is ``(B, m, n)`` and ``b_ub`` ``(B,
    m)``; a row with offset ``+inf`` is padding, with no multiplier.  ``start``
    ``(B, n)`` need not satisfy the rows: a full step removes the primal
    residual ``a x + s - b``, and once numpy finds an iterate inside every row
    its steps stay inside.  ``derivatives(x, live)`` returns the gradients
    ``(k, n, 1)`` and Hessians ``(k, n, n)`` at the points ``x`` ``(k, n, 1)``
    of the problems ``live`` (indices, or ``slice(None)``).  ``domain``, a pair
    ``(g, h)`` of shapes ``(B, S, n)`` and ``(B, S)`` (``+inf`` pads ``h``), is
    the open set ``{g x < h}`` where ``f_k`` is defined; ``start`` must lie in
    it, and steps stay inside it by the fraction-to-boundary rule.
    ``diameter`` and ``tol`` are one per problem or shared.

    The residual is ``lam . s + diameter * |grad f + a^T lam|`` inside every
    row, ``+inf`` outside.  For every feasible ``y`` within ``diameter`` of
    ``x`` it bounds ``grad f(x) . (x - y)``, hence ``f(x) - min f`` when
    ``diameter`` bounds the feasible set.  A problem stops at residual ``tol *
    (1 + |x|)``, when its Newton system is singular or a step no longer reduces
    its KKT residual, or after ``NEWTON_ITERATIONS``; the caller compares the
    residual with its own threshold.  Vectors are columns, so a batch of one
    does the arithmetic of a single problem.
    """
    padded = ~np.isfinite(b_ub)[..., None]
    real, a = np.where(padded, 0.0, 1.0), np.where(padded, 0.0, a_ub)
    b = np.where(padded, 1.0, np.asarray(b_ub, dtype=float)[..., None])  # padding: 0 <= 1
    x = np.array(start, dtype=float)[..., None]
    batch, n, _ = x.shape
    g, h = (np.zeros((batch, 0, n)), np.zeros((batch, 0))) if domain is None else domain
    h, a_t = np.asarray(h, dtype=float)[..., None], _t(a)
    if (g @ x >= h).any():
        raise NumericError("interior-point start is outside the domain")
    slack = b - a @ x
    gap = np.where(slack > 0.0, 0.0, START_SLACK - slack)  # the primal residual a x + s - b
    slack = slack + gap
    grad, hess = derivatives(x, slice(None))
    # Start with multipliers mu / s whose pull balances the gradient.
    pull = _norms(a_t @ (1.0 / slack))
    mu = np.divide(_norms(grad), pull, out=np.ones_like(pull), where=pull > 0.0)
    lam = np.minimum(np.maximum(mu, 1e-8), 1.0) / slack * real
    rows = np.maximum(real.sum(axis=1, keepdims=True), 1.0)
    index, iterations, t = np.arange(batch), 0, np.zeros((batch, 1, 1))
    halted, results = np.zeros(batch, dtype=bool), [None] * batch
    diameter, tol = (t + np.array(v, dtype=float).reshape(-1, 1, 1) for v in (diameter, tol))
    dual = grad + a_t @ lam
    while True:
        comp = _t(lam) @ slack
        outside = (gap != 0.0).any(axis=1, keepdims=True)
        residual = np.where(outside, np.inf, comp + diameter * _norms(dual))
        done = (residual <= tol * (1.0 + _norms(x)))[:, 0, 0] | halted
        if iterations == NEWTON_ITERATIONS:
            done[:] = True
        if done.any():
            for j in np.flatnonzero(done):
                results[index[j]] = ConvexResult(
                    x[j, :, 0].copy(), lam[j, real[j, :, 0] > 0.0, 0], float(residual[j, 0, 0]),
                    iterations - int(halted[j]),
                )
            if done.all():
                return results
            keep = ~done
            index, x, slack, gap, outside, lam, grad, hess, dual, comp, residual, t = (
                v[keep] for v in (index, x, slack, gap, outside, lam, grad, hess, dual, comp,
                                  residual, t)
            )
            a, b, real, rows, g, h = (v[keep] for v in (a, b, real, rows, g, h))
            diameter, tol, a_t = diameter[keep], tol[keep], _t(a)
        # after a full step the iterate is near the central path, so the
        # target may drop faster
        target = np.where(t == 1.0, CENTERING**2, CENTERING) * comp / rows
        weight = lam / slack
        kkt = hess + a_t @ (weight * a)
        rhs = -(grad + a_t @ ((target + lam * gap) / slack))
        dx, singular = _newton_steps(kkt, rhs)
        # one refinement against the unformed matrix, which keeps the Hessian's
        # share that large row weights round away in kkt
        dx += _newton_steps(kkt, rhs - hess @ dx - a_t @ (weight * (a @ dx)))[0]
        ds = -gap - a @ dx
        target = target * real
        dlam = (target - lam * slack - lam * ds) / slack
        value, change = [slack, lam], [ds, dlam]
        if domain is not None:
            value.append(h - g @ x)
            change.append(-(g @ dx))
        t = _step_limits(np.concatenate(value, axis=1), np.concatenate(change, axis=1))
        if singular:
            t[singular] = 0.0
        before = _norms(np.concatenate([dual, lam * slack - target, gap], axis=1))
        iterations += 1
        halted = t[:, 0, 0] <= 1e-12
        trying = ~halted
        while trying.any():
            # the open problems' arrays, gathered only once some have left
            pick = np.flatnonzero(trying)
            every = len(pick) == len(trying)
            here = x, t, dx, lam, dlam, slack, ds, a, a_t, b, outside, target, before
            x_, t_, dx_, lam_, dlam_, slack_, ds_, a_, a_t_, b_, outside_, target_, before_ = (
                here if every else [v[pick] for v in here])
            x_new = x_ + t_ * dx_
            lam_new = lam_ + t_ * dlam_
            # an iterate inside every row takes numpy's slacks; a problem that
            # has been inside refuses a step out, one that has not keeps its
            # stepped slacks
            stepped = slack_ + t_ * ds_
            slack_new = b_ - a_ @ x_new
            entered = (slack_new > 0.0).all(axis=1, keepdims=True)
            slack_new = np.where(entered, slack_new, stepped)
            gap_new = np.where(entered, 0.0, a_ @ x_new + stepped - b_)
            valid = entered | (outside_ & (stepped > 0.0).all(axis=1, keepdims=True))
            valid = valid[:, 0, 0]
            if not valid.all():
                every, pick = False, pick[valid]
                x_new, slack_new, gap_new, lam_new, t_, a_t_, target_, before_ = (
                    v[valid] for v in (x_new, slack_new, gap_new, lam_new, t_, a_t_, target_, before_))
            if len(pick):
                live = slice(None) if every else pick
                grad_new, hess_new = derivatives(x_new, live if len(index) == batch else index[live])
                dual_new = grad_new + a_t_ @ lam_new
                after = _norms(np.concatenate(
                    [dual_new, lam_new * slack_new - target_, gap_new], axis=1))
                ok = (after <= (1.0 - 0.01 * t_) * before_)[:, 0, 0]
                new = x_new, slack_new, gap_new, lam_new, grad_new, hess_new, dual_new
                if every and ok.all():  # the whole batch stepped: its new arrays
                    x, slack, gap, lam, grad, hess, dual = new
                    break
                if not ok.all():
                    pick, new = pick[ok], [v[ok] for v in new]
                for old, fresh in zip((x, slack, gap, lam, grad, hess, dual), new):
                    old[pick] = fresh
                trying[pick] = False
            t[trying] *= 0.5
            halted |= trying & (t[:, 0, 0] <= 1e-12)
            trying &= ~halted
        for j in np.flatnonzero(halted):
            problem = "Newton system is singular" if j in singular else "method stalled"
            logger.debug("interior-point %s at residual %.3e", problem, residual[j, 0, 0])


def _t(v):
    return v.transpose(0, 2, 1)


def _norms(v):
    """Norms of a stack of columns; of one column, the very vector norm."""
    return np.sqrt(_t(v) @ v)


def _step_limits(value, change):
    """Per problem, the step up to 1 that covers ``BOUNDARY_FRACTION`` of
    the distance ``-v / c`` to the nearest zero of ``v + t * c``."""
    shrinking = change < 0.0
    ratio = np.where(shrinking, value, -np.inf) / np.where(shrinking, change, 1.0)
    return np.minimum(1.0, -BOUNDARY_FRACTION * ratio.max(axis=1, keepdims=True, initial=-np.inf))


def _newton_steps(kkt, rhs):
    """Solutions of the Newton systems ``kkt[k] dx = rhs[k]``, and the list
    of the singular ones, whose step is zero."""
    try:
        return np.linalg.solve(kkt, rhs), []
    except np.linalg.LinAlgError:
        steps, singular = np.zeros_like(rhs), []
        for k in range(len(rhs)):
            try:
                steps[k] = np.linalg.solve(kkt[k], rhs[k])
            except np.linalg.LinAlgError:
                singular.append(k)
        return steps, singular


def _pad(arrays, fill: float) -> np.ndarray:
    """Arrays stacked on a new first axis, their first lengths padded with ``fill``."""
    arrays = [np.asarray(v, dtype=float) for v in arrays]
    out = np.full((len(arrays), max(len(v) for v in arrays), *arrays[0].shape[1:]), fill)
    for k, v in enumerate(arrays):
        out[k, : len(v)] = v
    return out
