"""Per-layer tracing from outside the package.

:class:`Tracer` replaces the public functions of each ``na1lab`` layer with
timing wrappers.  The modules import one another by name (``from .arbitrage
import check_na1`` in ``hedging``, ``portfolio``, ``tree`` and ``cli``), so a
function is rebound in every ``na1lab`` namespace that holds it, not only in
the module that defines it.  ``linprog`` is wrapped where ``na1lab.lp`` looks
it up, and the ``DiscreteMarket`` constructor through its ``__post_init__``.

Spans (name, start, end, parent span, operation id) stay in memory until the
run ends.  Per operation, each wrapped function accumulates calls, busy time
(outermost calls only), self time (busy minus the wrapped calls inside it),
LP calls made under it, and calls that raised.

As an independent check of the rebinding, scipy's HiGHS entry point is
counted too; every ``linprog`` call the package makes inside an operation must
reach it through the wrapper.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped in the traced run.
WRAPPED = (
    ("arbitrage", "check_na1"),
    ("arbitrage", "find_classical_arbitrage"),
    ("arbitrage", "construct_esmm"),
    ("portfolio", "numeraire_portfolio"),
    ("portfolio", "maximize_utility"),
    ("portfolio", "verify_numeraire"),
    ("portfolio", "verify_deflator"),
    ("hedging", "superhedge"),
    ("factor", "discretize"),
    ("factor", "validate_positivity"),
    ("factor", "arbitrage_ray"),
    ("factor", "na1_factor"),
    ("factor", "max_arbitrage_strategy"),
    ("tree", "global_na1"),
    ("tree", "node_market"),
    ("tree", "numeraire_process"),
    ("tree", "verify_deflator_process"),
    ("tree", "superhedge_tree"),
    ("tree", "backward_induction"),
    ("tree", "default_wealth_grid"),
    ("io", "load_document"),
    ("io", "parse_market"),
    ("io", "parse_factor_model"),
    ("io", "parse_tree"),
    ("io", "dumps_canonical"),
)

LP = "lp.linprog"
BUILD = "market.build"
#: Fields of one function's per-operation record.
CALLS, BUSY, SELF, LP_CALLS, FAILS = range(5)


def _namespaces():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "na1lab" or name.startswith("na1lab."))
    ]


def _rebind(original, replacement) -> int:
    """Point every ``na1lab`` binding of ``original`` at ``replacement``."""
    count = 0
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = defaultdict(int)
        self.op_id = None
        self.op_stats = None
        self.lp_shapes = []  # (rows, cols, ms) of every linprog call in an op
        self.lp_retries = 0
        self.lp_status_failures = 0
        self.highs_calls = 0
        self.wrapped_lp_calls = 0
        self.originals = {}
        self._undo = []
        self._next_id = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        import na1lab.lp
        import na1lab.market
        import scipy.optimize._linprog as scipy_linprog

        originals = self.originals
        for module_name, func_name in WRAPPED:
            module = sys.modules[f"na1lab.{module_name}"]
            original = getattr(module, func_name)
            originals[f"{module_name}.{func_name}"] = original
            self._swap(original, self._wrap(f"{module_name}.{func_name}", original))
        original_lp = na1lab.lp.linprog
        originals[LP] = original_lp
        self._swap(original_lp, self._wrap_lp(original_lp))

        cls = na1lab.market.DiscreteMarket
        post_init = cls.__post_init__
        cls.__post_init__ = self._wrap(BUILD, post_init)
        self._undo.append(lambda: setattr(cls, "__post_init__", post_init))

        highs = scipy_linprog._linprog_highs

        @functools.wraps(highs)
        def counted_highs(*args, **kwargs):
            if self.op_id is not None:
                self.highs_calls += 1
            return highs(*args, **kwargs)

        scipy_linprog._linprog_highs = counted_highs
        self._undo.append(lambda: setattr(scipy_linprog, "_linprog_highs", highs))

    def _swap(self, original, wrapper):
        if _rebind(original, wrapper) == 0:
            raise RuntimeError(f"no na1lab binding of {original!r} to wrap")
        self._undo.append(lambda: _rebind(wrapper, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def stale_bindings(self) -> list:
        """Names still bound to an unwrapped original (must be empty)."""
        stale = []
        for module in _namespaces():
            for attr, value in vars(module).items():
                for name, original in self.originals.items():
                    if value is original:
                        stale.append(f"{module.__name__}.{attr} ({name})")
        return stale

    # -- operations -----------------------------------------------------------

    def begin(self, op_id):
        self.op_id = op_id
        self.op_stats = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.lp_shapes = []
        self.lp_retries = 0
        self.lp_status_failures = 0

    def end(self) -> dict:
        record = {
            "stats": {k: list(v) for k, v in self.op_stats.items()},
            "lp_shapes": self.lp_shapes,
            "lp_retries": self.lp_retries,
            "lp_status_failures": self.lp_status_failures,
        }
        self.op_id = None
        self.op_stats = None
        return record

    # -- wrappers ------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        frame = [name, self._next_id, 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame, parent, time.perf_counter()

    def _exit(self, frame, parent, start, failed):
        end = time.perf_counter()
        duration = end - start
        self.stack.pop()
        name = frame[0]
        self.active[name] -= 1
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (frame[1], name, start, end, parent[1] if parent else None, self.op_id)
        )
        if self.op_stats is None:
            return duration
        record = self.op_stats[name]
        record[CALLS] += 1
        if self.active[name] == 0:
            record[BUSY] += duration
        record[SELF] += duration - frame[2]
        record[FAILS] += failed
        return duration

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, start = tracer._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._exit(frame, parent, start, failed)

        return wrapper

    def _wrap_lp(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(c, *args, **kwargs):
            callers = {f[0] for f in tracer.stack}
            frame, parent, start = tracer._enter(LP)
            failed = True
            result = None
            try:
                result = fn(c, *args, **kwargs)
                failed = False
                return result
            finally:
                duration = tracer._exit(frame, parent, start, failed)
                if tracer.op_stats is not None:
                    tracer.wrapped_lp_calls += 1
                    for name in callers:
                        tracer.op_stats[name][LP_CALLS] += 1
                    rows = sum(
                        len(kwargs[k]) for k in ("A_ub", "A_eq") if kwargs.get(k) is not None
                    )
                    tracer.lp_shapes.append((rows, len(c), duration * 1e3))
                    options = kwargs.get("options") or {}
                    tracer.lp_retries += options.get("presolve", True) is False
                    tracer.lp_status_failures += (
                        result is not None and result.status not in (0, 2, 3)
                    )

        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id,
                }) + "\n")
