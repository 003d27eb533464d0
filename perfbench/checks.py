"""Answer checks that do not trust the package.

Certificates are re-checked with numpy from the report.  Unique optima
(super-hedging prices, tree hedge values), the numeraire's wealth-ratio
certificate and the ESMM's expected-gain slack are recomputed by linear
programs solved here with ``scipy.optimize.linprog`` directly, not through
``na1lab.lp``, so a broken package LP path cannot certify itself.  Every
check returns a list of problems; an empty list means the answer passed.

Exit-code contract (README): 0 on success, including markets with scalable
arbitrage (undefined sections are ``null``); 1 malformed input; 2 domain or
precondition violation; 3 numeric failure.  Every generated document is well
formed, so the only prescribed non-zero code is 2 for ``numeraire`` and
``hedge`` on a market that admits scalable arbitrage.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

#: Slack allowed when re-checking a certificate computed in floating point.
FEAS_TOL = 1e-7
#: Relative agreement required between a package optimum and its reference.
VALUE_TOL = 1e-6
#: Largest primal/dual gap of a super-hedge, relative to 1 + its price.
GAP_TOL = 1e-7
#: Slack allowed on top of the ESMM's reported threshold when its expected-gain
#: LP is solved again here.
ESMM_RECHECK_TOL = 1e-9
#: An oracle optimum above this is a clear yes, below ZERO_TOL a clear no;
#: verdicts in between are not compared.
CLEAR_TOL = 1e-6
ZERO_TOL = 1e-10


class Market:
    """Arrays of a one-period market, read from a document or an object."""

    def __init__(self, probs, returns, normals, offsets):
        self.probs = np.asarray(probs, dtype=float)
        self.returns = np.asarray(returns, dtype=float).reshape(self.probs.size, -1)
        d = self.returns.shape[1]
        self.normals = np.asarray(normals, dtype=float).reshape(-1, d)
        self.offsets = np.asarray(offsets, dtype=float).reshape(-1)

    @classmethod
    def from_doc(cls, doc):
        rows = doc["constraints"]["halfspaces"]
        d = len(doc["returns"][0])
        return cls(
            doc["probs"],
            doc["returns"],
            [h["a"] for h in rows] if rows else np.zeros((0, d)),
            [h["b"] for h in rows],
        )

    @classmethod
    def from_object(cls, market):
        c = market.constraints
        return cls(market.probs, market.returns, c.normals, c.offsets)

    @property
    def d(self) -> int:
        return self.returns.shape[1]

    def allowed_rows(self):
        """User constraints plus admissibility ``1 + <pi, R> >= 0``."""
        a = np.vstack([self.normals, -self.returns])
        b = np.concatenate([self.offsets, np.ones(self.probs.size)])
        return a, b

    def in_allowed(self, pi) -> bool:
        a, b = self.allowed_rows()
        return bool(np.all(a @ pi <= b + FEAS_TOL * (1.0 + np.abs(b))))


def _lp(cost, a_ub, b_ub, bounds):
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    return res if res.status == 0 else None


def scalable_gain(m: Market):
    """Largest total gain of a recession direction of the allowed set in the
    unit box; positive exactly when scalable arbitrage exists."""
    n = m.probs.size
    a = np.vstack([m.normals, -m.returns])
    b = np.zeros(a.shape[0])
    res = _lp(-m.returns.sum(axis=0), a, b, [(-1.0, 1.0)] * m.d)
    return None if res is None else -res.fun / n


def superhedge_price(m: Market, payoff):
    """min v s.t. v + <y, R> >= payoff, A y <= v b, v >= 0."""
    n, d = m.returns.shape
    a = np.vstack([
        np.hstack([-np.ones((n, 1)), -m.returns]),
        np.hstack([-m.offsets[:, None], m.normals]),
    ])
    b = np.concatenate([-np.asarray(payoff, dtype=float), np.zeros(m.offsets.size)])
    cost = np.zeros(1 + d)
    cost[0] = 1.0
    res = _lp(cost, a, b, [(0.0, None)] + [(None, None)] * d)
    return None if res is None else float(res.fun)


def wealth_ratio(m: Market, rho):
    """max over allowed pi of E[(1 + <pi, R>) / (1 + <rho, R>)]."""
    w = 1.0 + m.returns @ rho
    weights = m.probs / w
    a, b = m.allowed_rows()
    res = _lp(-(weights @ m.returns), a, b, [(None, None)] * m.d)
    return None if res is None else float(np.sum(weights) - res.fun)


def esmm_slack(m: Market, q):
    """max over allowed pi in the span of the returns of E_q <pi, R>."""
    _, sv, vt = np.linalg.svd(m.returns, full_matrices=False)
    basis = vt[sv > 1e-10 * sv[0]].T if sv.size and sv[0] > 0 else np.zeros((m.d, 0))
    cost = (np.asarray(q, dtype=float) @ m.returns) @ basis
    # HiGHS misreads objectives whose entries all sit near its zero tolerance,
    # and an ESMM makes every expected gain nearly zero: normalize the cost.
    scale = float(np.max(np.abs(cost))) if cost.size else 0.0
    if scale == 0.0:
        return 0.0
    a, b = m.allowed_rows()
    res = linprog(-cost / scale, A_ub=a @ basis, b_ub=b, bounds=[(None, None)] * cost.size,
                  method="highs")
    if res.status == 3:
        return math.inf
    return None if res.status != 0 else float(-res.fun * scale)


def _close(value, reference) -> bool:
    return abs(value - reference) <= VALUE_TOL * (1.0 + abs(reference))


# -- certificate checks shared by the CLI and API paths -------------------------


def check_classical(m: Market, cert: dict) -> list:
    if cert["verdict"] != "arbitrage_found":
        return []
    pi = np.asarray(cert["strategy"], dtype=float)
    gains = m.returns @ pi
    problems = []
    if not m.in_allowed(pi):
        problems.append("arbitrage strategy leaves the allowed set")
    if np.any(gains < -FEAS_TOL) or not np.max(gains) > cert["threshold"]:
        problems.append("arbitrage strategy does not gain")
    return problems


def check_na1(m: Market, cert: dict, scalable) -> list:
    problems = []
    if cert["verdict"] == "na1_fails":
        ray = np.asarray(cert["witness_ray"], dtype=float)
        gains = m.returns @ ray
        if m.normals.size and np.any(m.normals @ ray > FEAS_TOL):
            problems.append("witness ray leaves the recession cone")
        if np.any(gains < -FEAS_TOL) or not np.max(gains) > 0:
            problems.append("witness ray does not gain")
        if scalable is not None and scalable < ZERO_TOL:
            problems.append("na1_fails but the oracle finds no scalable direction")
    elif scalable is not None and scalable > CLEAR_TOL:
        problems.append("na1_holds but the oracle finds a scalable direction")
    return problems


def check_esmm(m: Market, esmm: dict) -> list:
    q = np.asarray(esmm["measure"], dtype=float)
    problems = []
    if np.any(q <= 0) or abs(q.sum() - 1.0) > 1e-9:
        problems.append("ESMM measure is not a positive probability vector")
    if not np.allclose(np.asarray(esmm["density"]) * m.probs, q, rtol=1e-9, atol=1e-300):
        problems.append("ESMM density does not match its measure")
    slack = esmm_slack(m, q)
    if slack is not None and not slack <= esmm["threshold"] + ESMM_RECHECK_TOL:
        problems.append(f"ESMM expected-gain slack exceeds its threshold: {slack!r}")
    return problems


def check_hedge(m: Market, payoff, valuation: dict) -> list:
    payoff = np.asarray(payoff, dtype=float)
    v = float(valuation["primal_value"])
    y = v * np.asarray(valuation["strategy"], dtype=float)
    scale = 1.0 + float(np.max(np.abs(payoff)))
    problems = []
    if np.min(v + m.returns @ y - payoff) < -FEAS_TOL * scale:
        problems.append("super-hedge does not dominate the claim")
    deflator = np.asarray(valuation["dual_deflator"], dtype=float)
    if np.any(deflator <= 0):
        problems.append("super-hedge dual deflator is not positive")
    if not abs(v - float(m.probs @ (deflator * payoff))) <= GAP_TOL * (1.0 + v):
        problems.append("super-hedge primal/dual gap exceeds its tolerance")
    reference = superhedge_price(m, payoff)
    if reference is not None and not _close(v, reference):
        problems.append(f"super-hedge price differs from reference: {v!r} vs {reference!r}")
    return problems


def check_numeraire(m: Market, strategy, certificate) -> list:
    rho = np.asarray(strategy, dtype=float)
    problems = []
    if not m.in_allowed(rho):
        problems.append("numeraire strategy leaves the allowed set")
    if np.any(1.0 + m.returns @ rho <= 0):
        problems.append("numeraire wealth is not positive")
        return problems
    if not float(certificate) <= 1.0 + 1e-8:
        problems.append("wealth-ratio certificate exceeds 1 + tolerance")
    reference = wealth_ratio(m, rho)
    if reference is not None and not reference <= 1.0 + 1e-7:
        problems.append(f"independent wealth-ratio LP exceeds 1 + tolerance: {reference!r}")
    return problems


# -- CLI reports ----------------------------------------------------------------


def expected_code(command: str, scalable) -> int | None:
    """Exit code the README prescribes; None when the oracle is undecided."""
    if command in ("numeraire", "hedge"):
        if scalable is None or ZERO_TOL <= scalable <= CLEAR_TOL:
            return None
        return 2 if scalable > CLEAR_TOL else 0
    return 0


def check_market_report(command: str, doc: dict, code: int, report, scalable) -> list:
    expected = expected_code(command, scalable)
    if expected is not None and code != expected:
        return [f"exit {code}, contract says {expected}"]
    if code != 0:
        return []
    m = Market.from_doc(doc)
    if command == "analyze":
        problems = check_classical(m, report["classical_arbitrage"])
        problems += check_na1(m, report["na1"], scalable)
        found = report["classical_arbitrage"]["verdict"] == "arbitrage_found"
        if (report["esmm"] is None) != found:
            problems.append("esmm section must be null exactly when an arbitrage exists")
        elif report["esmm"] is not None:
            problems += check_esmm(m, report["esmm"])
        holds = report["na1"]["verdict"] == "na1_holds"
        if (report["hedge"] is None) == holds:
            problems.append("hedge section must be present exactly when NA1 holds")
        elif report["hedge"] is not None:
            problems += check_hedge(m, doc["claim"], report["hedge"])
        return problems
    if command == "numeraire":
        problems = check_numeraire(
            m, report["portfolio"]["strategy"], report["wealth_ratio_certificate"]
        )
        rho = np.asarray(report["portfolio"]["strategy"], dtype=float)
        growth = float(m.probs @ np.log1p(m.returns @ rho)) if not problems else None
        if growth is not None and not _close(report["portfolio"]["value"], growth):
            problems.append("reported growth rate is not E log(1 + <rho, R>)")
        return problems
    return check_hedge(m, doc["claim"], report["valuation"])


def check_factor_report(code: int, report, csv_exists: bool) -> list:
    if code != 0:
        return [f"exit {code}, contract says 0"]
    problems = []
    ray = report["arbitrage_ray"]
    if ray is not None and not all(math.isfinite(float(x)) for x in ray):
        problems.append("arbitrage ray is not finite")
    if (report["csv"] is not None) != csv_exists:
        problems.append("csv section and arbitrage_line.csv disagree")
    return problems


def tree_markets(doc: dict) -> dict:
    """Node id -> (Market, child ids) for every internal node of a tree doc."""
    sets = doc["constraint_sets"]
    refs = {n["id"]: n.get("constraints") for n in doc["nodes"]}
    kids: dict = {}
    for node in doc["nodes"]:
        if node.get("parent") is not None:
            kids.setdefault(node["parent"], []).append(node)
    out = {}
    for parent, children in kids.items():
        rows = sets[refs[parent]]["halfspaces"]
        d = len(children[0]["returns"])
        out[parent] = (
            Market(
                [c["prob"] for c in children],
                [c["returns"] for c in children],
                [h["a"] for h in rows] if rows else np.zeros((0, d)),
                [h["b"] for h in rows],
            ),
            [c["id"] for c in children],
        )
    return out


def tree_price(doc: dict, markets: dict):
    """Backward super-replication value of the tree claim at the root."""
    values = dict(doc["claim"])
    order = [n["id"] for n in doc["nodes"] if n["id"] in markets]
    for node_id in reversed(order):
        m, children = markets[node_id]
        price = superhedge_price(m, [values[c] for c in children])
        if price is None:
            return None
        values[node_id] = max(price, 0.0)
    return values[order[0]]


def check_tree_report(doc: dict, shape: dict, code: int, report) -> list:
    if code != 0:
        return [f"exit {code}, contract says 0"]
    problems = []
    if report["na1"]["holds"] != (shape["bad"] is None):
        problems.append("tree NA1 verdict disagrees with the generated tree")
    if not report["na1"]["holds"]:
        if any(report[k] is not None for k in ("numeraire", "deflator", "hedge", "optimal")):
            problems.append("valuation sections must be null without NA1")
        return problems
    markets = tree_markets(doc)
    wealth = report["numeraire"]["wealth"]
    if any(not float(w) > 0 for w in wealth.values()):
        problems.append("numeraire wealth process is not positive")
    if any(not float(z) > 0 for z in report["deflator"].values()):
        problems.append("deflator process is not positive")
    for node_id, pi in report["numeraire"]["strategies"].items():
        if not markets[node_id][0].in_allowed(np.asarray(pi, dtype=float)):
            problems.append(f"numeraire strategy at {node_id} leaves the allowed set")
            break
    reference = tree_price(doc, markets)
    value = float(report["hedge"]["value"])
    if reference is not None and not _close(value, reference):
        problems.append(f"tree hedge value differs from reference: {value!r} vs {reference!r}")
    if not math.isfinite(float(report["optimal"]["value"])):
        problems.append("optimal utility value is not finite")
    return problems
