"""LP tasks: the driver solves each round of every gathered task in one LP,
a domain error waits until its answer is read, anything else ends every
task, and a command's gathered LPs give the answers of the library
functions called one by one.

Oracles used here:

* toy blocks whose optima are read off by hand (``max x`` over ``x <= b``),
* the library functions, each called on a freshly parsed market, so no
  certificate is shared between them; their exit codes follow the CLI's
  mapping.  LP optima that are not unique (strategies, multipliers) are
  re-verified instead of compared.
"""

import json

import numpy as np
import pytest

import na1lab.arbitrage
import na1lab.cli
import na1lab.hedging
from conftest import random_market_any
from na1lab import lp
from na1lab.arbitrage import (
    SUPERMARTINGALE_TOL,
    _check_na1_all,
    _classical,
    _esmm,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
)
from na1lab.errors import (
    InfeasibleError,
    InvalidParameterError,
    Na1LabError,
    NumericError,
    PreconditionError,
)
from na1lab.hedging import Claim, _hedged, superhedge
from na1lab.io import parse_market
from na1lab.portfolio import numeraire_portfolio, verify_numeraire
from test_cli import market_doc, run_command, scalable_doc


def bound(b):
    """Block of ``max x`` subject to ``x <= b``; its optimum is ``b``."""
    return dict(cost=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([b]), maximize=True)


def rounds(*bs):
    """Task solving one ``bound`` block per round; returns the optima."""
    values = []
    for b in bs:
        [result] = yield [bound(b)]
        values.append(result.value)
    return values


class TestDriver:
    def test_each_round_is_one_lp(self, linprog_calls):
        answers = lp.run(lp.gather(rounds(1.0, 2.0), rounds(3.0), rounds(4.0, 5.0)))
        assert answers == [pytest.approx([1.0, 2.0]), [3.0], pytest.approx([4.0, 5.0])]
        assert len(linprog_calls) == 2

    def test_nested_gathers_share_rounds(self, linprog_calls):
        def outer():
            first, second = yield from lp.gather(rounds(1.0), rounds(2.0, 3.0))
            return first + second

        answers = lp.run(lp.gather(outer(), rounds(4.0)))
        assert answers == [pytest.approx([1.0, 2.0, 3.0]), [4.0]]
        assert len(linprog_calls) == 2

    def test_a_domain_error_is_held_until_read(self, linprog_calls):
        def failing():
            yield [bound(1.0)]
            raise NumericError("speculative failure")

        held, fine = lp.run(lp.gather(failing(), rounds(2.0, 3.0)))
        assert isinstance(held, NumericError)
        assert fine == pytest.approx([2.0, 3.0])
        with pytest.raises(NumericError, match="speculative failure"):
            lp.read(held)
        assert lp.read(fine) is fine

    def test_any_other_error_closes_every_task(self):
        closed = []

        def watched(name, fail):
            try:
                yield [bound(1.0)]
                if fail:
                    raise ZeroDivisionError
                yield [bound(2.0)]
            finally:
                closed.append(name)

        with pytest.raises(ZeroDivisionError):
            lp.run(lp.gather(watched("a", False), watched("b", True), watched("c", False)))
        assert sorted(closed) == ["a", "b", "c"]


class TestSharedCertificates:
    def test_each_certificate_is_decided_once(self, monkeypatch, linprog_calls):
        """The analyze gather: the ESMM and the hedge wait for the classical
        and NA1 certificates that the first two tasks decide."""
        decided = []
        for name in ("_decide_na1", "_search_classical"):
            original = getattr(na1lab.arbitrage, name)

            def counted(markets, tol, original=original, name=name):
                decided.append(name)
                return (yield from original(markets, tol))

            monkeypatch.setattr(na1lab.arbitrage, name, counted)
        market, claim = parse_market(market_doc(claim=[0.0, 1.5]))
        answers = lp.run(lp.gather(
            _classical(market), _check_na1_all([market]), _esmm(market), _hedged(market, claim)
        ))
        assert not any(isinstance(a, Na1LabError) for a in answers)
        assert sorted(decided) == ["_decide_na1", "_search_classical"]
        assert len(linprog_calls) == 2

    def test_interrupted_lp_leaves_no_marker(self, monkeypatch):
        """A KeyboardInterrupt in the first LP propagates at once; no market
        keeps an in-flight entry, so a later check decides afresh."""
        market, claim = parse_market(market_doc(claim=[0.0, 1.5]))
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            raise KeyboardInterrupt

        monkeypatch.setattr(lp, "linprog", interrupted)
        with pytest.raises(KeyboardInterrupt):
            lp.run(lp.gather(
                _classical(market), _check_na1_all([market]), _esmm(market),
                _hedged(market, claim),
            ))
        assert len(calls) == 1
        assert market.certificates == {}
        monkeypatch.undo()
        assert check_na1(market).holds
        assert construct_esmm(market).slack <= SUPERMARTINGALE_TOL

    def test_api_sequence_makes_the_same_lps(self, linprog_calls):
        """The library calls of one market, one after another, make one LP
        fewer than before the driver (counted on that implementation): each
        gate is cached, so nothing is solved speculatively, the Newton
        search starts without an LP, and the span of the cone generated by
        the allowed set is solved once, for the numeraire and the ESMM."""
        rng = np.random.default_rng(8)
        counts = []
        for _ in range(12):
            m = random_market_any(rng, d_max=4, n_max=12)
            claim = Claim(rng.uniform(0.0, 2.0, m.n_states))
            linprog_calls.clear()
            for step in (
                lambda: find_classical_arbitrage(m),
                lambda: check_na1(m),
                lambda: verify_numeraire(m, numeraire_portfolio(m).strategy),
                lambda: construct_esmm(m),
                lambda: superhedge(m, claim),
            ):
                try:
                    step()
                except Na1LabError:
                    pass
            counts.append(len(linprog_calls))
        assert counts == [7, 8, 8, 8, 8, 6, 3, 7, 7, 6, 6, 8]


class TestHeldErrors:
    def held(self, monkeypatch, name):
        """Record the domain errors of the CLI's task ``name``."""
        seen, original = [], getattr(na1lab.cli, name)

        def spied(*args):
            try:
                return (yield from original(*args))
            except Na1LabError as exc:
                seen.append(exc)
                raise

        monkeypatch.setattr(na1lab.cli, name, spied)
        return seen

    def test_unread_esmm_error_leaves_the_report(self, tmp_path, monkeypatch):
        seen = self.held(monkeypatch, "_esmm")
        rc, out = run_command(tmp_path, "analyze", scalable_doc())
        assert rc == 0
        assert [type(e) for e in seen] == [PreconditionError]
        report = json.loads(out.read_text())
        assert report["classical_arbitrage"]["verdict"] == "arbitrage_found"
        assert report["esmm"] is None

    def test_unread_hedge_error_leaves_the_report(self, tmp_path, monkeypatch):
        seen = self.held(monkeypatch, "_hedged")
        rc, out = run_command(tmp_path, "analyze", scalable_doc() | {"claim": [1.0, 1.0]})
        assert rc == 0
        assert [type(e) for e in seen] == [PreconditionError]
        report = json.loads(out.read_text())
        assert report["na1"]["verdict"] == "na1_fails"
        assert report["hedge"] is None

    def test_read_numeric_error_exits_three(self, tmp_path, monkeypatch):
        def fails(*args):
            raise NumericError("injected")

        monkeypatch.setattr(na1lab.arbitrage, "_minimize_log_moment", fails)
        assert run_command(tmp_path, "analyze", market_doc())[0] == 3
        monkeypatch.undo()
        monkeypatch.setattr(na1lab.hedging, "_recertified", fails)
        assert run_command(tmp_path, "analyze", market_doc(claim=[0.0, 1.5]))[0] == 3
        assert run_command(tmp_path, "hedge", market_doc(claim=[0.0, 1.5]))[0] == 3


def exit_code(exc) -> int:
    if isinstance(exc, (InvalidParameterError, PreconditionError, InfeasibleError)):
        return 2
    assert isinstance(exc, NumericError), exc
    return 3


def one_by_one(doc, step):
    """``(0, answer)`` of ``step`` on a freshly parsed market, or the exit
    code of its error and None."""
    market, claim = parse_market(doc)
    try:
        return 0, step(market, claim)
    except Na1LabError as exc:
        return exit_code(exc), None


def near(a, b, floor=1e-12):
    """Within 1e-8 relative; values at LP noise (``floor``) compare absolutely."""
    return np.allclose(a, b, rtol=1e-8, atol=floor)


def market_to_doc(market, claim):
    cs = market.constraints
    return {
        "probs": market.probs.tolist(),
        "returns": market.returns.tolist(),
        "constraints": {
            "halfspaces": [{"a": a.tolist(), "b": float(b)} for a, b in zip(cs.normals, cs.offsets)]
        },
        "claim": claim.tolist(),
    }


def test_commands_match_the_library_called_one_by_one(tmp_path):
    rng = np.random.default_rng(2024)
    seen = {"arbitrage": 0, "no_na1": 0, "esmm": 0, "hedge": 0}
    for _ in range(60):
        m = random_market_any(rng, d_max=4, n_max=12)
        doc = market_to_doc(m, rng.uniform(0.0, 2.0, m.n_states))
        payoff = np.array(doc["claim"])

        rc, out = run_command(tmp_path, "analyze", doc)
        code, classical = one_by_one(doc, lambda mk, _: find_classical_arbitrage(mk))
        assert code == 0
        code_na1, na1 = one_by_one(doc, lambda mk, _: check_na1(mk))
        assert code_na1 == 0
        code_esmm, esmm = (0, None)
        if not classical.found:
            code_esmm, esmm = one_by_one(doc, lambda mk, _: construct_esmm(mk))
        code_hedge, hedge = (0, None)
        if na1.holds:
            code_hedge, hedge = one_by_one(doc, lambda mk, c: superhedge(mk, Claim(c)))
        # the command reads the ESMM, then the hedge: the first error wins
        assert rc == (code_esmm or code_hedge)
        if rc == 0:
            report = json.loads(out.read_text())
            got = report["classical_arbitrage"]
            assert got["verdict"] == classical.verdict
            assert near(got["objective"], classical.objective)
            if classical.found:
                strategy = np.array(got["strategy"])
                assert m.allowed.contains(strategy, tol=1e-9)
                assert np.all(m.returns @ strategy >= -1e-12)
                seen["arbitrage"] += 1
            assert report["na1"]["verdict"] == na1.verdict
            seen["no_na1"] += not na1.holds
            if na1.holds:
                assert near(report["na1"]["bound_radius"], na1.bound_radius)
            assert (report["esmm"] is None) == (esmm is None)
            if esmm is not None:
                # slacks are LP noise around zero; both are certified
                assert near(report["esmm"]["slack"], esmm.slack, floor=1e-2 * SUPERMARTINGALE_TOL)
                seen["esmm"] += 1
            assert (report["hedge"] is None) == (hedge is None)
            if hedge is not None:
                check_hedge(m, payoff, report["hedge"], hedge)
                seen["hedge"] += 1

        rc, out = run_command(tmp_path, "hedge", doc)
        code, hedge = one_by_one(doc, lambda mk, c: superhedge(mk, Claim(c)))
        assert rc == code
        if rc == 0:
            check_hedge(m, payoff, json.loads(out.read_text())["valuation"], hedge)

        rc, out = run_command(tmp_path, "numeraire", doc)
        code, opt = one_by_one(doc, lambda mk, _: numeraire_portfolio(mk))
        assert rc == code
        if rc == 0:
            report = json.loads(out.read_text())
            assert near(report["portfolio"]["strategy"], opt.strategy)
            assert near(report["deflator"]["values"], opt.deflator.values)
    assert min(seen.values()) >= 3, seen


def check_hedge(market, payoff, got, expected):
    assert near(got["primal_value"], expected.primal_value)
    v, strategy = got["primal_value"], np.array(got["strategy"])
    assert np.all(v * (1.0 + market.returns @ strategy) >= payoff - 1e-9 * (1.0 + payoff))
