"""Resource budgets: caps degrade the affected scope, never crash."""

import pytest

from repro.pipeline import analyze
from repro.resilience import budget as budget_mod
from repro.resilience.budget import (
    SERVICE_BUDGET,
    AnalysisBudget,
    active,
    budgeted,
    charge_expr_terms,
    check_request_deadline,
    matrix_dim_allowed,
    unroll_cap,
)
from repro.resilience.errors import BudgetExceeded
from repro.symbolic.expr import Expr

POLY_SRC = """
i = 0
x = 0
L1: while i < 10 do
  x = x + i
  i = i + 1
endwhile
"""


class TestBudgetInstallation:
    def test_default_is_unbudgeted(self):
        assert active() is None
        assert budget_mod._EXPR_TERM_CAP is None

    def test_budgeted_none_is_a_noop(self):
        with budgeted(None):
            assert active() is None

    def test_budgeted_installs_and_restores(self):
        budget = AnalysisBudget(max_expr_terms=8)
        with budgeted(budget):
            assert active() is budget
            assert budget_mod._EXPR_TERM_CAP == 8
        assert active() is None
        assert budget_mod._EXPR_TERM_CAP is None

    def test_nested_budgets_restore_outer(self):
        outer = AnalysisBudget(max_expr_terms=100)
        inner = AnalysisBudget(max_expr_terms=5)
        with budgeted(outer):
            with budgeted(inner):
                assert active() is inner
                assert budget_mod._EXPR_TERM_CAP == 5
            assert active() is outer
            assert budget_mod._EXPR_TERM_CAP == 100


class TestExprTermCap:
    def test_charge_without_budget_is_free(self):
        charge_expr_terms(10**9)  # no cap installed: no-op

    def test_charge_raises_past_cap(self):
        with budgeted(AnalysisBudget(max_expr_terms=4)):
            charge_expr_terms(4)
            with pytest.raises(BudgetExceeded) as info:
                charge_expr_terms(5)
        assert info.value.code == "budget-expr-terms"

    def test_multiplication_checks_the_cap(self):
        a = sum((Expr.sym(f"a{i}") for i in range(5)), Expr.const(0))
        b = sum((Expr.sym(f"b{i}") for i in range(5)), Expr.const(0))
        assert len((a * b).terms()) == 25  # uncapped: fine
        with budgeted(AnalysisBudget(max_expr_terms=10)):
            with pytest.raises(BudgetExceeded):
                a * b

    def test_substitution_checks_the_cap(self):
        big = sum((Expr.sym(f"a{i}") for i in range(6)), Expr.const(0))
        target = Expr.sym("x") + 1
        with budgeted(AnalysisBudget(max_expr_terms=3)):
            with pytest.raises(BudgetExceeded):
                target.substitute({"x": big})


class TestMatrixAndUnrollCaps:
    def test_matrix_dim_allowed_without_budget(self):
        assert matrix_dim_allowed(10**6)

    def test_matrix_dim_respects_budget(self):
        with budgeted(AnalysisBudget(max_matrix_dim=3)):
            assert matrix_dim_allowed(3)
            assert not matrix_dim_allowed(4)

    def test_unroll_cap_clamps(self):
        assert unroll_cap(500) == 500
        with budgeted(AnalysisBudget(max_unroll_trips=16)):
            assert unroll_cap(500) == 16
            assert unroll_cap(8) == 8

    def test_unroll_transform_declines_past_cap(self):
        from repro.analysis.loopsimplify import simplify_loops
        from repro.frontend.source import compile_source
        from repro.transforms import fully_unroll

        src = (
            "s = 0\nL1: for i = 1 to 20 do\n  s = s + i\nendfor\nreturn s"
        )
        named = compile_source(src)
        simplify_loops(named)
        with budgeted(AnalysisBudget(max_unroll_trips=5)):
            assert fully_unroll(named, "L1") is None  # 20 trips > cap 5
        # without the budget the same loop unrolls fine
        named = compile_source(src)
        simplify_loops(named)
        assert fully_unroll(named, "L1") == 20


class TestDeadlines:
    def test_deadline_noop_without_budget(self):
        check_request_deadline("classify")  # no raise

    def test_expired_deadline_raises(self):
        with budgeted(AnalysisBudget(request_deadline_s=0.0)):
            import time

            time.sleep(0.01)
            with pytest.raises(BudgetExceeded) as info:
                check_request_deadline("classify")
        assert info.value.code == "budget-request-deadline"
        assert info.value.phase == "classify"

    def test_zero_deadline_degrades_analysis_not_crashes(self):
        program = analyze(
            POLY_SRC, budget=AnalysisBudget(request_deadline_s=0.0)
        )
        assert program.degraded
        assert any(
            r.code == "budget-request-deadline" for r in program.degradations
        )
        assert all(r.diag_code == "RES503" for r in program.degradations
                   if r.code.startswith("budget-"))


    @staticmethod
    def _overrun_in(monkeypatch, stage):
        """Analyze with ``stage`` taking twice the deadline on a fake clock.

        Returns ``(program, called)``: ``called`` lists the later front-end
        stages and SSA construction that ran.
        """
        from types import SimpleNamespace

        from repro import pipeline

        now = [0.0]
        monkeypatch.setattr(
            budget_mod, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        called = []
        stages = ("parse_program", "lower_program", "simplify_loops")

        def wrap(name, real):
            def stage_fn(*args, **kwargs):
                called.append(name)
                if name == stage:
                    now[0] += 1.0
                return real(*args, **kwargs)

            return stage_fn

        for name in stages:
            monkeypatch.setattr(pipeline, name, wrap(name, getattr(pipeline, name)))
        monkeypatch.setattr(
            pipeline, "construct_ssa", lambda ssa: called.append("construct_ssa")
        )
        program = analyze(
            POLY_SRC, budget=AnalysisBudget(request_deadline_s=0.5)
        )
        return program, called[called.index(stage) + 1:]

    @staticmethod
    def _deadline_records(program):
        return [(r.phase, r.code, r.diag_code) for r in program.degradations]

    def test_parse_overrun_degrades_the_whole_program(self, monkeypatch):
        program, later = self._overrun_in(monkeypatch, "parse_program")
        assert later == []
        assert self._deadline_records(program) == [
            ("frontend.lower", "budget-request-deadline", "RES503")
        ]
        assert list(program.named_ir.blocks) == ["entry"]

    def test_front_end_overrun_degrades_before_ssa_construction(
        self, monkeypatch
    ):
        program, later = self._overrun_in(monkeypatch, "lower_program")
        assert later == []
        assert self._deadline_records(program) == [
            ("analysis.loop-simplify", "budget-request-deadline", "RES503")
        ]
        assert not program.result.loops
        # the lowered IR is kept, as it was lowered
        assert len(program.named_ir.blocks) > 1

    def test_loop_simplify_overrun_degrades_before_ssa_construction(
        self, monkeypatch
    ):
        program, later = self._overrun_in(monkeypatch, "simplify_loops")
        assert later == []
        assert self._deadline_records(program) == [
            ("ssa.construct", "budget-request-deadline", "RES503")
        ]
        assert not program.result.loops


class TestClosedFormBudget:
    def test_matrix_cap_degrades_polynomial_to_monotonic(self):
        from repro.obs.metrics import MetricsRegistry, collecting

        baseline = analyze(POLY_SRC)
        x_name = baseline.ssa_name("x", "L1")
        assert baseline.result.describe(x_name).startswith("(L1, 0,")

        with collecting(MetricsRegistry()) as registry:
            program = analyze(POLY_SRC, budget=AnalysisBudget(max_matrix_dim=1))
        description = program.result.describe(program.ssa_name("x", "L1"))
        assert "monotonic" in description or "unknown" in description
        assert registry.snapshot()["counters"].get("closedform.degraded", 0) > 0

    def test_service_budget_happy_path_is_clean(self):
        program = analyze(POLY_SRC, budget=SERVICE_BUDGET)
        assert not program.degraded
        x_name = program.ssa_name("x", "L1")
        assert program.result.describe(x_name).startswith("(L1, 0,")
