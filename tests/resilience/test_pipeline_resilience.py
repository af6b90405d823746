"""Per-loop / per-phase containment observed through ``analyze()``."""

import pytest

from repro.core.classes import InductionVariable, Unknown
from repro.core.driver import DegradedLoopSummary
from repro.core.tripcount import TripCountKind
from repro.pipeline import AnalyzedProgram, analyze
from repro.resilience.errors import InjectedFault, MissingPhiError, ReproError
from repro.resilience.faultinject import FaultPlan, injecting

SRC = """
i = 0
x = 0
L1: while i < 10 do
  x = x + i
  i = i + 1
endwhile
"""

#: ``continue`` gives L1 two latches; ``i`` takes 0, 2, 4, 5, 6, ...
CONTINUE_SRC = """
i = 0
j = 0
L1: while i < n do
  if i > 3 then
    j = j + 1
    i = i + 1
    continue
  endif
  i = i + 2
endwhile
"""

NESTED_SRC = """
i = 0
L1: while i < 10 do
  j = 0
  L2: while j < 5 do
    A[i] = A[i] + j
    j = j + 1
  endwhile
  i = i + 1
endwhile
"""


class TestLoopContainment:
    def test_injected_loop_failure_degrades_that_loop(self):
        with injecting(FaultPlan(points={"classify.loop"})):
            program = analyze(SRC)
        summary = program.result.loops["L1"]
        assert isinstance(summary, DegradedLoopSummary)
        assert summary.degraded
        assert summary.classifications == {}
        assert summary.trip.kind is TripCountKind.UNKNOWN
        record = program.degradations[0]
        assert record.phase == "classify.loop"
        assert record.scope == "L1"
        assert record.diag_code == "RES501"

    def test_healthy_loop_summaries_are_not_degraded(self):
        program = analyze(SRC)
        assert not program.degraded
        assert not program.result.loops["L1"].degraded

    def test_inner_loop_failure_spares_the_outer_loop(self):
        with injecting(FaultPlan(points={"classify.loop"}, only_first=True)):
            program = analyze(NESTED_SRC)
        # loops are classified inner-first: the injected fault hits L2
        degraded = [h for h, s in program.result.loops.items() if s.degraded]
        healthy = [h for h, s in program.result.loops.items() if not s.degraded]
        assert len(degraded) == 1 and len(healthy) == 1
        outer = program.result.loops[healthy[0]]
        assert outer.classifications  # the other loop still classified

    def test_retry_policy_loop_failure_is_not_rerun(self, monkeypatch):
        from repro.core import driver

        calls = []

        def crashing(*_args, **_kwargs):
            calls.append(1)
            raise ReproError("gone", code="worker-crash")

        monkeypatch.setattr(driver, "_analyze_loop", crashing)
        program = analyze(SRC)
        assert len(calls) == 1
        assert program.result.loops["L1"].degraded
        assert [(r.code, r.action) for r in program.degradations] == [
            ("worker-crash", "degraded")
        ]

    def test_tripcount_failure_keeps_classifications(self):
        with injecting(FaultPlan(points={"classify.tripcount"})):
            program = analyze(SRC)
        summary = program.result.loops["L1"]
        assert summary.trip.kind is TripCountKind.UNKNOWN
        assert summary.classifications  # classification survived
        assert program.result.describe(
            program.ssa_name("i", "L1")
        ).startswith("(L1,")
        assert any(r.phase == "classify.tripcount"
                   for r in program.degradations)


class TestPhaseContainment:
    def test_scalar_pass_failure_skips_optimize(self):
        with injecting(FaultPlan(points={"scalar.gvn"})):
            program = analyze(SRC)
        assert isinstance(program, AnalyzedProgram)
        skipped = [r for r in program.degradations if r.action == "skipped"]
        assert skipped and skipped[0].diag_code == "RES502"
        # the unoptimized pipeline still classifies the IV
        assert program.result.describe(
            program.ssa_name("i", "L1")
        ).startswith("(L1,")

    def test_retry_policy_optimize_failure_is_not_rerun(self, monkeypatch):
        from repro import pipeline

        calls = []

        def crashing(_ssa):
            calls.append(1)
            raise ReproError("gone", code="worker-crash")

        monkeypatch.setattr(pipeline, "_run_scalar_passes", crashing)
        program = analyze(SRC)
        # the analysis is deterministic: the failed phase is skipped once
        assert len(calls) == 1
        assert [(r.code, r.action) for r in program.degradations] == [
            ("worker-crash", "skipped")
        ]
        assert program.result.describe(
            program.ssa_name("i", "L1")
        ).startswith("(L1,")

    def test_frontend_failure_degrades_to_empty_program(self):
        with injecting(FaultPlan(points={"frontend.parse"})):
            program = analyze(SRC)
        assert isinstance(program, AnalyzedProgram)
        assert not program.result.loops
        assert program.degradations[0].diag_code == "RES505"

    def test_ssa_failure_degrades_to_empty_classifications(self):
        with injecting(FaultPlan(points={"ssa.construct"})):
            program = analyze(SRC)
        assert isinstance(program, AnalyzedProgram)
        assert not program.result.loops or all(
            not s.classifications for s in program.result.loops.values()
        )
        assert any(r.diag_code == "RES505" for r in program.degradations)

    def test_skipped_loop_simplify_claims_no_iv_over_two_latches(self):
        """A header phi with two loop-carried values classifies Unknown:
        either edge alone would claim a step ``i`` does not always take."""
        with injecting(FaultPlan(points={"analysis.loop-simplify"})):
            program = analyze(CONTINUE_SRC)
        assert program.degradations[0].diag_code == "RES502"
        header_phi = program.ssa_name("i", "L1")
        assert isinstance(program.classification(header_phi), Unknown)
        assert not any(
            isinstance(program.classification(name), InductionVariable)
            for name in program.ssa_names("i")
        )

    def test_real_frontend_errors_still_raise(self):
        from repro.frontend.lexer import FrontendError

        with pytest.raises(FrontendError):
            analyze("L1: while do\n")


class TestStrictMode:
    def test_strict_reraises_injected_fault(self):
        with injecting(FaultPlan(points={"classify.loop"})):
            with pytest.raises(InjectedFault):
                analyze(SRC, strict=True)

    def test_strict_clean_run_matches_default(self):
        program = analyze(SRC, strict=True)
        assert not program.degraded
        assert program.result.describe(
            program.ssa_name("x", "L1")
        ).startswith("(L1, 0,")


class TestSsaNameRegression:
    """``ssa_name`` raises MissingPhiError, never a bare KeyError crash."""

    def test_missing_variable_raises_missing_phi(self):
        program = analyze(SRC)
        with pytest.raises(MissingPhiError):
            program.ssa_name("nosuch", "L1")

    def test_missing_header_raises_missing_phi(self):
        program = analyze(SRC)
        with pytest.raises(MissingPhiError):
            program.ssa_name("i", "L999")

    def test_still_catchable_as_keyerror(self):
        program = analyze(SRC)
        with pytest.raises(KeyError):
            program.ssa_name("nosuch", "L1")

    def test_degraded_program_lookup_degrades_not_crashes(self):
        with injecting(FaultPlan(points={"frontend.parse"})):
            program = analyze(SRC)
        with pytest.raises(MissingPhiError):
            program.ssa_name("i", "L1")


class TestClosedFormGuards:
    def test_fit_polynomial_none_on_oversized_system(self):
        from repro.resilience.budget import AnalysisBudget, budgeted
        from repro.symbolic.closedform import ClosedForm

        values = [0, 1, 4, 9, 16]
        assert ClosedForm.fit_polynomial(values) is not None
        with budgeted(AnalysisBudget(max_matrix_dim=2)):
            assert ClosedForm.fit_polynomial(values) is None

    def test_fit_none_on_oversized_mixed_system(self):
        from repro.resilience.budget import AnalysisBudget, budgeted
        from repro.symbolic.closedform import ClosedForm

        values = [1, 3, 7]  # degree 1 + one geometric base: a 3x3 system
        with budgeted(AnalysisBudget(max_matrix_dim=2)):
            assert ClosedForm.fit(values, degree=1, bases=[2]) is None

    def test_singular_matrix_degrades_not_raises(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, collecting
        from repro.symbolic import closedform as cf
        from repro.symbolic.rational import Matrix, MatrixError

        def singular(self):
            raise MatrixError("singular matrix")

        monkeypatch.setattr(Matrix, "inverse", singular)
        with collecting(MetricsRegistry()) as registry:
            assert cf.ClosedForm.fit_polynomial([0, 1, 4]) is None
        assert registry.snapshot()["counters"]["closedform.degraded"] == 1


class TestReportSurfacing:
    def test_report_shows_resilience_section(self):
        from repro.report import format_report

        with injecting(FaultPlan(points={"classify.loop"})):
            program = analyze(SRC)
        text = format_report(program)
        assert "== resilience ==" in text
        assert "[RES501]" in text
        assert "[degraded]" in text  # the loop header line is flagged

    def test_clean_report_has_no_resilience_section(self):
        from repro.report import format_report

        text = format_report(analyze(SRC))
        assert "== resilience ==" not in text

    def test_lint_driver_publishes_res_diagnostics(self):
        from repro.diagnostics.driver import lint_source

        with injecting(FaultPlan(points={"classify.loop"})):
            findings = lint_source(SRC, execution=False)
        assert any(d.code == "RES501" for d in findings)
