"""Isolation boundaries: scoped containment, strict mode, surfacing."""

import pytest

from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.trace import Tracer, tracing
from repro.resilience.errors import BudgetExceeded, ReproError
from repro.resilience.isolation import (
    DegradationLog,
    absorb,
    active_log,
    diagnostics_of,
    resilient,
    run_optional,
    strict_active,
    strict_errors,
)


class TestScoping:
    def test_no_context_by_default(self):
        assert active_log() is None
        assert not strict_active()

    def test_resilient_installs_a_log(self):
        with resilient() as log:
            assert active_log() is log
        assert active_log() is None

    def test_strict_disables_isolation_inside_resilient(self):
        with resilient() as log, strict_errors(True):
            assert strict_active()
            with pytest.raises(KeyError):
                absorb(KeyError("k"), "classify.loop")
        assert not log.records

    def test_resilient_accepts_an_external_log(self):
        log = DegradationLog()
        with resilient(log) as active:
            assert active is log


class TestAbsorb:
    def test_reraises_original_outside_resilient(self):
        error = KeyError("legacy")
        with pytest.raises(KeyError) as info:
            absorb(error, "classify.loop")
        assert info.value is error  # original type + identity preserved

    def test_reraises_in_strict_mode(self):
        with resilient(), strict_errors(True):
            with pytest.raises(ValueError):
                absorb(ValueError("x"), "classify.loop")

    def test_abort_policy_always_raises(self):
        from repro.frontend.lexer import FrontendError

        with resilient():
            with pytest.raises(FrontendError):
                absorb(FrontendError("bad input", 1, 1), "frontend")

    def test_degrade_policy_records(self):
        with resilient() as log:
            record = absorb(KeyError("k"), "classify.loop", scope="L1")
        assert record is log.records[0]
        assert record.phase == "classify.loop"
        assert record.code == "internal-error"
        assert record.scope == "L1"
        assert record.action == "degraded"
        assert record.diag_code == "RES501"

    def test_budget_errors_map_to_res503(self):
        with resilient() as log:
            absorb(BudgetExceeded("out of terms", code="budget-expr-terms"),
                   "classify.loop")
        assert log.records[0].diag_code == "RES503"

    def test_repro_error_phase_wins_over_boundary_phase(self):
        with resilient() as log:
            absorb(ReproError("x", phase="closedform.fit"), "classify.loop")
        assert log.records[0].phase == "closedform.fit"


class TestRunOptional:
    def test_success_passes_through(self):
        with resilient() as log:
            assert run_optional("phase", lambda: 42) == 42
        assert not log.records

    def test_failure_skips_and_returns_default(self):
        with resilient() as log:
            result = run_optional(
                "dependence.graph", lambda: 1 // 0, default="dflt"
            )
        assert result == "dflt"
        assert log.records[0].action == "skipped"
        assert log.records[0].diag_code == "RES502"

    def test_retry_policy_error_is_skipped_without_a_rerun(self):
        # the analysis is deterministic: even the code the server
        # re-dispatches (a worker crash) runs once in-process
        calls = []

        def crashing():
            calls.append(1)
            raise ReproError("gone", code="worker-crash")

        with resilient() as log:
            assert run_optional("scalar.gvn", crashing, default=3) == 3
        assert len(calls) == 1
        assert [r.action for r in log.records] == ["skipped"]
        assert log.records[0].diag_code == "RES502"

    def test_outside_resilient_reraises(self):
        with pytest.raises(ZeroDivisionError):
            run_optional("phase", lambda: 1 // 0)


class TestSurfacing:
    def test_record_increments_metric_and_emits_event(self):
        with collecting(MetricsRegistry()) as registry, \
                tracing(Tracer()) as tracer:
            with resilient() as log:
                log.record("classify.loop", "internal-error", "boom",
                           scope="L1")
        counters = registry.snapshot()["counters"]
        assert counters["resilience.degraded.classify.loop"] == 1
        events = [e for e in tracer.events if e.name == "resilience.degraded"]
        assert len(events) == 1
        assert events[0].attrs["phase"] == "classify.loop"
        assert events[0].attrs["scope"] == "L1"

    def test_diagnostics_of_publishes_res_codes(self):
        with resilient() as log:
            absorb(KeyError("k"), "classify.loop", scope="L1")
            absorb(BudgetExceeded("b", code="budget-expr-terms"), "classify")
        collector = diagnostics_of(log.records)
        codes = sorted(d.code for d in collector)
        assert codes == ["RES501", "RES503"]
        # no origin of its own: the lint driver labels it with its target
        assert [d.origin for d in collector] == [None, None]
