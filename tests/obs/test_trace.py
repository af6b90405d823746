"""Span tracing: nesting, ordering, and the zero-cost disabled path."""

import pytest

from repro.obs.metrics import collecting
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    active,
    event,
    span,
    traced,
    tracing,
)


class TestSpanNesting:
    def test_spans_record_depth_and_parent(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        outer, inner, inner2 = tracer.spans
        assert [s.name for s in tracer.spans] == ["outer", "inner", "inner2"]
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == outer.index
        assert inner2.depth == 1 and inner2.parent == outer.index

    def test_start_order_is_entry_order(self):
        with tracing() as tracer:
            with span("a"):
                with span("b"):
                    pass
            with span("c"):
                pass
        assert [s.name for s in tracer.in_start_order()] == ["a", "b", "c"]

    def test_timestamps_are_monotone_and_nested(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        outer, inner = tracer.spans
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_open_depth_balances(self):
        with tracing() as tracer:
            assert tracer.open_depth() == 0
            with span("s"):
                assert tracer.open_depth() == 1
            assert tracer.open_depth() == 0

    def test_span_survives_exception(self):
        with tracing() as tracer:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        assert tracer.open_depth() == 0
        assert tracer.spans[0].end_ns is not None

    def test_events_attach_to_enclosing_span(self):
        with tracing() as tracer:
            with span("outer"):
                event("tick", n=1)
        record = tracer.events[0]
        assert record.name == "tick"
        assert record.attrs == {"n": 1}
        assert record.parent == tracer.spans[0].index

    def test_phase_totals_sum_per_name(self):
        with tracing() as tracer, collecting() as registry:
            for _ in range(3):
                with span("phase"):
                    pass
        totals = registry.span_totals()
        assert set(totals) == {"phase"}
        assert registry.histograms["time.phase_s"].count == 3
        assert totals["phase"] == pytest.approx(
            sum(s.duration_ns for s in tracer.spans) / 1e9
        )


class TestTracedDecorator:
    def test_traced_records_one_span(self):
        @traced("unit.phase")
        def fn(x):
            return x + 1

        with tracing() as tracer:
            assert fn(1) == 2
        assert [s.name for s in tracer.spans] == ["unit.phase"]
        assert fn.__traced_span__ == "unit.phase"

    def test_traced_closes_span_on_exception(self):
        @traced("unit.raises")
        def fn():
            raise RuntimeError("boom")

        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                fn()
        assert tracer.open_depth() == 0

    def test_traced_is_transparent_when_disabled(self):
        @traced("unit.phase")
        def fn(x):
            return x * 2

        assert fn(21) == 42


class TestDisabledZeroCost:
    def test_no_tracer_active_by_default(self):
        assert active() is None

    def test_span_returns_the_shared_null_singleton(self):
        # the disabled hot path must not allocate: every disabled span()
        # call returns the *same* object
        assert span("anything") is NULL_SPAN
        assert span("other", k=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with span("ignored") as record:
            assert record is None

    def test_event_is_noop_when_disabled(self):
        event("ignored", n=1)  # must not raise, records nowhere

    def test_nothing_recorded_outside_context(self):
        tracer = Tracer()
        with tracing(tracer):
            pass
        with span("after"):
            event("after")
        assert tracer.spans == []
        assert tracer.events == []

    def test_context_restores_previous_tracer(self):
        with tracing() as outer:
            with tracing() as inner:
                assert active() is inner
            assert active() is outer
        assert active() is None


class TestSpanTimeHistograms:
    def test_end_feeds_time_histogram_into_active_registry(self):
        with collecting() as registry:
            with tracing():
                with span("phase.x"):
                    pass
        histogram = registry.histograms["time.phase.x_s"]
        assert histogram.count == 1
        assert histogram.total >= 0.0

    def test_no_histograms_without_collecting(self):
        with tracing() as tracer:
            with span("phase.x"):
                pass
        assert tracer.spans[0].end_ns is not None  # still traced fine
