"""Observing the real pipeline: spans, events, metrics, cache stats."""

from repro.obs import (
    EVENT_NAMES,
    SPAN_NAMES,
    known_metric,
    observing,
)
from repro.obs.trace import tracing
from repro.symbolic import expr as expr_module
from tests.conftest import analyze_src

SOURCE = """
j = 1
iml = n
L14: for i = 1 to n do
  A[i] = A[iml] + 1
  j = j + i
  iml = i
endfor
"""


class TestObservedAnalyze:
    def test_spans_cover_the_pipeline_phases(self):
        with observing() as obs:
            analyze_src(SOURCE)
        names = {record.name for record in obs.tracer.spans}
        assert "pipeline.analyze" in names
        assert "frontend.parse" in names
        assert "ssa.construct" in names
        assert "classify" in names
        assert "classify.loop" in names

    def test_all_emitted_names_are_catalogued(self):
        with observing() as obs:
            analyze_src(SOURCE)
        span_names = {record.name for record in obs.tracer.spans}
        event_names = {record.name for record in obs.tracer.events}
        assert span_names <= SPAN_NAMES
        assert event_names <= EVENT_NAMES
        snapshot = obs.metrics.snapshot()
        for name in list(snapshot["counters"]) + list(snapshot["histograms"]):
            assert known_metric(name), f"unadvertised metric {name!r}"

    def test_nesting_pipeline_contains_classify(self):
        with observing() as obs:
            analyze_src(SOURCE)
        spans = obs.tracer.spans
        pipeline = [s for s in spans if s.name == "pipeline.analyze"][0]
        classify = [s for s in spans if s.name == "classify"][0]
        assert pipeline.start_ns <= classify.start_ns
        assert classify.end_ns <= pipeline.end_ns
        assert classify.depth > pipeline.depth

    def test_scr_events_carry_the_decisions(self):
        with observing() as obs:
            analyze_src(SOURCE)
        decisions = [e for e in obs.tracer.events if e.name == "classify.scr"]
        assert decisions
        classified = {}
        for record in decisions:
            classified.update(record.attrs["classes"])
        # the events carry the classifications; exporters render them
        assert classified["i.2"].describe() == "(L14, 1, 1)"
        assert any(e.attrs["cycle"] for e in decisions)

    def test_class_distribution_counters(self):
        with observing() as obs:
            analyze_src(SOURCE)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["classify.class.InductionVariable"] >= 2  # i and j families
        assert counters["classify.class.WrapAround"] >= 1  # iml
        assert counters["classify.loops"] == 1
        assert counters["tarjan.nodes"] > 0
        assert counters["tarjan.edges"] > 0
        assert counters["tarjan.scrs"] > 0

    def test_phase_time_histograms_recorded(self):
        with observing() as obs:
            analyze_src(SOURCE)
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["time.pipeline.analyze_s"]["count"] == 1
        assert histograms["time.classify_s"]["count"] >= 1

    def test_untraced_analyze_records_nothing(self):
        with observing() as obs:
            pass  # context open and closed; analysis runs outside it
        analyze_src(SOURCE)
        assert obs.tracer.spans == []
        assert obs.metrics.snapshot()["counters"] == {}


class TestExprCacheStats:
    def test_cache_stats_shape(self):
        stats = expr_module.cache_stats()
        assert set(stats) == {"sym", "subst", "const"}
        for table in stats.values():
            assert set(table) == {"hits", "misses", "size"}
            assert all(isinstance(v, int) for v in table.values())

    def test_stats_move_under_analysis(self):
        before = expr_module.cache_stats()
        analyze_src(SOURCE)
        after = expr_module.cache_stats()
        touched = sum(
            after[t]["hits"] + after[t]["misses"] - before[t]["hits"] - before[t]["misses"]
            for t in ("sym", "subst", "const")
        )
        assert touched > 0

    def test_observed_run_records_cache_deltas(self):
        with observing() as obs:
            analyze_src(SOURCE)
        counters = obs.metrics.snapshot()["counters"]
        cache_keys = [k for k in counters if k.startswith("expr.cache.")]
        assert cache_keys  # per-analyze deltas of the memo tables
        assert all(counters[k] >= 0 for k in cache_keys)

    def test_reset_cache_stats(self):
        analyze_src(SOURCE)
        expr_module.reset_cache_stats()
        stats = expr_module.cache_stats()
        assert all(t["hits"] == 0 and t["misses"] == 0 for t in stats.values())


class TestDescribeAllTopLevel:
    def test_top_level_invariants_are_reported(self):
        # regression: names defined outside every loop used to be dropped
        program = analyze_src("x = 5\ny = x + 2\nL1: for i = 1 to x do\n  A[i] = y\nendfor")
        table = program.describe_all()
        assert "i.2" in table  # loop names still present
        assert table.get("x.1") == "invariant x.1"
        assert table.get("y.1") == "invariant y.1"

    def test_loopless_program_still_reports(self):
        table = analyze_src("x = 1\ny = x + 1\nreturn y").describe_all()
        assert table  # previously empty: no loops meant no output at all
        assert any(name.startswith("x") for name in table)
