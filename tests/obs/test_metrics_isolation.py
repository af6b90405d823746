"""Per-input metrics scoping: ``isolated()`` and the multi-input CLI loops.

Regression test for metrics-registry state bleed: one ``observing()``
context wrapped around a multi-input invocation used to accumulate every
input's counters into the single registry, so any per-input snapshot
(run-log records, per-target counters) taken after the first input
reported cumulative numbers.
"""

import json

import pytest

from tests.conftest import analyze_src

from repro.obs import observing
from repro.obs.metrics import MetricsRegistry, collecting, isolated
from repro.obs.runlog import recording

ONE_LOOP = """
L1: for i = 1 to n do
  A[i] = B[i] + 1
endfor
"""

TWO_LOOPS = """
L1: for i = 1 to n do
  A[i] = B[i] + 1
endfor
L2: for j = 1 to n do
  C[j] = A[j] * 2
endfor
"""


class TestIsolated:
    def test_noop_without_parent_registry(self):
        with isolated() as inner:
            assert inner is None

    def test_fresh_registry_per_block_merged_into_parent(self):
        with collecting() as parent:
            with isolated() as first:
                first.inc("classify.loops", 2)
            with isolated() as second:
                second.inc("classify.loops", 3)
                assert second.counters["classify.loops"].value == 3  # no bleed
        assert parent.counters["classify.loops"].value == 5

    def test_merge_combines_all_metric_kinds(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.inc("c", 1)
        child.inc("c", 2)
        child.set_gauge("g", 7)
        child.observe("h", 1.0)
        child.observe("h", 3.0)
        parent.observe("h", 2.0)
        parent.merge(child)
        assert parent.counters["c"].value == 3
        assert parent.gauges["g"].value == 7
        histogram = parent.histograms["h"]
        assert histogram.count == 3
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_gauge_not_overwritten_by_unset_child(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        parent.set_gauge("g", 5)
        child.gauge("g")  # created but never set
        parent.merge(child)
        assert parent.gauges["g"].value == 5


class TestNoBleedAcrossInputs:
    def test_per_input_counters_are_not_cumulative(self):
        seen = []
        with observing() as obs:
            for source, expected in ((ONE_LOOP, 1), (TWO_LOOPS, 2), (ONE_LOOP, 1)):
                with isolated() as inner:
                    analyze_src(source)
                seen.append((inner.counters["classify.loops"].value, expected))
        assert all(value == expected for value, expected in seen)
        # the parent still accumulated the invocation-wide total
        assert obs.metrics.counters["classify.loops"].value == 4

    def test_runlog_records_carry_per_input_counters(self, tmp_path):
        with observing():
            with recording(str(tmp_path / "runs")) as writer:
                for source in (ONE_LOOP, TWO_LOOPS):
                    with isolated():
                        analyze_src(source)
        with open(writer.path) as handle:
            first, second = [json.loads(line) for line in handle]
        assert first["counters"]["classify.loops"] == 1
        assert second["counters"]["classify.loops"] == 2  # not 3


class TestCliLoops:
    def test_corpus_report_records_are_isolated(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "one.loop").write_text(ONE_LOOP)
        (corpus / "two.loop").write_text(TWO_LOOPS)
        store = tmp_path / "runs"
        assert main([str(corpus), "--runlog", str(store)]) == 0
        capsys.readouterr()
        records = []
        for run_file in store.iterdir():
            with open(run_file) as handle:
                records += [json.loads(line) for line in handle]
        by_origin = {r["origin"]: r for r in records}
        assert len(by_origin) == 2
        one = next(r for o, r in by_origin.items() if o.endswith("one.loop"))
        two = next(r for o, r in by_origin.items() if o.endswith("two.loop"))
        assert one["counters"]["classify.loops"] == 1
        assert two["counters"]["classify.loops"] == 2

    def test_corpus_report_phases_are_per_input(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "one.loop").write_text(ONE_LOOP)
        (corpus / "two.loop").write_text(TWO_LOOPS)
        store = tmp_path / "runs"
        trace = tmp_path / "trace.json"
        argv = [str(corpus), "--runlog", str(store), "--trace", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        (run_file,) = store.iterdir()
        with open(run_file) as handle:
            records = [json.loads(line) for line in handle]
        with open(trace) as handle:
            parses = [
                entry["dur"] / 1e6
                for entry in json.load(handle)["traceEvents"]
                if entry.get("name") == "frontend.parse"
            ]
        assert len(records) == len(parses) == 2
        for record, parse_s in zip(records, parses):
            # pipeline.analyze ends after its own capture, so no record
            # may carry it (the next input's record used to)
            assert "pipeline.analyze" not in record["phases"]
            assert record["phases"]["frontend.parse"] == pytest.approx(
                parse_s, abs=1e-9
            )
