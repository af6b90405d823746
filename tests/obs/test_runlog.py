"""The flight recorder: run-log records, gating, and the pipeline hook."""

import json
import os

from tests.conftest import analyze_src

from repro.obs import metrics, observing
from repro.obs import runlog
from repro.obs.runlog import (
    RUNLOG_SCHEMA,
    RunLogWriter,
    build_record,
    capture,
    recording,
    source_fingerprint,
)
from repro.resilience import FaultPlan, injecting

SERIAL = """
L1: for i = 1 to n do
  A[i] = A[i-1] + 1
endfor
"""

DOALL = """
L1: for i = 1 to n do
  A[i] = B[i] + 1
endfor
"""


def read_store(writer):
    with open(writer.path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestGating:
    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        program = analyze_src(DOALL)
        assert capture(program) is None
        assert not os.path.exists(str(tmp_path / ".repro"))

    def test_recording_captures_each_analyze(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            analyze_src(DOALL)
            analyze_src(SERIAL)
        assert writer.records_written == 2
        assert len(read_store(writer)) == 2

    def test_gate_restored_after_context(self, tmp_path):
        with recording(str(tmp_path / "runs")):
            pass
        assert runlog._RECORDING is False
        assert capture(analyze_src(DOALL)) is None

    def test_origin_labels_records(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            with runlog.origin("examples/x.loop"):
                analyze_src(DOALL)
            analyze_src(SERIAL)
        records = read_store(writer)
        assert records[0]["origin"] == "examples/x.loop"
        assert records[1]["origin"] is None


class TestCrashSafeAppend:
    def test_each_record_is_one_complete_line(self, tmp_path):
        writer = RunLogWriter(str(tmp_path / "runs"))
        writer.write({"schema": RUNLOG_SCHEMA, "n": 1})
        writer.write({"schema": RUNLOG_SCHEMA, "n": 2})
        with open(writer.path) as handle:
            text = handle.read()
        assert text.endswith("\n")
        assert [json.loads(line)["n"] for line in text.splitlines()] == [1, 2]

    def test_append_does_not_clobber_existing_records(self, tmp_path):
        first = RunLogWriter(str(tmp_path / "runs"), run_id="r1")
        first.write({"schema": RUNLOG_SCHEMA, "n": 1})
        second = RunLogWriter(str(tmp_path / "runs"), run_id="r1")
        second.write({"schema": RUNLOG_SCHEMA, "n": 2})
        assert len(read_store(first)) == 2

    def test_serialization_failure_writes_nothing(self, tmp_path):
        # the record is serialized *before* the file is opened, so a
        # bad record cannot leave a torn half-line behind
        writer = RunLogWriter(str(tmp_path / "runs"))
        writer.write({"schema": RUNLOG_SCHEMA, "n": 1})
        circular = {}
        circular["self"] = circular
        try:
            writer.write(circular)
        except ValueError:
            pass
        assert len(read_store(writer)) == 1
        assert writer.records_written == 1


class TestRecordShape:
    def test_fields(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            analyze_src(SERIAL)
        (record,) = read_store(writer)
        assert record["schema"] == RUNLOG_SCHEMA
        assert record["fingerprint"] == source_fingerprint(SERIAL)
        assert record["parallel"] == {"doall": 0, "serial": 1, "undecided": 0}
        assert record["blocked"] == {"siv": 1}
        (loop,) = record["loops"]
        assert loop["header"] == "L1"
        assert loop["parallel"] is False
        assert loop["blocked_by"]
        assert loop["blocked_by"][0]["reason"] == "siv"
        assert loop["trip"]["count"] == "n"
        assert loop["class_counts"]
        assert record["degradations"] == []

    def test_doall_record(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            analyze_src(DOALL)
        (record,) = read_store(writer)
        assert record["parallel"]["doall"] == 1
        assert record["blocked"] == {}
        assert record["loops"][0]["blocked_by"] == []

    def test_ranges_and_invariants_sections(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            analyze_src(SERIAL, ranges=True, invariants=True)
        (record,) = read_store(writer)
        assert record["ranges"]["values"] > 0
        assert record["invariants"] is not None

    def test_degraded_program_still_recorded(self, tmp_path):
        with recording(str(tmp_path / "runs")) as writer:
            with injecting(FaultPlan(points={"classify.loop"})):
                analyze_src(DOALL)
        (record,) = read_store(writer)
        assert record["degradations"]
        assert record["degradations"][0]["phase"]

    def test_phases_and_counters_under_observation(self, tmp_path):
        scopes = []
        with observing() as obs:
            with recording(str(tmp_path / "runs")) as writer:
                for _ in range(2):
                    with metrics.isolated() as scope:
                        analyze_src(DOALL)
                    scopes.append(scope)
        first, second = read_store(writer)
        # each record reads its own input's scope: its parse time, not a
        # running total over the invocation
        for record, scope in zip((first, second), scopes):
            parse = scope.histograms["time.frontend.parse_s"]
            assert parse.count == 1
            assert record["phases"]["frontend.parse"] == round(parse.total, 9)
            assert record["counters"]["classify.loops"] == 1
        total = obs.metrics.histograms["time.frontend.parse_s"]
        assert total.count == 2

    def test_overhead_self_profiling(self, tmp_path):
        with observing() as obs:
            with recording(str(tmp_path / "runs")):
                analyze_src(DOALL)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["obs.overhead.runlog.records"] == 1
        assert snapshot["gauges"]["obs.overhead.runlog_s"] >= 0


class TestFingerprint:
    def test_stable_and_distinct(self):
        assert source_fingerprint(DOALL) == source_fingerprint(DOALL)
        assert source_fingerprint(DOALL) != source_fingerprint(SERIAL)

    def test_ir_fallback(self):
        program = analyze_src(DOALL)
        fp = source_fingerprint(None, program.ssa)
        assert fp.startswith("ir-")
        assert fp == source_fingerprint(None, program.ssa)

    def test_unknown(self):
        assert source_fingerprint(None, None) == "unknown"


class TestResilience:
    def test_capture_error_degrades_to_error_record(self, tmp_path):
        writer = RunLogWriter(str(tmp_path / "runs"))
        with recording(writer=writer):
            record = capture(object())  # not an AnalyzedProgram
        assert "error" in record
        (stored,) = read_store(writer)
        assert stored["schema"] == RUNLOG_SCHEMA
        assert "error" in stored

    def test_build_record_is_json_serializable(self):
        program = analyze_src(SERIAL, ranges=True, invariants=True)
        record = build_record(program, "test")
        json.dumps(record)  # must not raise
