"""The analysis flight recorder: persistent, append-only run logs.

Every analyzed function produces one structured JSON record -- class
distribution, per-loop verdicts with why-not-DOALL attribution chains,
degradations, range/invariant statistics, per-phase timings, a source
fingerprint -- appended as one line to a ``.repro/runs/<run-id>.jsonl``
store.  ``repro stats`` (:mod:`repro.obs.aggregate`) folds a store into
corpus-scale distributions.

Recording follows the same single-gate pay-for-use contract as tracing
and metrics: a module-level ``_RECORDING`` bool mirrors whether any
:func:`recording` context is live, so the :func:`capture` hook the
pipeline calls on every ``analyze()`` costs one module attribute read
when recording is off.  The context variable holding the active writer
remains the source of truth when the flag is set.

Self-profiling: every capture measures its own cost and publishes it as
the ``obs.overhead.runlog_s`` gauge plus an ``obs.overhead.runlog.records``
counter (when metrics collection is live), so the telemetry's own price
is visible in the same registry it serves.

Usage::

    from repro.obs import runlog

    with runlog.recording(".repro/runs") as writer:
        with runlog.origin("examples/foo.loop"):
            analyze(source)          # capture happens inside the pipeline
    print(writer.path, writer.records_written)
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics

__all__ = [
    "DEFAULT_STORE",
    "RUNLOG_SCHEMA",
    "RunLogWriter",
    "build_record",
    "capture",
    "degradation_rows",
    "loop_records",
    "merge_record",
    "new_record",
    "origin",
    "recording",
    "source_fingerprint",
    "source_lang",
]

#: bump when the record shape changes; ``repro stats`` validates it.
#: Schema 2 added ``source_lang`` (which frontend produced the IR);
#: aggregation still reads schema-1 files, defaulting the field.
RUNLOG_SCHEMA = 2

#: where run logs land unless the caller picks a directory
DEFAULT_STORE = os.path.join(".repro", "runs")


def source_fingerprint(source: Optional[str], function=None) -> str:
    """A short stable fingerprint of the analyzed input.

    The sha256 of the source text when available; otherwise a structural
    fingerprint of the IR (so re-submitted identical programs can be
    deduplicated / cache-keyed by later aggregation and serving layers).
    """
    if source is not None:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    if function is not None:
        shape = repr(sorted((b.label, len(b.instructions)) for b in function))
        return "ir-" + hashlib.sha256(shape.encode("utf-8")).hexdigest()[:14]
    return "unknown"


class RunLogWriter:
    """Appends one JSON record per line to a run file inside a store."""

    def __init__(self, directory: str = DEFAULT_STORE, run_id: Optional[str] = None):
        os.makedirs(directory, exist_ok=True)
        if run_id is None:
            run_id = "run-%s-%d" % (
                time.strftime("%Y%m%dT%H%M%S", time.gmtime()),
                os.getpid(),
            )
        self.directory = directory
        self.run_id = run_id
        self.path = os.path.join(directory, f"{run_id}.jsonl")
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record crash-safely.

        The line is serialized first and appended with a **single**
        ``os.write`` on an ``O_APPEND`` descriptor: a process killed
        mid-append (crashed worker, SIGKILLed server) can truncate at
        most the final line, never interleave two writers' records, and
        a serialization failure raises before any byte lands in the log.
        ``repro stats`` skips-and-counts the one possibly-torn tail line.
        """
        line = (
            json.dumps(record, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self.records_written += 1


# ----------------------------------------------------------------------
# the context-var writer + single-gate mirror
# ----------------------------------------------------------------------
_WRITER: ContextVar[Optional[RunLogWriter]] = ContextVar(
    "repro_obs_runlog", default=None
)
_ORIGIN: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_runlog_origin", default=None
)
_SOURCE_LANG: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_runlog_source_lang", default=None
)

#: module-level mirror of "is any recording() context live?" -- the single
#: gate the pipeline's capture hook reads when recording is off.
_RECORDING: bool = False


def active() -> Optional[RunLogWriter]:
    """The writer of the innermost :func:`recording` context, or None."""
    return _WRITER.get()


@contextmanager
def recording(
    directory: str = DEFAULT_STORE, writer: Optional[RunLogWriter] = None
):
    """Activate run-log recording for the dynamic extent of the block."""
    global _RECORDING
    current = writer if writer is not None else RunLogWriter(directory)
    token = _WRITER.set(current)
    previous = _RECORDING
    _RECORDING = True
    try:
        yield current
    finally:
        _RECORDING = previous
        _WRITER.reset(token)


@contextmanager
def origin(label: Optional[str]):
    """Label records captured inside the block with their input's origin."""
    token = _ORIGIN.set(label)
    try:
        yield
    finally:
        _ORIGIN.reset(token)


@contextmanager
def source_lang(label: Optional[str]):
    """Tag records captured inside the block with their source language.

    Frontends set this (e.g. ``"python"`` for :mod:`repro.pyfront`) so
    ``repro stats`` can aggregate mixed-language corpora per language;
    records captured outside any context default to ``"loop"``, the DSL.
    """
    token = _SOURCE_LANG.set(label)
    try:
        yield
    finally:
        _SOURCE_LANG.reset(token)


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
_DEGRADATION_FIELDS = ("phase", "code", "action", "scope", "diag_code", "message")


def degradation_rows(degradations) -> List[Dict[str, Any]]:
    """The JSON rows of a sequence of degradation records."""
    return [{key: getattr(d, key) for key in _DEGRADATION_FIELDS} for d in degradations]


def new_record(
    origin_label: Optional[str],
    function: str,
    fingerprint: str,
    degradations=(),
) -> Dict[str, Any]:
    """A record with no loops yet: the skeleton every record starts from.

    :func:`build_record` fills it from one analyzed program, a skip
    record of a function that never lowered leaves it empty, and a
    multi-function record folds its parts in with :func:`merge_record`.
    """
    return {
        "schema": RUNLOG_SCHEMA,
        "ts": time.time(),
        "origin": origin_label,
        "source_lang": _SOURCE_LANG.get() or "loop",
        "function": function,
        "fingerprint": fingerprint,
        "loops": [],
        "classes": {},
        "parallel": {"doall": 0, "serial": 0, "undecided": 0},
        "blocked": {},
        "degradations": degradation_rows(degradations),
        "ranges": None,
        "invariants": None,
    }


def _add_loop(record: Dict[str, Any], loop: Dict[str, Any]) -> None:
    """Append one loop record and count it in the record's rollups."""
    record["loops"].append(loop)
    classes = record["classes"]
    for kind, count in loop["class_counts"].items():
        classes[kind] = classes.get(kind, 0) + count
    parallel = record["parallel"]
    if loop["parallel"] is None:
        parallel["undecided"] += 1
    elif loop["parallel"]:
        parallel["doall"] += 1
    else:
        parallel["serial"] += 1
        blocked = record["blocked"]
        for blocker in loop["blocked_by"]:
            blocked[blocker["reason"]] = blocked.get(blocker["reason"], 0) + 1


def merge_record(record: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Fold another function's record into ``record``.

    Loops and degradations are appended; classes, parallel verdicts and
    blockers are summed.
    """
    for loop in part["loops"]:
        _add_loop(record, loop)
    record["degradations"].extend(part["degradations"])


def _loop_record(summary, verdict) -> Dict[str, Any]:
    class_counts: Dict[str, int] = {}
    classes: Dict[str, str] = {}
    for name, cls in summary.classifications.items():
        kind = type(cls).__name__
        class_counts[kind] = class_counts.get(kind, 0) + 1
        if not name.startswith("$"):
            classes[name] = cls.describe()
    trip = summary.trip
    record: Dict[str, Any] = {
        "header": summary.label,
        "depth": summary.loop.depth,
        "degraded": bool(summary.degraded),
        "trip": {
            "kind": trip.kind.value,
            "count": str(trip.count) if trip.count is not None else None,
            "constant": trip.constant(),
        },
        "graph_size": summary.graph_size,
        "scr_count": summary.scr_count,
        "class_counts": class_counts,
        "classes": classes,
    }
    if verdict is None:
        record["parallel"] = None
        record["blocked_by"] = []
    else:
        record["parallel"] = bool(verdict.parallelizable)
        record["blocked_by"] = [b.to_json() for b in verdict.blockers]
    return record


def loop_records(program) -> List[Dict[str, Any]]:
    """One record per loop of ``program``, outermost first, with its verdict.

    A loop's ``parallel`` is None when the dependence graph fails.
    """
    verdicts = {}
    if program.result.loops:
        try:
            verdicts = program.dependences()[1]
        except Exception:  # noqa: BLE001 - verdicts degrade to undecided
            pass
    return [
        _loop_record(summary, verdicts.get(summary.label))
        for summary in sorted(
            program.result.loops.values(), key=lambda s: (s.loop.depth, s.label)
        )
    ]


def _ranges_stats(result) -> Optional[Dict[str, Any]]:
    info = getattr(result, "ranges", None)
    if info is None:
        return None
    bounded = sum(
        1 for header in info.trips if info.trip_upper_bound(header) is not None
    )
    return {
        "degraded": bool(info.degraded),
        "values": len(info.values),
        "nontrivial": info.nontrivial(),
        "trips_bounded": bounded,
    }


def _invariant_stats(result) -> Optional[Dict[str, Any]]:
    info = getattr(result, "invariants", None)
    if info is None:
        return None
    return {
        "degraded": bool(info.degraded),
        "loops": len(info.path_summaries),
        "equalities": info.total(),
    }


def build_record(program, origin_label: Optional[str] = None) -> Dict[str, Any]:
    """The flight-recorder record of one analyzed program (JSON-ready).

    ``phases`` and ``counters`` come from the active metrics registry,
    so they cover exactly the input that registry scopes: callers that
    analyze several inputs give each its own
    :func:`repro.obs.metrics.isolated` scope.  A span still open at
    capture time (``pipeline.analyze`` around the capture itself) has
    not reached the registry and is in no record.
    """
    record = new_record(
        origin_label,
        program.ssa.name,
        source_fingerprint(program.source, program.ssa),
        program.degradations,
    )
    for loop in loop_records(program):
        _add_loop(record, loop)
    record["ranges"] = _ranges_stats(program.result)
    record["invariants"] = _invariant_stats(program.result)
    registry = _metrics.active()
    if registry is not None:
        record["phases"] = {
            name: round(total, 9)
            for name, total in registry.span_totals().items()
            if total > 0.0
        }
        record["counters"] = dict(
            sorted((k, c.value) for k, c in registry.counters.items())
        )
    return record


def capture(program) -> Optional[Dict[str, Any]]:
    """Record one analyzed program (the pipeline's per-function hook).

    Costs one module attribute read when no :func:`recording` context is
    live.  Never raises: a capture failure degrades to an error record so
    the flight recorder cannot break the analysis it observes.
    """
    if not _RECORDING:
        return None
    writer = _WRITER.get()
    if writer is None:
        return None
    started = time.perf_counter()
    origin_label = _ORIGIN.get()
    try:
        record = build_record(program, origin_label)
    except Exception as error:  # noqa: BLE001 - observability must not raise
        record = {
            "schema": RUNLOG_SCHEMA,
            "ts": time.time(),
            "origin": origin_label,
            "error": f"{type(error).__name__}: {error}",
        }
    try:
        writer.write(record)
    except OSError:
        return None
    elapsed = time.perf_counter() - started
    _metrics.gauge("obs.overhead.runlog_s", elapsed)
    _metrics.inc("obs.overhead.runlog.records")
    return record
