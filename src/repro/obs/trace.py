"""Structured span tracing for the analysis pipeline.

The pipeline is instrumented with **spans** (named, nested, timed regions:
one per phase, per scalar pass, per transform, per classified loop) and
**instant events** (per-SCR classification decisions).  Instrumentation is
one line per site -- either ``@traced("phase.name")`` on the phase's entry
point or ``with span("phase.name"):`` around a region -- and is strictly
pay-for-use: a module-level ``_TRACING_ENABLED`` flag mirrors whether any
:func:`tracing` context is live, so a disabled hook is a single module
attribute read -- no context-var machinery at all (``span`` additionally
returns one shared no-op context manager, allocating nothing).  The
:class:`contextvars.ContextVar` holding the active tracer remains the
source of truth when the flag is set; the flag is only a fast
"definitely off" gate.  Like the expression-budget mirror in
:mod:`repro.resilience.budget`, the flag is per-process, not per-thread:
it matches the pipeline's one-analysis-at-a-time execution model, and a
thread outside the tracing context still falls through to the (``None``)
context-var and records nothing.

Usage::

    from repro.obs import tracing

    with tracing() as tracer:
        program = analyze(source)
    for record in tracer.in_start_order():
        print("  " * record.depth, record.name, record.duration_ns)

Timestamps come from :func:`time.perf_counter_ns` and are relative to the
tracer's creation, so exported traces always start near t=0.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "EventRecord",
    "SpanRecord",
    "Tracer",
    "active",
    "event",
    "span",
    "traced",
    "tracing",
]


class SpanRecord:
    """One finished (or still open) span.

    ``start_ns`` / ``end_ns`` are nanoseconds relative to the tracer epoch;
    ``depth`` is the nesting depth at entry (0 for top level); ``parent`` is
    the start-order index of the enclosing span (or ``None``).
    """

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "depth", "parent", "index")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        start_ns: int,
        depth: int,
        parent: Optional[int],
        index: int,
    ):
        self.name = name
        self.attrs = attrs
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.depth = depth
        self.parent = parent
        self.index = index

    @property
    def duration_ns(self) -> int:
        return (self.end_ns if self.end_ns is not None else self.start_ns) - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecord({self.name!r}, depth={self.depth}, dur={self.duration_ns}ns)"


class EventRecord:
    """One instant event (e.g. a single SCR classification decision)."""

    __slots__ = ("name", "attrs", "ts_ns", "depth", "parent")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        ts_ns: int,
        depth: int,
        parent: Optional[int],
    ):
        self.name = name
        self.attrs = attrs
        self.ts_ns = ts_ns
        self.depth = depth
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventRecord({self.name!r}, ts={self.ts_ns}ns)"


class Tracer:
    """Records spans and events for one observed region of execution."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._epoch = clock()
        self._stack: List[SpanRecord] = []
        self._all: List[SpanRecord] = []  # in start order
        self.events: List[EventRecord] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> SpanRecord:
        parent = self._stack[-1].index if self._stack else None
        record = SpanRecord(
            name,
            attrs or {},
            self._clock() - self._epoch,
            len(self._stack),
            parent,
            len(self._all),
        )
        self._all.append(record)
        self._stack.append(record)
        return record

    def end(self) -> SpanRecord:
        record = self._stack.pop()
        record.end_ns = self._clock() - self._epoch
        registry = _metrics_registry()
        if registry is not None:
            registry.observe(f"time.{record.name}_s", record.duration_ns / 1e9)
        return record

    def event(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> EventRecord:
        parent = self._stack[-1].index if self._stack else None
        record = EventRecord(
            name, attrs or {}, self._clock() - self._epoch, len(self._stack), parent
        )
        self.events.append(record)
        return record

    # -- inspection -----------------------------------------------------
    def in_start_order(self) -> List[SpanRecord]:
        """All spans (finished and open) in the order they were entered."""
        return list(self._all)

    @property
    def spans(self) -> List[SpanRecord]:
        """Finished spans, in start order."""
        return [record for record in self._all if record.end_ns is not None]

    def open_depth(self) -> int:
        return len(self._stack)


# ----------------------------------------------------------------------
# the context-var span stack
# ----------------------------------------------------------------------
_TRACER: ContextVar[Optional[Tracer]] = ContextVar("repro_obs_tracer", default=None)

#: module-level mirror of "is any tracing() context live?" -- the single
#: gate every disabled hook reads (the PR 4 module-mirror trick).
_TRACING_ENABLED: bool = False


def _metrics_registry():
    """The active metrics registry (lazy import to avoid a module cycle)."""
    from repro.obs import metrics

    return metrics.active()


def active() -> Optional[Tracer]:
    """The tracer of the innermost :func:`tracing` context, or ``None``."""
    return _TRACER.get()


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Activate span tracing for the dynamic extent of the block."""
    global _TRACING_ENABLED
    current = tracer if tracer is not None else Tracer()
    token = _TRACER.set(current)
    previous = _TRACING_ENABLED
    _TRACING_ENABLED = True
    try:
        yield current
    finally:
        _TRACING_ENABLED = previous
        _TRACER.reset(token)


class _NullSpan:
    """Shared no-op context manager returned by :func:`span` when disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_attrs")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> SpanRecord:
        return self._tracer.begin(self._name, self._attrs)

    def __exit__(self, *exc):
        self._tracer.end()
        return False


def span(name: str, **attrs: Any):
    """A context manager recording one span (no-op when tracing is off)."""
    if not _TRACING_ENABLED:
        return NULL_SPAN
    tracer = _TRACER.get()
    if tracer is None:
        return NULL_SPAN
    return _SpanContext(tracer, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Record one instant event (no-op when tracing is off)."""
    if not _TRACING_ENABLED:
        return
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.event(name, attrs)


def traced(name: str) -> Callable:
    """Decorator: run the function inside a span named ``name``.

    The one-line instrumentation hook for whole phases.  When no tracer is
    active the wrapper costs one module attribute read and falls straight
    through to the wrapped function.
    """

    def decorate(fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _TRACING_ENABLED:
                return fn(*args, **kwargs)
            tracer = _TRACER.get()
            if tracer is None:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        wrapper.__traced_span__ = name
        return wrapper

    return decorate
