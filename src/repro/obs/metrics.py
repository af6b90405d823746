"""The metrics registry: counters, gauges, and histograms.

Collection follows the same pay-for-use contract as span tracing
(:mod:`repro.obs.trace`): a module-level ``_COLLECTING`` flag mirrors
whether any :func:`collecting` context is live, so every emission helper
(:func:`inc`, :func:`gauge`, :func:`observe`) is a no-op costing one
module attribute read when collection is off.  The context variable
holding the active registry remains the source of truth when the flag is
set; the mirror is per-process, not per-thread (the same trade the
expression-budget cap in :mod:`repro.resilience.budget` makes).

What the pipeline records (see ``docs/OBSERVABILITY.md`` for the full
name catalogue):

* ``classify.class.<Name>`` -- how many SSA names landed in each
  classification class (the paper's table-2 distribution);
* ``tarjan.nodes`` / ``tarjan.edges`` / ``tarjan.scrs`` -- the
  :class:`~repro.core.tarjan.TraversalStats` totals;
* ``expr.cache.*`` -- hash-consed :class:`~repro.symbolic.expr.Expr`
  memo-table hit/miss deltas;
* ``closedform.matrix_inversions`` -- coefficient-matrix inversions of the
  paper's fitting method;
* ``sanitizer.checkpoints`` -- pipeline-sanitizer checkpoints executed;
* ``scalar.rounds`` -- rounds of the scalar phase (at most three per
  function);
* ``time.<span>_s`` -- one histogram per span name, fed by the tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Dict, Optional, Union

Number = Union[int, float]

__all__ = [
    "CacheDelta",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "collecting",
    "gauge",
    "inc",
    "isolated",
    "observe",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observations: count / sum / min / max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MetricsRegistry:
    """Holds every metric collected during one :func:`collecting` context."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- get-or-create --------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram()
        return metric

    # -- emission shortcuts ---------------------------------------------
    def inc(self, name: str, amount: Number = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    # -- export ---------------------------------------------------------
    def span_totals(self) -> Dict[str, float]:
        """Total seconds per span name, from the ``time.<span>_s`` histograms."""
        return {
            name[len("time.") : -len("_s")]: histogram.total
            for name, histogram in self.histograms.items()
            if name.startswith("time.") and name.endswith("_s")
        }

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable view of everything collected so far."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                }
                for k, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add, gauges take the other side's last write, histograms
        combine their streaming summaries.  This is how per-input scoped
        registries (:func:`isolated`) roll up into the invocation-wide
        aggregate.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge_metric in other.gauges.items():
            if gauge_metric.value is not None:
                self.gauge(name).set(gauge_metric.value)
        for name, histogram in other.histograms.items():
            mine = self.histogram(name)
            mine.count += histogram.count
            mine.total += histogram.total
            for bound in (histogram.min, histogram.max):
                if bound is None:
                    continue
                if mine.min is None or bound < mine.min:
                    mine.min = bound
                if mine.max is None or bound > mine.max:
                    mine.max = bound


# ----------------------------------------------------------------------
# the context-var registry
# ----------------------------------------------------------------------
_REGISTRY: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)

#: module-level mirror of "is any collecting() context live?" -- the
#: single gate every disabled emission helper reads.
_COLLECTING: bool = False


def active() -> Optional[MetricsRegistry]:
    """The registry of the innermost :func:`collecting` context, or None."""
    return _REGISTRY.get()


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None):
    """Activate metrics collection for the dynamic extent of the block."""
    global _COLLECTING
    current = registry if registry is not None else MetricsRegistry()
    token = _REGISTRY.set(current)
    previous = _COLLECTING
    _COLLECTING = True
    try:
        yield current
    finally:
        _COLLECTING = previous
        _REGISTRY.reset(token)


@contextmanager
def isolated():
    """A fresh registry for one input, merged into the parent on exit.

    Multi-input CLI invocations (``repro lint``/``report``/``trace`` over
    a directory) wrap each input in this context so per-input snapshots
    -- run-log records, per-target counters -- do not accumulate state
    from earlier inputs, while the enclosing registry still sees the
    invocation-wide totals.  A no-op yielding ``None`` when collection is
    off.
    """
    parent = _REGISTRY.get()
    if parent is None:
        yield None
        return
    with collecting(MetricsRegistry()) as inner:
        try:
            yield inner
        finally:
            parent.merge(inner)


class CacheDelta:
    """A family of memo tables' hit/miss counts over one run.

    ``stats`` returns ``{table: {"hits", "misses", "size"}}``, the
    ``cache_stats()`` shape of :mod:`repro.symbolic.expr` and
    :mod:`repro.ranges.interval`, whose counts accumulate per process.
    :meth:`publish` counts ``<prefix>.<table>.hits``/``.misses`` since
    construction and gauges ``<prefix>.size``, the tables' total size.
    Takes no snapshot when collection is off.
    """

    __slots__ = ("prefix", "stats", "before")

    def __init__(self, prefix: str, stats: Callable[[], Dict[str, Dict[str, int]]]):
        self.prefix = prefix
        self.stats = stats
        self.before = stats() if active() is not None else None

    def publish(self) -> None:
        registry = active()
        if self.before is None or registry is None:
            return
        stats = self.stats()
        for table, counts in stats.items():
            for kind in ("hits", "misses"):
                registry.inc(
                    f"{self.prefix}.{table}.{kind}",
                    counts[kind] - self.before[table][kind],
                )
        registry.set_gauge(
            f"{self.prefix}.size", sum(counts["size"] for counts in stats.values())
        )


def inc(name: str, amount: Number = 1) -> None:
    """Bump a counter (no-op when collection is off)."""
    if not _COLLECTING:
        return
    registry = _REGISTRY.get()
    if registry is not None:
        registry.inc(name, amount)


def gauge(name: str, value: Number) -> None:
    """Set a gauge (no-op when collection is off)."""
    if not _COLLECTING:
        return
    registry = _REGISTRY.get()
    if registry is not None:
        registry.set_gauge(name, value)


def observe(name: str, value: Number) -> None:
    """Record one histogram observation (no-op when collection is off)."""
    if not _COLLECTING:
        return
    registry = _REGISTRY.get()
    if registry is not None:
        registry.observe(name, value)
