"""Observability: pipeline tracing, metrics, and classification provenance.

Three always-available, zero-cost-when-disabled layers over the pipeline:

* **span tracing** (:mod:`repro.obs.trace`) -- nested, timed spans for
  every pipeline phase plus per-SCR classification events, activated with
  :func:`tracing`;
* **metrics** (:mod:`repro.obs.metrics`) -- counters / gauges / histograms
  (class distribution, Tarjan graph sizes, Expr memo hit rates, matrix
  inversions, sanitizer checkpoints, per-phase timings), activated with
  :func:`collecting`;
* **provenance** (:mod:`repro.obs.provenance` / :mod:`repro.obs.explain`)
  -- every classification records the algebra rule and operand classes
  that produced it, rendered by :func:`explain` as a derivation chain.

Built on top of those three, the second generation:

* **why-not-DOALL attribution** (:mod:`repro.obs.attribution`) -- every
  serial parallelism verdict carries structured :class:`BlockReason`
  chains (blocking dependence pair, subscript kinds, direction vector,
  whether a ⊤ trip range or an Unknown classification blocked
  refinement), surfaced in reports, ``explain("L1")``, and the
  ``dep.blocked.<reason>`` metric family;
* **the flight recorder** (:mod:`repro.obs.runlog`) -- :func:`recording`
  appends one structured JSON record per analyzed function to a
  ``.repro/runs`` store;
* **corpus statistics** (:mod:`repro.obs.aggregate`, ``repro stats``) --
  folds a store into class-distribution histograms, attribution tables,
  degradation rollups, and p50/p99 phase latencies;
* **Prometheus export** (:mod:`repro.obs.promexport`) --
  :func:`prometheus_text` renders a registry in text exposition format.

Quick start::

    from repro import analyze
    from repro.obs import observing, explain
    from repro.obs.export import write_chrome, write_metrics

    with observing() as obs:
        program = analyze(source)
    write_chrome(obs.tracer, "trace.json")      # chrome://tracing
    write_metrics(obs.metrics, "metrics.json")
    print(explain(program, "i"))                # derivation chain

``SPAN_NAMES``, ``EVENT_NAMES``, ``METRIC_NAMES`` and ``RULE_NAMES`` are
the authoritative catalogues of everything the built-in instrumentation
may emit (documented one-for-one in ``docs/OBSERVABILITY.md``; the
doc-sync test enforces both directions).  Metric names ending in ``.``
are prefixes for families with dynamic suffixes (classification class
names, span names).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple, Optional

from repro.obs import aggregate as _aggregate_module  # noqa: F401 - submodule
from repro.obs.attribution import REASON_SLUGS, BlockReason, why_not_doall
from repro.obs.explain import explain, explain_lines
from repro.obs.export import (
    chrome_trace,
    jsonl_lines,
    metrics_json,
    validate_chrome_trace,
    write_chrome,
    write_jsonl,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry, collecting, isolated
from repro.obs.promexport import prometheus_text, write_prometheus
from repro.obs.provenance import Provenance, provenance_of, remember
from repro.obs.runlog import RUNLOG_SCHEMA, RunLogWriter, capture, origin, recording
from repro.obs.trace import Tracer, event, span, traced, tracing

#: every span name the built-in instrumentation can open
SPAN_NAMES = frozenset(
    {
        "pipeline.analyze",
        "pipeline.optimize",
        "frontend.parse",
        "frontend.lower",
        "pyfront.lower",
        "analysis.loop-simplify",
        "ssa.construct",
        "scalar.sccp",
        "scalar.simplify",
        "scalar.gvn",
        "scalar.copyprop",
        "scalar.dce",
        "classify",
        "classify.loop",
        "dependence.graph",
        "dependence.test",
        "transform.strength-reduce",
        "transform.ivsubst",
        "transform.licm",
        "transform.peel",
        "transform.normalize",
        "transform.unroll",
        "trace.target",
        "ranges",
        "invariants",
        "service.request",
    }
)

#: every event name the built-in instrumentation can emit
EVENT_NAMES = frozenset(
    {
        "classify.scr",
        "sanitizer.checkpoint",
        "resilience.degraded",
        "service.retry",
    }
)

#: every derivation-rule name provenance records / ``--explain`` prints:
#: ``algebra.*`` for per-operator classification and the axioms,
#: ``scr.*`` for the cyclic-SCR constructions of sections 4.1-4.4
RULE_NAMES = frozenset(
    {
        # axioms (operand classification)
        "algebra.const",
        "algebra.loop-invariant",
        "algebra.top-level-invariant",
        # per-operator rules (one per instruction kind)
        "algebra.copy",
        "algebra.neg",
        "algebra.phi-merge",
        "algebra.load",
        "algebra.compare",
        "algebra.store",
        "algebra.exit-value",
        "algebra.add",
        "algebra.sub",
        "algebra.mul",
        "algebra.div",
        "algebra.exp",
        "algebra.mod",
        # cyclic-SCR constructions
        "scr.wrap-around",
        "scr.invariant-cycle",
        "scr.linear-recurrence",
        "scr.polynomial-recurrence",
        "scr.flip-flop",
        "scr.geometric-recurrence",
        "scr.member",
        "scr.periodic-family",
        "scr.monotonic-family",
        "scr.monotonic-member",
        "scr.branch-dependent",
        "scr.branch-member",
    }
)

#: metric names (exact, plus ``...`` families whose suffix is dynamic:
#: ``classify.class.<Classification>`` and ``time.<span>_s``)
METRIC_NAMES = frozenset(
    {
        "classify.class.",  # family: one counter per classification class
        "classify.loops",
        "classify.names",
        "tarjan.nodes",
        "tarjan.edges",
        "tarjan.scrs",
        "expr.cache.sym.hits",
        "expr.cache.sym.misses",
        "expr.cache.subst.hits",
        "expr.cache.subst.misses",
        "expr.cache.const.hits",
        "expr.cache.const.misses",
        "expr.cache.size",
        "closedform.matrix_inversions",
        "closedform.degraded",
        "sanitizer.checkpoints",
        "scalar.rounds",
        "dependence.pairs",
        "resilience.degraded.",  # family: one counter per degraded phase
        "resilience.faults.injected",
        "ranges.values",
        "ranges.nontrivial",
        "ranges.loops",
        "ranges.trips.bounded",
        "ranges.fixpoint.insts",
        "ranges.fixpoint.visits",
        "ranges.fixpoint.narrowed",
        "invariants.loops",
        "invariants.paths",
        "invariants.truncated",
        "invariants.pruned_paths",
        "invariants.equalities",
        "invariants.affine_loops",
        "invariants.range_refinements",
        "interval.cache.bound.hits",
        "interval.cache.bound.misses",
        "interval.cache.point.hits",
        "interval.cache.point.misses",
        "interval.cache.size",
        "dep.blocked.",  # family: one counter per why-not-DOALL reason slug
        # the real-Python frontend (repro pylint)
        "pyfront.functions",
        "pyfront.degraded",
        "obs.overhead.",  # family: the observability layer's own cost
        "time.",  # family: one histogram per span name
        # the analysis service (repro serve)
        "service.connections",
        "service.requests",
        "service.requests.degraded",
        "service.requests.failed",
        "service.errors",
        "service.retries",
        "service.latency",
        "service.timeouts",
        "service.worker.crashes",
        "service.worker.respawns",
        "service.cache.hits",
        "service.cache.misses",
        "service.cache.evictions",
        "service.cache.errors",
        "service.runlog.errors",
        "service.idle_timeouts",
        "service.responses.truncated",
    }
)


class Observation(NamedTuple):
    """The tracer + registry pair of one :func:`observing` context."""

    tracer: Tracer
    metrics: MetricsRegistry


@contextmanager
def observing(
    tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None
):
    """Activate tracing *and* metrics collection together."""
    with tracing(tracer) as active_tracer:
        with collecting(metrics) as active_metrics:
            yield Observation(active_tracer, active_metrics)


def known_metric(name: str) -> bool:
    """True when ``name`` is in the catalogue (exact or family prefix)."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in METRIC_NAMES if prefix.endswith("."))


__all__ = [
    "BlockReason",
    "EVENT_NAMES",
    "METRIC_NAMES",
    "MetricsRegistry",
    "Observation",
    "Provenance",
    "REASON_SLUGS",
    "RULE_NAMES",
    "RUNLOG_SCHEMA",
    "RunLogWriter",
    "SPAN_NAMES",
    "Tracer",
    "capture",
    "chrome_trace",
    "collecting",
    "event",
    "explain",
    "explain_lines",
    "isolated",
    "jsonl_lines",
    "known_metric",
    "metrics_json",
    "observing",
    "origin",
    "prometheus_text",
    "provenance_of",
    "recording",
    "remember",
    "span",
    "traced",
    "tracing",
    "validate_chrome_trace",
    "why_not_doall",
    "write_chrome",
    "write_jsonl",
    "write_metrics",
    "write_prometheus",
]
