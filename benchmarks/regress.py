#!/usr/bin/env python3
"""Benchmark regression harness: measure, record, and compare.

The paper's headline performance claim (section 7) is that SSA-based
classification is *linear in the size of the SSA graph*.  This harness
turns that claim into a checked-in, machine-readable baseline:

* ``python -m benchmarks.regress --emit BENCH_0001.json`` measures the
  tracked workloads (wall time of classification, of the whole pipeline,
  graph size, and time per graph node) and writes them as JSON;
* ``python -m benchmarks.regress --check BENCH_0001.json`` re-measures and
  **fails (exit 1) when any tracked metric regresses more than the
  threshold** (default 1.5x) against the checked-in baseline.

Timing uses best-of-N (default 5) to suppress scheduler noise; the 1.5x
threshold leaves headroom for machine-to-machine variance while still
catching accidentally super-linear hot paths.

Schema v2 additionally records, per workload, a ``phases`` breakdown
(seconds per pipeline span, from one run under ``repro.obs`` tracing) and
a ``counters`` snapshot (classification distribution, Tarjan graph sizes,
Expr memo hits).  Both are informational: the tracked wall-time metrics
are still measured with observability off, and ``--check`` only compares
the metrics present in the *baseline*, so v1 baselines keep working.

Schema v3 adds the ``ranges_s`` tracked metric (wall time of
``repro.ranges.compute_ranges`` over the classified result) and runs the
observed pass with ``ranges=True`` so the ``ranges`` span appears in the
``phases`` breakdown.  v1/v2 baselines lack ``ranges_s`` and keep
passing ``--check`` unchanged (the comparison is baseline-driven).

Schema v4 measures ``pipeline_s`` **with ranges enabled**
(``analyze(source, ranges=True)``) -- the "ranges are free" claim is
that the full pipeline including value ranges now beats the old
pipeline without them -- and the observed run's ``counters`` pick up
the new ``ranges.fixpoint.*`` visit counters and ``interval.cache.*``
interning stats.  v1-v3 baselines keep passing ``--check`` unchanged
(v4 current numbers are compared against whatever metrics the baseline
recorded, and the only redefined metric, ``pipeline_s``, got *larger*
in scope -- a pass against an old baseline is conservative).

Schema v5 adds the ``invariants_s`` tracked metric (wall time of
``repro.invariants.compute_invariants`` over the classified result:
path enumeration, symbolic execution, and nullspace-based polynomial
invariant generation) and runs the observed pass with
``invariants=True`` so the ``invariants`` span appears in the
``phases`` breakdown and the ``invariants.*`` counters in ``counters``.
``pipeline_s`` keeps its v4 definition (``analyze(source,
ranges=True)``), so v4 baselines keep passing ``--check`` unchanged.

``--compare OLD.json NEW.json`` prints a per-workload percent-delta
table of two recorded baselines (no re-measuring) for the headline
metrics; ``--only SUBSTRING`` restricts ``--emit``/``--check`` to
matching workloads (the CI perf-smoke job uses it to keep the gate
fast).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.workloads import deep_chain_loop, mixed_class_loop, straightline_iv_loop
from repro.core.driver import classify_function
from repro.invariants import compute_invariants
from repro.obs import observing
from repro.pipeline import analyze
from repro.ranges import compute_ranges

SCHEMA_VERSION = 5

#: metrics compared by ``--check`` (lower is better for all of them)
TRACKED_METRICS = (
    "classify_s", "pipeline_s", "time_per_node_s", "ranges_s", "invariants_s"
)

#: structural metrics that must match *exactly* between baseline and current
EXACT_METRICS = ("graph_size",)


def workloads() -> List[Tuple[str, str]]:
    """The tracked (name, source) pairs.

    These are the B01 scaling families at their largest sizes -- the
    programs whose "time per node stays flat" assertion the paper's
    linearity claim rests on -- plus the mixed-class family that exercises
    every classification the paper defines.
    """
    return [
        ("straightline_iv_loop/64", straightline_iv_loop(64)),
        ("straightline_iv_loop/256", straightline_iv_loop(256)),
        ("deep_chain_loop/64", deep_chain_loop(64)),
        ("deep_chain_loop/128", deep_chain_loop(128)),
        ("mixed_class_loop/200", mixed_class_loop(1, 200)),
        ("mixed_class_loop/800", mixed_class_loop(1, 800)),
    ]


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def _observe_workload(source: str) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One traced + metered run: (seconds per span name, counter snapshot)."""
    with observing() as obs:
        analyze(source, ranges=True, invariants=True)
    phases = {name: round(total, 9) for name, total in obs.metrics.span_totals().items()}
    counters = obs.metrics.snapshot()["counters"]
    return phases, counters


def measure(repeats: int = 5, only: Optional[str] = None) -> Dict:
    """Measure every tracked workload; returns the JSON-serializable report.

    The tracked wall-time metrics are measured with observability *off*
    (the instrumented hot paths pay only their disabled-hook cost); the
    ``phases``/``counters`` breakdown comes from one extra observed run.
    ``only`` restricts measurement to workloads whose name contains it.
    """
    results: Dict[str, Dict] = {}
    for name, source in workloads():
        if only and only not in name:
            continue
        program = analyze(source)  # warm compile; classify_s times analysis only
        classify_s = _best_of(lambda: classify_function(program.ssa), repeats)
        pipeline_s = _best_of(
            lambda: analyze(source, ranges=True), max(3, repeats * 2 // 3)
        )
        result = classify_function(program.ssa)
        graph_size = sum(s.graph_size for s in result.loops.values())
        ranges_s = _best_of(lambda: compute_ranges(result), repeats)
        invariants_s = _best_of(lambda: compute_invariants(result), repeats)
        phases, counters = _observe_workload(source)
        results[name] = {
            "classify_s": classify_s,
            "pipeline_s": pipeline_s,
            "graph_size": graph_size,
            "ranges_s": ranges_s,
            "invariants_s": invariants_s,
            "time_per_node_s": classify_s / max(1, graph_size),
            "phases": phases,
            "counters": counters,
        }
    return {
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "python": platform.python_version(),
        "workloads": results,
    }


def compare(
    current: Dict, baseline: Dict, threshold: float = 1.5, only: Optional[str] = None
) -> List[str]:
    """Compare a fresh measurement against a baseline report.

    Returns a list of human-readable regression messages (empty = pass).
    Prints a per-workload ratio table to stdout as a side effect.
    ``only`` restricts the comparison to matching baseline workloads.
    """
    failures: List[str] = []
    base_workloads = {
        name: data
        for name, data in baseline.get("workloads", {}).items()
        if not only or only in name
    }
    cur_workloads = current.get("workloads", {})
    header = f"{'workload':>26} | " + " | ".join(f"{m:>16}" for m in TRACKED_METRICS)
    print(header)
    print("-" * len(header))
    for name, base in base_workloads.items():
        cur = cur_workloads.get(name)
        if cur is None:
            failures.append(f"{name}: workload missing from current measurement")
            continue
        cells = []
        for metric in TRACKED_METRICS:
            base_value = base.get(metric)
            cur_value = cur.get(metric)
            if not base_value or cur_value is None:
                cells.append(f"{'n/a':>16}")
                continue
            ratio = cur_value / base_value
            cells.append(f"{cur_value:>9.2e} {ratio:>5.2f}x")
            if ratio > threshold:
                failures.append(
                    f"{name}: {metric} regressed {ratio:.2f}x "
                    f"({base_value:.3e} -> {cur_value:.3e}, threshold {threshold}x)"
                )
        for metric in EXACT_METRICS:
            if metric in base and base[metric] != cur.get(metric):
                failures.append(
                    f"{name}: {metric} changed {base[metric]} -> {cur.get(metric)} "
                    "(structural metrics must be stable)"
                )
        print(f"{name:>26} | " + " | ".join(cells))
    return failures


#: metrics shown by ``--compare`` (the headline wall-time numbers)
DIFF_METRICS = ("pipeline_s", "classify_s", "ranges_s", "invariants_s")

#: counter families whose per-workload deltas ``--compare`` also reports
#: (work counters: a wall-time delta with a matching work-counter delta is
#: an algorithmic change, without one it is probably noise)
DIFF_COUNTER_PREFIXES = (
    "ranges.fixpoint.",
    "expr.cache.",
    "interval.cache.",
    "dependence.pairs",
    "tarjan.",
)


def _counter_delta_lines(old_counters: Dict, new_counters: Dict) -> List[str]:
    """Indented delta rows for the tracked counter families (changed only)."""
    lines: List[str] = []
    for name in sorted(set(old_counters) | set(new_counters)):
        if not any(name.startswith(prefix) for prefix in DIFF_COUNTER_PREFIXES):
            continue
        old_value = old_counters.get(name)
        new_value = new_counters.get(name)
        if old_value == new_value:
            continue
        if old_value is None or new_value is None:
            shown = f"{old_value} -> {new_value}"
        elif old_value:
            delta = (new_value / old_value - 1.0) * 100.0
            shown = f"{old_value} -> {new_value} ({delta:+.1f}%)"
        else:
            shown = f"{old_value} -> {new_value}"
        lines.append(f"{'':>28}counter {name:<28} {shown}")
    return lines


def diff_table(old: Dict, new: Dict) -> List[str]:
    """Per-workload percent-delta lines between two recorded reports.

    Negative percentages are improvements (new is faster).  Workloads or
    metrics absent from either side print ``n/a``.  Below each workload's
    wall-time row, changed work counters from the tracked families
    (``ranges.fixpoint.*``, ``expr.cache.*``, ...) get their own delta
    rows.  Returns the lines so tests can assert on them; the caller
    prints.
    """
    old_workloads = old.get("workloads", {})
    new_workloads = new.get("workloads", {})
    header = f"{'workload':>26} | " + " | ".join(f"{m:>20}" for m in DIFF_METRICS)
    lines = [header, "-" * len(header)]
    for name in old_workloads:
        old_metrics = old_workloads[name]
        new_metrics = new_workloads.get(name, {})
        cells = []
        for metric in DIFF_METRICS:
            old_value = old_metrics.get(metric)
            new_value = new_metrics.get(metric)
            if not old_value or new_value is None:
                cells.append(f"{'n/a':>20}")
                continue
            delta = (new_value / old_value - 1.0) * 100.0
            cells.append(f"{new_value:>9.2e} {delta:>+7.1f}%")
        lines.append(f"{name:>26} | " + " | ".join(cells))
        lines.extend(
            _counter_delta_lines(
                old_metrics.get("counters", {}), new_metrics.get("counters", {})
            )
        )
    for name in new_workloads:
        if name not in old_workloads:
            lines.append(f"{name:>26} | (not in old baseline)")
    return lines


def write_document(report: Dict, path: str) -> None:
    """Write a measurement document as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.regress", description=__doc__.splitlines()[0]
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--emit", metavar="PATH", help="measure and write a baseline JSON")
    mode.add_argument("--check", metavar="PATH", help="measure and compare against a baseline JSON")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="print a percent-delta table between two recorded "
                           "baseline JSONs (no re-measuring)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="max allowed slowdown ratio per metric (default 1.5)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing repeats (default 5; --check "
                             "defaults to the baseline's recorded repeats)")
    parser.add_argument("--only", metavar="SUBSTRING", default=None,
                        help="restrict --emit/--check to workloads whose name "
                             "contains SUBSTRING")
    args = parser.parse_args(argv)

    if args.compare:
        try:
            with open(args.compare[0]) as handle:
                old = json.load(handle)
            with open(args.compare[1]) as handle:
                new = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read baseline: {error}", file=sys.stderr)
            return 2
        for line in diff_table(old, new):
            print(line)
        return 0

    if args.emit:
        report = measure(repeats=args.repeats or 5, only=args.only)
        write_document(report, args.emit)
        print(f"wrote baseline for {len(report['workloads'])} workloads to {args.emit}")
        return 0

    try:
        with open(args.check) as handle:
            baseline = json.load(handle)
    except OSError as error:
        print(f"error: cannot read baseline {args.check}: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: baseline {args.check} is not valid JSON: {error}", file=sys.stderr)
        return 2
    # measure with the same best-of-N protocol the baseline was recorded
    # with, so both sides see the same noise floor
    report = measure(repeats=args.repeats or baseline.get("repeats", 5), only=args.only)
    failures = compare(report, baseline, threshold=args.threshold, only=args.only)
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nok: no metric regressed more than {args.threshold}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
