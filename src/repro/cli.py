"""Command-line interface: ``python -m repro [options] file.loop``.

Reads a loop-language program (or stdin with ``-``) and prints the full
analysis report: classifications in the paper's tuple notation, trip
counts, exit values, the dependence graph and parallelism verdicts.

Options::

    --dump-ir          include the SSA IR in the report
    --dump-named-ir    print the pre-SSA IR and exit
    --temps            include compiler temporaries ($t...) in the report
    --no-deps          skip dependence testing
    --no-opt           skip SCCP/simplification before classification
    --dot-cfg          emit the CFG in Graphviz DOT instead of a report
    --dot-ssa          emit the SSA graph in DOT
    --dot-deps         emit the dependence graph in DOT
    --verify           re-verify the final SSA, collect-all, report findings
    --lint             append the semantic-lint findings to the report
    --ranges           run the value-range analysis: report predicted
                       intervals per loop, run the RNG6xx checks with
                       --verify/--lint, and tighten dependence tests
    --invariants       run the path-sensitive invariants phase: report
                       per-path updates and polynomial equalities per
                       loop, and run the INV7xx replay checks with
                       --verify/--lint
    --strict           with --verify/--lint: exit 1 on error-severity findings
    --strict-errors    disable failure isolation: raise on the first
                       internal error instead of degrading to Unknown
    --inject POINT     arm the deterministic fault-injection harness at a
                       named fault point (see repro.resilience.FAULT_POINTS;
                       repeatable) -- for testing degraded behaviour
    --sanitize         run the pipeline with the pass sanitizer enabled
    --trace FILE       write a Chrome trace of this run (chrome://tracing)
    --metrics FILE     write this run's metrics snapshot as JSON
    --prom FILE        write this run's metrics in Prometheus text format
    --runlog [DIR]     append one flight-recorder record per analyzed
                       function to a run-log store (default .repro/runs);
                       aggregate later with ``repro stats``
    --explain VAR      append VAR's classification derivation chain
                       (repeatable); see ``repro.obs.explain``
    --deadline-s S     wall-clock budget for each input's whole analysis;
                       overrun degrades instead of failing (also on lint)
    --max-expr-terms N cap symbolic expression growth (also on lint)
    --version          print the package version and exit

``python -m repro report ...`` is an explicit alias for the default
report mode.  When the positional path is a **directory** (or a Python
file with embedded programs), report mode runs over every harvested
program -- a corpus run -- printing one report per input; combined with
``--runlog`` this populates a store for ``repro stats``.

Stats mode (``python -m repro stats``)::

    python -m repro stats [STORE] [--format=text|json] [--strict]
    python -m repro stats --diff RUN_A RUN_B [--format=text|json]

aggregates the run-log records of a store (directory of ``.jsonl`` run
files, or one run file) into corpus-scale statistics: class-distribution
histograms, DOALL/serial fractions with the why-not-DOALL attribution
table, degradation rollups, and p50/p99 per-phase latencies.
``--strict`` exits 1 on malformed or schema-drifted records and on any
serial loop whose structured reason chain is empty; ``--diff`` compares
two stores or run files.

Lint mode (``python -m repro lint``)::

    python -m repro lint [--format=text|json] [--strict] [--no-exec]
                         [--ranges] [--invariants] PATH...

Pylint mode (``python -m repro pylint``)::

    python -m repro pylint [--format=text|json] [--out FILE]
                           [--fail-on error|warning|note|never]
                           [--no-ranges] [--no-invariants]
                           [--runlog [DIR]] PATH...

compiles **real CPython functions** (the supported subset is catalogued
in ``docs/PYTHON.md``) to repro IR via the stdlib ``ast`` module and
runs the full analysis over each: classifications, RNG6xx range
findings on real code, and provable-DOALL verdicts with why-not reason
chains.  Unsupported constructs degrade to ``PYF4xx`` findings --
pointing it at an arbitrary package reports instead of crashing.
``--fail-on error`` is the CI gate; ``--out`` writes the JSON corpus
report artifact.

Trace mode (``python -m repro trace``)::

    python -m repro trace [--format=chrome|jsonl] [--out FILE]
                          [--metrics FILE] [--no-opt] PATH...

Serve mode (``python -m repro serve``)::

    python -m repro serve [--host H] [--port P] [--workers N]
                          [--timeout-s S] [--cache N] [--runlog [DIR]]
                          [--inject POINT ...] [--deadline-s S]

runs the fault-tolerant analysis service: a TCP daemon speaking
length-prefixed JSON that shards analysis requests across a pool of
worker processes with bounded retries, hung-worker kill/respawn, a
result cache that also remembers failing programs for 30 s, and
graceful SIGTERM drain.  Worker crashes degrade the affected request (RES506) -- they
never kill the server.  See ``docs/SERVICE.md``.

runs the full pipeline over every program found under the given paths
with span tracing and metrics collection enabled, then exports the trace
(Chrome trace-event JSON by default, validated before writing) and,
optionally, the metrics snapshot.

Paths may be ``.loop`` files, Python files with embedded programs
(harvested like ``examples/``), or directories of either.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.pipeline import analyze
from repro.report import format_report


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSA-based loop variable classification "
        "(Wolfe, 'Beyond Induction Variables', PLDI 1992)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "file",
        help="loop-language source file, - for stdin, or a directory / "
        "Python file of embedded programs (corpus mode)",
    )
    parser.add_argument("--dump-ir", action="store_true", help="include the SSA IR")
    parser.add_argument(
        "--dump-named-ir", action="store_true", help="print pre-SSA IR and exit"
    )
    parser.add_argument(
        "--temps", action="store_true", help="include compiler temporaries"
    )
    parser.add_argument("--no-deps", action="store_true", help="skip dependence testing")
    parser.add_argument("--no-opt", action="store_true", help="skip SCCP/simplify")
    parser.add_argument("--dot-cfg", action="store_true", help="emit CFG as DOT")
    parser.add_argument("--dot-ssa", action="store_true", help="emit SSA graph as DOT")
    parser.add_argument("--dot-deps", action="store_true", help="emit dep graph as DOT")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="verify the final SSA (collect-all) and report the findings",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the semantic lints and append their findings to the report",
    )
    parser.add_argument(
        "--ranges",
        action="store_true",
        help="run the value-range analysis: report predicted intervals, "
        "run the RNG6xx checks with --verify/--lint, and let dependence "
        "tests use symbolic trip-count bounds",
    )
    parser.add_argument(
        "--invariants",
        action="store_true",
        help="run the path-sensitive invariants phase: report per-path "
        "updates and polynomial equalities, and run the INV7xx replay "
        "checks with --verify/--lint",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when --verify/--lint report error-severity findings",
    )
    parser.add_argument(
        "--strict-errors",
        action="store_true",
        dest="strict_errors",
        help="disable failure isolation: raise on the first internal error "
        "instead of degrading the affected loop/phase to Unknown",
    )
    parser.add_argument(
        "--inject",
        metavar="POINT",
        action="append",
        default=None,
        dest="inject",
        help="arm the fault-injection harness at a named fault point "
        "(repeatable; 'list' prints the catalogue)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="re-verify the IR and audit caches after every pipeline pass",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of this run to FILE",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write this run's metrics snapshot as JSON to FILE",
    )
    parser.add_argument(
        "--prom",
        metavar="FILE",
        default=None,
        help="write this run's metrics in Prometheus text exposition "
        "format to FILE",
    )
    parser.add_argument(
        "--runlog",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="record one flight-recorder record per analyzed function "
        "into a run-log store (default: .repro/runs); aggregate with "
        "'repro stats'",
    )
    parser.add_argument(
        "--explain",
        metavar="VAR",
        action="append",
        default=None,
        help="append the classification derivation chain of VAR "
        "(source variable or SSA name); may be repeated",
    )
    _add_budget_arguments(parser)
    return parser


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """The resource-budget flags shared by report, lint, and serve."""
    parser.add_argument(
        "--deadline-s",
        metavar="SECONDS",
        type=float,
        default=None,
        dest="deadline_s",
        help="wall-clock budget for the whole analysis of each input; "
        "overrun degrades the remaining phases (RES503) instead of "
        "failing the run",
    )
    parser.add_argument(
        "--max-expr-terms",
        metavar="N",
        type=int,
        default=None,
        dest="max_expr_terms",
        help="cap the monomial count of any symbolic expression; "
        "exhaustion degrades the affected loop to Unknown (RES503)",
    )


def _collect_or_fail(collect, what: str):
    """Run a corpus-discovery callable with uniform error reporting.

    All corpus walkers (report, lint, trace, pylint) agree this way: an
    unreadable path prints ``error: ...`` and an empty harvest prints
    ``error: no <what> found``; both return ``None`` (callers exit 2).
    """
    try:
        targets = collect()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    if not targets:
        print(f"error: no {what} found", file=sys.stderr)
        return None
    return targets


def _budget_from_args(args):
    """The :class:`AnalysisBudget` the budget flags describe (or None)."""
    deadline = getattr(args, "deadline_s", None)
    terms = getattr(args, "max_expr_terms", None)
    if deadline is None and terms is None:
        return None
    from repro.resilience.budget import AnalysisBudget

    return AnalysisBudget(
        max_expr_terms=terms,
        request_deadline_s=deadline,
    )


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Lint loop-language programs: IR verification, pipeline "
        "sanitizing, and classification-soundness checks",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help=".loop file, Python file with embedded programs, or directory",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any error-severity finding is reported",
    )
    parser.add_argument(
        "--no-exec",
        action="store_true",
        help="skip the execution lints (interpreter cross-checks)",
    )
    parser.add_argument(
        "--ranges",
        action="store_true",
        help="also run the value-range analysis and its RNG6xx checks "
        "(out-of-bounds subscripts, division by zero, empty loops)",
    )
    parser.add_argument(
        "--invariants",
        action="store_true",
        help="also run the polynomial-invariant phase and its INV7xx "
        "replay checks (equalities and step bounds vs. the interpreter)",
    )
    _add_budget_arguments(parser)
    return parser


def lint_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro lint``."""
    from repro.diagnostics import render_json, render_text
    from repro.diagnostics.diagnostic import DiagnosticCollector
    from repro.diagnostics.driver import collect_targets, lint_source

    args = build_lint_parser().parse_args(argv)
    targets = _collect_or_fail(
        lambda: collect_targets(args.paths), "lint targets"
    )
    if targets is None:
        return 2

    from repro.obs import metrics as metrics_mod

    budget = _budget_from_args(args)
    collector = DiagnosticCollector()
    for target in targets:
        # scope any live metrics registry per input: counters from one
        # file must not bleed into the next file's snapshot
        with metrics_mod.isolated():
            lint_source(
                target.source,
                origin=target.origin,
                collector=collector,
                execution=not args.no_exec,
                ranges=args.ranges,
                invariants=args.invariants,
                budget=budget,
            )

    if args.format == "json":
        print(render_json(collector.sorted()))
    else:
        print(render_text(collector.sorted()))
    if args.strict and collector.has_errors:
        return 1
    return 0


def build_pylint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro pylint",
        description="Compile real CPython functions to repro IR "
        "(docs/PYTHON.md) and run the full analysis over a package: "
        "classifications, value-range findings, provable-DOALL verdicts "
        "with why-not reason chains.  Unsupported constructs degrade to "
        "PYF4xx findings; the run never crashes on arbitrary code.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="Python file or package directory (walked recursively)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the JSON corpus report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "note", "never"),
        default="never",
        dest="fail_on",
        help="exit 1 when any finding is at or above this severity "
        "(default: never); 'error' gates CI on real defects while "
        "tolerating PYF4xx degradation warnings",
    )
    parser.add_argument(
        "--no-ranges",
        action="store_true",
        help="skip the value-range phase and its RNG6xx checks",
    )
    parser.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the polynomial-invariant phase",
    )
    parser.add_argument(
        "--runlog",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="record one flight-recorder record per analyzed function "
        "(tagged source_lang=python) into a run-log store (default: "
        ".repro/runs); aggregate with 'repro stats'",
    )
    _add_budget_arguments(parser)
    return parser


def pylint_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro pylint``."""
    from repro.diagnostics.diagnostic import Severity
    from repro.diagnostics.driver import discover_files
    from repro.obs import observing
    from repro.obs import runlog as runlog_mod
    from repro.pyfront import (
        pylint_paths,
        render_corpus_json,
        render_corpus_text,
    )

    args = build_pylint_parser().parse_args(argv)
    files = _collect_or_fail(
        lambda: discover_files(args.paths, (".py",)), "Python files"
    )
    if files is None:
        return 2

    from contextlib import ExitStack

    with ExitStack() as stack:
        if args.runlog is not None:
            from repro.obs.runlog import DEFAULT_STORE

            stack.enter_context(observing())
            stack.enter_context(
                runlog_mod.recording(args.runlog or DEFAULT_STORE)
            )
        result = pylint_paths(
            files,
            ranges=not args.no_ranges,
            invariants=not args.no_invariants,
            budget=_budget_from_args(args),
        )

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_corpus_json(result) + "\n")
    if args.format == "json":
        print(render_corpus_json(result))
    else:
        print(render_corpus_text(result))

    if args.fail_on != "never":
        threshold = Severity[args.fail_on.upper()]
        if any(d.severity >= threshold for d in result.findings):
            return 1
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run the analysis pipeline with span tracing and "
        "metrics collection enabled, then export the records",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help=".loop file, Python file with embedded programs, or directory",
    )
    parser.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        dest="format",
        help="trace output format (default: chrome)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="trace output file (default: trace.json / trace.jsonl)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="also write the metrics snapshot as JSON to FILE",
    )
    parser.add_argument("--no-opt", action="store_true", help="skip SCCP/simplify")
    return parser


def trace_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro trace``."""
    from repro.diagnostics.driver import collect_targets
    from repro.obs import observing, span
    from repro.obs.export import (
        chrome_trace,
        validate_chrome_trace,
        write_chrome,
        write_jsonl,
        write_metrics,
    )

    args = build_trace_parser().parse_args(argv)
    targets = _collect_or_fail(
        lambda: collect_targets(args.paths), "trace targets"
    )
    if targets is None:
        return 2

    from repro.obs import metrics as metrics_mod

    failures = 0
    with observing() as obs:
        for target in targets:
            # per-input registry scope (merged back into obs.metrics) so
            # one target's counters never bleed into the next target's
            # per-input snapshots
            with span("trace.target", target=target.origin), metrics_mod.isolated():
                try:
                    analyze(target.source, optimize=not args.no_opt)
                except Exception as error:
                    failures += 1
                    print(f"warning: {target.origin}: {error}", file=sys.stderr)

    out = args.out or ("trace.json" if args.format == "chrome" else "trace.jsonl")
    if args.format == "chrome":
        problem = validate_chrome_trace(chrome_trace(obs.tracer))
        if problem is not None:  # pragma: no cover - structural self-check
            print(f"error: invalid chrome trace: {problem}", file=sys.stderr)
            return 1
        write_chrome(obs.tracer, out)
    else:
        write_jsonl(obs.tracer, out)
    if args.metrics:
        write_metrics(obs.metrics, args.metrics)

    traced_ok = len(targets) - failures
    print(
        f"traced {traced_ok}/{len(targets)} programs -> {out} "
        f"({len(obs.tracer.spans)} spans, {len(obs.tracer.events)} events)"
    )
    return 0 if failures == 0 else 1


def build_stats_parser() -> argparse.ArgumentParser:
    from repro.obs.runlog import DEFAULT_STORE

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Aggregate flight-recorder run logs into corpus-scale "
        "statistics: class distributions, why-not-DOALL attribution, "
        "degradation rollups, and phase latencies",
    )
    parser.add_argument(
        "store",
        nargs="?",
        default=DEFAULT_STORE,
        metavar="STORE",
        help="run-log store: a directory of .jsonl run files or one run "
        f"file (default: {DEFAULT_STORE})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on malformed or schema-drifted records, capture "
        "errors, or serial loops with an empty why-not-DOALL chain",
    )
    parser.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        default=None,
        help="compare two stores (or run files) instead of aggregating one",
    )
    return parser


def stats_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro stats``."""
    import repro.obs.aggregate as agg

    args = build_stats_parser().parse_args(argv)
    if args.diff:
        try:
            old = agg.aggregate(agg.load_records(args.diff[0]))
            new = agg.aggregate(agg.load_records(args.diff[1]))
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        diff = agg.diff_stats(old, new)
        if args.format == "json":
            import json

            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(agg.render_diff_text(diff))
        return 0

    try:
        records = agg.load_records(args.store)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = agg.aggregate(records)
    if args.format == "json":
        print(agg.render_json(stats))
    else:
        print(agg.render_text(stats))
    if args.strict:
        problems = agg.strict_problems(records)
        if problems:
            for problem in problems:
                print(f"strict: {problem}", file=sys.stderr)
            return 1
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the fault-tolerant analysis service: a TCP "
        "daemon sharding requests across a worker-process pool with "
        "crash re-dispatch and hung-worker kill, a result cache that also "
        "remembers failing programs, and graceful degradation (see "
        "docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=7457,
        help="TCP port (0 picks a free one; default: %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="analysis worker processes (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=10.0,
        dest="timeout_s",
        metavar="SECONDS",
        help="hung-worker backstop: a job with no response within this "
        "window is killed, respawned, and degraded (default: %(default)s)",
    )
    parser.add_argument(
        "--idle-timeout-s",
        type=float,
        default=60.0,
        dest="idle_timeout_s",
        metavar="SECONDS",
        help="drop a connection whose peer sends no (or only a partial) "
        "frame for this long; 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in entries; the cache also "
        "remembers a worker-level failure for 30 s, so 0 disables both "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--grace-s",
        type=float,
        default=5.0,
        dest="grace_s",
        metavar="SECONDS",
        help="drain window on SIGTERM/SIGINT (default: %(default)s)",
    )
    parser.add_argument(
        "--runlog",
        metavar="DIR",
        nargs="?",
        const="",
        default=None,
        help="append one flight-recorder record per analyzed program "
        "to a run-log store (default: .repro/runs)",
    )
    parser.add_argument(
        "--inject",
        metavar="POINT",
        action="append",
        default=None,
        help="arm fault injection inside the workers at a named point "
        "(repeatable; 'list' prints the catalogue); the chaos harness "
        "of the load test and CI",
    )
    parser.add_argument(
        "--inject-rate",
        type=float,
        default=1.0,
        dest="inject_rate",
        metavar="P",
        help="per-hit trip probability for --inject; below 1 it needs "
        "--inject-seed (default: %(default)s)",
    )
    parser.add_argument(
        "--inject-seed",
        type=int,
        default=None,
        dest="inject_seed",
        metavar="SEED",
        help="seed for rate-based --inject: a hit trips when a hash of "
        "(seed, point, program, attempt) falls below the rate",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the server's final metrics snapshot as JSON on drain",
    )
    parser.add_argument(
        "--prom",
        metavar="FILE",
        default=None,
        help="write the final metrics in Prometheus text format on drain",
    )
    _add_budget_arguments(parser)
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro serve``."""
    import signal
    import threading

    from repro.obs import observing
    from repro.obs.runlog import DEFAULT_STORE
    from repro.resilience import FaultPlan, all_fault_points
    from repro.resilience.budget import SERVICE_BUDGET
    from repro.service import AnalysisServer

    args = build_serve_parser().parse_args(argv)

    fault_spec = None
    if args.inject:
        if "list" in args.inject:
            for point in all_fault_points():
                print(point)
            return 0
        unknown = sorted(set(args.inject) - set(all_fault_points()))
        if unknown:
            print(
                f"error: unknown fault point(s) {', '.join(unknown)} "
                "(use --inject list)",
                file=sys.stderr,
            )
            return 2
        try:
            FaultPlan(
                args.inject, seed=args.inject_seed, rate=args.inject_rate
            )
        except ValueError as error:
            print(
                f"error: --inject-rate/--inject-seed: {error}", file=sys.stderr
            )
            return 2
        fault_spec = {
            "points": list(args.inject),
            "rate": args.inject_rate,
            "seed": args.inject_seed,
        }

    budget = _budget_from_args(args)
    if budget is not None:
        import dataclasses as _dc

        # the flags tighten the documented service default, they do not
        # replace its other caps
        overrides = {
            key: value
            for key, value in _dc.asdict(budget).items()
            if value is not None
        }
        budget = _dc.replace(SERVICE_BUDGET, **overrides)
    else:
        budget = SERVICE_BUDGET

    stop_requested = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        stop_requested.set()

    previous_handlers = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    try:
        with observing() as observation:
            server = AnalysisServer(
                host=args.host,
                port=args.port,
                pool_size=args.workers,
                request_timeout_s=args.timeout_s,
                idle_timeout_s=args.idle_timeout_s,
                cache_capacity=args.cache,
                fault_spec=fault_spec,
                runlog_dir=(
                    (args.runlog or DEFAULT_STORE)
                    if args.runlog is not None
                    else None
                ),
                default_budget=budget,
            )
            try:
                host, port = server.start()
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            print(f"listening on {host}:{port}", flush=True)
            while not stop_requested.is_set():
                stop_requested.wait(0.2)
            print("draining...", file=sys.stderr)
            server.stop(grace_s=args.grace_s)
            _write_observation_files(args, observation)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print("drained", file=sys.stderr)
    return 0


def _corpus_report(args, observation_wanted: bool) -> int:
    """Report mode over a directory / embedded-program corpus.

    Runs the pipeline on every harvested program, printing one report per
    input.  Each input gets its own metrics scope
    (:func:`repro.obs.metrics.isolated`) and run-log origin label, so
    ``--runlog`` produces per-input flight-recorder records that
    ``repro stats`` can attribute.
    """
    from contextlib import ExitStack

    from repro.diagnostics.driver import collect_targets
    from repro.obs import metrics as metrics_mod, observing
    from repro.obs import runlog as runlog_mod

    for flag, name in (
        (args.dump_named_ir, "--dump-named-ir"),
        (args.dot_cfg, "--dot-cfg"),
        (args.dot_ssa, "--dot-ssa"),
        (args.dot_deps, "--dot-deps"),
        (args.explain, "--explain"),
    ):
        if flag:
            print(
                f"error: {name} is not supported with a directory input",
                file=sys.stderr,
            )
            return 2

    targets = _collect_or_fail(lambda: collect_targets([args.file]), "programs")
    if targets is None:
        return 2

    failures = 0
    with ExitStack() as stack:
        observation = None
        if observation_wanted:
            observation = stack.enter_context(observing())
        writer = None
        if args.runlog is not None:
            from repro.obs.runlog import DEFAULT_STORE

            writer = stack.enter_context(
                runlog_mod.recording(args.runlog or DEFAULT_STORE)
            )
        budget = _budget_from_args(args)
        for index, target in enumerate(targets):
            with metrics_mod.isolated(), runlog_mod.origin(target.origin):
                try:
                    program = analyze(
                        target.source,
                        optimize=not args.no_opt,
                        sanitize=args.sanitize,
                        strict=args.strict_errors,
                        ranges=args.ranges,
                        invariants=args.invariants,
                        budget=budget,
                    )
                except Exception as error:
                    failures += 1
                    print(f"warning: {target.origin}: {error}", file=sys.stderr)
                    continue
            if index:
                print()
            print(f"== {target.origin} ==")
            print(
                format_report(
                    program,
                    show_temporaries=args.temps,
                    show_dependences=not args.no_deps,
                    show_ir=args.dump_ir,
                )
            )
        _write_observation_files(args, observation)
    if writer is not None:
        print(
            f"recorded {writer.records_written} record(s) -> {writer.path}",
            file=sys.stderr,
        )
    return 0 if failures == 0 else 1


def _write_observation_files(args, observation) -> None:
    """Export --trace / --metrics / --prom files after a run."""
    if observation is None:
        return
    if getattr(args, "trace", None):
        from repro.obs.export import write_chrome

        write_chrome(observation.tracer, args.trace)
    if args.metrics:
        from repro.obs.export import write_metrics

        write_metrics(observation.metrics, args.metrics)
    if args.prom:
        from repro.obs.promexport import write_prometheus

        write_prometheus(observation.metrics, args.prom)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "pylint":
        return pylint_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "report":
        argv = argv[1:]
    args = build_argument_parser().parse_args(argv)

    observation_wanted = bool(
        args.trace or args.metrics or args.prom or args.runlog is not None
    )
    import os

    if args.file != "-" and (
        os.path.isdir(args.file) or args.file.endswith(".py")
    ):
        return _corpus_report(args, observation_wanted)

    if args.file == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.file) as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    from contextlib import nullcontext

    inject_ctx = nullcontext()
    if args.inject:
        from repro.resilience import FaultPlan, all_fault_points, injecting

        if "list" in args.inject:
            for point in all_fault_points():
                print(point)
            return 0
        unknown = sorted(set(args.inject) - set(all_fault_points()))
        if unknown:
            print(
                f"error: unknown fault point(s) {', '.join(unknown)} "
                "(use --inject list)",
                file=sys.stderr,
            )
            return 2
        inject_ctx = injecting(FaultPlan(points=set(args.inject)))

    observation = None
    try:
        from contextlib import ExitStack

        with inject_ctx, ExitStack() as stack:
            if observation_wanted:
                from repro.obs import observing

                observation = stack.enter_context(observing())
            if args.runlog is not None:
                from repro.obs import runlog as runlog_mod

                stack.enter_context(
                    runlog_mod.recording(args.runlog or runlog_mod.DEFAULT_STORE)
                )
                stack.enter_context(runlog_mod.origin(args.file))
            program = analyze(
                source,
                optimize=not args.no_opt,
                sanitize=args.sanitize,
                strict=args.strict_errors,
                ranges=args.ranges,
                invariants=args.invariants,
                budget=_budget_from_args(args),
            )
    except Exception as error:  # frontend/IR errors carry positions
        print(f"error: {error}", file=sys.stderr)
        return 1

    _write_observation_files(args, observation)

    if args.dump_named_ir:
        from repro.ir.printer import print_function

        print(print_function(program.named_ir))
        return 0
    if args.dot_cfg:
        from repro.ir.dot import cfg_to_dot

        print(cfg_to_dot(program.ssa))
        return 0
    if args.dot_ssa:
        from repro.ir.dot import ssa_graph_to_dot

        print(ssa_graph_to_dot(program.ssa))
        return 0
    if args.dot_deps:
        from repro.dependence.graph import build_dependence_graph
        from repro.ir.dot import dependence_graph_to_dot

        print(dependence_graph_to_dot(build_dependence_graph(program.result)))
        return 0

    diagnostics = None
    if args.verify or args.lint:
        from repro.diagnostics.diagnostic import DiagnosticCollector
        from repro.diagnostics.verifier import verify_collect
        from repro.resilience.isolation import diagnostics_of

        collector = DiagnosticCollector()
        verify_collect(program.ssa, ssa=True, collector=collector)
        if args.lint:
            from repro.diagnostics.lints import lint_program

            lint_program(program, collector=collector)
        if args.ranges and program.result.ranges is not None:
            from repro.ranges import check_ranges

            check_ranges(program.result, program.result.ranges, collector)
        if args.invariants and program.result.invariants is not None:
            from repro.invariants import check_invariants

            check_invariants(program, collector)
        diagnostics_of(program.degradations, collector)
        diagnostics = collector.sorted()

    print(
        format_report(
            program,
            show_temporaries=args.temps,
            show_dependences=not args.no_deps,
            show_ir=args.dump_ir,
            diagnostics=diagnostics,
        )
    )
    if args.explain:
        from repro.obs.explain import explain

        for var in args.explain:
            print()
            print(f"== explain {var} ==")
            print(explain(program, var))
    if args.strict and diagnostics is not None and any(d.is_error for d in diagnostics):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
