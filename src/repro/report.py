"""Human-readable analysis reports.

``format_report(program)`` renders everything the pipeline learned about a
program -- per-loop classifications (in the paper's tuple notation), trip
counts, exit values, the dependence graph and per-loop parallelism
verdicts -- the way a compiler's ``-fdump-loop-analysis`` would.
Used by the command-line interface (``python -m repro``).

Degradations recorded by the fault-tolerant pipeline are rendered in a
``== resilience ==`` section; degraded loops are flagged inline.  The
dependence-graph build itself runs as an *optional phase*: if it fails,
the report notes the skip instead of crashing.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.tripcount import TripCountKind
from repro.pipeline import AnalyzedProgram
from repro.resilience import isolation as _isolation


def format_report(
    program: AnalyzedProgram,
    show_temporaries: bool = False,
    show_dependences: bool = True,
    show_ir: bool = False,
    diagnostics: Optional[Sequence] = None,
) -> str:
    lines: List[str] = []
    result = program.result

    if show_ir:
        from repro.ir.printer import print_function

        lines.append("== SSA form ==")
        lines.append(print_function(program.ssa))
        lines.append("")

    if not result.loops:
        lines.append("no loops found")
        _append_resilience(lines, program)
        _append_diagnostics(lines, diagnostics)
        return "\n".join(lines)

    graph = None
    parallelism = {}
    if show_dependences:
        with _isolation.resilient(_report_log(program)):
            dependences = _isolation.run_optional(
                "dependence.graph", program.dependences, diag_code="RES502"
            )
        if dependences is not None:
            graph, parallelism = dependences

    for loop in sorted(result.loops.values(), key=lambda s: s.loop.depth):
        summary = loop
        header = summary.label
        indent = "  " * (summary.loop.depth - 1)
        flag = "  [degraded]" if summary.degraded else ""
        lines.append(f"{indent}loop {header} (depth {summary.loop.depth}):{flag}")

        trip = summary.trip
        if trip.kind is TripCountKind.FINITE:
            extra = "" if trip.exact else " (upper bound)"
            assumption = f"  [{'; '.join(trip.assumptions)}]" if trip.assumptions else ""
            lines.append(f"{indent}  trip count: {trip.count}{extra}{assumption}")
        else:
            lines.append(f"{indent}  trip count: {trip.kind.value}")
        ranges = result.ranges
        if ranges is not None and header in ranges.trips:
            interval = ranges.trips[header]
            if not interval.is_top:
                lines.append(f"{indent}  trip range: {interval}")

        lines.append(f"{indent}  SSA graph size: {summary.graph_size}, "
                     f"SCRs: {summary.scr_count}")

        for name in sorted(summary.classifications):
            if not show_temporaries and name.startswith("$"):
                continue
            lines.append(f"{indent}  {name:12} {result.nested_describe(name)}")
            exit_value = result.exit_value(header, name)
            if exit_value is not None:
                lines.append(f"{indent}  {'':12}   exits with {exit_value}")

        verdict = parallelism.get(header)
        if verdict is not None:
            if verdict.parallelizable:
                lines.append(f"{indent}  parallelizable: yes (DOALL)")
            else:
                lines.append(
                    f"{indent}  parallelizable: no "
                    f"({len(verdict.carried)} carried dependence(s))"
                )
                for blocker in verdict.blockers:
                    lines.append(f"{indent}    blocked by: {blocker.describe()}")
        lines.append("")

    if show_dependences:
        lines.append("== dependence graph ==")
        if graph is None:
            lines.append("  skipped (dependence analysis degraded)")
        elif graph.edges:
            for edge in graph.edges:
                note = f"   [{edge.result.notes[-1]}]" if edge.result.notes else ""
                lines.append(f"  {edge!r}{note}")
        else:
            lines.append("  no dependences")
    _append_ranges(lines, program, show_temporaries)
    _append_invariants(lines, program)
    _append_resilience(lines, program)
    _append_diagnostics(lines, diagnostics)
    return "\n".join(lines)


def _report_log(program: AnalyzedProgram) -> _isolation.DegradationLog:
    """A log whose records land in ``program.degradations``.

    Report-time optional phases (the dependence graph) degrade into the
    same list the pipeline filled, so one ``== resilience ==`` section
    covers both.
    """
    log = _isolation.DegradationLog()
    log.records = program.degradations
    return log


def _append_ranges(
    lines: List[str], program: AnalyzedProgram, show_temporaries: bool
) -> None:
    """Append a ``== value ranges ==`` section when the phase ran."""
    info = program.result.ranges
    if info is None:
        return
    lines.append("")
    lines.append("== value ranges ==")
    if info.degraded:
        lines.append("  degraded: every value spans [-inf, +inf]")
        return
    shown = 0
    for name in sorted(info.values):
        if not show_temporaries and name.startswith("$"):
            continue
        interval = info.values[name]
        if interval.is_top:
            continue
        lines.append(f"  {name:12} {interval}")
        shown += 1
    if not shown:
        lines.append("  no nontrivial ranges")


def _append_invariants(lines: List[str], program: AnalyzedProgram) -> None:
    """Append an ``== invariants ==`` section when the phase ran."""
    info = getattr(program.result, "invariants", None)
    if info is None:
        return
    lines.append("")
    lines.append("== invariants ==")
    if info.degraded:
        lines.append("  degraded: no path summaries or equalities available")
        return
    if not info.path_summaries:
        lines.append("  no loop admitted path enumeration")
        return
    for header in sorted(info.path_summaries):
        summary = info.path_summaries[header]
        lines.append(f"  {header}: {', '.join(summary.notes())}")
        for path in summary.paths:
            lines.append(f"    path {path.describe()}")
        for invariant in info.invariants_of(header):
            lines.append(f"    invariant {invariant.describe()}")


def _append_resilience(lines: List[str], program: AnalyzedProgram) -> None:
    """Append a ``== resilience ==`` section when anything degraded."""
    if not program.degradations:
        return
    lines.append("")
    lines.append("== resilience ==")
    lines.append(
        f"  {len(program.degradations)} degradation(s); results are "
        "partial (re-run with --strict-errors to see the first failure)"
    )
    for record in program.degradations:
        where = f" at {record.scope}" if record.scope else ""
        lines.append(
            f"  [{record.diag_code}] {record.phase}{where}: "
            f"{record.action} ({record.code}) -- {record.message}"
        )


def _append_diagnostics(lines: List[str], diagnostics: Optional[Sequence]) -> None:
    """Append a ``== diagnostics ==`` section (for ``--verify``/``--lint``)."""
    if diagnostics is None:
        return
    from repro.diagnostics.render import render_text

    lines.append("")
    lines.append("== diagnostics ==")
    if not diagnostics:
        lines.append("  clean: no findings")
    else:
        lines.append(render_text(diagnostics))
