"""The real-Python corpus driver behind ``repro pylint``.

Walks packages, compiles every function the frontend can carry
(:mod:`repro.pyfront.lower`), and runs each one through the full
analysis pipeline: classification, value ranges (RNG6xx findings on real
code), polynomial invariants, dependence testing, and why-not-DOALL
attribution.  Functions the frontend cannot lower degrade to ``PYF4xx``
findings instead of being silently dropped, so the corpus report always
accounts for every ``def`` it saw.

The zero-exception contract of ``repro pylint`` lives here: every
per-function step is isolated, so one pathological function (or one
analysis bug) costs exactly that function, never the corpus run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.diagnostics.diagnostic import Diagnostic, DiagnosticCollector
from repro.pyfront.lower import CompiledFunction, compile_module
from repro.resilience.isolation import DegradationRecord

#: hint attached to PYF4xx findings (instead of the RES5xx default)
_HINT = "see docs/PYTHON.md for the supported Python subset"

__all__ = [
    "CorpusResult",
    "FunctionOutcome",
    "blocked_rollup",
    "pylint_paths",
    "render_corpus_json",
    "render_corpus_text",
]


@dataclass
class FunctionOutcome:
    """What happened to one real-Python function."""

    origin: str
    qualname: str
    ok: bool
    #: per-loop rows: header label, DOALL verdict, blocker slugs, and the
    #: classification (``describe()``) of every source-level name
    loops: List[Dict[str, Any]] = field(default_factory=list)
    #: the record of the first construct that kept it from lowering
    blocker: Optional[DegradationRecord] = None


@dataclass
class CorpusResult:
    """Everything one ``repro pylint`` run learned."""

    files: int = 0
    functions: int = 0
    lowered: int = 0
    degraded: int = 0
    outcomes: List[FunctionOutcome] = field(default_factory=list)
    collector: DiagnosticCollector = field(default_factory=DiagnosticCollector)

    @property
    def findings(self) -> List[Diagnostic]:
        return self.collector.sorted()


def _skip_record(cf: CompiledFunction) -> Dict[str, Any]:
    """A flight-recorder record for a function that never lowered.

    Shaped to satisfy ``repro stats --strict`` validation, so a corpus
    run's store aggregates cleanly even when most of a real package
    degrades (the expected steady state on arbitrary code).
    """
    from repro.obs import runlog

    with runlog.source_lang("python"):
        return runlog.new_record(
            cf.origin,
            cf.qualname,
            runlog.source_fingerprint(cf.source),
            cf.degradations,
        )


def _loop_rows(program) -> List[Dict[str, Any]]:
    """Per-loop verdicts + classifications for the corpus report."""
    from repro.obs.runlog import loop_records

    return [
        {
            "header": loop["header"],
            "parallel": loop["parallel"],
            "blocked_by": [blocker["reason"] for blocker in loop["blocked_by"]],
            "classes": dict(sorted(loop["classes"].items())),
        }
        for loop in loop_records(program)
    ]


def _analyze_compiled(
    cf: CompiledFunction,
    collector: DiagnosticCollector,
    *,
    ranges: bool,
    invariants: bool,
    budget,
) -> FunctionOutcome:
    """Full pipeline over one lowered function, then ``repro lint``'s
    findings step (:func:`~repro.diagnostics.driver.lint_analyzed`)."""
    from repro.diagnostics.driver import lint_analyzed, publish
    from repro.obs import runlog
    from repro.pipeline import analyze_function
    from repro.resilience.isolation import diagnostics_of

    local = diagnostics_of(cf.degradations, origin=cf.origin, hint=_HINT)
    with runlog.origin(cf.origin), runlog.source_lang("python"):
        program = analyze_function(
            cf.function,
            source=cf.source,
            ranges=ranges,
            invariants=invariants,
            budget=budget,
        )
    # static lints only, and no invariant replay: both re-interpret every
    # sample, which a corpus-scale walk cannot afford (and the
    # differential oracle already holds lowering to CPython semantics)
    lint_analyzed(program, local, execution=False, ranges=ranges)
    publish(local, collector, cf.origin, cf.qualname)
    return FunctionOutcome(
        origin=cf.origin,
        qualname=cf.qualname,
        ok=True,
        loops=_loop_rows(program),
    )


def pylint_paths(
    paths: Sequence[str],
    collector: Optional[DiagnosticCollector] = None,
    ranges: bool = True,
    invariants: bool = True,
    budget=None,
) -> CorpusResult:
    """Lint every ``def`` of every Python file under ``paths``.

    Never raises past a function: frontend degradations become PYF4xx
    findings, analysis failures become RES5xx findings, and an
    unreadable file becomes one PYF406 finding.  Callers that want
    flight-recorder output wrap the call in ``runlog.recording()`` --
    per-function records are captured inside the pipeline; functions
    that never lowered get an explicit skip record so the store accounts
    for the whole corpus.
    """
    from repro.diagnostics.driver import discover_files
    from repro.obs import metrics as _metrics
    from repro.obs import runlog
    from repro.resilience.isolation import diagnostics_of

    result = CorpusResult(
        collector=collector if collector is not None else DiagnosticCollector()
    )
    for path in discover_files(paths, (".py",)):
        result.files += 1
        try:
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
        except OSError as error:
            result.collector.emit(
                "PYF406", f"cannot read {path!r}: {error}", origin=path
            )
            continue
        module = compile_module(text, origin=path)
        if module.error is not None:
            diagnostics_of(
                [module.error], result.collector, origin=path, hint=_HINT
            )
            continue
        for cf in module.functions:
            result.functions += 1
            _metrics.inc("pyfront.functions")
            with _metrics.isolated():
                if cf.ok:
                    try:
                        outcome = _analyze_compiled(
                            cf,
                            result.collector,
                            ranges=ranges,
                            invariants=invariants,
                            budget=budget,
                        )
                    except Exception as error:  # noqa: BLE001 - contract
                        result.collector.emit(
                            "LNT001",
                            f"analysis failed: {error}",
                            origin=cf.origin,
                            function=cf.qualname,
                        )
                        outcome = FunctionOutcome(
                            origin=cf.origin, qualname=cf.qualname, ok=False
                        )
                else:
                    _metrics.inc("pyfront.degraded")
                    diagnostics_of(
                        cf.degradations,
                        result.collector,
                        origin=cf.origin,
                        hint=_HINT,
                    )
                    writer = runlog.active()
                    if writer is not None:
                        try:
                            writer.write(_skip_record(cf))
                        except OSError:
                            pass
                    outcome = FunctionOutcome(
                        origin=cf.origin,
                        qualname=cf.qualname,
                        ok=False,
                        blocker=cf.degradations[0],
                    )
            if outcome.ok:
                result.lowered += 1
            else:
                result.degraded += 1
            result.outcomes.append(outcome)
    return result


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_corpus_text(result: CorpusResult) -> str:
    """The corpus report: ingestion stats, loop verdicts, findings."""
    from repro.diagnostics import render_text

    lines: List[str] = []
    lines.append("== corpus ==")
    lines.append(
        f"  files: {result.files}, functions: {result.functions} "
        f"({result.lowered} lowered, {result.degraded} degraded)"
    )
    rows = [
        (outcome, row)
        for outcome in result.outcomes
        for row in outcome.loops
    ]
    lines.append("")
    lines.append("== loops ==")
    if not rows:
        lines.append("  none lowered")
    for outcome, row in rows:
        if row["parallel"] is None:
            verdict = "undecided"
        elif row["parallel"]:
            verdict = "DOALL"
        else:
            verdict = "serial[" + ",".join(row["blocked_by"]) + "]"
        interesting = {
            name: described
            for name, described in row["classes"].items()
            if not described.startswith("Unknown")
        }
        shown = ", ".join(
            f"{name}: {described}" for name, described in interesting.items()
        )
        lines.append(
            f"  {outcome.origin} {outcome.qualname} {row['header']}: "
            f"{verdict}" + (f"  {shown}" if shown else "")
        )
    lines.append("")
    lines.append("== findings ==")
    lines.append(render_text(result.findings))
    lines.append("")
    lines.append("== blocked ==")
    rollup = blocked_rollup(result)
    if not rollup:
        lines.append("  none")
    for code, (count, example) in rollup.items():
        lines.append(
            f"  {count:5d}  {example.blocker.diag_code} {code}  "
            f"e.g. {example.origin} {example.qualname}"
        )
    return "\n".join(lines)


def blocked_rollup(result: CorpusResult) -> Dict[str, Tuple[int, FunctionOutcome]]:
    """First-blocking ``code`` -> (functions it blocks, the first of them),
    most frequent first, then by code: what to teach the frontend next."""
    rollup: Dict[str, Tuple[int, FunctionOutcome]] = {}
    for outcome in result.outcomes:
        if outcome.blocker is not None:
            count, example = rollup.get(outcome.blocker.code, (0, outcome))
            rollup[outcome.blocker.code] = (count + 1, example)
    return dict(sorted(rollup.items(), key=lambda item: (-item[1][0], item[0])))


def render_corpus_json(result: CorpusResult) -> str:
    """The corpus report as one JSON document (the CI artifact shape)."""
    import json

    payload = {
        "files": result.files,
        "functions": result.functions,
        "lowered": result.lowered,
        "degraded": result.degraded,
        "loops": [
            {
                "origin": outcome.origin,
                "function": outcome.qualname,
                **row,
            }
            for outcome in result.outcomes
            for row in outcome.loops
        ],
        "findings": [d.to_dict() for d in result.findings],
        "counts": _severity_counts(result.findings),
        "blocked": {
            code: count for code, (count, _) in blocked_rollup(result).items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _severity_counts(findings: Sequence[Diagnostic]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for diagnostic in findings:
        key = str(diagnostic.severity)
        counts[key] = counts.get(key, 0) + 1
    return counts
