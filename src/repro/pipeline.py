"""One-call pipeline: source text -> classified program.

>>> from repro.pipeline import analyze
>>> program = analyze('''
... i = 0
... L1: while i < n do
...   i = i + 2
... endwhile
... ''')
>>> program.result.describe(program.ssa_name("i", "L1"))
'(L1, 0, 2)'

:func:`analyze` is **fault tolerant** by default: it runs inside a
resilient context (:mod:`repro.resilience.isolation`), so an internal
failure in any phase is contained at the nearest boundary -- a failing
SCR classifies as ``Unknown``, a failing loop degrades to a
:class:`~repro.core.driver.DegradedLoopSummary`, a failing optimize pass
falls back to the unoptimized SSA, and only an unanalyzable function
degrades to an empty classification.  Every containment is recorded in
``AnalyzedProgram.degradations``.  ``strict=True`` (the CLI's
``--strict-errors``) restores raise-on-first-error; genuine *input*
errors (:class:`~repro.frontend.lexer.FrontendError`) and sanitizer
violations always raise.  An optional
:class:`~repro.resilience.AnalysisBudget` bounds worst-case symbolic
work for the same dynamic extent.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.analysis.loops import LoopNest, find_loops
from repro.analysis.loopsimplify import simplify_loops
from repro.core.driver import AnalysisResult, classify_function
from repro.diagnostics import sanitizer
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.instructions import Return
from repro.obs import metrics as _metrics
from repro.obs import runlog as _runlog
from repro.obs import trace as _trace
from repro.resilience import budget as _budget
from repro.resilience import isolation as _isolation
from repro.resilience.budget import AnalysisBudget
from repro.resilience.errors import MissingPhiError
from repro.resilience.isolation import DegradationRecord
from repro.ssa.construct import SSAInfo, construct_ssa


@dataclass
class AnalyzedProgram:
    """Source + all intermediate forms + classification results."""

    source: Optional[str]
    named_ir: Function  # pre-SSA (kept for the classical baseline / interp)
    ssa: Function  # SSA form (shares labels with named_ir)
    ssa_info: SSAInfo
    domtree: DominatorTree
    nest: LoopNest
    result: AnalysisResult
    #: every failure contained during analysis (empty on a clean run)
    degradations: List[DegradationRecord] = field(default_factory=list)
    #: ``(graph, verdicts)`` once :meth:`dependences` has succeeded
    _dependences: Optional[Tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when any phase, loop, or SCR was degraded or skipped."""
        return bool(self.degradations)

    def ssa_names(self, var: str) -> List[str]:
        """All SSA names of one source variable."""
        return self.ssa_info.names_of(var)

    def ssa_name(self, var: str, loop_header: str) -> str:
        """The SSA name of ``var`` defined by the phi at ``loop_header``.

        This is "the first member of the family" (section 3.1): the name the
        paper's tuples describe, e.g. ``i2`` in ``i2 = phi(i1, i3)``.

        Raises :class:`~repro.resilience.errors.MissingPhiError` (a
        ``KeyError`` subclass) when no such phi exists -- including when
        the loop itself is unknown or the analysis degraded before phi
        placement.
        """
        try:
            block = self.ssa.block(loop_header)
        except Exception as error:
            raise MissingPhiError(
                f"no loop-header phi for {var!r} at {loop_header!r}: "
                f"{error}"
            ) from error
        for phi in block.phis():
            if self.ssa_info.origin.get(phi.result) == var:
                return phi.result
        raise MissingPhiError(
            f"no loop-header phi for {var!r} at {loop_header!r}"
        )

    def classification(self, name: str):
        return self.result.classification_of(name)

    def dependences(self) -> Tuple:
        """The dependence graph and its per-loop DOALL verdicts, built once.

        The run-log record and the report both need them for the same
        program.  Only a success is kept: a failure raises, and each
        caller degrades its own way (the record's ``parallel: null``, the
        report's RES502 skip).
        """
        if self._dependences is None:
            from repro.dependence.graph import build_dependence_graph
            from repro.dependence.loopinfo import analyze_parallelism

            graph = build_dependence_graph(self.result)
            self._dependences = (graph, analyze_parallelism(self.result, graph))
        return self._dependences

    def describe_all(self) -> Dict[str, str]:
        """Readable classification of every variable.

        Covers every name classified in a loop summary *plus* the
        top-level names defined outside every loop -- those are invariant
        over the whole function (``AnalysisResult.classification_of``
        semantics) and used to be silently dropped.
        """
        out = {}
        for summary in self.result.loops.values():
            for name, cls in sorted(summary.classifications.items()):
                out[name] = cls.describe()
        for name in sorted(self.ssa.definitions()):
            if name in out:
                continue
            if self.result.defining_loop(name) is not None:
                continue  # inside a loop but unclassified: not invariant
            out[name] = self.result.classification_of(name).describe()
        return out


def analyze(
    source: str,
    name: str = "main",
    optimize: bool = True,
    sanitize: bool = False,
    strict: bool = False,
    budget: Optional[AnalysisBudget] = None,
    ranges: bool = False,
    invariants: bool = False,
) -> AnalyzedProgram:
    """Compile and classify a source program.

    ``optimize`` runs SCCP / simplification / copy propagation before
    classification, resolving constant initial values the way the paper
    assumes ("the initial value ... can often be evaluated and substituted,
    using an algorithm such as constant propagation").

    ``sanitize`` activates the pipeline sanitizer
    (:mod:`repro.diagnostics.sanitizer`): the IR is re-verified and the
    cached definition indexes are cross-checked after every pass, raising
    :class:`~repro.diagnostics.SanitizerError` on the first violation.

    ``strict`` disables failure isolation: the first internal error
    propagates to the caller (the CLI's ``--strict-errors``).

    ``budget`` caps worst-case symbolic work (see
    :class:`~repro.resilience.AnalysisBudget`); exhaustion degrades the
    affected scope rather than raising.

    ``ranges`` additionally runs the value-range analysis
    (:mod:`repro.ranges`) and attaches its :class:`RangeInfo` to
    ``program.result.ranges``, where dependence testing picks up trip
    bounds.  The phase is optional and isolated: on failure it degrades
    to all-top ranges without aborting analysis.

    ``invariants`` additionally runs the path-sensitive invariants phase
    (:mod:`repro.invariants`): per-path update summaries and polynomial
    loop invariants attach to each :class:`LoopSummary` and to
    ``program.result.invariants``.  Combine with ``ranges=True`` to also
    prune provably-dead paths and tighten ranges with invariant-implied
    bounds.  Optional and isolated: on failure it degrades to a
    no-invariants :class:`InvariantInfo`.
    """
    with _trace.span("pipeline.analyze"), \
            _analysis_scope(sanitize, strict, budget) as log:
        try:
            program = parse_program(source)
            named = lower_program(program, name=name)
        except Exception as error:  # noqa: BLE001 - FrontendError re-raises
            _isolation.absorb(error, "frontend", diag_code="RES505")
            return _degraded_program(source, name, log)
        try:
            simplify_loops(named)
        except Exception as error:  # noqa: BLE001
            _isolation.absorb(
                error,
                "analysis.loop-simplify",
                action="skipped",
                diag_code="RES502",
            )
            # simplify_loops mutates in place: re-lower to discard any
            # half-canonicalized CFG and analyze the raw form instead
            named = lower_program(program, name=name)
        sanitizer.checkpoint(named, "simplify-loops", ssa=False)
        return _analyze_function(
            named, source, optimize, log, ranges=ranges, invariants=invariants
        )


def analyze_function(
    named: Function,
    source: Optional[str] = None,
    optimize: bool = True,
    sanitize: bool = False,
    strict: bool = False,
    budget: Optional[AnalysisBudget] = None,
    ranges: bool = False,
    invariants: bool = False,
) -> AnalyzedProgram:
    """Run SSA construction + classification on named IR.

    ``named`` is kept intact (a clone is converted to SSA).  The
    sanitizer, failure isolation, strict mode, budgets, and the optional
    phases work as in :func:`analyze`.
    """
    with _analysis_scope(sanitize, strict, budget) as log:
        return _analyze_function(
            named, source, optimize, log, ranges=ranges, invariants=invariants
        )


@contextmanager
def _analysis_scope(
    sanitize: bool, strict: bool, budget: Optional[AnalysisBudget]
) -> Iterator[_isolation.DegradationLog]:
    """The contexts one analysis runs under; yields its degradation log.

    Shared by :func:`analyze` and :func:`analyze_function`, so each flag
    means the same in both.  An enclosing ``sanitizing()`` context wins
    over ``sanitize`` (contexts do not nest).
    """
    with ExitStack() as stack:
        if sanitize:
            stack.enter_context(sanitizer.sanitizing(strict=True))
        log = stack.enter_context(_isolation.resilient())
        stack.enter_context(_isolation.strict_errors(strict))
        stack.enter_context(_budget.budgeted(budget))
        yield log


def _expr_cache_totals() -> Dict[str, int]:
    """Flattened hit/miss totals of the Expr memo tables (for deltas)."""
    from repro.symbolic.expr import cache_stats

    stats = cache_stats()
    return {
        f"{table}.{kind}": stats[table][kind]
        for table in ("sym", "subst", "const")
        for kind in ("hits", "misses")
    }


def _record_expr_cache_delta(before: Dict[str, int]) -> None:
    """Feed this run's Expr memo hit/miss deltas into the metrics registry."""
    from repro.symbolic.expr import cache_stats

    registry = _metrics.active()
    if registry is None:
        return
    after = _expr_cache_totals()
    for key, value in after.items():
        registry.inc(f"expr.cache.{key}", value - before[key])
    stats = cache_stats()
    registry.set_gauge(
        "expr.cache.size", sum(stats[table]["size"] for table in stats)
    )


def _degraded_program(
    source: Optional[str],
    name: str,
    log: _isolation.DegradationLog,
) -> AnalyzedProgram:
    """The maximally degraded (but structurally valid) result.

    Used when even the frontend could not produce IR under fault
    injection: an empty function whose every query answers honestly
    (no names, no loops, all-Unknown classifications).
    """
    named = Function(name)
    named.add_block("entry").terminator = Return()
    return _degraded_from_named(named, source, log)


def _degraded_from_named(
    named: Function,
    source: Optional[str],
    log: _isolation.DegradationLog,
) -> AnalyzedProgram:
    """Degrade to a classification-free result over intact named IR."""
    ssa = clone_function(named)
    domtree = dominator_tree(ssa)
    nest = find_loops(ssa, domtree)
    ssa_info = SSAInfo(ssa, domtree)
    result = AnalysisResult(ssa, nest, domtree)
    program = AnalyzedProgram(
        source=source,
        named_ir=named,
        ssa=ssa,
        ssa_info=ssa_info,
        domtree=domtree,
        nest=nest,
        result=result,
        degradations=list(log.records),
    )
    _runlog.capture(program)  # one bool read when recording is off
    return program


def _run_scalar_passes(ssa: Function) -> DominatorTree:
    """The optimize phase body (raises; isolation is the caller's job).

    None of the passes edits the CFG, so one dominator tree serves GVN in
    every round and is returned for loop detection.
    """
    from repro.ir.verify import verify_function
    from repro.scalar.copyprop import propagate_copies
    from repro.scalar.gvn import run_gvn
    from repro.scalar.sccp import run_sccp
    from repro.scalar.simplify import simplify_instructions

    with _trace.span("pipeline.optimize"):
        domtree = dominator_tree(ssa)
        for _ in range(3):
            _budget.check_request_deadline("optimize")
            run_sccp(ssa)
            sanitizer.checkpoint(ssa, "sccp")
            changed = simplify_instructions(ssa)
            sanitizer.checkpoint(ssa, "simplify")
            changed += run_gvn(ssa, domtree)
            sanitizer.checkpoint(ssa, "gvn")
            changed += propagate_copies(ssa)
            sanitizer.checkpoint(ssa, "copyprop")
            if not changed:
                break
    verify_function(ssa, ssa=True)
    return domtree


def _analyze_function(
    named: Function,
    source: Optional[str],
    optimize: bool,
    log: Optional[_isolation.DegradationLog] = None,
    ranges: bool = False,
    invariants: bool = False,
) -> AnalyzedProgram:
    if log is None:
        log = _isolation.DegradationLog()

    cache_before = _expr_cache_totals() if _metrics.active() is not None else None

    try:
        ssa = clone_function(named)
        ssa_info = construct_ssa(ssa)
    except Exception as error:  # noqa: BLE001 - whole-function boundary
        _isolation.absorb(error, "ssa.construct", diag_code="RES505")
        return _degraded_from_named(named, source, log)
    sanitizer.checkpoint(ssa, "construct-ssa")
    # the optimize phase's dominator tree, reused for loop detection; it
    # is dropped together with any SSA a failed phase left behind
    domtree: Optional[DominatorTree] = None
    if optimize:
        try:
            domtree = _run_scalar_passes(ssa)
        except Exception as error:  # noqa: BLE001 - phase boundary
            _isolation.absorb(
                error, "pipeline.optimize", action="skipped", diag_code="RES502"
            )
            # the failed passes mutated ``ssa`` in place: rebuild it from
            # the intact named IR and classify the unoptimized form
            try:
                ssa = clone_function(named)
                ssa_info = construct_ssa(ssa)
            except Exception as rebuild_error:  # noqa: BLE001
                _isolation.absorb(
                    rebuild_error, "ssa.construct", diag_code="RES505"
                )
                return _degraded_from_named(named, source, log)
    try:
        if domtree is None:
            domtree = dominator_tree(ssa)
        nest = find_loops(ssa, domtree)
    except Exception as error:  # noqa: BLE001 - whole-function boundary
        _isolation.absorb(error, "analysis.loops", diag_code="RES505")
        return _degraded_from_named(named, source, log)
    try:
        # a request over its whole-analysis deadline degrades here rather
        # than starting classification it cannot finish (the serving
        # layer's per-request budget; a no-op without one)
        _budget.check_request_deadline("classify.function")
        result = classify_function(ssa, nest, domtree)
    except Exception as error:  # noqa: BLE001 - whole-function boundary
        _isolation.absorb(error, "classify.function", diag_code="RES505")
        result = AnalysisResult(ssa, nest, domtree)
    if ranges:
        from repro.ranges.analysis import RangeInfo, compute_ranges

        # optional + isolated: a failure degrades to all-top ranges (every
        # query answers the full interval) and analysis continues
        def _ranges_phase():
            _budget.check_request_deadline("ranges.compute")
            return compute_ranges(result)

        result.ranges = _isolation.run_optional(
            "ranges.compute",
            _ranges_phase,
            default=RangeInfo.top_info(function=ssa.name),
        )
    if invariants:
        from repro.invariants.analysis import InvariantInfo, compute_invariants

        # optional + isolated: a failure degrades to a no-invariants info
        # (every query answers "no claim") and analysis continues
        def _invariants_phase():
            _budget.check_request_deadline("invariants.compute")
            return compute_invariants(result)

        result.invariants = _isolation.run_optional(
            "invariants.compute",
            _invariants_phase,
            default=InvariantInfo.degraded_info(function=ssa.name),
        )
    if cache_before is not None:
        _record_expr_cache_delta(cache_before)
    program = AnalyzedProgram(
        source=source,
        named_ir=named,
        ssa=ssa,
        ssa_info=ssa_info,
        domtree=domtree,
        nest=nest,
        result=result,
        degradations=list(log.records),
    )
    _runlog.capture(program)  # one bool read when recording is off
    return program
