"""The invariants driver: path summaries + polynomial equalities per loop.

:func:`compute_invariants` runs after classification (and after the
optional ranges phase, whose :class:`~repro.ranges.analysis.RangeInfo`
it both consumes -- RNG606 dead-edge pruning -- and *refines*: a linear
equality ``sum c_i x_i == v`` solves each variable in terms of the
others, and the implied interval intersects the variable's range before
the operator fixpoint re-runs).

The phase is optional and isolated behind fault point
``invariants.compute``; on failure ``analyze(..., invariants=True)``
degrades to :meth:`InvariantInfo.degraded_info` and analysis continues.
Observability mirrors the ranges phase: an ``invariants`` span and the
``invariants.*`` metrics (loops walked, paths of complete summaries
executed, loops truncated at ``MAX_PATHS``, dead edges pruned,
equalities emitted, ranges refined).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.core.driver import AnalysisResult
from repro.invariants.paths import PathSummary, enumerate_paths
from repro.invariants.poly import LoopInvariant, generate_invariants
from repro.ir.values import Const, Ref
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.faultinject import fault_point
from repro.symbolic.expr import Expr


@dataclass
class InvariantInfo:
    """Queryable result of one invariant-generation run."""

    function: str = ""
    #: loop header -> polynomial equalities holding at the header
    by_loop: Dict[str, Tuple[LoopInvariant, ...]] = field(default_factory=dict)
    #: loop header -> enumerated path summary (affine or not)
    path_summaries: Dict[str, PathSummary] = field(default_factory=dict)
    #: dead edges skipped across all loops (RNG606 verdicts)
    pruned_paths: int = 0
    #: range entries tightened by invariant-implied bounds
    range_refinements: int = 0
    degraded: bool = False

    def invariants_of(self, header: str) -> Tuple[LoopInvariant, ...]:
        return self.by_loop.get(header, ())

    def path_summary_of(self, header: str) -> Optional[PathSummary]:
        return self.path_summaries.get(header)

    def total(self) -> int:
        return sum(len(group) for group in self.by_loop.values())

    @staticmethod
    def degraded_info(function: str = "") -> "InvariantInfo":
        """The no-invariants fallback the resilience boundary degrades to."""
        return InvariantInfo(function=function, degraded=True)


def compute_invariants(
    result: AnalysisResult, ranges=None
) -> InvariantInfo:
    """Attach path summaries and polynomial invariants to ``result``.

    ``ranges`` defaults to ``result.ranges`` (when the ranges phase ran);
    it is consumed for dead-edge pruning and refined in place with
    invariant-implied bounds.
    """
    fault_point("invariants.compute")
    function = result.function
    if ranges is None:
        ranges = result.ranges
    registry = _metrics.active()
    with _trace.span("invariants", function=function.name):
        info = _compute(result, ranges)
    if registry is not None:
        registry.inc("invariants.loops", len(info.path_summaries))
        registry.inc(
            "invariants.paths",
            sum(len(ps.paths) for ps in info.path_summaries.values()),
        )
        registry.inc("invariants.pruned_paths", info.pruned_paths)
        registry.inc("invariants.equalities", info.total())
        registry.inc(
            "invariants.truncated",
            sum(1 for ps in info.path_summaries.values() if ps.truncated),
        )
        registry.inc(
            "invariants.affine_loops",
            sum(1 for ps in info.path_summaries.values() if ps.affine),
        )
        registry.inc("invariants.range_refinements", info.range_refinements)
    return info


def _compute(result: AnalysisResult, ranges) -> InvariantInfo:
    function = result.function
    info = InvariantInfo(function=function.name)
    for loop in result.nest.inner_to_outer():
        summary = result.loops.get(loop.header)
        if summary is None or summary.degraded:
            continue
        path_summary = enumerate_paths(function, loop, ranges)
        if path_summary is None:
            continue  # nested loops: the region is not a path DAG
        info.path_summaries[loop.header] = path_summary
        info.pruned_paths += path_summary.pruned_paths
        if not path_summary.affine:
            continue
        inits = _initial_values(function, loop, path_summary.phis)
        if inits is None:
            continue
        invariants = generate_invariants(path_summary, inits, loop=loop.header)
        if invariants:
            info.by_loop[loop.header] = tuple(invariants)
    if ranges is not None and not getattr(ranges, "degraded", True):
        info.range_refinements = _refine_ranges(function, ranges, info)
    return info


def _initial_values(function, loop, phis) -> Optional[Dict[str, Expr]]:
    """Loop-entry expression of every header phi (None if non-canonical)."""
    header = function.blocks.get(loop.header)
    if header is None:
        return None
    out: Dict[str, Expr] = {}
    for phi in header.phis():
        if phi.result not in phis:
            continue
        init = None
        for predecessor, value in phi.incoming.items():
            if predecessor in loop.body:
                continue
            if init is not None:
                return None  # several entry edges: no single entry state
            if isinstance(value, Const):
                init = Expr.const(value.value)
            elif isinstance(value, Ref):
                init = Expr.sym(value.name)
        if init is None:
            return None
        out[phi.result] = init
    return out


def _refine_ranges(function, ranges, info: InvariantInfo) -> int:
    """Intersect ranges with bounds implied by *linear* invariants.

    ``sum c_i x_i + c0 == v`` pins each ``x_t`` to
    ``(v - c0 - sum_{i != t} c_i x_i) / c_t``; evaluating the right-hand
    side over the current intervals gives a sound bound to intersect.
    After any narrowing the operator worklist re-runs so the tightening
    propagates (intersection only descends: still a sound fixpoint).
    """
    from repro.ranges.analysis import TOP, _fixpoint_worklist, eval_expr

    refined = 0
    env = ranges.values
    for invariants in info.by_loop.values():
        for invariant in invariants:
            if invariant.degree != 1:
                continue
            residual = invariant.residual()
            affine = residual.as_affine()
            if affine is None:
                continue
            constant, coeffs = affine
            for target, coefficient in coeffs.items():
                if not coefficient:
                    continue
                rest = residual - Expr.sym(target) * Expr.const(coefficient)
                implied = eval_expr(rest, env).scale(
                    Fraction(-1) / coefficient
                )
                old = env.get(target, TOP)
                new = old.intersect(implied)
                if not new.empty and new != old:
                    env[target] = new
                    refined += 1
    if refined:
        _fixpoint_worklist(function, ranges)
    return refined
