"""The invariants driver: attachment, degradation, refinement, metrics."""

from fractions import Fraction

from repro.invariants.analysis import (
    InvariantInfo,
    _refine_ranges,
    compute_invariants,
)
from repro.invariants.poly import LoopInvariant
from repro.obs import observing
from repro.pipeline import analyze
from repro.ranges.interval import Interval
from repro.resilience.faultinject import FaultPlan, injecting
from repro.symbolic.expr import Expr

BRANCHY = """
i = 0
j = 0
s = 0
L1: while i < n do
  if A[i] > 0 then
    i = i + 1
    j = j + 2
    s = s + i
  else
    i = i + 2
    j = j + 4
    s = s + 2 * i - 1
  endif
endwhile
B[0] = j
"""


class TestComputeInvariants:
    def test_attaches_summaries_and_equalities(self):
        program = analyze(BRANCHY, ranges=True, invariants=True)
        info = program.result.invariants
        assert info is not None and not info.degraded
        assert "L1" in info.path_summaries
        assert info.path_summary_of("L1").complete
        assert len(info.invariants_of("L1")) >= 2
        assert info.total() >= 2

    def test_quadratic_equality_found_for_figure6_pair(self):
        program = analyze(BRANCHY, ranges=True, invariants=True)
        invariants = program.result.invariants.invariants_of("L1")
        degrees = {inv.degree for inv in invariants}
        assert 1 in degrees and 2 in degrees

    def test_runs_without_ranges(self):
        program = analyze(BRANCHY, invariants=True)
        info = program.result.invariants
        assert info is not None and not info.degraded
        assert len(info.invariants_of("L1")) >= 2

    def test_default_analyze_computes_nothing(self):
        program = analyze(BRANCHY)
        assert program.result.invariants is None

    def test_symbolic_entry_values(self):
        source = """
i = a
j = b
L1: while i < n do
  if A[i] > 0 then
    i = i + 1
    j = j + 2
  else
    i = i + 2
    j = j + 4
  endif
endwhile
"""
        program = analyze(source, invariants=True)
        (invariant,) = [
            inv
            for inv in program.result.invariants.invariants_of("L1")
            if inv.degree == 1
        ]
        syms = {name.split(".")[0] for name in invariant.value.free_symbols()}
        assert syms <= {"a", "b"} and syms

    def test_nested_loops_summarize_inner_only(self):
        source = """
s = 0
L1: for i = 1 to n do
  L2: for j = 1 to n do
    s = s + 1
  endfor
endfor
"""
        program = analyze(source, invariants=True)
        info = program.result.invariants
        assert "L2" in info.path_summaries
        assert "L1" not in info.path_summaries


class TestDegradation:
    def test_fault_at_compute_degrades_to_empty_info(self):
        with injecting(FaultPlan(points={"invariants.compute"})) as plan:
            program = analyze(BRANCHY, ranges=True, invariants=True)
        assert plan.fired
        info = program.result.invariants
        assert info is not None and info.degraded
        assert info.total() == 0
        assert program.degraded

    def test_degraded_loop_summaries_are_skipped(self):
        with injecting(FaultPlan(points={"classify.loop"})):
            program = analyze(BRANCHY, ranges=True, invariants=True)
        info = program.result.invariants
        assert not info.degraded  # the phase itself ran
        assert "L1" not in info.path_summaries
        assert info.total() == 0


class TestRangeRefinement:
    def test_linear_invariant_tightens_a_top_range(self):
        program = analyze(BRANCHY, ranges=True)
        ranges = program.result.ranges
        env = ranges.values
        env["u?"] = Interval.top()
        env["v?"] = Interval(0, 5)
        info = InvariantInfo(function=program.ssa.name)
        info.by_loop["L1"] = (
            LoopInvariant(
                loop="L1",
                poly=Expr.sym("u?") - Expr.const(2) * Expr.sym("v?"),
                value=Expr.zero(),
                variables=("u?", "v?"),
                degree=1,
            ),
        )
        refined = _refine_ranges(program.ssa, ranges, info)
        assert refined >= 1
        assert env["u?"] == Interval(0, 10)
        assert env["v?"] == Interval(0, 5)

    def test_refinement_is_idempotent(self):
        program = analyze(BRANCHY, ranges=True)
        ranges = program.result.ranges
        ranges.values["v?"] = Interval(0, 5)
        info = InvariantInfo(function=program.ssa.name)
        info.by_loop["L1"] = (
            LoopInvariant(
                loop="L1",
                poly=Expr.sym("u?") - Expr.const(2) * Expr.sym("v?"),
                value=Expr.zero(),
                variables=("u?", "v?"),
                degree=1,
            ),
        )
        assert _refine_ranges(program.ssa, ranges, info) >= 1
        assert _refine_ranges(program.ssa, ranges, info) == 0

    def test_quadratic_invariants_do_not_refine(self):
        program = analyze(BRANCHY, ranges=True)
        ranges = program.result.ranges
        info = InvariantInfo(function=program.ssa.name)
        info.by_loop["L1"] = (
            LoopInvariant(
                loop="L1",
                poly=Expr.sym("u?") * Expr.sym("u?"),
                value=Expr.const(4),
                variables=("u?",),
                degree=2,
            ),
        )
        assert _refine_ranges(program.ssa, ranges, info) == 0

    def test_branch_dependent_hulls_stay_finite(self):
        # the acceptance-criteria shape: i in [1, 3] per trip, not TOP
        source = """
i = 0
L1: while i < n do
  if A[i] > 0 then
    i = i + 1
  else
    i = i + 3
  endif
endwhile
"""
        program = analyze(source, ranges=True, invariants=True)
        info = program.result.ranges
        phi = next(
            name
            for name in program.result.loops["L1"].classifications
            if name.startswith("i.")
        )
        interval = info.range_of(phi)
        assert interval.lo is not None  # finite hull, not TOP
        assert interval.contains(0)


class TestObservability:
    def test_metrics_are_recorded(self):
        with observing() as obs:
            analyze(BRANCHY, ranges=True, invariants=True)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("invariants.loops", 0) >= 1
        assert counters.get("invariants.paths", 0) >= 2
        assert counters.get("invariants.equalities", 0) >= 2
        assert counters.get("invariants.affine_loops", 0) >= 1

    def test_span_is_emitted(self):
        with observing() as obs:
            analyze(BRANCHY, invariants=True)
        assert "invariants" in {s.name for s in obs.tracer.spans}

    def test_compute_is_rerunnable(self):
        program = analyze(BRANCHY, ranges=True, invariants=True)
        again = compute_invariants(program.result)
        assert again.total() == program.result.invariants.total()
