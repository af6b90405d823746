"""Deterministic fault injection: plans, determinism, point reachability."""

import random

import pytest

from repro.pipeline import analyze
from repro.resilience.errors import InjectedFault
from repro.resilience.faultinject import (
    FAULT_POINTS,
    FaultPlan,
    active_plan,
    all_fault_points,
    fault_point,
    injecting,
)

# one program that drives every pipeline-internal fault point: a loop
# with a polynomial IV (closedform.fit) and an affine recurrence
# (closedform.recurrence)
PIPELINE_SRC = """
i = 0
x = 0
j = 1
L1: while i < 10 do
  x = x + i
  j = 2 * j + 1
  i = i + 1
endwhile
"""

#: fault points that fire inside a plain ``analyze()`` of PIPELINE_SRC
PIPELINE_POINTS = {
    "frontend.parse",
    "frontend.lower",
    "analysis.loop-simplify",
    "ssa.construct",
    "scalar.sccp",
    "scalar.simplify",
    "scalar.gvn",
    "scalar.copyprop",
    "classify.function",
    "classify.loop",
    "classify.tripcount",
    "closedform.fit",
    "closedform.recurrence",
}
#: fault points at direct entry points (transforms, dependence graph)
DIRECT_POINTS = set(FAULT_POINTS) - PIPELINE_POINTS


class TestFaultPlan:
    def test_unknown_points_rejected(self):
        with pytest.raises(ValueError, match="unknown fault points"):
            FaultPlan(points={"no.such"})

    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)

    def test_rate_below_one_needs_a_seed(self):
        # without a seed every hit trips, so the rate would be ignored
        with pytest.raises(ValueError, match="needs a seed"):
            FaultPlan(points={"serve.worker"}, rate=0.5)

    def test_point_filter(self):
        plan = FaultPlan(points={"classify.loop"})
        assert not plan.should_trip("scalar.gvn")
        assert plan.should_trip("classify.loop")
        assert plan.fired == [("classify.loop", 0)]

    def test_only_first(self):
        plan = FaultPlan(points={"classify.loop"}, only_first=True)
        assert plan.should_trip("classify.loop")
        assert not plan.should_trip("classify.loop")
        assert plan.hits["classify.loop"] == 2

    def test_seeded_stream_is_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed, rate=0.5)
            return [plan.should_trip("classify.loop") for _ in range(64)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_keyed_point_fires_the_same_scopes_in_any_order(self):
        # a serve worker rescopes per job: whether a job's fault fires
        # must not depend on the jobs its worker ran before
        def fired_scopes(scopes):
            plan = FaultPlan(points={"serve.worker"}, seed=7, rate=0.5)
            fired = set()
            for scope in scopes:
                plan.rescope(scope)
                if plan.should_trip("serve.worker"):
                    fired.add(scope)
            return fired

        scopes = [(f"fp{n}", attempt) for n in range(32) for attempt in (0, 1)]
        shuffled = list(scopes)
        random.Random(1).shuffle(shuffled)
        fired = fired_scopes(scopes)
        assert fired == fired_scopes(shuffled)
        assert 0 < len(fired) < len(scopes)

    def test_rescope_restarts_the_hit_count(self):
        plan = FaultPlan(points={"classify.loop"}, only_first=True)
        assert plan.should_trip("classify.loop")
        plan.rescope(("fp", 1))
        assert plan.hits == {}
        assert plan.should_trip("classify.loop")

    def test_rate_zero_never_trips_but_counts(self):
        plan = FaultPlan(seed=1, rate=0.0)
        assert not any(plan.should_trip("scalar.gvn") for _ in range(16))
        assert plan.hits["scalar.gvn"] == 16
        assert plan.fired == []


class TestFaultPoint:
    def test_noop_without_a_plan(self):
        assert active_plan() is None
        fault_point("classify.loop")  # no raise
        fault_point("not.even.registered")  # validation only when armed

    def test_unknown_name_rejected_when_armed(self):
        with injecting(FaultPlan()):
            with pytest.raises(ValueError, match="not in FAULT_POINTS"):
                fault_point("not.registered")

    def test_armed_point_raises_injected_fault(self):
        with injecting("classify.loop"):
            with pytest.raises(InjectedFault) as info:
                fault_point("classify.loop")
        assert info.value.phase == "classify.loop"

    def test_injection_counts_the_metric(self):
        from repro.obs.metrics import MetricsRegistry, collecting

        with collecting(MetricsRegistry()) as registry:
            with injecting("classify.loop"):
                with pytest.raises(InjectedFault):
                    fault_point("classify.loop")
        counters = registry.snapshot()["counters"]
        assert counters["resilience.faults.injected"] == 1

    def test_plan_scope_restored(self):
        with injecting("classify.loop") as plan:
            assert active_plan() is plan
        assert active_plan() is None


class TestReachability:
    """Every catalogued fault point must actually fire somewhere."""

    def test_catalogue_is_partitioned(self):
        assert PIPELINE_POINTS <= set(FAULT_POINTS)
        assert PIPELINE_POINTS | DIRECT_POINTS == set(FAULT_POINTS)
        assert all_fault_points() == sorted(FAULT_POINTS)

    def test_every_pipeline_point_is_hit_by_analyze(self):
        # rate=0.0 observes invocations without tripping anything
        with injecting(FaultPlan(seed=1, rate=0.0)) as plan:
            program = analyze(PIPELINE_SRC)
        assert not program.degraded
        missing = PIPELINE_POINTS - set(plan.hits)
        assert not missing, f"never invoked under analyze(): {sorted(missing)}"

    @pytest.mark.parametrize("point", sorted(PIPELINE_POINTS))
    def test_pipeline_point_trips_and_is_contained(self, point):
        with injecting(FaultPlan(points={point})) as plan:
            program = analyze(PIPELINE_SRC)
        assert plan.fired, f"{point} armed but never fired"
        assert program.degraded
        assert any(r.code == "injected-fault" for r in program.degradations)

    @pytest.mark.parametrize("point", sorted(DIRECT_POINTS))
    def test_direct_point_trips_at_its_entry(self, point):
        program = analyze(PIPELINE_SRC)
        summary = next(iter(program.result.loops.values()))
        drivers = {
            "dependence.graph": lambda: __import__(
                "repro.dependence.graph", fromlist=["build_dependence_graph"]
            ).build_dependence_graph(program.result),
            "transform.strength-reduce": lambda: _transforms().strength_reduce(
                program.ssa, program.result, summary.loop
            ),
            "transform.ivsubst": lambda: (
                _transforms().substitute_induction_variables(
                    program.ssa, program.result, summary.loop
                )
            ),
            "transform.licm": lambda: _transforms().hoist_invariants(
                program.ssa, program.result, summary.loop
            ),
            "transform.peel": lambda: _transforms().peel_first_iteration(
                program.ssa, summary.label
            ),
            "transform.normalize": lambda: _transforms().normalize_loop(
                program.ssa, summary.label
            ),
            "transform.unroll": lambda: _transforms().fully_unroll(
                program.ssa, summary.label
            ),
            "transform.materialize": lambda: _materialize(),
            "ranges.compute": lambda: __import__(
                "repro.ranges", fromlist=["compute_ranges"]
            ).compute_ranges(program.result),
            "invariants.compute": lambda: __import__(
                "repro.invariants", fromlist=["compute_invariants"]
            ).compute_invariants(program.result),
            # the serving layer's points fire at their entry guards, so
            # none of these need a started pool or a live server
            "serve.dispatch": lambda: __import__(
                "repro.service.pool", fromlist=["WorkerPool"]
            ).WorkerPool(size=1).submit({"source": "i = 0\n"}),
            "serve.worker": lambda: __import__(
                "repro.service.worker", fromlist=["run_job"]
            ).run_job({"source": "i = 0\n"}),
            "serve.cache": lambda: __import__(
                "repro.service.cache", fromlist=["ResultCache"]
            ).ResultCache(4).get("k"),
        }
        with injecting(FaultPlan(points={point})) as plan:
            with pytest.raises(InjectedFault):
                drivers[point]()
        assert plan.fired == [(point, 0)]


def _transforms():
    import repro.transforms as transforms

    return transforms


def _materialize():
    from repro.ir.function import Function
    from repro.symbolic.expr import Expr
    from repro.transforms import materialize_expr

    function = Function("f")
    block = function.add_block("entry")
    return materialize_expr(function, block, 0, Expr.const(1))
