"""Deterministic fault injection: prove degradation, don't hope for it.

Every pipeline phase declares a **named fault point** (the catalogue is
:data:`FAULT_POINTS`; ``docs/ROBUSTNESS.md`` documents it one-for-one).
A fault point is one call -- ``fault_point("scalar.sccp")`` -- costing a
single module attribute read when no injection plan is armed (a
module-level ``_ARMED`` flag mirrors the context variable, exactly the
pay-for-use contract of the obs layer and the budget cap's
module-mirror trick; per-process, not per-thread).

A :class:`FaultPlan` decides *deterministically* which invocations trip:

* ``FaultPlan(points={"classify.loop"})`` -- every hit of those points;
* ``FaultPlan(points=..., only_first=True)`` -- only the first hit (to
  fault one loop of a nest and leave the others clean);
* ``FaultPlan(seed=202, rate=0.3)`` -- a seeded pseudo-random sweep: the
  k-th invocation of a point trips iff a hash of (seed, point, scope, k)
  falls below the rate, so the same seed over the same corpus always
  injects the same faults, whatever order the work arrives in.

The scope is ``None`` unless :meth:`FaultPlan.rescope` names one.  A
serve worker rescopes to each job's ``(fingerprint, attempt)``, so
whether a job crashes depends on the program and the attempt, never on
which jobs its worker ran before.

The chaos suite (``tests/resilience/test_chaos.py``) arms every point in
turn over the ``examples/`` corpus and asserts that ``analyze()`` always
returns a degraded-but-valid :class:`~repro.pipeline.AnalyzedProgram`.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.obs import metrics as _metrics
from repro.resilience.errors import InjectedFault

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "all_fault_points",
    "fault_point",
    "injecting",
]

#: every named fault point, with the phase it interrupts.  Call sites and
#: this catalogue are kept in sync by ``tests/resilience/test_faultinject.py``
#: (every point must be reachable) and the docs by
#: ``tests/resilience/test_docs.py``.
FAULT_POINTS: Dict[str, str] = {
    "frontend.parse": "lexing/parsing the loop-language source",
    "frontend.lower": "lowering the AST to named IR",
    "analysis.loop-simplify": "preheader/latch canonicalization",
    "ssa.construct": "phi placement and renaming",
    "scalar.sccp": "sparse conditional constant propagation",
    "scalar.simplify": "algebraic instruction simplification",
    "scalar.gvn": "global value numbering",
    "scalar.copyprop": "copy propagation",
    "classify.function": "whole-function classification setup",
    "classify.loop": "per-loop region build + SCR classification",
    "classify.tripcount": "trip-count computation of one loop",
    "closedform.fit": "section 4.3 coefficient-matrix fitting",
    "closedform.recurrence": "affine recurrence solving",
    "dependence.graph": "dependence-graph construction",
    "transform.strength-reduce": "strength reduction",
    "transform.ivsubst": "induction-variable substitution",
    "transform.licm": "loop-invariant code motion",
    "transform.peel": "first-iteration peeling",
    "transform.normalize": "loop normalization",
    "transform.unroll": "full unrolling",
    "transform.materialize": "exit-value materialization",
    "ranges.compute": "value-range analysis over the classification lattice",
    "invariants.compute": "path-sensitive summaries and polynomial invariant generation",
    "serve.dispatch": "handing a service request's job to the worker pool",
    "serve.worker": "job execution inside an analysis worker process",
    "serve.cache": "fingerprint-keyed result cache lookup/store",
}


def all_fault_points() -> List[str]:
    return sorted(FAULT_POINTS)


class FaultPlan:
    """A deterministic decision procedure over fault-point invocations.

    ``points`` restricts which named points may trip (``None`` = all).
    With a ``seed``, the k-th invocation of a point in the current scope
    trips iff :func:`_draw` of (seed, point, scope, k) is below ``rate``;
    without one, every eligible invocation trips.  ``only_first`` trips
    just the first eligible invocation per point.
    """

    def __init__(
        self,
        points: Optional[Iterable[str]] = None,
        seed: Optional[int] = None,
        rate: float = 1.0,
        only_first: bool = False,
    ):
        if points is None:
            self.points: Optional[Set[str]] = None
        else:
            self.points = set(points)
            unknown = self.points - set(FAULT_POINTS)
            if unknown:
                raise ValueError(f"unknown fault points: {sorted(unknown)}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        self.seed = seed
        self.rate = rate
        self.only_first = only_first
        self.scope: Optional[Hashable] = None
        self.hits: Dict[str, int] = {}
        #: every (point, invocation index) that actually tripped
        self.fired: List[Tuple[str, int]] = []

    def rescope(self, scope: Optional[Hashable]) -> None:
        """Key later decisions on ``scope``; hit counts restart at 0."""
        self.scope = scope
        self.hits = {}

    def should_trip(self, point: str) -> bool:
        if self.points is not None and point not in self.points:
            return False
        index = self.hits.get(point, 0)
        self.hits[point] = index + 1
        if self.only_first and index > 0:
            return False
        if (
            self.seed is not None
            and _draw(self.seed, point, self.scope, index) >= self.rate
        ):
            return False
        self.fired.append((point, index))
        return True


def _draw(
    seed: int, point: str, scope: Optional[Hashable], index: int
) -> float:
    """A uniform value in [0, 1) that depends on its arguments alone.

    A digest, not :func:`hash`: string hashing is salted per process,
    and a draw must repeat across processes and runs.
    """
    key = repr((seed, point, scope, index)).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


_PLAN: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_resilience_faultplan", default=None
)

#: module-level mirror of "is a (non-None) plan armed?" -- the single
#: gate every un-armed fault point reads.
_ARMED: bool = False


def active_plan() -> Optional[FaultPlan]:
    return _PLAN.get()


@contextmanager
def injecting(plan: Union[FaultPlan, str, None]):
    """Arm a fault plan (or one point by name) for the dynamic extent."""
    global _ARMED
    if isinstance(plan, str):
        plan = FaultPlan(points={plan})
    token = _PLAN.set(plan)
    previous = _ARMED
    _ARMED = plan is not None
    try:
        yield plan
    finally:
        _ARMED = previous
        _PLAN.reset(token)


def fault_point(name: str) -> None:
    """Declare a named fault point; trips when an armed plan says so.

    One module attribute read when no plan is armed.  Unknown names only
    fail when a plan is armed (the hot path never pays for validation).
    """
    if not _ARMED:
        return
    plan = _PLAN.get()
    if plan is None:
        return
    if name not in FAULT_POINTS:
        raise ValueError(f"fault_point({name!r}) is not in FAULT_POINTS")
    if plan.should_trip(name):
        _metrics.inc("resilience.faults.injected")
        raise InjectedFault(
            f"injected fault at {name} ({FAULT_POINTS[name]})", phase=name
        )
