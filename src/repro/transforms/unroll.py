"""Full loop unrolling for constant trip counts.

Built directly on the analysis: the trip count of section 5.2 says how
many copies to make, and the copies are produced by repeated first-
iteration peeling (each peel advances the loop by one iteration, so ``tc``
peels straight-line the whole execution; the residual loop's exit test
then fails immediately).  A consumer like SCCP folds the residue away.

Unrolling is the classical litmus test for trip-count correctness: the
interpreter must observe identical behaviour, including for the
"early increment" mid-exit loops of Figure 7.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.loopsimplify import simplify_loops
from repro.diagnostics.sanitizer import checkpoint
from repro.ir.function import Function, IRError
from repro.resilience.budget import unroll_cap
from repro.resilience.faultinject import fault_point
from repro.transforms.peel import peel_first_iteration

from repro.obs.trace import traced


@traced("transform.unroll")
def fully_unroll(
    function: Function, header: str, max_trips: int = 32
) -> Optional[int]:
    """Unroll the loop at ``header`` completely (named IR, in place).

    Returns the number of peeled iterations, or None when the trip count
    is unknown, inexact, symbolic, or above ``max_trips`` (the function is
    left untouched in that case).  An active
    :class:`~repro.resilience.AnalysisBudget` additionally clamps
    ``max_trips`` to ``max_unroll_trips``, bounding the IR expansion.
    """
    from repro.pipeline import analyze_function

    fault_point("transform.unroll")
    probe = analyze_function(function)
    if header not in probe.result.loops:
        raise IRError(f"no loop headed at {header!r}")
    trip = probe.result.trip_count(header)
    count = trip.constant()
    if count is None or not trip.exact or count > unroll_cap(max_trips):
        return None

    for _ in range(count):
        peel_first_iteration(function, header)
        simplify_loops(function)
    checkpoint(function, "unroll", ssa=False)
    return count
