"""Path-sensitive loop summaries and polynomial loop invariants.

The classifier (sections 3-5 of the paper) summarizes each cyclic SCR by
the *set* of per-path effects its expander collects; this package makes
the paths themselves first class:

* :mod:`repro.invariants.paths` -- enumerate the acyclic paths through a
  loop body's region (header to latch), symbolically execute each one
  jointly over every header phi, and record a per-path update map.
  Provably-dead edges (the RNG606 constant-branch verdict) are pruned
  before summarization.
* :mod:`repro.invariants.poly` -- for loops whose per-path updates are
  affine, build the update matrix of the degree-<=2 monomial basis and
  compute the polynomial equalities preserved by *every* path (the
  linear-algebra method of de Oliveira et al., solved exactly by
  :func:`repro.symbolic.rational.integer_nullspace`).
* :mod:`repro.invariants.analysis` -- :func:`compute_invariants`, the
  driver wired behind ``analyze(..., invariants=True)``: attaches a
  :class:`PathSummary` and the invariant equalities to each
  :class:`~repro.core.driver.LoopSummary`, and intersects value ranges
  with invariant-implied bounds.
* :mod:`repro.invariants.checks` -- the ``INV7xx`` checker suite:
  replay every emitted equality (and every ``BranchDependent`` step
  bound) against the reference interpreter.

The phase is optional and isolated (fault point ``invariants.compute``):
on failure it degrades to a no-invariants :class:`InvariantInfo`.
"""

from repro.invariants.analysis import InvariantInfo, compute_invariants
from repro.invariants.checks import check_invariants
from repro.invariants.paths import LoopPath, PathSummary, enumerate_paths
from repro.invariants.poly import LoopInvariant, generate_invariants

__all__ = [
    "InvariantInfo",
    "LoopInvariant",
    "LoopPath",
    "PathSummary",
    "check_invariants",
    "compute_invariants",
    "enumerate_paths",
    "generate_invariants",
]
