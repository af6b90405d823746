"""Scalar optimizations on SSA form.

The paper leans on these as substrate: "Often the initial value coming in
from outside the loop can be evaluated and substituted, using an algorithm
such as constant propagation [WZ91]" (section 3.1).  Provided passes:

* :mod:`repro.scalar.sccp` -- Wegman/Zadeck sparse conditional constant
  propagation over SSA.
* :mod:`repro.scalar.copyprop` -- copy propagation (forwarding of
  ``x = copy y``).
* :mod:`repro.scalar.dce` -- dead code elimination.
* :mod:`repro.scalar.simplify` -- local algebraic simplification.
* :mod:`repro.scalar.gvn` -- dominator-based global value numbering
  [AWZ88, RWZ88], the paper's cited companion SSA applications.
"""

from repro.scalar.sccp import SCCPResult, run_sccp
from repro.scalar.copyprop import propagate_copies
from repro.scalar.dce import eliminate_dead_code
from repro.scalar.simplify import simplify_instructions
from repro.scalar.gvn import run_gvn

__all__ = [
    "run_gvn",
    "SCCPResult",
    "run_sccp",
    "propagate_copies",
    "eliminate_dead_code",
    "simplify_instructions",
]
