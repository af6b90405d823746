"""Symbolic and exact-rational kernel.

The classifier of "Beyond Induction Variables" represents initial values,
steps and closed-form coefficients *symbolically* (in terms of loop-invariant
SSA names) and recovers polynomial/geometric coefficients by inverting small
matrices with exact rational arithmetic (paper, section 4.3).  This package
provides those two primitives:

* :mod:`repro.symbolic.rational` -- exact ``Fraction`` matrices whose
  inversion, solving, determinant and nullspace share one fraction-free
  Gauss-Jordan core over integers.
* :mod:`repro.symbolic.expr` -- multivariate polynomial expressions over
  named symbols with ``Fraction`` coefficients.
* :mod:`repro.symbolic.closedform` -- the closed-form sequence domain
  ``sum_k c_k * h**k + sum_b g_b * b**h`` used to describe generalized
  induction variables.
"""

from repro.symbolic.expr import Expr, ExprError
from repro.symbolic.rational import Matrix, MatrixError
from repro.symbolic.closedform import ClosedForm, ClosedFormError

__all__ = [
    "Expr",
    "ExprError",
    "Matrix",
    "MatrixError",
    "ClosedForm",
    "ClosedFormError",
]
