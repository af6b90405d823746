"""Fault tolerance for the analysis pipeline.

Wolfe's classification lattice bottoms out at *unknown*, so the honest
response to any internal failure is a degraded classification, never a
crash.  This package supplies the four pieces that make the pipeline
live up to that:

* :mod:`repro.resilience.errors` -- the structured error taxonomy:
  stable error codes, each with a recovery policy (DEGRADE / RETRY /
  ABORT);
* :mod:`repro.resilience.isolation` -- scoped failure-isolation
  boundaries (per SCR, per loop, per phase, per function) with a
  :class:`DegradationLog` feeding diagnostics, metrics, and reports;
* :mod:`repro.resilience.budget` -- :class:`AnalysisBudget` resource
  caps enforced at the symbolic and closed-form choke points;
* :mod:`repro.resilience.faultinject` -- the deterministic seeded
  fault-injection harness behind the chaos-test suite.

See ``docs/ROBUSTNESS.md`` for the error-code and fault-point
catalogues (both doc-synced by tests).
"""

from repro.resilience.budget import (
    SERVICE_BUDGET,
    AnalysisBudget,
    budgeted,
    charge_expr_terms,
    check_deadline,
    check_request_deadline,
    matrix_dim_allowed,
    phase_deadline,
    unroll_cap,
)
from repro.resilience.errors import (
    ERROR_CODES,
    BudgetExceeded,
    ErrorCodeInfo,
    InjectedFault,
    MissingPhiError,
    RecoveryPolicy,
    ReproError,
    all_error_codes,
    error_code_info,
    wrap_exception,
)
from repro.resilience.faultinject import (
    FAULT_POINTS,
    FaultPlan,
    all_fault_points,
    fault_point,
    injecting,
)
from repro.resilience.isolation import (
    DegradationLog,
    DegradationRecord,
    absorb,
    active_log,
    diagnostics_of,
    isolating,
    resilient,
    run_optional,
    strict_active,
    strict_errors,
)

__all__ = [
    "ERROR_CODES",
    "FAULT_POINTS",
    "SERVICE_BUDGET",
    "AnalysisBudget",
    "BudgetExceeded",
    "DegradationLog",
    "DegradationRecord",
    "ErrorCodeInfo",
    "FaultPlan",
    "InjectedFault",
    "MissingPhiError",
    "RecoveryPolicy",
    "ReproError",
    "absorb",
    "active_log",
    "all_error_codes",
    "all_fault_points",
    "budgeted",
    "charge_expr_terms",
    "check_deadline",
    "check_request_deadline",
    "diagnostics_of",
    "error_code_info",
    "fault_point",
    "injecting",
    "isolating",
    "matrix_dim_allowed",
    "phase_deadline",
    "resilient",
    "run_optional",
    "strict_active",
    "strict_errors",
    "unroll_cap",
    "wrap_exception",
]
