"""Resource budgets: bound the pipeline's worst-case symbolic work.

The paper's machinery is small in the common case -- "the matrices
involved are tiny" -- but adversarial inputs can drive it arbitrarily
far: polynomial multiplication grows term counts quadratically, the
section 4.3 coefficient matrices grow with recurrence order, full
unrolling multiplies the IR by the trip count, and a pathological loop
nest can hold one phase hostage indefinitely.  An :class:`AnalysisBudget`
caps each of those at its choke point; exhausting a budget raises
:class:`~repro.resilience.errors.BudgetExceeded` (policy DEGRADE), which
the isolation layer converts into an ``Unknown`` classification -- never
a crash.

The active budget lives in a context variable (``None`` = unbudgeted,
the library default).  The hot-path check in
:mod:`repro.symbolic.expr` reads the module-level mirror
:data:`_EXPR_TERM_CAP` instead -- one attribute read, zero cost when no
budget is installed.  :data:`SERVICE_BUDGET` is a documented
production-service default.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

from repro.resilience.errors import BudgetExceeded

__all__ = [
    "AnalysisBudget",
    "SERVICE_BUDGET",
    "active",
    "budgeted",
    "charge_expr_terms",
    "check_request_deadline",
    "matrix_dim_allowed",
    "unroll_cap",
]


@dataclass(frozen=True)
class AnalysisBudget:
    """Per-analysis resource caps (``None`` disables the individual cap).

    * ``max_expr_terms`` -- monomial count of any single
      :class:`~repro.symbolic.expr.Expr` built by multiplication or
      substitution;
    * ``max_matrix_dim`` -- dimension of the section 4.3 coefficient
      matrices (polynomial degree + geometric bases + 1);
    * ``max_unroll_trips`` -- trip count beyond which unroll/peel
      transforms refuse to expand the IR;
    * ``request_deadline_s`` -- wall-clock seconds the *whole* analysis
      may run; checked at phase boundaries, between scalar-pass rounds
      and before each loop's classification, so overrun degrades the
      remaining work rather than the finished work.
    """

    max_expr_terms: Optional[int] = None
    max_matrix_dim: Optional[int] = None
    max_unroll_trips: Optional[int] = None
    request_deadline_s: Optional[float] = None


#: a sane default for services: generous enough for every program in the
#: paper (and ``examples/``), tight enough that no request monopolizes a
#: worker.
SERVICE_BUDGET = AnalysisBudget(
    max_expr_terms=4096,
    max_matrix_dim=12,
    max_unroll_trips=256,
    request_deadline_s=10.0,
)

_BUDGET: ContextVar[Optional[AnalysisBudget]] = ContextVar(
    "repro_resilience_budget", default=None
)
_REQUEST_DEADLINE: ContextVar[Optional[float]] = ContextVar(
    "repro_resilience_request_deadline", default=None
)

#: module-level mirror of the innermost budget's ``max_expr_terms``, read
#: directly by the Expr hot paths (an attribute load beats a context-var
#: lookup there; budgets are installed per-analysis, not per-thread)
_EXPR_TERM_CAP: Optional[int] = None


def active() -> Optional[AnalysisBudget]:
    """The innermost installed budget, or ``None`` (unbudgeted)."""
    return _BUDGET.get()


@contextmanager
def budgeted(budget: Optional[AnalysisBudget]):
    """Install ``budget`` for the dynamic extent of the block.

    ``budgeted(None)`` is a no-op context, so callers can pass an optional
    budget through unconditionally.
    """
    global _EXPR_TERM_CAP
    if budget is None:
        yield None
        return
    token = _BUDGET.set(budget)
    request_token = None
    if budget.request_deadline_s is not None:
        request_token = _REQUEST_DEADLINE.set(
            time.monotonic() + budget.request_deadline_s
        )
    previous_cap = _EXPR_TERM_CAP
    _EXPR_TERM_CAP = budget.max_expr_terms
    try:
        yield budget
    finally:
        _EXPR_TERM_CAP = previous_cap
        if request_token is not None:
            _REQUEST_DEADLINE.reset(request_token)
        _BUDGET.reset(token)


def charge_expr_terms(nterms: int) -> None:
    """Raise when a freshly built Expr exceeds the term cap."""
    cap = _EXPR_TERM_CAP
    if cap is not None and nterms > cap:
        raise BudgetExceeded(
            f"expression grew to {nterms} terms (budget {cap})",
            code="budget-expr-terms",
        )


def matrix_dim_allowed(dim: int) -> bool:
    """True when a ``dim x dim`` coefficient matrix fits the budget.

    The closed-form fitters *degrade* (return ``None``) rather than raise
    on an oversized system, so this is a predicate, not a charge.
    """
    budget = _BUDGET.get()
    return (
        budget is None
        or budget.max_matrix_dim is None
        or dim <= budget.max_matrix_dim
    )


def unroll_cap(requested: int) -> int:
    """The effective unroll limit: ``requested`` clamped by the budget."""
    budget = _BUDGET.get()
    if budget is None or budget.max_unroll_trips is None:
        return requested
    return min(requested, budget.max_unroll_trips)


def check_request_deadline(phase: str) -> None:
    """Raise when the whole analysis ran past ``request_deadline_s``.

    Called at phase boundaries, between scalar-pass rounds and before
    each loop's classification, so an over-budget analysis degrades its
    *remaining* work -- the finished work stands.  Under ``repro
    serve`` this check does not bind a request's ``deadline_s``: the
    pool's hung-worker kill uses the same number and starts its clock
    first, so it kills the worker (``request-timeout``) before the
    analysis can see its own deadline pass.
    """
    deadline = _REQUEST_DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(
            f"request ran past its deadline (at phase {phase!r})",
            code="budget-request-deadline",
            phase=phase,
        )
