"""The structured error taxonomy of the fault-tolerant pipeline.

Wolfe's lattice has a bottom -- *unknown* -- so no internal failure ever
needs to abort a whole :func:`repro.pipeline.analyze` run: the honest
answer for anything the pipeline cannot finish is ``Unknown``.  This
module gives every failure a stable **error code** and a **recovery
policy** so the isolation layer (:mod:`repro.resilience.isolation`) can
decide mechanically what to do with it:

* ``DEGRADE`` -- contain the failure at the nearest isolation boundary
  (loop, phase, function) and continue with a degraded result;
* ``ABORT``   -- propagate: the *input* is wrong (syntax errors) or a
  strict checking tool tripped (the sanitizer), and hiding that would be
  worse than crashing.

Codes are declared once in :data:`ERROR_CODES` (``docs/ROBUSTNESS.md`` is
the doc-synced catalogue).  Exceptions that predate the taxonomy --
``KeyError``, ``IRError``, ``ExprError``, ``Fraction`` blowups -- are
adapted by :func:`wrap_exception` at the isolation boundaries, so legacy
raise sites keep working unmodified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional


class RecoveryPolicy(enum.Enum):
    """What the isolation layer does with an error of a given code."""

    DEGRADE = "degrade"
    ABORT = "abort"


@dataclass(frozen=True)
class ErrorCodeInfo:
    """One catalogued error code: its default policy and description."""

    code: str
    policy: RecoveryPolicy
    description: str


ERROR_CODES: Dict[str, ErrorCodeInfo] = {}


def _register(code: str, policy: RecoveryPolicy, description: str) -> None:
    if code in ERROR_CODES:
        raise ValueError(f"error code {code!r} registered twice")
    ERROR_CODES[code] = ErrorCodeInfo(code, policy, description)


def error_code_info(code: str) -> ErrorCodeInfo:
    try:
        return ERROR_CODES[code]
    except KeyError:
        raise KeyError(f"unknown resilience error code {code!r}") from None


def all_error_codes() -> List[str]:
    return sorted(ERROR_CODES)


_register(
    "internal-error", RecoveryPolicy.DEGRADE,
    "An unexpected exception (KeyError, arithmetic blowup, ...) was caught "
    "at an isolation boundary; the enclosing scope degrades to Unknown.",
)
_register(
    "frontend-error", RecoveryPolicy.ABORT,
    "The source program failed to lex/parse/lower: the input is wrong, so "
    "the error propagates to the caller with its position information.",
)
_register(
    "sanitizer-violation", RecoveryPolicy.ABORT,
    "The pipeline sanitizer found a pass that broke the IR or a stale "
    "cache; sanitizing is a strict checking tool, so it always raises.",
)
_register(
    "missing-header-phi", RecoveryPolicy.DEGRADE,
    "A loop header has no phi for the requested variable (the "
    "pipeline.ssa_name lookup of section 3.1's family representative).",
)
_register(
    "irreducible-cfg", RecoveryPolicy.DEGRADE,
    "The control flow graph is irreducible; natural-loop classification "
    "would be unsound, so every loop name degrades to Unknown.",
)
_register(
    "singular-system", RecoveryPolicy.DEGRADE,
    "The section 4.3 coefficient matrix is singular on the sample points; "
    "the closed form falls back to monotonic/unknown classification.",
)
_register(
    "budget-expr-terms", RecoveryPolicy.DEGRADE,
    "A symbolic expression exceeded AnalysisBudget.max_expr_terms; the "
    "computation that built it degrades.",
)
_register(
    "budget-matrix-dim", RecoveryPolicy.DEGRADE,
    "A coefficient-recovery matrix exceeded AnalysisBudget.max_matrix_dim; "
    "the closed form falls back to monotonic/unknown classification.",
)
_register(
    "budget-unroll", RecoveryPolicy.DEGRADE,
    "A loop's trip count exceeded AnalysisBudget.max_unroll_trips; the "
    "unroll/peel transform leaves the function untouched.",
)
_register(
    "injected-fault", RecoveryPolicy.DEGRADE,
    "A fault deliberately injected by the deterministic fault-injection "
    "harness (repro.resilience.faultinject).",
)
_register(
    "budget-request-deadline", RecoveryPolicy.DEGRADE,
    "A whole analysis ran past AnalysisBudget.request_deadline_s; the "
    "remaining phases degrade instead of running on.",
)
_register(
    "worker-crash", RecoveryPolicy.DEGRADE,
    "An analysis worker process died mid-job (crash, OOM kill, injected "
    "serve.worker fault); the server re-dispatches the job to the "
    "respawned worker, up to 3 attempts, then degrades the response.",
)
_register(
    "request-timeout", RecoveryPolicy.DEGRADE,
    "A dispatched job outlived the serving layer's request timeout; the "
    "hung worker is killed and respawned and the request degrades (a "
    "re-run would hang the same way).",
)
_register(
    "python-syntax-error", RecoveryPolicy.ABORT,
    "A service request with language 'python' carried source that "
    "ast.parse rejects (a syntax error, a null byte, nesting too deep); "
    "the program degrades with the parser's message (the input is wrong).",
)
_register(
    "malformed-request", RecoveryPolicy.ABORT,
    "A service request failed to parse or lacked required fields; the "
    "client gets a structured error response (the input is wrong).",
)
_register(
    "request-overflow", RecoveryPolicy.ABORT,
    "A service request exceeded the protocol's maximum message size; the "
    "client gets a structured error response and the connection closes.",
)
_register(
    "response-overflow", RecoveryPolicy.DEGRADE,
    "A service response serialized past the protocol's maximum message "
    "size; the server drops the report/record payloads and answers a "
    "truncated degraded response instead of an unreceivable frame.",
)


class ReproError(Exception):
    """Base of the structured error hierarchy.

    Every instance carries a catalogued ``code``, the ``phase`` that raised
    it (filled in at the isolation boundary when the raise site does not
    know), and a ``policy`` (defaulting to the code's registered one).
    """

    default_code = "internal-error"

    def __init__(
        self,
        message: str,
        code: Optional[str] = None,
        phase: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
    ):
        super().__init__(message)
        self.message = message
        self.code = code if code is not None else self.default_code
        info = error_code_info(self.code)
        self.policy = policy if policy is not None else info.policy
        self.phase = phase

    def __str__(self) -> str:
        return self.message


class BudgetExceeded(ReproError):
    """A resource budget ran out (see :mod:`repro.resilience.budget`)."""

    default_code = "budget-request-deadline"


class InjectedFault(ReproError):
    """Raised by an armed fault point (policy DEGRADE)."""

    default_code = "injected-fault"


class MissingPhiError(ReproError, KeyError):
    """No loop-header phi for a variable (``AnalyzedProgram.ssa_name``).

    Subclasses :class:`KeyError` so pre-taxonomy callers that catch the
    historical exception type keep working.
    """

    default_code = "missing-header-phi"


def wrap_exception(error: BaseException, phase: str) -> ReproError:
    """Adapt any exception to the taxonomy (identity for ReproErrors).

    Legacy exception types map onto codes: frontend errors abort (the
    input is wrong), sanitizer violations abort (strict tooling),
    everything else is an internal error that degrades.
    """
    if isinstance(error, ReproError):
        if error.phase is None:
            error.phase = phase
        return error
    code = "internal-error"
    from repro.frontend.lexer import FrontendError

    if isinstance(error, FrontendError):
        code = "frontend-error"
    else:
        from repro.diagnostics.sanitizer import SanitizerError

        if isinstance(error, SanitizerError):
            code = "sanitizer-violation"
    message = str(error) or type(error).__name__
    return ReproError(
        f"{type(error).__name__}: {message}", code=code, phase=phase
    )
