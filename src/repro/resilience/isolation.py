"""Failure isolation boundaries for the analysis pipeline.

The unit of containment shrinks with the distance from the user: a
failing *SCR* classifies as ``Unknown``, a failing *loop* yields a
degraded :class:`~repro.core.driver.LoopSummary`, a failing *optional
phase* (a transform, the dependence graph, a lint) is skipped, and only
when a whole function cannot be analyzed does the entire result degrade
to an empty classification map.  Each containment decision is driven by
the error's :class:`~repro.resilience.errors.RecoveryPolicy` and logged
as a :class:`DegradationRecord`, so nothing degrades silently: records
become ``RES5xx`` diagnostics, ``resilience.degraded.<phase>`` metric
counters, ``resilience.degraded`` trace events, and a ``== resilience ==``
section in ``repro report``.

Isolation is *scoped*: it only engages inside a :func:`resilient`
context (installed by :func:`repro.pipeline.analyze`), so direct calls
to lower-level entry points (``classify_function`` on a hand-built IR,
the transform functions) keep their historical raise behavior.  Strict
mode (:func:`strict_errors`, the CLI's ``--strict-errors``) restores
raise-on-first-error even inside a resilient context.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TypeVar

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.errors import RecoveryPolicy, wrap_exception

T = TypeVar("T")

__all__ = [
    "DegradationLog",
    "DegradationRecord",
    "absorb",
    "active_log",
    "resilient",
    "run_optional",
    "strict_active",
    "strict_errors",
]


@dataclass
class DegradationRecord:
    """One contained failure: what failed, where, and what happened instead.

    ``phase`` is the pipeline phase (``classify.loop``, ``transform.unroll``,
    ...); ``code`` the taxonomy error code; ``diag_code`` the RES5xx
    diagnostic it surfaces as; ``scope`` the loop label / function name /
    SCR the failure was contained to; ``action`` what the isolation layer
    did (``degraded`` or ``skipped``).
    """

    phase: str
    code: str
    message: str
    diag_code: str = "RES501"
    scope: Optional[str] = None
    action: str = "degraded"


@dataclass
class DegradationLog:
    """Every degradation recorded during one resilient analysis."""

    records: List[DegradationRecord] = field(default_factory=list)

    def record(
        self,
        phase: str,
        code: str,
        message: str,
        diag_code: str = "RES501",
        scope: Optional[str] = None,
        action: str = "degraded",
    ) -> DegradationRecord:
        entry = DegradationRecord(
            phase=phase,
            code=code,
            message=message,
            diag_code=diag_code,
            scope=scope,
            action=action,
        )
        self.records.append(entry)
        _metrics.inc(f"resilience.degraded.{phase}")
        _trace.event(
            "resilience.degraded",
            phase=phase,
            code=code,
            scope=scope,
            action=action,
        )
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


_LOG: ContextVar[Optional[DegradationLog]] = ContextVar(
    "repro_resilience_log", default=None
)
_STRICT: ContextVar[bool] = ContextVar(
    "repro_resilience_strict", default=False
)


def active_log() -> Optional[DegradationLog]:
    """The innermost resilient context's log, or ``None`` outside one."""
    return _LOG.get()


def strict_active() -> bool:
    return _STRICT.get()


@contextmanager
def resilient(log: Optional[DegradationLog] = None):
    """Install a degradation log, arming the isolation boundaries."""
    current = log if log is not None else DegradationLog()
    token = _LOG.set(current)
    try:
        yield current
    finally:
        _LOG.reset(token)


@contextmanager
def strict_errors(enabled: bool = True):
    """Disable containment: the first error propagates (``--strict-errors``)."""
    token = _STRICT.set(enabled)
    try:
        yield
    finally:
        _STRICT.reset(token)


def absorb(
    error: BaseException,
    phase: str,
    scope: Optional[str] = None,
    action: str = "degraded",
    diag_code: str = "RES501",
) -> Optional[DegradationRecord]:
    """Contain ``error`` at an isolation boundary, or re-raise it.

    Re-raises (the *original* exception, preserving type and traceback for
    legacy callers) when isolation is off -- no resilient context, strict
    mode -- or when the error's policy is ABORT.  Otherwise records the
    degradation and returns the record; the caller substitutes its
    degraded result.
    """
    log = _LOG.get()
    wrapped = wrap_exception(error, phase)
    if log is None or _STRICT.get() or wrapped.policy is RecoveryPolicy.ABORT:
        try:
            raise error
        finally:
            # the traceback holds this frame: drop the frame's references
            # to the error, or the two would form a reference cycle
            del error, wrapped
    if wrapped.code.startswith("budget-"):
        diag_code = "RES503"
    return log.record(
        phase=wrapped.phase or phase,
        code=wrapped.code,
        message=wrapped.message,
        diag_code=diag_code,
        scope=scope,
        action=action,
    )


def run_optional(
    phase: str,
    fn: Callable[[], T],
    default: Optional[T] = None,
    scope: Optional[str] = None,
    diag_code: str = "RES502",
) -> Optional[T]:
    """Run an optional phase; on failure, skip it and return ``default``."""
    try:
        return fn()
    except Exception as error:  # noqa: BLE001 - the isolation boundary
        absorb(error, phase, scope=scope, action="skipped", diag_code=diag_code)
        return default


def diagnostics_of(
    records: List[DegradationRecord],
    collector=None,
    origin: Optional[str] = None,
    hint: Optional[str] = None,
):
    """Publish degradation records as RES5xx diagnostics.

    Returns the collector (a fresh one when ``collector`` is ``None``).
    Imported lazily so the resilience core stays free of the diagnostics
    package at import time.  ``origin``/``hint`` let frontends label
    their own record families (the real-Python frontend labels PYF4xx
    findings with the source file); without ``origin`` a finding is left
    for the lint driver to label with the program it was analyzing.
    """
    from repro.diagnostics.diagnostic import DiagnosticCollector

    if collector is None:
        collector = DiagnosticCollector()
    if hint is None:
        hint = (
            "re-run with --strict-errors to propagate the underlying "
            "exception"
        )
    for entry in records:
        collector.emit(
            entry.diag_code,
            f"[{entry.code}] {entry.message}",
            stage=entry.phase,
            name=entry.scope,
            origin=origin,
            hint=hint,
        )
    return collector
