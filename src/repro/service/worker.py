"""The analysis worker: one process, one job at a time, crash-isolated.

A worker is a :mod:`multiprocessing` child running :func:`worker_main`:
it receives job dicts over its pipe, runs the full pipeline under a
per-request :class:`~repro.resilience.AnalysisBudget`, and sends back a
JSON-ready response built on the flight recorder's record shape
(:func:`repro.obs.runlog.build_record`), so a service response, a
run-log line, and a ``repro stats`` input are all the same object.

Process isolation is the whole point: a worker that segfaults, gets
OOM-killed, or trips the injected ``serve.worker`` crash takes down
*its process*, never the server.  The pool detects the broken pipe,
respawns, and the request degrades.  The injected crash is a real
``os._exit`` -- not an exception the worker could accidentally catch --
because the recovery path being tested is the parent's, not the
worker's.

Jobs and responses (all plain dicts, JSON-serializable)::

    job      {"id": 7, "name": "main", "source": "...", "origin": ...,
              "fingerprint": "...", "attempt": 0,
              "options": {"ranges": true, ...}}
    response {"id": 7, "ok": true, "degraded": false, "record": {...},
              "report": "..." | null}
    failure  {"id": 7, "ok": false,
              "error": {"code": "frontend-error", "message": "..."}}
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.obs import observing
from repro.obs import runlog
from repro.pipeline import analyze
from repro.resilience.budget import SERVICE_BUDGET, AnalysisBudget
from repro.resilience.errors import InjectedFault
from repro.resilience.faultinject import FaultPlan, fault_point, injecting

__all__ = ["budget_from_options", "run_job", "worker_main"]

#: exit status of a deliberately crashed worker (the injected
#: ``serve.worker`` fault); distinct from interpreter failures so tests
#: can tell the two apart
CRASH_EXIT_CODE = 13


def budget_from_options(
    options: Optional[Dict[str, Any]],
    default: AnalysisBudget = SERVICE_BUDGET,
) -> AnalysisBudget:
    """The request's :class:`AnalysisBudget`: the service default, tightened.

    ``options["deadline_s"]`` sets the whole-analysis clock (the CLI's
    ``--deadline-s`` semantics); ``options["max_expr_terms"]`` caps
    symbolic growth.
    """
    options = options or {}
    budget = default
    deadline = options.get("deadline_s")
    if deadline is not None:
        budget = replace(budget, request_deadline_s=float(deadline))
    terms = options.get("max_expr_terms")
    if terms is not None:
        budget = replace(budget, max_expr_terms=int(terms))
    return budget


def run_job(
    job: Dict[str, Any], default_budget: AnalysisBudget = SERVICE_BUDGET
) -> Dict[str, Any]:
    """Run one analysis job (in-process; the worker loop calls this).

    Sits behind the ``serve.worker`` fault point.  Raises
    :class:`~repro.resilience.errors.InjectedFault` when that point is
    armed -- the worker loop turns it into a hard ``os._exit`` crash --
    and returns a structured failure dict
    (never raises) for everything else.
    """
    fault_point("serve.worker")
    chaos_sleep = job.get("chaos_sleep_s")
    if chaos_sleep:  # loadtest/test hook: simulate a hung analysis
        import time

        time.sleep(float(chaos_sleep))
    source = job.get("source")
    if not isinstance(source, str):
        return {
            "id": job.get("id"),
            "ok": False,
            "error": {
                "code": "malformed-request",
                "message": "job lacks a string 'source'",
            },
        }
    options = job.get("options") or {}
    budget = budget_from_options(options, default_budget)
    if options.get("language") == "python":
        return _run_python_job(job, source, options, budget)
    try:
        with observing():
            program = analyze(
                source,
                name=job.get("name") or "main",
                optimize=bool(options.get("optimize", True)),
                strict=False,
                budget=budget,
                ranges=bool(options.get("ranges", False)),
                invariants=bool(options.get("invariants", False)),
            )
            record = runlog.build_record(program, origin_label=job.get("origin"))
            report = None
            if options.get("report"):
                from repro.report import format_report

                report = format_report(program)
    except InjectedFault:
        raise  # the worker loop decides: crash or failure response
    except Exception as error:  # noqa: BLE001 - frontend/abort errors
        from repro.resilience.errors import wrap_exception

        wrapped = wrap_exception(error, "serve.worker")
        return {
            "id": job.get("id"),
            "ok": False,
            "error": {"code": wrapped.code, "message": wrapped.message},
        }
    return {
        "id": job.get("id"),
        "ok": True,
        "degraded": bool(program.degraded),
        "record": record,
        "report": report,
    }


def _run_python_job(
    job: Dict[str, Any],
    source: str,
    options: Dict[str, Any],
    budget: AnalysisBudget,
) -> Dict[str, Any]:
    """Analyze real-Python source: every function, merged into one record.

    The ``language: "python"`` request path.  Each function the frontend
    can carry (:mod:`repro.pyfront`) runs the same pipeline as a DSL
    job; the response record concatenates their per-loop rows (headers
    are line-numbered, hence unique within a module) and sums their
    rollups, with a ``functions`` section counting lowered vs degraded.
    Unsupported constructs appear as PYF4xx entries under
    ``degradations`` -- a module that degrades entirely still answers
    ``ok``.
    """
    try:
        with observing(), runlog.source_lang("python"):
            from repro.pipeline import analyze_function
            from repro.pyfront.lower import compile_module

            module = compile_module(source, origin=job.get("origin") or "<python>")
            if module.error is not None:
                return {
                    "id": job.get("id"),
                    "ok": False,
                    "error": {
                        "code": "python-syntax-error",
                        "message": module.error.message,
                    },
                }
            record = runlog.new_record(
                job.get("origin"),
                job.get("name") or "module",
                runlog.source_fingerprint(source),
            )
            record["functions"] = {
                "total": len(module.functions),
                "lowered": 0,
                "degraded": 0,
            }
            reports = []
            degraded = False
            for compiled in module.functions:
                record["degradations"].extend(
                    runlog.degradation_rows(compiled.degradations)
                )
                if not compiled.ok:
                    record["functions"]["degraded"] += 1
                    degraded = True
                    continue
                program = analyze_function(
                    compiled.function,
                    source=compiled.source,
                    optimize=bool(options.get("optimize", True)),
                    budget=budget,
                    ranges=bool(options.get("ranges", False)),
                    invariants=bool(options.get("invariants", False)),
                )
                runlog.merge_record(
                    record, runlog.build_record(program, compiled.origin)
                )
                record["functions"]["lowered"] += 1
                degraded = degraded or bool(program.degraded)
                if options.get("report"):
                    from repro.report import format_report

                    reports.append(
                        f"== {compiled.qualname} ({compiled.origin}) ==\n"
                        + format_report(program)
                    )
    except InjectedFault:
        raise
    except Exception as error:  # noqa: BLE001 - total-ingestion contract
        from repro.resilience.errors import wrap_exception

        wrapped = wrap_exception(error, "serve.worker")
        return {
            "id": job.get("id"),
            "ok": False,
            "error": {"code": wrapped.code, "message": wrapped.message},
        }
    return {
        "id": job.get("id"),
        "ok": True,
        "degraded": degraded,
        "record": record,
        "report": "\n\n".join(reports) if reports else None,
    }


def worker_main(
    conn,
    worker_id: int,
    fault_spec: Optional[Dict[str, Any]] = None,
    budget_spec: Optional[Dict[str, Any]] = None,
) -> None:
    """The worker process entry point: recv job, run, send response.

    ``fault_spec`` rebuilds a :class:`FaultPlan` inside the child for
    the worker's whole lifetime.  Each job rescopes it to the job's
    ``(fingerprint, attempt)``, so whether a ``seed``/``rate`` plan
    trips depends on the job alone, not on the jobs before it.
    ``budget_spec`` (a dict of :class:`AnalysisBudget` fields) sets the
    server's default per-request budget; per-job options still tighten
    it.  A ``None`` job is the graceful-drain sentinel.
    """
    default_budget = SERVICE_BUDGET
    if budget_spec:
        default_budget = AnalysisBudget(**budget_spec)
    plan = None
    if fault_spec:
        plan = FaultPlan(
            points=fault_spec.get("points"),
            seed=fault_spec.get("seed"),
            rate=fault_spec.get("rate", 1.0),
        )
    from contextlib import nullcontext

    with injecting(plan) if plan is not None else nullcontext():
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):
                return
            if job is None:
                return
            if plan is not None:
                plan.rescope((job.get("fingerprint"), job.get("attempt", 0)))
            try:
                response = run_job(job, default_budget)
            except InjectedFault as fault:
                if fault.phase == "serve.worker":
                    # simulate a hard crash: no response, no cleanup --
                    # the parent sees a broken pipe, exactly like a real
                    # segfault or OOM kill
                    os._exit(CRASH_EXIT_CODE)
                response = {
                    "id": job.get("id"),
                    "ok": False,
                    "error": {"code": fault.code, "message": fault.message},
                }
            except Exception as error:  # noqa: BLE001 - last-ditch containment
                response = {
                    "id": job.get("id"),
                    "ok": False,
                    "error": {
                        "code": "internal-error",
                        "message": f"{type(error).__name__}: {error}",
                    },
                }
            try:
                conn.send(response)
            except (BrokenPipeError, OSError):
                return
