"""The ``repro serve`` daemon: accept, shard, degrade, never die.

:class:`AnalysisServer` listens on a TCP socket speaking the
length-prefixed JSON protocol of :mod:`repro.service.protocol` and runs
every analysis inside the :mod:`repro.service.pool` worker processes.
The serving contract, in one line: **only a malformed or oversized
request yields** ``status: error``; every analysis failure -- worker
crash, hang, budget blow-out -- comes back as a
``status: degraded`` response carrying the same
:class:`~repro.resilience.isolation.DegradationRecord` / RES5xx payload
the CLI's degradation machinery produces, and the server itself stays
up.

Per ``analyze`` request the server:

1. validates and fingerprints each submitted program (a batch request
   shards its independent programs across the pool by fingerprint);
2. consults the :class:`ResultCache`, which holds clean results and,
   for :data:`FAILURE_TTL_S`, worker-level failures: a program that
   keeps killing workers is answered from the cache, not re-dispatched
   (any cache failure reads as a miss);
3. dispatches to the pool, re-dispatching only a crashed worker
   (``worker-crash``): up to :data:`RETRY_ATTEMPTS` attempts, each at
   once, since the pool has respawned the shard before it reports the
   crash.  A hung worker (``request-timeout``) is killed once and
   degraded: a re-run would hang the same way;
4. wraps the whole exchange in a per-request
   :func:`repro.obs.metrics.isolated` registry, so one request's
   counters never bleed into another's while invocation-wide totals
   still accumulate in the server registry.

Graceful drain: SIGTERM/SIGINT (wired by the CLI) call
:meth:`AnalysisServer.stop`, which stops accepting, lets in-flight
connections finish within a grace period, drains the pool, and exits
cleanly.
"""

from __future__ import annotations

import contextvars
import dataclasses
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs.runlog import RunLogWriter, source_fingerprint
from repro.obs.trace import event as _trace_event
from repro.obs.trace import span as _trace_span
from repro.resilience.budget import SERVICE_BUDGET, AnalysisBudget
from repro.resilience.errors import ReproError, wrap_exception
from repro.resilience.isolation import DegradationLog
from repro.service.cache import ResultCache, cache_key, safe_lookup, safe_store
from repro.service.pool import JobOutcome, WorkerPool
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    OversizedMessage,
    ProtocolError,
    error_response,
    recv_message,
    send_message,
)

__all__ = ["AnalysisServer"]

#: serve-layer error code -> RES5xx diagnostic surfaced on the response
_DIAG_FOR_CODE = {
    "worker-crash": "RES506",
    "request-timeout": "RES507",
    "response-overflow": "RES509",
}

#: dispatches per program when the worker crashes: bounded, so a
#: crashing program costs at most this many jobs
RETRY_ATTEMPTS = 3

#: seconds a worker-level failure stays in the result cache: within it,
#: the same program and options are answered from the cache instead of
#: burning another worker; after it, the next request re-dispatches
FAILURE_TTL_S = 30.0

#: failures never cached: the request or the loop-language source is at
#: fault, and rejecting it harms no worker.  ``python-syntax-error`` is
#: cached like any worker failure: the same source always gets it again,
#: so a repeat costs no dispatch
_CLIENT_ERRORS = ("frontend-error", "malformed-request")


def _degradation_payload(log: DegradationLog) -> List[Dict[str, Any]]:
    return [dataclasses.asdict(record) for record in log.records]


class AnalysisServer:
    """A fault-tolerant analysis service over a sharded worker pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 2,
        request_timeout_s: float = 10.0,
        idle_timeout_s: Optional[float] = 60.0,
        cache_capacity: int = 256,
        fault_spec: Optional[Dict[str, Any]] = None,
        runlog_dir: Optional[str] = None,
        default_budget: AnalysisBudget = SERVICE_BUDGET,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
    ):
        self.host = host
        self.port = port
        self.request_timeout_s = request_timeout_s
        # a connection that sends no (or only a partial) frame for this
        # long is dropped: a dribbling client must not pin a thread
        # forever (None / 0 disables -- tests of blocking behaviour)
        self.idle_timeout_s = idle_timeout_s or None
        self.default_budget = default_budget
        self.max_message_bytes = max_message_bytes
        self.pool = WorkerPool(
            size=pool_size,
            request_timeout_s=request_timeout_s,
            fault_spec=fault_spec,
            budget_spec=dataclasses.asdict(default_budget),
        )
        self.cache = ResultCache(capacity=cache_capacity)
        self.runlog: Optional[RunLogWriter] = (
            RunLogWriter(runlog_dir) if runlog_dir else None
        )
        self.address: Optional[Tuple[str, int]] = None
        self.started_at: Optional[float] = None
        self.requests_served = 0
        self._socket: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._conn_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._drained = threading.Event()
        self._job_seq = 0
        self._seq_lock = threading.Lock()
        # captured at start(): connection threads re-enter the obs /
        # fault-injection contexts the server was started under
        # (contextvars do not propagate into threads by themselves)
        self._base_context: Optional[contextvars.Context] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, start the pool, and begin accepting (returns the address)."""
        if self._socket is not None:
            return self.address  # type: ignore[return-value]
        self._base_context = contextvars.copy_context()
        self.pool.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        # closing a listener does NOT wake a thread blocked in accept();
        # a short timeout lets the accept loop notice the shutdown flag
        listener.settimeout(0.2)
        self._socket = listener
        self.address = listener.getsockname()[:2]
        self.started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._base_context.copy().run,
            args=(self._accept_loop,),
            name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def stop(self, grace_s: float = 5.0) -> None:
        """Graceful drain: stop accepting, finish in-flight work, stop the pool."""
        if self._shutdown.is_set():
            self._drained.wait(timeout=grace_s)
            return
        self._shutdown.set()
        if self._socket is not None:
            try:
                self._socket.close()  # unblocks accept()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=grace_s)
        deadline = time.monotonic() + grace_s
        with self._conn_lock:
            pending = list(self._conn_threads)
        for thread in pending:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        self.pool.shutdown(grace_s=grace_s)
        self._drained.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has fully drained (the CLI's foreground)."""
        return self._drained.wait(timeout=timeout)

    # ------------------------------------------------------------------
    # accept / connection loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._socket is not None
        while not self._shutdown.is_set():
            try:
                conn, _peer = self._socket.accept()
            except socket.timeout:
                continue  # periodic shutdown-flag check
            except OSError:
                return  # listener closed by stop()
            # accepted sockets inherit the listener's 0.2s timeout;
            # replace it with the per-connection idle/read timeout
            conn.settimeout(self.idle_timeout_s)
            _metrics.inc("service.connections")
            context = (
                self._base_context.copy()
                if self._base_context is not None
                else contextvars.copy_context()
            )
            thread = threading.Thread(
                target=context.run,
                args=(self._serve_connection, conn),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    request = recv_message(conn, self.max_message_bytes)
                except socket.timeout:
                    # idle/read timeout: the peer sent nothing (or
                    # stalled mid-frame) for idle_timeout_s; a partial
                    # frame cannot be answered mid-stream, so drop the
                    # connection rather than pin this thread forever
                    _metrics.inc("service.idle_timeouts")
                    return
                except OversizedMessage as error:
                    # cannot resync the stream without draining the huge
                    # body: answer, then close
                    _metrics.inc("service.errors")
                    send_message(
                        conn, error_response(error.code, str(error))
                    )
                    return
                except ProtocolError as error:
                    _metrics.inc("service.errors")
                    try:
                        send_message(
                            conn, error_response(error.code, str(error))
                        )
                    except OSError:
                        pass
                    return
                if request is None:
                    return  # clean EOF between frames
                try:
                    response = self._handle_request(request)
                except Exception as error:  # noqa: BLE001 - contract backstop
                    # the serving contract: every valid frame gets a
                    # response, whatever bug the handler just hit
                    _metrics.inc("service.errors")
                    response = error_response(
                        "internal-error",
                        "unexpected error handling request: "
                        f"{type(error).__name__}: {error}",
                        op=str(request.get("op")),
                    )
                self._send_response(conn, response)
        except OSError:
            return  # peer vanished; nothing to answer
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _send_response(
        self, conn: socket.socket, response: Dict[str, Any]
    ) -> None:
        """Send one response frame no larger than the receive limit.

        The client enforces the same ``max_message_bytes`` on receive
        that the server enforces on requests, so an unbounded response
        (a near-limit batch with ``report: true``) would make the
        *client* choke on a successful exchange.  Oversized responses
        are truncated -- report/record payloads dropped, a RES509
        degradation appended -- and only if even the skeleton does not
        fit does the exchange fall back to a bare error response.
        """
        try:
            send_message(conn, response, max_bytes=self.max_message_bytes)
            return
        except OversizedMessage as error:
            _metrics.inc("service.responses.truncated")
            slim = self._truncated_response(response, error)
        try:
            send_message(conn, slim, max_bytes=self.max_message_bytes)
        except OversizedMessage as error:  # pragma: no cover - huge batch
            _metrics.inc("service.errors")
            send_message(
                conn,
                error_response(
                    "response-overflow",
                    f"response of {error.size} bytes exceeds the "
                    f"{error.limit}-byte frame limit even after "
                    "truncation",
                ),
            )

    def _truncated_response(
        self, response: Dict[str, Any], error: OversizedMessage
    ) -> Dict[str, Any]:
        """The degraded skeleton of an oversized response."""
        log = DegradationLog()
        log.record(
            "serve.protocol",
            code="response-overflow",
            message=(
                f"response of {error.size} bytes exceeds the "
                f"{error.limit}-byte frame limit; report/record "
                "payloads dropped"
            ),
            diag_code="RES509",
            action="truncated",
        )
        note = _degradation_payload(log)
        diagnostic = {
            "code": "RES509",
            "error": "response-overflow",
            "message": log.records[-1].message,
        }
        slim = dict(response)
        slim.pop("metrics", None)
        results = []
        for result in slim.get("results") or []:
            if not isinstance(result, dict):  # pragma: no cover
                continue
            trimmed = dict(result)
            trimmed.pop("report", None)
            trimmed.pop("record", None)
            trimmed["status"] = "degraded"
            trimmed["truncated"] = True
            trimmed["degradations"] = (
                list(trimmed.get("degradations") or []) + note
            )
            trimmed["diagnostics"] = (
                list(trimmed.get("diagnostics") or []) + [diagnostic]
            )
            results.append(trimmed)
        if results:
            slim["results"] = results
        if slim.get("status") == "ok":
            slim["status"] = "degraded"
        return slim

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        with _trace_span("service.request"):
            if op == "health":
                return {"status": "ok", "op": "health", "alive": True}
            if op == "ready":
                return self._handle_ready()
            if op == "stats":
                return self._handle_stats()
            if op == "analyze":
                self.requests_served += 1
                _metrics.inc("service.requests")
                return self._handle_analyze(request)
            _metrics.inc("service.errors")
            return error_response(
                "malformed-request", f"unknown op {op!r}", op=str(op)
            )

    def _handle_ready(self) -> Dict[str, Any]:
        pool = self.pool.snapshot()
        ready = not self._shutdown.is_set() and pool["alive"] == pool["size"]
        return {
            "status": "ok" if ready else "degraded",
            "op": "ready",
            "ready": ready,
            "pool": pool,
            "cache": self.cache.snapshot(),
        }

    def _handle_stats(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self.started_at
            if self.started_at is not None
            else 0.0
        )
        registry = _metrics.active()
        return {
            "status": "ok",
            "op": "stats",
            "uptime_s": round(uptime, 3),
            "requests": self.requests_served,
            "pool": self.pool.snapshot(),
            "cache": self.cache.snapshot(),
            "metrics": registry.snapshot() if registry is not None else {},
        }

    def _handle_analyze(self, request: Dict[str, Any]) -> Dict[str, Any]:
        programs = request.get("programs")
        if programs is None:
            programs = [
                {
                    "name": request.get("name", "main"),
                    "source": request.get("source"),
                    "chaos_sleep_s": request.get("chaos_sleep_s"),
                }
            ]
        if not isinstance(programs, list) or not programs:
            _metrics.inc("service.errors")
            return error_response(
                "malformed-request",
                "request needs 'source' or a non-empty 'programs' list",
                op="analyze",
            )
        for index, program in enumerate(programs):
            if not isinstance(program, dict) or not isinstance(
                program.get("source"), str
            ):
                _metrics.inc("service.errors")
                return error_response(
                    "malformed-request",
                    f"programs[{index}] lacks a string 'source'",
                    op="analyze",
                )
        options = request.get("options") or {}
        if not isinstance(options, dict):
            _metrics.inc("service.errors")
            return error_response(
                "malformed-request", "'options' must be an object", op="analyze"
            )
        deadline = options.get("deadline_s")
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not deadline > 0  # "not >" also rejects NaN
        ):
            _metrics.inc("service.errors")
            return error_response(
                "malformed-request",
                "'options.deadline_s' must be a positive number",
                op="analyze",
            )
        language = options.get("language")
        if language is not None and language not in ("loop", "python"):
            _metrics.inc("service.errors")
            return error_response(
                "malformed-request",
                "'options.language' must be 'loop' or 'python'",
                op="analyze",
            )
        started = time.perf_counter()
        # one registry per request: counters (cache hits, retries,
        # degradations) scoped to this exchange, merged up on exit
        with _metrics.isolated() as registry:
            results = [
                self._run_program(program, options) for program in programs
            ]
            request_metrics = registry.snapshot() if registry else {}
        elapsed = time.perf_counter() - started
        _metrics.observe("service.latency", elapsed)
        worst = "ok"
        if any(result["status"] == "degraded" for result in results):
            worst = "degraded"
            _metrics.inc("service.requests.degraded")
        return {
            "status": worst,
            "op": "analyze",
            "results": results,
            "elapsed_s": round(elapsed, 6),
            "metrics": request_metrics,
        }

    # ------------------------------------------------------------------
    # one program through cache -> dispatch
    # ------------------------------------------------------------------
    def _next_job_id(self) -> int:
        with self._seq_lock:
            self._job_seq += 1
            return self._job_seq

    def _run_program(
        self, program: Dict[str, Any], options: Dict[str, Any]
    ) -> Dict[str, Any]:
        source = program["source"]
        name = program.get("name") or "main"
        fingerprint = source_fingerprint(source)
        base = {"name": name, "fingerprint": fingerprint}
        key = cache_key(fingerprint, options)
        try:
            return self._analyze_program(base, program, options, key)
        except Exception as error:  # noqa: BLE001 - contract backstop
            # an unexpected bug below must degrade the program, never
            # escape to drop the whole connection
            return self._degraded_result(
                base, wrap_exception(error, "serve.dispatch"), key
            )

    def _analyze_program(
        self,
        base: Dict[str, Any],
        program: Dict[str, Any],
        options: Dict[str, Any],
        key: str,
    ) -> Dict[str, Any]:
        cached = safe_lookup(self.cache, key)
        if cached is not None:
            if cached["status"] == "degraded":
                # a remembered failure counts in this request's metrics
                # as the fresh one did in its own
                for record in cached["degradations"]:
                    _metrics.inc(f"resilience.degraded.{record['phase']}")
                _metrics.inc("service.requests.failed")
            return dict(cached, cached=True)

        job = {
            "id": self._next_job_id(),
            "name": base["name"],
            "source": program["source"],
            "origin": program.get("origin"),
            "fingerprint": base["fingerprint"],
            "options": options,
        }
        remember: Optional[str] = key
        if program.get("chaos_sleep_s"):
            job["chaos_sleep_s"] = program["chaos_sleep_s"]
            # a hang the request itself asked for says nothing about the
            # program: it is not remembered for plain requests
            remember = None

        for attempt in range(RETRY_ATTEMPTS):
            # the attempt keys the worker's injected faults, so a chaos
            # run crashes the same (program, attempt) pairs every time
            job["attempt"] = attempt
            try:
                outcome = self._dispatch(job)
                break
            except ReproError as error:
                # only a crash is re-dispatched: the analysis is
                # deterministic, so any other failure would repeat
                if (
                    attempt + 1 == RETRY_ATTEMPTS
                    or error.code != "worker-crash"
                ):
                    return self._degraded_result(base, error, remember)
                _metrics.inc("service.retries")
                _trace_event("service.retry", code=error.code, attempt=attempt)

        response = outcome.response
        result = dict(
            base,
            status="degraded" if response.get("degraded") else "ok",
            record=response.get("record"),
            report=response.get("report"),
            degradations=[],
            worker=outcome.worker_id,
            elapsed_s=round(outcome.elapsed_s, 6),
        )
        self._write_runlog(response.get("record"))
        if result["status"] == "ok":
            # a result the analysis itself degraded is not cached: the
            # next request re-runs it
            safe_store(self.cache, key, result)
        return result

    def _dispatch(self, job: Dict[str, Any]) -> JobOutcome:
        """One pool round-trip that returned an ``ok`` worker response.

        Every failure -- the pool's (crash, timeout) or one the worker
        reports -- raises a ``serve.worker`` taxonomy error carrying the
        failure's code.
        """
        deadline = (job.get("options") or {}).get("deadline_s")
        outcome = self.pool.submit(
            job, timeout_s=float(deadline) if deadline else None
        )
        if not outcome.ok:
            raise ReproError(
                outcome.error_message or outcome.error_code or "dispatch failed",
                code=outcome.error_code or "internal-error",
                phase="serve.worker",
            )
        response = outcome.response or {}
        if not response.get("ok"):
            error_info = response.get("error") or {}
            raise ReproError(
                error_info.get("message", "worker reported failure"),
                code=error_info.get("code", "internal-error"),
                phase="serve.worker",
            )
        return outcome

    def _degraded_result(
        self, base: Dict[str, Any], error: ReproError, key: Optional[str]
    ) -> Dict[str, Any]:
        """The structured degraded response for a dispatch-level failure.

        A worker-level failure is cached under ``key`` (None: not at all)
        for :data:`FAILURE_TTL_S`, so repeats of the program are answered
        without a dispatch.
        """
        code = error.code
        diag_code = _DIAG_FOR_CODE.get(code, "RES501")
        phase = error.phase or "serve.dispatch"
        if code in ("worker-crash", "request-timeout"):
            phase = "serve.worker"
        log = DegradationLog()
        log.record(
            phase,
            code=code,
            message=error.message,
            diag_code=diag_code,
            scope=base["fingerprint"],
            action="degraded",
        )
        _metrics.inc("service.requests.failed")
        result = dict(
            base,
            status="degraded",
            error={"code": code, "message": error.message},
            degradations=_degradation_payload(log),
            diagnostics=[
                {"code": diag_code, "error": code, "message": error.message}
            ],
        )
        if key is not None and code not in _CLIENT_ERRORS:
            safe_store(self.cache, key, result, ttl_s=FAILURE_TTL_S)
        return result

    def _write_runlog(self, record: Optional[Dict[str, Any]]) -> None:
        if self.runlog is None or record is None:
            return
        try:
            self.runlog.write(record)
        except Exception:  # noqa: BLE001 - the log must never fail a request
            _metrics.inc("service.runlog.errors")
