"""The sharded worker pool: dispatch, hung-worker kill, crash respawn.

Requests shard by source **fingerprint** (crc32 of the same fingerprint
the flight recorder stamps), so a given program always lands on the
same worker -- deterministic placement that keeps a pathological input
blast-radius to one shard and gives any future per-worker warm state a
stable home.  Each worker owns a duplex pipe and a parent-side
:class:`threading.Lock`; a job holds the lock for its whole round-trip,
so concurrent requests to one shard serialize while different shards
run genuinely in parallel.

The failure contract, per dispatch:

* **crash** -- the worker died mid-job (broken/EOF pipe).  The pool
  respawns the shard and reports ``worker-crash`` (policy RETRY: the
  server re-dispatches with backoff onto the fresh worker);
* **hang** -- no response within the timeout.  The pool SIGKILLs the
  worker, respawns, and reports ``request-timeout`` (policy DEGRADE:
  a re-run would hang the same way);
* **drain** -- :meth:`WorkerPool.shutdown` takes every shard lock (so
  in-flight jobs finish), sends each worker the ``None`` sentinel, and
  joins with a bounded grace period before terminating stragglers.

Workers are started via the ``forkserver`` context where available
(fork-safety with the server's connection threads) and ``spawn``
elsewhere.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.resilience.faultinject import fault_point
from repro.service.worker import worker_main

__all__ = ["JobOutcome", "WorkerPool"]


@dataclass
class JobOutcome:
    """What one dispatch produced: a response, a crash, or a timeout."""

    ok: bool
    response: Optional[Dict[str, Any]] = None
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    crashed: bool = False
    timed_out: bool = False
    worker_id: int = -1
    elapsed_s: float = 0.0


def _pool_context():
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class _Worker:
    """One shard: process + parent pipe end + dispatch lock."""

    __slots__ = ("index", "process", "conn", "lock", "jobs", "respawns")

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.jobs = 0
        self.respawns = 0


class WorkerPool:
    """A fixed-size pool of analysis worker processes.

    ``fault_spec`` (points/seed/rate/only_first) is forwarded
    to every worker, arming the deterministic fault-injection harness
    inside the children -- the chaos path of the load-test harness and
    CI.  ``request_timeout_s`` is the hung-worker backstop; per-job
    ``timeout_s`` may only tighten it.
    """

    def __init__(
        self,
        size: int = 2,
        request_timeout_s: float = 30.0,
        fault_spec: Optional[Dict[str, Any]] = None,
        budget_spec: Optional[Dict[str, Any]] = None,
        mp_context=None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.request_timeout_s = request_timeout_s
        self.fault_spec = fault_spec
        self.budget_spec = budget_spec
        self._ctx = mp_context if mp_context is not None else _pool_context()
        self._workers: List[_Worker] = [_Worker(i) for i in range(size)]
        self._started = False
        self.crashes = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        for worker in self._workers:
            self._spawn(worker)
        self._started = True

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        fault_spec = self.fault_spec
        if fault_spec is not None and fault_spec.get("seed") is not None:
            # each worker *incarnation* draws a distinct deterministic
            # substream: otherwise every respawn replays the base stream
            # from the top and rate-based injection degenerates to
            # "first-job crash always/never"
            fault_spec = dict(fault_spec)
            fault_spec["seed"] = (
                fault_spec["seed"] + worker.index * 1009 + worker.respawns * 101
            )
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker.index, fault_spec, self.budget_spec),
            daemon=True,
            name=f"repro-worker-{worker.index}",
        )
        process.start()
        # the parent must drop its handle on the child end, or a dead
        # worker's pipe never reads as EOF
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn

    def _respawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        worker.respawns += 1  # before _spawn: the incarnation seed uses it
        self._spawn(worker)
        _metrics.inc("service.worker.respawns")

    def alive_count(self) -> int:
        return sum(
            1
            for worker in self._workers
            if worker.process is not None and worker.process.is_alive()
        )

    def shutdown(self, grace_s: float = 5.0) -> None:
        """Drain and stop every worker (idempotent).

        Taking each shard lock first means in-flight jobs complete
        before their worker sees the sentinel -- the pool half of the
        server's graceful SIGTERM drain.
        """
        if not self._started:
            return
        self._started = False
        deadline = time.monotonic() + grace_s
        for worker in self._workers:
            with worker.lock:
                if worker.conn is not None:
                    try:
                        worker.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    worker.conn = None
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
            worker.process = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def shard_of(self, fingerprint: str) -> int:
        """The worker index a fingerprint deterministically maps to."""
        return zlib.crc32(fingerprint.encode("utf-8")) % self.size

    def submit(
        self, job: Dict[str, Any], timeout_s: Optional[float] = None
    ) -> JobOutcome:
        """Dispatch one job to its shard and wait for the outcome.

        Thread-safe; never raises for worker failures (those come back
        as structured :class:`JobOutcome`\\ s).  Raises only for the
        armed ``serve.dispatch`` fault point and misuse (unstarted
        pool), both of which the server contains per-request.
        """
        fault_point("serve.dispatch")
        if not self._started:
            raise RuntimeError("WorkerPool.submit before start()")
        timeout = self.request_timeout_s
        if timeout_s is not None:
            timeout = min(timeout, timeout_s)
        worker = self._workers[self.shard_of(job.get("fingerprint") or "")]
        started = time.perf_counter()
        with worker.lock:
            if worker.process is None or not worker.process.is_alive():
                # crashed between jobs (or killed by a previous timeout)
                self._respawn(worker)
            worker.jobs += 1
            try:
                worker.conn.send(job)
            except (BrokenPipeError, OSError):
                return self._crashed(worker, started)
            try:
                if not worker.conn.poll(timeout):
                    return self._hung(worker, started, timeout)
                response = worker.conn.recv()
            except (EOFError, OSError):
                return self._crashed(worker, started)
        return JobOutcome(
            ok=True,
            response=response,
            worker_id=worker.index,
            elapsed_s=time.perf_counter() - started,
        )

    def _crashed(self, worker: _Worker, started: float) -> JobOutcome:
        self.crashes += 1
        _metrics.inc("service.worker.crashes")
        exitcode = None
        if worker.process is not None:
            # the pipe EOFs before the child is reaped; a short join
            # makes the exit code available for the error message
            worker.process.join(timeout=1.0)
            exitcode = worker.process.exitcode
        self._respawn(worker)
        return JobOutcome(
            ok=False,
            error_code="worker-crash",
            error_message=(
                f"worker {worker.index} died mid-job "
                f"(exit code {exitcode}); respawned"
            ),
            crashed=True,
            worker_id=worker.index,
            elapsed_s=time.perf_counter() - started,
        )

    def _hung(
        self, worker: _Worker, started: float, timeout: float
    ) -> JobOutcome:
        self.timeouts += 1
        _metrics.inc("service.timeouts")
        self._respawn(worker)  # kills the hung process first
        return JobOutcome(
            ok=False,
            error_code="request-timeout",
            error_message=(
                f"worker {worker.index} gave no response within "
                f"{timeout:.3g}s; killed and respawned"
            ),
            timed_out=True,
            worker_id=worker.index,
            elapsed_s=time.perf_counter() - started,
        )

    def snapshot(self) -> Dict[str, Any]:
        """Pool state for ``ready``/``stats`` responses."""
        return {
            "size": self.size,
            "alive": self.alive_count(),
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "respawns": sum(w.respawns for w in self._workers),
            "jobs": sum(w.jobs for w in self._workers),
        }
