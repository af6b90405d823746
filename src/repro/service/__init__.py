"""The fault-tolerant analysis service behind ``repro serve``.

The pipeline's failure-isolation machinery (taxonomy, budgets,
degradation records, fault injection) was built for one-shot CLI runs;
this package lifts it to a long-running daemon without weakening any of
its contracts:

* :mod:`~repro.service.protocol` -- length-prefixed JSON frames with
  enumerable failure modes (oversized / truncated / undecodable);
* :mod:`~repro.service.worker` -- one analysis per job in a
  crash-isolated child process, responses shaped like flight-recorder
  records;
* :mod:`~repro.service.pool` -- fingerprint-sharded dispatch, hung
  workers killed and respawned, crashed workers detected by pipe EOF;
* :mod:`~repro.service.cache` -- bounded LRU of clean results and,
  for a fixed time-to-live, of worker-level failures, so an input that
  keeps killing workers is not re-dispatched; cache failures are
  contained as misses;
* :mod:`~repro.service.server` -- the accept loop tying it together
  under per-request metrics isolation and graceful SIGTERM drain;
* :mod:`~repro.service.client` -- the blocking client the load-test
  harness drives.

The serving contract: only malformed or oversized requests yield
``status: error``; every analysis-side failure degrades with structured
:class:`~repro.resilience.isolation.DegradationRecord` payloads and
RES5xx diagnostics, and the server never dies with a request in hand.
"""

from repro.service.cache import ResultCache, cache_key
from repro.service.client import ServiceClient
from repro.service.pool import JobOutcome, WorkerPool
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    OversizedMessage,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.service.server import AnalysisServer
from repro.service.worker import CRASH_EXIT_CODE, budget_from_options, run_job

__all__ = [
    "AnalysisServer",
    "CRASH_EXIT_CODE",
    "JobOutcome",
    "MAX_MESSAGE_BYTES",
    "OversizedMessage",
    "ProtocolError",
    "ResultCache",
    "ServiceClient",
    "WorkerPool",
    "budget_from_options",
    "cache_key",
    "recv_message",
    "run_job",
    "send_message",
]
