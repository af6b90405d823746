"""Fingerprint-keyed result cache: bounded, LRU, crash-tolerant.

A re-submitted program is byte-identical far more often than not (CI
runs, editor save-loops), so the server caches analysis responses keyed
on ``(source fingerprint, canonicalized options)`` -- the same
fingerprint :mod:`repro.obs.runlog` stamps on flight-recorder records.

The cache is also the server's only memory of a failing program.  A
clean result is kept until evicted; a worker-level failure (crash,
hang, internal error) is kept with a time-to-live, so a program that
keeps killing workers is answered from here for that long instead of
burning another worker on every request, and is re-dispatched once the
entry expires.

The cache is an ordinary LRU over an :class:`~collections.OrderedDict`
behind a lock (connection threads share it).  It sits behind the
``serve.cache`` fault point, and the server treats any cache failure as
a miss -- the cache is an accelerator, never a dependency, so a broken
cache degrades throughput, not correctness.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.resilience.faultinject import fault_point

__all__ = ["ResultCache", "cache_key"]


def cache_key(fingerprint: str, options: Optional[Dict[str, Any]] = None) -> str:
    """The cache key of one program under one option set.

    Options change what the analysis computes (ranges, invariants,
    optimize, budget caps), so they are part of the key -- canonicalized
    through sorted-key JSON, which is stable across dict orderings.
    """
    if not options:
        return fingerprint
    return fingerprint + "|" + json.dumps(options, sort_keys=True, default=str)


class ResultCache:
    """A thread-safe bounded LRU of analysis responses.

    ``clock`` is injectable (tests pass a fake) and defaults to
    :func:`time.monotonic`; it only matters for entries stored with a
    time-to-live.
    """

    def __init__(
        self, capacity: int = 256, clock: Callable[[], float] = time.monotonic
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._clock = clock
        #: key -> (response, expiry time or None for no expiry)
        self._entries: "OrderedDict[str, Tuple[Dict[str, Any], Optional[float]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached response for ``key``, refreshed to most-recent, or None.

        An entry past its time-to-live is dropped and reads as a miss.
        """
        fault_point("serve.cache")
        with self._lock:
            value, expires = self._entries.get(key, (None, None))
            if expires is not None and self._clock() >= expires:
                del self._entries[key]
                value = None
            if value is None:
                _metrics.inc("service.cache.misses")
                return None
            self._entries.move_to_end(key)
            _metrics.inc("service.cache.hits")
            return value

    def put(
        self, key: str, value: Dict[str, Any], ttl_s: Optional[float] = None
    ) -> None:
        """Insert (or refresh) ``key``, evicting the least-recently used.

        ``ttl_s`` bounds how long the entry is served; None keeps it
        until it is evicted.
        """
        fault_point("serve.cache")
        if self.capacity == 0:
            return
        expires = None if ttl_s is None else self._clock() + ttl_s
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, expires)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                _metrics.inc("service.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Size/capacity for ``ready``/``stats`` responses."""
        with self._lock:
            return {"entries": len(self._entries), "capacity": self.capacity}


def safe_lookup(cache: ResultCache, key: str) -> Optional[Dict[str, Any]]:
    """``cache.get`` with containment: a cache failure reads as a miss.

    A failed lookup (injected ``serve.cache`` fault, internal error) is
    counted in ``service.cache.errors`` and otherwise ignored -- graceful
    degradation of the accelerator, not the request.
    """
    try:
        return cache.get(key)
    except Exception:  # noqa: BLE001 - the cache must never fail a request
        _metrics.inc("service.cache.errors")
        return None


def safe_store(
    cache: ResultCache,
    key: str,
    value: Dict[str, Any],
    ttl_s: Optional[float] = None,
) -> None:
    """``cache.put`` with the same containment as :func:`safe_lookup`."""
    try:
        cache.put(key, value, ttl_s)
    except Exception:  # noqa: BLE001
        _metrics.inc("service.cache.errors")
