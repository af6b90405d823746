"""Chaos on the serving path: seeded faults through the full worker pool.

The serving analogue of :mod:`tests.resilience.test_chaos`: with the
``serve.*`` fault points armed at a seeded rate inside real worker
processes, every request must still produce a protocol-valid response
(``ok`` or ``degraded``, never silence, never ``error`` for valid
input), every degraded response must carry its DegradationRecord and
RES5xx diagnostic, and the server must end the sweep alive and drain
cleanly.  Injected crashes are keyed by the job, so the same seed gives
the same status per request however concurrent clients interleave.

``CHAOS_SEED=<int>`` narrows the sweep to one seed, mirroring the
pipeline chaos suite's CI sharding.
"""

import os
import threading

import pytest

from repro.obs.metrics import MetricsRegistry, collecting
from repro.service import AnalysisServer, ServiceClient

DEFAULT_SEEDS = [101, 505]
SEEDS = (
    [int(os.environ["CHAOS_SEED"])]
    if os.environ.get("CHAOS_SEED")
    else DEFAULT_SEEDS
)

#: distinct fingerprints so the sweeps exercise both shards and many
#: independent crash decisions
PROGRAMS = [
    f"i = 0\nx = 0\nL1: while i < {bound} do\n  x = x + i\n  i = i + 1\nendwhile\n"
    for bound in (10, 20, 30, 40, 50, 60, 70, 80)
]

RES_CODES = {"RES501", "RES506", "RES507"}


def sweep(seed, requests=16):
    """Run one seeded chaos sweep; returns (statuses, server snapshots)."""
    with collecting(MetricsRegistry()):
        server = AnalysisServer(
            pool_size=2,
            # no cache, so no memory of failures either: every request
            # must reach the faulty worker
            cache_capacity=0,
            fault_spec={
                "points": ["serve.worker"],
                "rate": 0.4,
                "seed": seed,
            },
        )
        host, port = server.start()
        statuses = []
        try:
            with ServiceClient(host, port, timeout_s=30.0) as client:
                for index in range(requests):
                    response = client.analyze(
                        PROGRAMS[index % len(PROGRAMS)]
                    )
                    statuses.append(
                        (
                            response["status"],
                            response["results"][0].get("error", {}).get("code"),
                        )
                    )
                    check_contract(response)
                assert client.health()["alive"] is True
                pool = client.stats()["pool"]
        finally:
            server.stop(grace_s=5.0)
        assert server.wait(timeout=1.0)
    return statuses, pool


def check_contract(response):
    """One response against the serving contract."""
    assert response["status"] in ("ok", "degraded")
    for result in response["results"]:
        if result["status"] == "ok":
            assert result["record"]["loops"]
            continue
        assert result["degradations"], result
        record = result["degradations"][-1]
        assert record["code"] == result["error"]["code"]
        assert record["diag_code"] in RES_CODES
        assert result["diagnostics"][0]["code"] == record["diag_code"]
        # the per-request registry saw this degradation
        counters = response["metrics"]["counters"]
        degraded = [
            name for name in counters if name.startswith("resilience.degraded.")
        ]
        assert degraded, counters


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_crash_sweep_obeys_the_contract(seed):
    statuses, pool = sweep(seed)
    assert len(statuses) == 16
    assert pool["alive"] == pool["size"] == 2
    # the sweep must actually inject something: crashes either recover
    # through retry (ok responses, crashes counted) or exhaust into
    # worker-crash degradations
    assert pool["crashes"] > 0, statuses
    assert any(status == "ok" for status, _code in statuses)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_sweep_is_deterministic(seed):
    """Same seed = same per-request status/code sequence, twice."""
    first, _ = sweep(seed, requests=8)
    second, _ = sweep(seed, requests=8)
    assert first == second


def concurrent_sweep(seed, start_order, requests=8):
    """One cached server driven by concurrent clients.

    The clients start in ``start_order`` and then interleave as the
    scheduler decides.  Returns ``{(client, request): (status, error
    code)}``: a crash decided by the order jobs reach a worker, rather
    than by the job, shows up as a different status for some pair.
    """
    statuses = {}
    with collecting(MetricsRegistry()):
        server = AnalysisServer(
            pool_size=2,
            fault_spec={
                "points": ["serve.worker"],
                "rate": 0.5,
                "seed": seed,
            },
        )
        host, port = server.start()

        def drive(client_id):
            with ServiceClient(host, port, timeout_s=30.0) as client:
                for index in range(requests):
                    # each client walks every program from its own start
                    response = client.analyze(
                        PROGRAMS[(3 * client_id + index) % len(PROGRAMS)]
                    )
                    result = response["results"][0]
                    statuses[(client_id, index)] = (
                        response["status"],
                        result.get("error", {}).get("code"),
                    )

        threads = [
            threading.Thread(target=drive, args=(client_id,))
            for client_id in start_order
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            server.stop(grace_s=5.0)
    assert not any(thread.is_alive() for thread in threads), "a client hung"
    assert len(statuses) == len(start_order) * requests, "a client failed"
    return statuses


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_sweep_is_deterministic(seed):
    """Same seed = same status per (client, request), however they interleave.

    Two sweeps of 3 clients against 2 workers with the cache on; the
    second starts the clients in reverse, so the programs reach the
    workers in another order.
    """
    first = concurrent_sweep(seed, start_order=(0, 1, 2))
    second = concurrent_sweep(seed, start_order=(2, 1, 0))
    assert first == second
