"""The sharded worker pool: dispatch, crash respawn, hung-worker kill.

These spawn real worker processes, so each scenario uses the smallest
pool that exercises it and shuts it down promptly.
"""

import pytest

from repro.service.pool import WorkerPool
from repro.service.worker import CRASH_EXIT_CODE, run_job

GOOD = """\
i = 0
x = 0
L1: while i < 10 do
  x = x + i
  i = i + 1
endwhile
"""

BAD = "L1: while i <\n"


@pytest.fixture
def pool():
    pool = WorkerPool(size=2, request_timeout_s=30.0)
    pool.start()
    yield pool
    pool.shutdown(grace_s=5.0)


class TestSharding:
    def test_shard_is_deterministic_and_in_range(self):
        pool = WorkerPool(size=4)
        shards = {pool.shard_of(f"fp{i}") for i in range(64)}
        assert shards <= set(range(4))
        assert len(shards) > 1  # crc32 spreads fingerprints around
        assert pool.shard_of("fp1") == pool.shard_of("fp1")

    def test_size_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(size=0)

    def test_submit_before_start_is_misuse(self):
        with pytest.raises(RuntimeError, match="before start"):
            WorkerPool(size=1).submit({"source": GOOD})


class TestDispatch:
    def test_good_job_round_trips(self, pool):
        outcome = pool.submit(
            {"id": 1, "source": GOOD, "fingerprint": "fp", "options": {}}
        )
        assert outcome.ok
        assert outcome.response["ok"]
        assert not outcome.response["degraded"]
        assert outcome.response["record"]["function"] == "main"
        assert outcome.response["record"]["loops"]
        assert outcome.worker_id == pool.shard_of("fp")

    def test_frontend_error_is_a_structured_failure_not_a_crash(self, pool):
        outcome = pool.submit({"id": 2, "source": BAD, "fingerprint": "fp"})
        assert outcome.ok  # the *dispatch* succeeded
        assert not outcome.response["ok"]
        assert outcome.response["error"]["code"] == "frontend-error"
        assert pool.crashes == 0

    def test_jobs_shard_across_workers(self, pool):
        seen = set()
        for index in range(8):
            fingerprint = f"fp{index}"
            outcome = pool.submit(
                {"id": index, "source": GOOD, "fingerprint": fingerprint}
            )
            assert outcome.ok
            seen.add(outcome.worker_id)
        assert seen == {0, 1}

    def test_snapshot_counts_jobs(self, pool):
        pool.submit({"id": 1, "source": GOOD, "fingerprint": "fp"})
        snapshot = pool.snapshot()
        assert snapshot["size"] == 2
        assert snapshot["alive"] == 2
        assert snapshot["jobs"] >= 1


class TestCrash:
    def test_crash_detected_and_respawned(self):
        pool = WorkerPool(
            size=1,
            request_timeout_s=30.0,
            fault_spec={"points": ["serve.worker"], "rate": 1.0},
        )
        pool.start()
        try:
            outcome = pool.submit({"id": 1, "source": GOOD, "fingerprint": "fp"})
            assert not outcome.ok
            assert outcome.crashed
            assert outcome.error_code == "worker-crash"
            assert str(CRASH_EXIT_CODE) in outcome.error_message
            assert pool.crashes == 1
            assert pool.alive_count() == 1  # respawned
            assert pool.snapshot()["respawns"] >= 1
        finally:
            pool.shutdown(grace_s=5.0)


class TestHang:
    def test_hung_worker_is_killed_and_respawned(self):
        pool = WorkerPool(size=1, request_timeout_s=0.5)
        pool.start()
        try:
            outcome = pool.submit(
                {"id": 1, "source": GOOD, "fingerprint": "fp",
                 "chaos_sleep_s": 30.0}
            )
            assert not outcome.ok
            assert outcome.timed_out
            assert outcome.error_code == "request-timeout"
            assert pool.timeouts == 1
            # the respawned worker serves the next job
            outcome = pool.submit({"id": 2, "source": GOOD, "fingerprint": "fp"})
            assert outcome.ok
        finally:
            pool.shutdown(grace_s=5.0)

    def test_per_job_timeout_only_tightens(self):
        pool = WorkerPool(size=1, request_timeout_s=0.4)
        pool.start()
        try:
            outcome = pool.submit(
                {"id": 1, "source": GOOD, "fingerprint": "fp",
                 "chaos_sleep_s": 30.0},
                timeout_s=60.0,  # looser than the pool's: ignored
            )
            assert outcome.timed_out
        finally:
            pool.shutdown(grace_s=5.0)


class TestShutdown:
    def test_shutdown_is_idempotent_and_stops_workers(self):
        pool = WorkerPool(size=2)
        pool.start()
        pool.shutdown(grace_s=5.0)
        assert pool.alive_count() == 0
        pool.shutdown(grace_s=5.0)  # no raise


class TestRunJobInProcess:
    """run_job is the worker loop's body; exercised here without a process."""

    def test_missing_source_is_malformed(self):
        response = run_job({"id": 3})
        assert not response["ok"]
        assert response["error"]["code"] == "malformed-request"

    def test_good_source_builds_a_record(self):
        response = run_job({"id": 4, "source": GOOD, "options": {}})
        assert response["ok"]
        assert response["record"]["function"] == "main"
        assert response["record"]["loops"]
        assert response["report"] is None

    def test_report_option(self):
        response = run_job({"id": 5, "source": GOOD, "options": {"report": True}})
        assert "loop L1" in response["report"]
