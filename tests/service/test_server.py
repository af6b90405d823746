"""End-to-end server tests: the serving contract over real sockets.

The contract under test: only a malformed or oversized request yields
``status: error``; every analysis failure comes back ``status: degraded``
with a matching DegradationRecord and RES5xx diagnostic; and the server
survives all of it.
"""

import socket
import struct

import pytest

from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.runlog import source_fingerprint
from repro.obs.trace import Tracer, tracing
from repro.service import AnalysisServer, ServiceClient
from repro.service import server as server_module
from repro.service.cache import ResultCache
from repro.service.pool import JobOutcome
from repro.service.protocol import recv_message
from repro.service.server import FAILURE_TTL_S, RETRY_ATTEMPTS

GOOD = """\
i = 0
x = 0
L1: while i < 10 do
  x = x + i
  i = i + 1
endwhile
"""

BAD = "L1: while i <\n"


@pytest.fixture(scope="class")
def served():
    """One healthy server + its registry, shared across a test class."""
    with collecting(MetricsRegistry()) as registry:
        server = AnalysisServer(pool_size=2)
        host, port = server.start()
        try:
            yield server, host, port, registry
        finally:
            server.stop(grace_s=5.0)


def client_for(served):
    _server, host, port, _registry = served
    return ServiceClient(host, port, timeout_s=30.0)


class TestHappyPath:
    def test_analyze_ok(self, served):
        with client_for(served) as client:
            response = client.analyze(GOOD)
        assert response["status"] == "ok"
        (result,) = response["results"]
        assert result["status"] == "ok"
        assert result["fingerprint"] == source_fingerprint(GOOD)
        assert result["record"]["loops"]
        assert result["degradations"] == []
        assert response["elapsed_s"] >= 0

    def test_repeat_request_is_served_from_cache(self, served):
        source = GOOD.replace("10", "11")
        with client_for(served) as client:
            first = client.analyze(source)
            second = client.analyze(source)
        assert "cached" not in first["results"][0]
        assert second["results"][0]["cached"] is True
        assert second["status"] == "ok"

    def test_options_key_the_cache(self, served):
        source = GOOD.replace("10", "12")
        with client_for(served) as client:
            client.analyze(source)
            report = client.analyze(source, options={"report": True})
        # different options: a fresh analysis, not the cached plain one
        assert "cached" not in report["results"][0]
        assert "loop L1" in report["results"][0]["report"]

    def test_batch_shards_across_the_pool(self, served):
        programs = [
            {"name": f"f{i}", "source": GOOD.replace("10", str(20 + i))}
            for i in range(6)
        ]
        with client_for(served) as client:
            response = client.analyze_batch(programs)
        assert response["status"] == "ok"
        assert len(response["results"]) == 6
        assert {r["worker"] for r in response["results"]} == {0, 1}

    def test_frontend_error_degrades_with_record(self, served):
        with client_for(served) as client:
            response = client.analyze(BAD)
        assert response["status"] == "degraded"
        (result,) = response["results"]
        assert result["error"]["code"] == "frontend-error"
        (record,) = result["degradations"]
        assert record["phase"] == "serve.worker"
        assert record["code"] == "frontend-error"
        assert record["diag_code"] == "RES501"
        assert result["diagnostics"][0]["code"] == "RES501"

    def test_client_errors_are_never_cached(self, served):
        source = BAD.replace("<", "< (")
        with client_for(served) as client:
            responses = [client.analyze(source) for _ in range(3)]
        # every repeat is answered by a fresh dispatch, not the cache
        for response in responses:
            (result,) = response["results"]
            assert result["error"]["code"] == "frontend-error"
            assert "cached" not in result
            counters = response["metrics"]["counters"]
            assert counters["service.cache.misses"] == 1

    def test_health_ready_stats(self, served):
        with client_for(served) as client:
            health = client.health()
            ready = client.ready()
            stats = client.stats()
        assert health == {"status": "ok", "op": "health", "alive": True}
        assert ready["ready"] is True
        assert ready["pool"]["alive"] == 2
        assert stats["uptime_s"] >= 0
        assert stats["pool"]["size"] == 2
        assert "service.requests" in stats["metrics"]["counters"]

    def test_unknown_op_is_a_request_error(self, served):
        with client_for(served) as client:
            response = client.request({"op": "explode"})
        assert response["status"] == "error"
        assert response["error"]["code"] == "malformed-request"

    def test_missing_source_is_a_request_error(self, served):
        with client_for(served) as client:
            response = client.request({"op": "analyze"})
        assert response["status"] == "error"
        assert response["error"]["code"] == "malformed-request"

    def test_non_string_source_in_batch_is_a_request_error(self, served):
        with client_for(served) as client:
            response = client.analyze_batch([{"name": "f", "source": 42}])
        assert response["status"] == "error"
        assert "programs[0]" in response["error"]["message"]

    def test_oversized_frame_is_answered_then_closed(self, served):
        _server, host, port, _registry = served
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(struct.pack("!I", 64 * 1024 * 1024))
            response = recv_message(sock)
        assert response["status"] == "error"
        assert response["error"]["code"] == "request-overflow"

    def test_garbage_bytes_are_answered_then_closed(self, served):
        _server, host, port, _registry = served
        with socket.create_connection((host, port), timeout=10.0) as sock:
            body = b"\xff\xfe garbage"
            sock.sendall(struct.pack("!I", len(body)) + body)
            response = recv_message(sock)
        assert response["status"] == "error"
        assert response["error"]["code"] == "malformed-request"

    def test_non_numeric_deadline_is_a_request_error(self, served):
        with client_for(served) as client:
            response = client.analyze(GOOD, options={"deadline_s": "soon"})
            assert response["status"] == "error"
            assert response["error"]["code"] == "malformed-request"
            assert "deadline_s" in response["error"]["message"]
            # the connection survived: the same socket answers again
            assert client.health()["alive"] is True

    def test_bad_deadline_values_are_rejected(self, served):
        with client_for(served) as client:
            for bad in (True, -1, 0, "1.5", [1], float("nan")):
                response = client.analyze(GOOD, options={"deadline_s": bad})
                assert response["status"] == "error", bad
                assert response["error"]["code"] == "malformed-request", bad

    def test_numeric_deadline_is_accepted(self, served):
        source = GOOD.replace("10", "55")
        with client_for(served) as client:
            response = client.analyze(source, options={"deadline_s": 30})
        assert response["status"] == "ok"

    def test_server_survives_all_of_the_above(self, served):
        with client_for(served) as client:
            assert client.health()["alive"] is True


class TestPerRequestMetrics:
    def test_request_metrics_are_isolated(self, served):
        source_a = GOOD.replace("10", "31")
        source_b = GOOD.replace("10", "32")
        with client_for(served) as client:
            first = client.analyze(source_a)
            second = client.analyze(source_b)
        # each response carries only its own request's counters
        assert first["metrics"]["counters"]["service.cache.misses"] == 1
        assert second["metrics"]["counters"]["service.cache.misses"] == 1

    def test_degraded_response_counts_its_own_degradation(self, served):
        with client_for(served) as client:
            response = client.analyze(BAD)
        counters = response["metrics"]["counters"]
        assert counters["resilience.degraded.serve.worker"] == 1

    def test_request_counters_merge_into_the_server_registry(self, served):
        _server, _host, _port, registry = served
        counters = registry.snapshot()["counters"]
        assert counters["service.requests"] >= 1
        assert counters["service.requests.degraded"] >= 1
        assert counters["service.connections"] >= 1


class TestCrashIsolation:
    @pytest.fixture(scope="class")
    def crashing(self):
        with collecting(MetricsRegistry()) as registry:
            server = AnalysisServer(
                pool_size=1,
                fault_spec={"points": ["serve.worker"], "rate": 1.0},
            )
            host, port = server.start()
            try:
                yield server, host, port, registry
            finally:
                server.stop(grace_s=5.0)

    def test_crash_degrades_with_res506_and_server_survives(self, crashing):
        server, host, port, _registry = crashing
        with ServiceClient(host, port, timeout_s=30.0) as client:
            response = client.analyze(GOOD)
            assert client.health()["alive"] is True
        assert response["status"] == "degraded"
        (result,) = response["results"]
        assert result["error"]["code"] == "worker-crash"
        (record,) = result["degradations"]
        assert record["phase"] == "serve.worker"
        assert record["code"] == "worker-crash"
        assert record["diag_code"] == "RES506"
        assert result["diagnostics"][0]["code"] == "RES506"
        # all retry attempts burned a worker incarnation
        assert server.pool.crashes == RETRY_ATTEMPTS
        counters = response["metrics"]["counters"]
        assert counters["resilience.degraded.serve.worker"] == 1
        assert counters["service.retries"] == RETRY_ATTEMPTS - 1

    def test_repeated_crashes_are_answered_from_the_cache(self, crashing):
        server, host, port, _registry = crashing
        with ServiceClient(host, port, timeout_s=30.0) as client:
            responses = [client.analyze(GOOD) for _ in range(4)]
        # the failure above is remembered: no further dispatch
        assert server.pool.snapshot()["jobs"] == RETRY_ATTEMPTS
        for response in responses:
            (result,) = response["results"]
            assert result["cached"] is True
            assert result["error"]["code"] == "worker-crash"
            (record,) = result["degradations"]
            assert record["diag_code"] == "RES506"
            assert result["diagnostics"][0]["code"] == "RES506"
            counters = response["metrics"]["counters"]
            assert counters["resilience.degraded.serve.worker"] == 1
            assert counters["service.requests.failed"] == 1
            assert "service.retries" not in counters

    def test_other_fingerprints_still_crash_independently(self, crashing):
        _server, host, port, _registry = crashing
        other = GOOD.replace("10", "41")
        with ServiceClient(host, port, timeout_s=30.0) as client:
            response = client.analyze(other)
        assert response["results"][0]["error"]["code"] == "worker-crash"


class TestHangIsolation:
    def test_hang_degrades_with_res507_and_pool_recovers(self):
        with collecting(MetricsRegistry()):
            server = AnalysisServer(pool_size=1, request_timeout_s=0.5)
            host, port = server.start()
            try:
                with ServiceClient(host, port, timeout_s=30.0) as client:
                    hung = client.analyze(GOOD, chaos_sleep_s=30.0)
                    healthy = client.analyze(GOOD)
            finally:
                server.stop(grace_s=5.0)
        (result,) = hung["results"]
        assert result["error"]["code"] == "request-timeout"
        assert result["degradations"][0]["diag_code"] == "RES507"
        # request-timeout is DEGRADE policy: exactly one kill, no retry
        assert server.pool.timeouts == 1
        assert healthy["results"][0]["status"] == "ok"


class TestDrain:
    def test_stop_drains_and_is_idempotent(self):
        server = AnalysisServer(pool_size=1)
        host, port = server.start()
        with ServiceClient(host, port, timeout_s=10.0) as client:
            assert client.analyze(GOOD)["status"] == "ok"
        server.stop(grace_s=5.0)
        assert server.wait(timeout=1.0)
        assert server.pool.alive_count() == 0
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)
        server.stop(grace_s=1.0)  # no raise

    def test_start_is_idempotent(self):
        server = AnalysisServer(pool_size=1)
        address = server.start()
        assert server.start() == address
        server.stop(grace_s=5.0)


class TestServingContractBackstops:
    """Unexpected exceptions must be answered, never drop the connection."""

    def test_handler_bug_is_answered_not_dropped(self, monkeypatch):
        server = AnalysisServer(pool_size=1)
        host, port = server.start()

        def raiser(request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "_handle_analyze", raiser)
        try:
            with ServiceClient(host, port, timeout_s=10.0) as client:
                response = client.analyze(GOOD)
                assert response["status"] == "error"
                assert response["error"]["code"] == "internal-error"
                assert "boom" in response["error"]["message"]
                assert client.health()["alive"] is True
        finally:
            server.stop(grace_s=5.0)

    def test_program_level_bug_degrades_the_program(self, monkeypatch):
        # e.g. a dispatch-path TypeError: not a ReproError, not retryable
        server = AnalysisServer(pool_size=1)

        def boom(job):
            raise TypeError("float() argument must be a number")

        monkeypatch.setattr(server, "_dispatch", boom)
        result = server._run_program({"name": "main", "source": GOOD}, {})
        assert result["status"] == "degraded"
        assert result["error"]["code"] == "internal-error"
        assert result["degradations"][0]["code"] == "internal-error"
        assert result["diagnostics"][0]["code"] == "RES501"


def crash(_job, timeout_s=None):
    return JobOutcome(
        ok=False, error_code="worker-crash",
        error_message="worker 0 died mid-job", crashed=True,
    )


def hang(_job, timeout_s=None):
    return JobOutcome(
        ok=False, error_code="request-timeout",
        error_message="job outlived the timeout", timed_out=True,
    )


def clean(_job, timeout_s=None):
    return JobOutcome(
        ok=True, response={"ok": True, "record": {"loops": []}}, worker_id=0
    )


class ScriptedPool:
    """Stands in for ``server.pool``: one scripted outcome per dispatch."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.jobs = 0

    def submit(self, job, timeout_s=None):
        step = self.steps[min(self.jobs, len(self.steps) - 1)]
        self.jobs += 1
        return step(job, timeout_s)


@pytest.fixture
def delays(monkeypatch):
    """Record each retry's backoff instead of sleeping it."""
    recorded = []
    real = server_module._backoff_s

    def record(retry_index, rng):
        recorded.append((retry_index, real(retry_index, rng)))
        return 0.0

    monkeypatch.setattr(server_module, "_backoff_s", record)
    return recorded


def run_scripted(server, source=GOOD, options=None):
    with collecting(MetricsRegistry()) as registry:
        result = server._run_program(
            {"name": "main", "source": source}, options or {}
        )
    return result, registry.snapshot()["counters"]


class TestRetry:
    """Only RETRY-policy failures re-dispatch, at most RETRY_ATTEMPTS times."""

    def test_crash_is_dispatched_three_times_then_degrades(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(crash)
        result, counters = run_scripted(server)
        assert RETRY_ATTEMPTS == 3
        assert server.pool.jobs == RETRY_ATTEMPTS
        assert [index for index, _delay in delays] == [0, 1]
        assert counters["service.retries"] == RETRY_ATTEMPTS - 1
        assert result["error"]["code"] == "worker-crash"
        assert result["diagnostics"][0]["code"] == "RES506"

    def test_crash_is_retried_to_success(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(crash, crash, clean)
        with tracing(Tracer()) as tracer:
            result, counters = run_scripted(server)
        assert result["status"] == "ok"
        assert server.pool.jobs == 3
        assert counters["service.retries"] == 2
        retries = [e.attrs for e in tracer.events if e.name == "service.retry"]
        assert retries == [
            {"code": "worker-crash", "attempt": 0},
            {"code": "worker-crash", "attempt": 1},
        ]

    def test_timeout_is_not_retried(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(hang)
        result, counters = run_scripted(server)
        assert server.pool.jobs == 1
        assert delays == [] and "service.retries" not in counters
        assert result["error"]["code"] == "request-timeout"
        assert result["diagnostics"][0]["code"] == "RES507"

    @pytest.mark.parametrize("code", ["frontend-error", "python-syntax-error"])
    def test_non_retry_codes_are_dispatched_once(self, delays, code):
        # both are ABORT policy: neither re-dispatches, and both keep
        # their own code
        def reported(_job, timeout_s=None):
            return JobOutcome(
                ok=True,
                response={"ok": False, "error": {"code": code, "message": "no"}},
            )

        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(reported)
        result, _counters = run_scripted(server)
        assert server.pool.jobs == 1 and delays == []
        assert result["error"] == {"code": code, "message": "no"}
        assert result["diagnostics"][0]["code"] == "RES501"

    def test_backoff_jitter_stays_within_half_to_full_delay(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(crash)
        run_scripted(server)
        run_scripted(server, source=GOOD.replace("10", "14"))
        factors = []
        for index, delay in delays:
            full = 0.05 * 4**index
            assert 0.5 * full <= delay <= full
            factors.append(delay / full)
        assert len(factors) == 4
        assert len(set(factors)) == 4  # a fresh jitter draw per retry


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCachedFailures:
    """The result cache is the server's only memory of a failing program."""

    def test_crash_script_dispatches_three_jobs(self):
        # five requests for a program that crashes every worker: the
        # first burns RETRY_ATTEMPTS jobs, the other four hit the cache
        with collecting(MetricsRegistry()):
            server = AnalysisServer(
                pool_size=1,
                fault_spec={"points": ["serve.worker"], "rate": 1.0},
            )
            host, port = server.start()
            try:
                with ServiceClient(host, port, timeout_s=30.0) as client:
                    results = [
                        client.analyze(GOOD)["results"][0] for _ in range(5)
                    ]
                    jobs = client.stats()["pool"]["jobs"]
            finally:
                server.stop(grace_s=5.0)
        assert jobs == 3
        assert [r.get("cached", False) for r in results] == [False] + [True] * 4
        assert {r["error"]["code"] for r in results} == {"worker-crash"}

    def test_failure_expires_after_its_ttl(self, delays):
        clock = FakeClock()
        server = AnalysisServer(pool_size=1)
        server.cache = ResultCache(clock=clock)
        server.pool = ScriptedPool(crash)
        first, _ = run_scripted(server)
        clock.advance(FAILURE_TTL_S - 1.0)
        repeat, counters = run_scripted(server)
        assert server.pool.jobs == RETRY_ATTEMPTS
        assert repeat["cached"] is True
        assert repeat["degradations"] == first["degradations"]
        assert counters["resilience.degraded.serve.worker"] == 1
        # past the TTL the program is dispatched again -- and now works
        clock.advance(1.0)
        server.pool.steps = [clean]
        fresh, _ = run_scripted(server)
        assert server.pool.jobs == RETRY_ATTEMPTS + 1
        assert fresh["status"] == "ok" and "cached" not in fresh
        # a clean result has no TTL
        clock.advance(10 * FAILURE_TTL_S)
        assert run_scripted(server)[0]["cached"] is True

    def test_failures_are_keyed_by_options(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(hang)
        run_scripted(server)
        run_scripted(server, options={"report": True})
        assert server.pool.jobs == 2
        assert run_scripted(server)[0]["cached"] is True
        assert server.pool.jobs == 2

    def test_frontend_error_is_never_cached(self, delays):
        def rejected(_job, timeout_s=None):
            return JobOutcome(
                ok=True,
                response={
                    "ok": False,
                    "error": {"code": "frontend-error", "message": "bad"},
                },
            )

        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(rejected)
        for _ in range(3):
            result, _ = run_scripted(server, source=BAD)
            assert "cached" not in result
        assert server.pool.jobs == 3
        assert len(server.cache) == 0

    @pytest.mark.parametrize(
        "code, answered",
        [
            ("python-syntax-error", "python-syntax-error"),
            ("no-such-code", "internal-error"),
        ],
    )
    def test_other_reported_failures_are_cached(self, delays, code, answered):
        def reported(_job, timeout_s=None):
            return JobOutcome(
                ok=True,
                response={"ok": False, "error": {"code": code, "message": "no"}},
            )

        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(reported)
        run_scripted(server)
        repeat, _ = run_scripted(server)
        # neither is retried: an unregistered code is an internal error
        assert server.pool.jobs == 1 and delays == []
        assert repeat["cached"] is True
        assert repeat["error"]["code"] == answered

    def test_requested_hang_is_not_remembered(self, delays):
        server = AnalysisServer(pool_size=1)
        server.pool = ScriptedPool(hang, clean)
        with collecting(MetricsRegistry()):
            hung = server._run_program(
                {"name": "main", "source": GOOD, "chaos_sleep_s": 30.0}, {}
            )
        assert hung["error"]["code"] == "request-timeout"
        assert len(server.cache) == 0
        fresh, _ = run_scripted(server)
        assert server.pool.jobs == 2
        assert fresh["status"] == "ok" and "cached" not in fresh

    def test_cache_capacity_zero_remembers_nothing(self, delays):
        server = AnalysisServer(pool_size=1, cache_capacity=0)
        server.pool = ScriptedPool(crash)
        run_scripted(server)
        run_scripted(server)
        assert server.pool.jobs == 2 * RETRY_ATTEMPTS


class TestIdleTimeout:
    def test_stalled_connection_is_dropped_and_server_survives(self):
        server = AnalysisServer(pool_size=1, idle_timeout_s=0.3)
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b"\x00\x00")  # partial frame header, then stall
                sock.settimeout(5.0)
                assert sock.recv(1) == b""  # server dropped the connection
            with ServiceClient(host, port, timeout_s=10.0) as client:
                assert client.health()["alive"] is True
        finally:
            server.stop(grace_s=5.0)


class TestResponseBounding:
    def test_oversized_response_is_truncated_not_unreceivable(self):
        server = AnalysisServer(pool_size=1, max_message_bytes=2048)
        left, right = socket.socketpair()
        response = {
            "status": "ok",
            "op": "analyze",
            "results": [
                {
                    "name": "main", "fingerprint": "f", "status": "ok",
                    "record": {"big": "x" * 4096}, "report": "y" * 4096,
                    "degradations": [], "diagnostics": [],
                }
            ],
            "metrics": {"counters": {}},
        }
        try:
            server._send_response(left, response)
            received = recv_message(right, 2048)  # same limit as the server
        finally:
            left.close()
            right.close()
        assert received["status"] == "degraded"
        (result,) = received["results"]
        assert result["truncated"] is True
        assert "report" not in result and "record" not in result
        assert result["degradations"][-1]["code"] == "response-overflow"
        assert result["degradations"][-1]["diag_code"] == "RES509"
        assert result["diagnostics"][-1]["code"] == "RES509"
        assert "metrics" not in received

    def test_fitting_response_is_untouched(self):
        server = AnalysisServer(pool_size=1)
        left, right = socket.socketpair()
        response = {"status": "ok", "op": "health", "alive": True}
        try:
            server._send_response(left, response)
            assert recv_message(right) == response
        finally:
            left.close()
            right.close()


class TestRunlog:
    def test_clean_results_are_recorded(self, tmp_path):
        directory = str(tmp_path / "runs")
        server = AnalysisServer(pool_size=1, runlog_dir=directory)
        host, port = server.start()
        try:
            with ServiceClient(host, port, timeout_s=10.0) as client:
                client.analyze(GOOD)
                client.analyze(BAD)  # degraded: not a record
        finally:
            server.stop(grace_s=5.0)
        import repro.obs.aggregate as agg

        records = agg.load_records(directory)
        assert len(records) == 1
        assert records[0]["fingerprint"] == source_fingerprint(GOOD)
