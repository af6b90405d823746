"""The ``serve_editor`` workload: ``repro serve`` under an editor-like client.

The daemon is booted as a subprocess with one worker.  This process is
the one client: one connection that sends its next request only after
the previous answer arrived (closed loop), so at most one of client,
server and worker is busy at a time and the run measures the service,
not the scheduler of a small host.

Each pass is a fixed mix of 100 requests in a seeded order: 50 fresh
DSL programs and 20 fresh Python modules, all with ``report: true``,
plus 30 repeats of a DSL request from the last 32.  A repeat's original
has always completed, so repeats hit the result cache deterministically
and the hit ratio is the same on every pass and seed.  Fresh requests
never collide: each DSL program draws its own constants and each Python
module carries a unique first-line comment.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.aggregate import validate_record
from repro.service.client import ServiceClient

from perfbench import inputs
from perfbench.analysis import Outcome
from perfbench.measure import Speed, descendants, mean, peak_rss_mb, percentile

WORKERS = 1
FRESH_DSL = 50
FRESH_PY = 20
REPEATS = 30
REPEAT_WINDOW = 32

DSL_OPTIONS = {"ranges": True, "invariants": True, "report": True}
PY_OPTIONS = dict(DSL_OPTIONS, language="python")

#: the Python modules of the mix, each sent FRESH_PY / len(...) times a pass
PY_MODULES = (
    "corpus/degrade.py",
    "corpus/kernels.py",
    "corpus/numeric.py",
    "corpus/search.py",
    "stdlib/bisect.py",
    "stdlib/colorsys.py",
    "stdlib/fnmatch.py",
    "stdlib/genericpath.py",
    "stdlib/graphlib.py",
    "stdlib/sched.py",
)

#: DSL sizes of the mix: mixed-class loops and IV chains, small to mid
DSL_SIZES = inputs.ladder(8, 96, steps=FRESH_DSL // 2)

#: degraded answers with these codes are the service failing, not the input
SERVE_FAILURE_CODES = {
    "worker-crash",
    "request-timeout",
    "circuit-open",
    "response-overflow",
    "internal-error",
}
SERVE_FAILURE_DIAGS = {"RES506", "RES507", "RES508", "RES509"}

BOOT_TIMEOUT_S = 60.0
GRACE_S = 10.0


class Request(NamedTuple):
    kind: str  # "dsl", "py" or "repeat"
    payload: Dict[str, Any]
    #: index of the repeated request in the same sequence (repeats only)
    original: int = -1


def _dsl_source(rng, j: int) -> str:
    size = DSL_SIZES[j // 2]
    if j % 2 == 0:
        return inputs.mixed_class_loop(rng.randrange(2**31), size)
    generator = inputs.straightline_iv_loop if j % 4 == 1 else inputs.deep_chain_loop
    return generator(size, seed=rng.randrange(2**31))


def sequence(seed: int, index: int, modules: Dict[str, str]) -> List[Request]:
    """The requests of pass ``index``."""
    rng = inputs.pass_rng("serve_editor", seed, index)
    dsl = [
        Request("dsl", {"op": "analyze", "source": _dsl_source(rng, j), "options": DSL_OPTIONS})
        for j in range(FRESH_DSL)
    ]
    names = sorted(modules)
    py = [
        Request(
            "py",
            {
                "op": "analyze",
                "source": f"# perfbench request {seed}.{index}.{j}\n"
                + modules[names[j % len(names)]],
                "options": PY_OPTIONS,
            },
        )
        for j in range(FRESH_PY)
    ]
    rng.shuffle(dsl)
    rest: List[Optional[Request]] = dsl[1:] + py + [None] * REPEATS
    rng.shuffle(rest)
    # a DSL program opens the sequence, so every repeat has an original
    out: List[Request] = [dsl[0]]
    for request in rest:
        if request is None:
            earlier = [i for i, r in enumerate(out) if r.kind == "dsl"]
            window = [i for i in earlier if i >= len(out) - REPEAT_WINDOW]
            original = rng.choice(window or earlier[-1:])
            request = Request("repeat", out[original].payload, original)
        out.append(request)
    return out


class Exchange(NamedTuple):
    request: Request
    #: wall seconds from send to answer
    rtt_s: float
    response: Optional[Dict[str, Any]]
    error: Optional[str]
    #: index of the reference-kernel sample that follows the exchange
    at: int = 0


def _strip_ts(record: Any) -> Any:
    if isinstance(record, dict):
        return {k: _strip_ts(v) for k, v in record.items() if k != "ts"}
    if isinstance(record, list):
        return [_strip_ts(v) for v in record]
    return record


def classify_answer(exchange: Exchange) -> Tuple[bool, Optional[str]]:
    """(failed, why) for one exchange, by the serving contract.

    Failed: a protocol failure, an ``error`` status, or a ``degraded``
    answer carrying a serve-layer code.  Input-caused degradations
    (PYF4xx from unsupported Python) are correct answers.  ``why`` also
    reports answers that fail validation.
    """
    if exchange.error is not None:
        return True, f"protocol failure: {exchange.error}"
    response = exchange.response or {}
    status = response.get("status")
    if status == "error":
        return True, f"error status: {response.get('error')}"
    if status not in ("ok", "degraded"):
        return True, f"unknown status {status!r}"
    results = response.get("results")
    if not isinstance(results, list) or len(results) != 1:
        return True, "answer lacks its one result"
    result = results[0]
    code = (result.get("error") or {}).get("code")
    diags = {d.get("code") for d in result.get("diagnostics") or []}
    if code in SERVE_FAILURE_CODES or diags & SERVE_FAILURE_DIAGS:
        return True, f"serve-layer degradation {code or sorted(diags)}"
    record = result.get("record")
    if not isinstance(record, dict):
        return True, "answer lacks its record"
    problem = validate_record(record)
    if problem:
        return True, f"invalid record: {problem}"
    return False, None


class Server:
    """One ``repro serve`` subprocess, booted to ready and warmed."""

    def __init__(self, root: str, modules: Dict[str, str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # the worker pool's forkserver binds a unix socket under TMPDIR;
        # keep it inside the checkout unless that path would pass the
        # 108-byte socket-path limit
        tmp = os.path.join(root, ".bench_tmp")
        if len(tmp) < 60:
            os.makedirs(tmp, exist_ok=True)
            env["TMPDIR"] = tmp
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--timeout-s", "60",
                "--grace-s", str(GRACE_S),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._children: List[int] = []
        try:
            self.host, self.port = self._listening()
            self._wait_ready()
            self.warm_jobs = self._warm(modules)
        except BaseException:
            self.stop()
            raise

    def _listening(self) -> Tuple[str, int]:
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.process.stdout.readline().strip() if ready else ""
        if not line.startswith("listening on "):
            raise RuntimeError(f"repro serve failed to boot: {line!r}")
        host, port = line[len("listening on "):].rsplit(":", 1)
        return host, int(port)

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port, timeout_s=120.0).connect()

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        with self.client() as client:
            while not client.ready().get("ready"):
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never became ready")
                time.sleep(0.01)

    def _warm(self, modules: Dict[str, str]) -> int:
        """Send the worker one DSL and one Python job, so imports are done."""
        text = modules[sorted(modules)[0]]
        with self.client() as client:
            client.analyze("# warm-up\n" + inputs.deep_chain_loop(4), options=DSL_OPTIONS)
            client.analyze(f"# warm-up\n{text}", options=PY_OPTIONS)
        return 2

    def stats(self) -> Dict[str, Any]:
        with self.client() as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """VmHWM of the largest of the server and its workers."""
        self._children = descendants(self.process.pid)
        pids = [self.process.pid] + self._children
        return max(peak_rss_mb(str(pid)) for pid in pids)

    def stop(self) -> Optional[int]:
        """Graceful drain; returns the exit code (None if it had to be killed)."""
        children = self._children or descendants(self.process.pid)
        code: Optional[int] = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                code = self.process.wait(timeout=GRACE_S + 10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        else:
            code = self.process.returncode
        self.process.stdout.close()
        deadline = time.monotonic() + 10.0
        for pid in children:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.02)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        return code


def _drive(client: ServiceClient, requests: List[Request], speed: Speed) -> List[Exchange]:
    """Send ``requests`` one after the other, a kernel sample after each."""
    out: List[Exchange] = []
    for request in requests:
        begin = time.perf_counter()
        try:
            response, error = client.request(request.payload), None
        except Exception as exc:  # noqa: BLE001 - counted as a protocol failure
            response, error = None, f"{type(exc).__name__}: {exc}"
            # the next request reconnects
            client.close()
        rtt = time.perf_counter() - begin
        out.append(Exchange(request, rtt, response, error, len(speed.samples)))
        speed.sample()
    return out


class ServeWorkload:
    name = "serve_editor"

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        pinned = inputs.load_pinned()
        self.modules = {
            relative: pinned[os.path.join(inputs.DATA_DIR, relative)]
            for relative in PY_MODULES
        }
        self.first_pass = sequence(seed, 0, self.modules)

    def boot(self) -> Server:
        return Server(self.root, self.modules)

    def run(self, seconds: float) -> Outcome:
        """Boot the server, drive whole passes for ``seconds``, drain it.

        Every time is scaled to reference seconds by the kernel samples
        around its exchange.
        """
        out = Outcome()
        server = self.boot()
        speed = Speed()
        speed.sample()
        rtts: List[float] = []
        walls: List[float] = []
        hits: List[float] = []
        misses: List[float] = []
        split: Dict[str, List[float]] = {
            k: [] for k in ("protocol", "dispatch", "pool", "worker_analysis", "worker_other")
        }
        pass_loops: List[int] = []
        functions = lowered = degraded_input = 0
        index = 0
        try:
            client = server.client()
            try:
                started = time.perf_counter()
                while index == 0 or time.perf_counter() - started < seconds:
                    plan = self.first_pass if index == 0 else sequence(
                        self.seed, index, self.modules
                    )
                    exchanges = _drive(client, plan, speed)
                    loops = 0
                    for exchange in exchanges:
                        out.attempted += 1
                        factor = speed.scale(exchange.at)
                        rtt = exchange.rtt_s * factor
                        rtts.append(rtt)
                        walls.append(exchange.rtt_s)
                        failed, why = classify_answer(exchange)
                        if failed:
                            out.failed += 1
                            out.failures.append(f"pass {index} {exchange.request.kind}: {why}")
                            continue
                        result = exchange.response["results"][0]
                        record = result["record"]
                        loops += len(record.get("loops") or [])
                        if exchange.request.kind == "py":
                            section = record.get("functions") or {}
                            functions += section.get("total", 0)
                            lowered += section.get("lowered", 0)
                            degraded_input += result.get("status") == "degraded"
                        else:
                            functions += 1
                            lowered += 1
                        if result.get("cached"):
                            hits.append(rtt)
                            first = exchanges[exchange.request.original].response or {}
                            first_record = (first.get("results") or [{}])[0].get("record")
                            if _strip_ts(first_record) != _strip_ts(record):
                                out.problems.append(
                                    f"pass {index}: cached record differs from the first answer"
                                )
                            continue
                        misses.append(rtt)
                        if exchange.request.kind == "py":
                            continue
                        server_s = exchange.response["elapsed_s"]
                        pool_s = result["elapsed_s"]
                        analysis_s = (record.get("phases") or {}).get("pipeline.analyze")
                        if analysis_s is None:
                            out.problems.append(f"pass {index}: DSL record lacks its phases")
                            continue
                        split["protocol"].append((exchange.rtt_s - server_s) * factor)
                        split["dispatch"].append((server_s - pool_s) * factor)
                        split["pool"].append(pool_s * factor)
                        split["worker_analysis"].append(analysis_s * factor)
                        split["worker_other"].append((pool_s - analysis_s) * factor)
                    pass_loops.append(loops)
                    index += 1
            finally:
                client.close()
            stats = server.stats()
            rss = server.peak_rss_mb()
        finally:
            exit_code = server.stop()
        if exit_code != 0:
            out.problems.append(f"repro serve drained with exit code {exit_code}")

        n = len(rtts)
        p50, _ = percentile(rtts, 50)
        p95, beyond = percentile(rtts, 95)
        out.put("latency_p50_s", p50, "s", n)
        out.put("latency_p95_s", p95, "s", n, beyond=beyond)
        out.put("throughput_per_s", 1.0 / mean(rtts), "1/s", n)
        out.put("wall.latency_p50_s", percentile(walls, 50)[0], "s", n)
        out.put("host.reference_ms", statistics.median(speed.samples) * 1e3, "ms", len(speed.samples))
        out.put("failed_fraction", out.failed / out.attempted, "ratio", out.attempted)
        out.put("loops_analyzed", statistics.median(pass_loops), "count", index)
        out.put("lowered_fraction", lowered / functions if functions else 0.0, "ratio", functions)
        out.put("peak_rss_mb", rss, "MiB", 1 + WORKERS)

        dsl_misses = len(split["pool"])
        for part, values in split.items():
            out.put(f"service.{part}_s", mean(values), "s", dsl_misses)
            if values and min(values) < -1e-5:
                out.problems.append(f"service.{part}_s has a negative share: {min(values)}")
        out.put("service.cache.hit_ratio", len(hits) / n, "ratio", n)
        if hits:
            out.put("service.cache.hit_latency_p50_s", percentile(hits, 50)[0], "s", len(hits))
        if misses:
            out.put("service.miss_latency_p50_s", percentile(misses, 50)[0], "s", len(misses))
        pool = stats.get("pool") or {}
        out.put("service.pool.jobs", (pool.get("jobs", 0) - server.warm_jobs) / index, "count", index)
        out.put("service.pool.crashes", pool.get("crashes", 0), "count", 1)
        out.put("service.pool.timeouts", pool.get("timeouts", 0), "count", 1)
        out.put("service.breaker.shed", (stats.get("breaker") or {}).get("shed_total", 0), "count", 1)
        out.put("service.degraded_input", degraded_input / index, "count", index)
        return out
