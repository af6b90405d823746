#!/usr/bin/env python3
"""Load-test harness for the analysis service (``repro serve``).

Boots the real daemon as a subprocess (the same entry point production
would run, including signal handling), then drives it with N concurrent
clients sending a deterministic mixed workload:

* **good** requests -- valid programs, several distinct fingerprints plus
  deliberate repeats so the result cache sees hits;
* **bad** requests -- syntax errors, expecting a *degraded* response with
  a ``frontend-error`` payload (a client fault is not a server error);
* **oversized** requests -- a frame header past the server's limit,
  expecting a structured ``request-overflow`` protocol error;
* **batch** requests -- several programs in one exchange, sharded across
  workers.

With ``--crash-rate`` > 0 the server is booted with deterministic fault
injection at the ``serve.worker`` point (``--inject-seed`` keys it:
whether a job crashes is a hash of the seed, the program's fingerprint
and the dispatch attempt), so a fraction of jobs hard-crash their
worker mid-request, and a rerun with the same seed crashes the same
ones.  The
pass criteria are the serving contract:

1. **zero protocol failures** -- every request gets a well-formed
   response; a crashed worker must surface as a degraded response with a
   ``RES506`` diagnostic, never as a closed connection or a dead server;
2. ``status: error`` responses match the intentionally-malformed
   request count exactly;
3. SIGTERM drains the server with **exit code 0** within the grace
   window.

``--emit BENCH_0006.json`` records the run as a schema-v6 benchmark
document: latency percentiles (p50/p99/max), error rate, degraded
fraction, cache/pool snapshots, and the drain verdict.  Exits 1
when any pass criterion fails, so CI can gate on it directly.

Usage::

    python -m benchmarks.loadtest [--clients 8] [--requests 25]
        [--workers 2] [--crash-rate 0.15] [--seed 7]
        [--emit BENCH_0006.json] [--connect HOST:PORT]

``--connect`` drives an externally-booted server instead (no boot, no
drain check) -- the CI smoke job uses the default self-hosting mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.aggregate import percentile
from repro.service.client import ServiceClient
from repro.service.protocol import recv_message

SCHEMA_VERSION = 6

#: valid program template; the loop bound constant varies the fingerprint
GOOD_TEMPLATE = """\
i = 0
j = 0
s = 0
L1: while i < {bound} do
  i = i + 1
  j = j + 2
  s = s + j
endwhile
A[0] = s
"""

BAD_SOURCE = "L1: while i <\n"

#: deterministic request mix, cycled per client: ~70% good (with
#: repeats for cache hits), ~15% bad, ~10% oversized, ~5% batch
MIX = (
    "good", "good", "bad", "good", "good", "oversized", "good",
    "good", "bad", "good", "batch", "good", "good", "oversized",
    "good", "good", "good", "bad", "good", "good",
)

#: loop bounds reused across clients so the result cache gets traffic
BOUNDS = (10, 20, 30, 40, 50, 10, 20)


def good_source(index: int) -> str:
    return GOOD_TEMPLATE.format(bound=BOUNDS[index % len(BOUNDS)])


def send_oversized(host: str, port: int, timeout_s: float) -> Dict[str, Any]:
    """One raw oversized exchange: huge length header, expect the error."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(struct.pack("!I", 64 * 1024 * 1024))
        response = recv_message(sock)
    if response is None:
        raise ConnectionError("no response to oversized frame")
    return response


class ClientResult:
    """Everything one simulated client observed."""

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.statuses: Dict[str, int] = {}
        self.degraded_codes: Dict[str, int] = {}
        self.diag_codes: Dict[str, int] = {}
        self.cache_hits = 0
        self.protocol_failures: List[str] = []
        self.contract_violations: List[str] = []

    def bump(self, table: Dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1


def run_client(
    client_id: int,
    host: str,
    port: int,
    requests: int,
    timeout_s: float,
) -> ClientResult:
    """Drive one client's deterministic slice of the workload."""
    out = ClientResult()
    for index in range(requests):
        kind = MIX[(client_id + index) % len(MIX)]
        started = time.perf_counter()
        try:
            if kind == "oversized":
                response = send_oversized(host, port, timeout_s)
            else:
                with ServiceClient(host, port, timeout_s=timeout_s) as client:
                    if kind == "bad":
                        response = client.analyze(BAD_SOURCE)
                    elif kind == "batch":
                        response = client.analyze_batch(
                            [
                                {"name": f"b{i}", "source": good_source(index + i)}
                                for i in range(3)
                            ]
                        )
                    else:
                        response = client.analyze(good_source(client_id + index))
        except Exception as error:  # noqa: BLE001 - the contract says never
            out.protocol_failures.append(
                f"client {client_id} req {index} ({kind}): "
                f"{type(error).__name__}: {error}"
            )
            continue
        out.latencies_s.append(time.perf_counter() - started)
        status = response.get("status", "<missing>")
        out.bump(out.statuses, status)
        if kind == "oversized":
            if status != "error" or response["error"]["code"] != "request-overflow":
                out.contract_violations.append(
                    f"oversized frame answered with {status!r} "
                    f"instead of a request-overflow error"
                )
            continue
        if status == "error":
            out.contract_violations.append(
                f"client {client_id} req {index} ({kind}): unexpected "
                f"protocol error {response.get('error')}"
            )
            continue
        for result in response.get("results", []):
            if result.get("cached"):
                out.cache_hits += 1
            if result.get("status") != "degraded":
                continue
            code = (result.get("error") or {}).get("code", "<none>")
            out.bump(out.degraded_codes, code)
            # the contract: every degraded result carries a matching
            # degradation record; serve-layer failures also carry a
            # RES5xx diagnostic
            record = result.get("record") or {}
            has_degradations = bool(
                result.get("degradations") or record.get("degradations")
            )
            if not has_degradations:
                out.contract_violations.append(
                    f"degraded result without degradation records "
                    f"(code {code})"
                )
            for diagnostic in result.get("diagnostics") or []:
                out.bump(out.diag_codes, diagnostic.get("code", "<none>"))
            if code in ("worker-crash", "request-timeout"):
                wanted = {
                    "worker-crash": "RES506",
                    "request-timeout": "RES507",
                }[code]
                codes = [
                    d.get("code") for d in result.get("diagnostics") or []
                ]
                if wanted not in codes:
                    out.contract_violations.append(
                        f"{code} response lacks its {wanted} diagnostic "
                        f"(got {codes})"
                    )
    return out


# ----------------------------------------------------------------------
# server lifecycle (self-hosting mode)
# ----------------------------------------------------------------------
def boot_server(args) -> Tuple[subprocess.Popen, str, int]:
    """Start ``repro serve`` as a subprocess and wait for its address."""
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--workers",
        str(args.workers),
        "--timeout-s",
        str(args.timeout_s),
        "--grace-s",
        str(args.grace_s),
    ]
    if args.crash_rate > 0:
        command += [
            "--inject",
            "serve.worker",
            "--inject-rate",
            str(args.crash_rate),
            "--inject-seed",
            str(args.seed),
        ]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline().strip()
    if not line.startswith("listening on "):
        process.kill()
        raise RuntimeError(f"server failed to boot: {line!r}")
    host, port = line[len("listening on "):].rsplit(":", 1)
    return process, host, int(port)


def drain_server(process: subprocess.Popen, grace_s: float) -> Dict[str, Any]:
    """SIGTERM the server and report how the drain went."""
    started = time.perf_counter()
    process.send_signal(signal.SIGTERM)
    try:
        exit_code = process.wait(timeout=grace_s + 10.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return {"exit_code": None, "drained": False, "drain_s": None}
    return {
        "exit_code": exit_code,
        "drained": exit_code == 0,
        "drain_s": round(time.perf_counter() - started, 3),
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run_loadtest(args) -> Dict[str, Any]:
    process = None
    if args.connect:
        host, port_text = args.connect.rsplit(":", 1)
        port = int(port_text)
    else:
        process, host, port = boot_server(args)

    results: List[Optional[ClientResult]] = [None] * args.clients
    try:

        def worker(client_id: int) -> None:
            results[client_id] = run_client(
                client_id, host, port, args.requests, args.timeout_s
            )

        threads = [
            threading.Thread(target=worker, args=(client_id,))
            for client_id in range(args.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        server_stats: Dict[str, Any] = {}
        try:
            with ServiceClient(host, port, timeout_s=args.timeout_s) as client:
                stats = client.stats()
                server_stats = {
                    "pool": stats.get("pool"),
                    "cache": stats.get("cache"),
                    "requests": stats.get("requests"),
                }
        except Exception as error:  # noqa: BLE001 - server died under load
            server_stats = {"error": f"{type(error).__name__}: {error}"}
    finally:
        drain = (
            drain_server(process, args.grace_s)
            if process is not None
            else {"exit_code": None, "drained": None, "drain_s": None}
        )

    # fold the per-client observations
    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    degraded_codes: Dict[str, int] = {}
    diag_codes: Dict[str, int] = {}
    protocol_failures: List[str] = []
    contract_violations: List[str] = []
    cache_hits = 0
    for result in results:
        assert result is not None
        latencies += result.latencies_s
        protocol_failures += result.protocol_failures
        contract_violations += result.contract_violations
        cache_hits += result.cache_hits
        for table, source in (
            (statuses, result.statuses),
            (degraded_codes, result.degraded_codes),
            (diag_codes, result.diag_codes),
        ):
            for key, count in source.items():
                table[key] = table.get(key, 0) + count

    total = args.clients * args.requests
    answered = len(latencies)
    errors = statuses.get("error", 0)
    degraded = statuses.get("degraded", 0)
    expected_errors = sum(
        1
        for client_id in range(args.clients)
        for index in range(args.requests)
        if MIX[(client_id + index) % len(MIX)] == "oversized"
    )

    failures: List[str] = []
    if protocol_failures:
        failures.append(
            f"{len(protocol_failures)} protocol failure(s): "
            + "; ".join(protocol_failures[:5])
        )
    if contract_violations:
        failures.append(
            f"{len(contract_violations)} contract violation(s): "
            + "; ".join(contract_violations[:5])
        )
    if errors != expected_errors:
        failures.append(
            f"error responses {errors} != intentionally-malformed "
            f"{expected_errors}"
        )
    if process is not None and not drain["drained"]:
        failures.append(f"unclean drain: exit code {drain['exit_code']}")
    if args.crash_rate > 0:
        # crashes may be *recovered* (retry on the respawned worker
        # succeeds) or *exhausted* (degraded RES506); the pool counter
        # proves the injection actually fired either way
        pool_crashes = (server_stats.get("pool") or {}).get("crashes", 0)
        if not pool_crashes and "worker-crash" not in degraded_codes:
            failures.append(
                "crash injection armed but no worker crash observed "
                "(rate too low for this seed?)"
            )

    return {
        "schema": SCHEMA_VERSION,
        "kind": "service-loadtest",
        "python": platform.python_version(),
        "config": {
            "clients": args.clients,
            "requests_per_client": args.requests,
            "workers": args.workers,
            "crash_rate": args.crash_rate,
            "seed": args.seed,
            "timeout_s": args.timeout_s,
        },
        "results": {
            "requests": total,
            "answered": answered,
            "protocol_failures": len(protocol_failures),
            "statuses": dict(sorted(statuses.items())),
            "error_rate": round(errors / total, 4) if total else None,
            "degraded_fraction": (
                round(degraded / answered, 4) if answered else None
            ),
            "degraded_codes": dict(sorted(degraded_codes.items())),
            "diagnostics": dict(sorted(diag_codes.items())),
            "cache_hits": cache_hits,
            "latency_s": {
                "p50": round(percentile(latencies, 50), 6) if latencies else None,
                "p99": round(percentile(latencies, 99), 6) if latencies else None,
                "max": round(max(latencies), 6) if latencies else None,
                "mean": (
                    round(sum(latencies) / len(latencies), 6)
                    if latencies
                    else None
                ),
            },
            "server": server_stats,
            "drain": drain,
        },
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.loadtest", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        dest="crash_rate",
        help="serve.worker crash-injection probability (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--timeout-s", type=float, default=30.0, dest="timeout_s"
    )
    parser.add_argument("--grace-s", type=float, default=10.0, dest="grace_s")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="drive an externally-booted server (skips boot + drain check)",
    )
    parser.add_argument(
        "--emit",
        metavar="FILE",
        default=None,
        help="write the schema-v6 benchmark record as JSON",
    )
    args = parser.parse_args(argv)

    report = run_loadtest(args)
    results = report["results"]
    print(
        f"requests {results['requests']}, answered {results['answered']}, "
        f"protocol failures {results['protocol_failures']}"
    )
    print(
        f"statuses {results['statuses']}, degraded codes "
        f"{results['degraded_codes']}, cache hits {results['cache_hits']}"
    )
    latency = results["latency_s"]
    print(
        f"latency p50 {latency['p50']}s p99 {latency['p99']}s "
        f"max {latency['max']}s"
    )
    print(f"drain {results['drain']}")
    if args.emit:
        with open(args.emit, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.emit}")
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
