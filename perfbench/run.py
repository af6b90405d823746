#!/usr/bin/env python3
"""Run the outside-in benchmark: four workloads, end-to-end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py                       # all workloads, all metrics
    python3 perfbench/run.py --workload dsl_mixed --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --compare parent/ change/

Each workload runs in a fresh interpreter.  ``--trace 0`` times the
public entry points only and reports the end-to-end metrics;
``--trace 1`` rotates every input through e2e, staged and observed
runs and reports the per-layer metrics; without ``--trace`` the traced
schedule runs and every metric is printed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every run also
appends its full record to ``<out>/runs.jsonl`` and writes the spans of
its staged units to ``<out>/spans-<workload>-<seed>.jsonl``.  The exit
status is 0 only when every correctness check passed; 2 means the run
could not start (no program to measure, or a pinned input changed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NoReturn, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = {"serve_editor": 3}
DEFAULT_PROBES = 5
#: reference-kernel samples a set-up probe takes on each side of its set-up
SETUP_KERNELS = 9


def fail(message: str) -> NoReturn:
    """Stop before any result is printed: the run could not be made."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_catalogue() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bootstrap() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
    except ImportError as error:
        fail(f"cannot import the program from {src}: {error}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        fail(f"repro imported from {repro.__file__}, not from {src}")


def make_workload(name: str, seed: int):
    if name == "serve_editor":
        from perfbench.serve import ServeWorkload

        return ServeWorkload(seed, ROOT)
    from perfbench import analysis

    if name == "py_corpus":
        return analysis.PyCorpusWorkload(seed)
    return analysis.DslWorkload(name, seed)


def setup_probe(name: str, seed: int) -> None:
    """Set a workload up as a timed run would, say so, and tear it down.

    Reference-kernel samples bracket the set-up: some before the
    program is imported, as many after ``ready``.  The last line gives
    their median and the wall seconds the first ones took.
    """
    sys.path.insert(0, ROOT)
    from perfbench.measure import Speed

    speed = Speed()
    begin = time.perf_counter()
    for _ in range(SETUP_KERNELS):
        speed.sample()
    spent = time.perf_counter() - begin
    bootstrap()
    workload = make_workload(name, seed)
    server = workload.boot() if name == "serve_editor" else None
    print("ready", flush=True)
    for _ in range(SETUP_KERNELS):
        speed.sample()
    print(statistics.median(speed.samples), spent, flush=True)
    if server is not None:
        server.stop()


def measure_setup(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Seconds from interpreter start to ready, once per fresh probe process.

    Returns (reference seconds, wall seconds) per probe, leaving out the
    probe's own kernel samples and scaling by them.
    """
    from perfbench.measure import REFERENCE_S

    samples: List[float] = []
    walls: List[float] = []
    for _ in range(SETUP_PROBES.get(name, DEFAULT_PROBES)):
        begin = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - begin
        speed = probe.stdout.readline().split()
        probe.stdout.read()
        probe.stdout.close()
        code = probe.wait()
        if line != "ready" or len(speed) != 2 or code != 0:
            fail(f"{name} set-up failed (exit {code})")
        kernel, spent = map(float, speed)
        walls.append(elapsed - spent)
        samples.append(walls[-1] * REFERENCE_S / kernel)
    return samples, walls


def run_workload(name: str, seed: int, seconds: float, trace: Optional[int]):
    from perfbench.inputs import InputError
    from perfbench.measure import peak_rss_mb

    try:
        workload = make_workload(name, seed)
    except InputError as error:
        fail(str(error))
    setup, walls = measure_setup(name, seed) if trace != 1 else ([], [])
    if name == "serve_editor":
        outcome = workload.run(seconds)
    else:
        from perfbench.analysis import drive

        outcome = drive(workload, seconds, traced=trace != 0)
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    if setup:
        outcome.put("setup_s", statistics.median(setup), "s", len(setup))
        outcome.put("wall.setup_s", statistics.median(walls), "s", len(walls))
    return outcome


def fmt(entry: Dict[str, Any]) -> str:
    text = f"{entry['value']:.6g} {entry['unit']}  (n={entry['n']}"
    if "beyond" in entry:
        text += f", {entry['beyond']} beyond"
    return text + ")"


def report(name: str, seed: int, seconds: float, trace: Optional[int], out_dir: str) -> int:
    catalogue = load_catalogue()
    outcome = run_workload(name, seed, seconds, trace)
    wanted = []
    if trace != 1:
        wanted += catalogue["end_to_end"]
    if trace != 0:
        wanted += catalogue["per_layer"]
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {trace}) ==")
    for spec in wanted:
        entry = outcome.metrics.get(spec["name"])
        if entry is None:
            # the layer does not run in this workload
            entry = {"value": 0, "unit": spec["unit"], "n": 0}
        elif entry["unit"] != spec["unit"]:
            outcome.problems.append(
                f"{spec['name']} measured in {entry['unit']}, catalogued in {spec['unit']}"
            )
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {fmt(entry)}")
    for key in sorted(set(outcome.metrics) - {spec["name"] for spec in wanted}):
        print(f"  {key:<36} {fmt(outcome.metrics[key])}")
    for failure in outcome.failures[:10]:
        print(f"failed unit: {failure}", file=sys.stderr)
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "problems": outcome.problems,
        "failures": outcome.failures[:50],
    }
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if outcome.spans.records:
        outcome.spans.write(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not outcome.problems else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after the other."""
    status = 0
    for spec in load_catalogue()["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", spec["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--out", args.out,
        ]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        code = subprocess.call(command, cwd=ROOT)
        status = status or code
    return status


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def load_runs(path: str) -> List[Dict[str, Any]]:
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    """within bound, worse, or unresolved (spread wider than the bound)."""
    from perfbench.measure import quartiles

    def spread(values):
        q1, q2, q3 = quartiles(values)
        return (q3 - q1) / abs(q2) if q2 else 0.0

    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base) if base else 0.0
    if max(spread(before), spread(after)) > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "within bound"
        return "unresolved"
    return "worse" if change > bound else "within bound"


def compare(path_a: str, path_b: str) -> int:
    from perfbench.measure import quartiles

    catalogue = load_catalogue()
    runs = {side: load_runs(path) for side, path in (("A", path_a), ("B", path_b))}
    worse = False
    for spec in catalogue["workloads"]:
        name = spec["name"]
        print(f"== {name} ==")
        for metric in catalogue["end_to_end"]:
            values = {
                side: [
                    run["metrics"][metric["name"]]["value"]
                    for run in side_runs
                    if run["workload"] == name and metric["name"] in run["metrics"]
                ]
                for side, side_runs in runs.items()
            }
            if not values["A"] or not values["B"]:
                print(f"  {metric['name']:<20} missing on one side")
                continue
            cells = []
            for side in ("A", "B"):
                q1, q2, q3 = quartiles(values[side])
                cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values[side])}")
            result = verdict(values["A"], values["B"], metric["better"], metric["bound"])
            worse = worse or result == "worse"
            print(
                f"  {metric['name']:<20} {cells[0]}  {cells[1]}  "
                f"bound {metric['bound']:.0%}: {result}"
            )
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    catalogue = load_catalogue()
    if args.compare:
        sys.path.insert(0, ROOT)
        return compare(*args.compare)
    names = [spec["name"] for spec in catalogue["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    bootstrap()
    return report(args.workload, args.seed, args.seconds, args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
