"""Timing, span and statistics helpers shared by every workload.

Spans live here, in the benchmark, and wrap calls into the program's
public functions: the program itself is never instrumented for the
benchmark.

The host this runs on is shared, and its speed drifts by tens of
percent within seconds, uniformly for any interpreter work.  So every
workload interleaves a fixed reference kernel (stdlib only, never the
program) with its units, and reports times in *reference seconds*: wall
seconds scaled by ``REFERENCE_S`` over the kernel's local time.  On a
host where the kernel takes ``REFERENCE_S`` they are wall seconds.
"""

from __future__ import annotations

import ast
import gc
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: wall seconds of one reference kernel at the reference speed
REFERENCE_S = 0.003

#: kernel samples on each side of a unit that make its local speed
SPEED_RADIUS = 4

_REFERENCE_TEXT = '''
def merge(left, right):
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    return out + left[i:] + right[j:]

class Interval:
    def __init__(self, low, high):
        self.low, self.high = low, high

    def join(self, other):
        return Interval(min(self.low, other.low), max(self.high, other.high))

    def __repr__(self):
        return f"[{self.low}, {self.high}]"

def widen(intervals, limit=64):
    seen = {}
    for k, item in enumerate(intervals):
        key = (item.low // limit, item.high // limit)
        seen[key] = seen.get(key, item).join(item) if key in seen else item
    return sorted(seen.values(), key=lambda iv: (iv.low, iv.high))
'''


def _reference_work() -> int:
    """Parse, walk and index fixed data: the same work on every call."""
    kinds: Dict[str, int] = {}
    for _ in range(3):
        for node in ast.walk(ast.parse(_REFERENCE_TEXT)):
            name = type(node).__name__
            kinds[name] = kinds.get(name, 0) + 1
    rows = [{"low": k, "high": [k, k + 3]} for k in range(1500)]
    total = 0
    for row in rows:
        total += row["low"] * row["high"][1] % 7
    return total + len(kinds)


class Speed:
    """Reference-kernel timings interleaved with a run's units.

    ``sample()`` runs the kernel once with the cyclic collector paused,
    so the program's heap does not change what the kernel costs.
    ``scale(i)`` converts wall seconds measured next to sample ``i`` into
    reference seconds, from the median of the samples around it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            _reference_work()
            elapsed = time.perf_counter() - begin
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def scale(self, index: int) -> float:
        window = self.samples[max(0, index - SPEED_RADIUS) : index + SPEED_RADIUS + 1]
        return REFERENCE_S / statistics.median(window)


class Spans:
    """In-memory span recorder: name, start, end, parent and unit id.

    ``unit(uid)`` opens the root span of one unit of work; ``span(name)``
    opens a layer span under the innermost open span.  ``totals`` keeps
    the seconds spent in each span name, summed over every unit.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, int, int, Optional[int], str]] = []
        self.totals: Dict[str, float] = {}
        self._stack: List[int] = []
        self._unit = ""

    @contextmanager
    def unit(self, uid: str):
        self._unit = uid
        with self.span("unit"):
            yield

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        self.records.append((name, 0, 0, parent, self._unit))
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records[index] = (name, start, end, parent, self._unit)
            self.totals[name] = self.totals.get(name, 0.0) + (end - start) / 1e9

    def write(self, path: str) -> None:
        """One JSON object per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, unit) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "unit": unit,
                        }
                    )
                    + "\n"
                )


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile ``q`` (0-100) and how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process, in MiB (0.0 when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(root: int) -> List[int]:
    """Every live descendant pid of ``root`` (children of children too)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after its ')'
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        children = [child for child, parent in parents.items() if parent == pid]
        found += children
        frontier += children
    return found
