"""The region walk is independent of string hashing.

A loop's region is built from its own blocks and from the free symbols
of inner-loop exit values; both are sets, so iterating them directly
would make the Tarjan walk -- and with it the order of the
``classify.scr`` events and of an SCR's members -- follow
``PYTHONHASHSEED``.  This analyzes one nested program in subprocesses
under different hash seeds and compares the event sequences unsorted.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NESTED = """\
i = 0
k = 0
m = 0
L1: while i < n do
  j = 0
  L2: while j < i do
    k = k + i + m
    m = m + 1
    j = j + 1
  endwhile
  if k > 5 then
    k = k + 1
  else
    m = m + 2
  endif
  i = i + 1
endwhile
"""

SCRIPT = """
import json, sys
from repro.obs.trace import Tracer, tracing
from repro.pipeline import analyze

with tracing(Tracer()) as tracer:
    analyze(sys.stdin.read())
events = [
    [e.attrs["loop"], e.attrs["members"], e.attrs["cycle"],
     {name: str(cls) for name, cls in e.attrs["classes"].items()}]
    for e in tracer.events
    if e.name == "classify.scr"
]
print(json.dumps(events))
"""


def _events_under(seed: str):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        input=NESTED,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    return json.loads(completed.stdout)


def test_classify_scr_events_do_not_follow_the_hash_seed():
    first = _events_under("0")
    assert first  # the program has SCRs in both loops
    assert {event[0] for event in first} == {"L1", "L2"}
    for seed in ("1", "77", "123"):
        assert _events_under(seed) == first, f"PYTHONHASHSEED={seed}"
