"""Constant folding of ``*`` and ``**`` stops at ``FOLD_BITS``.

Without the bound, SCCP and the classifier computed ``7 ** 50000000``
exactly (minutes of big-integer work), and a folded constant over 4300
digits could not be printed.  Each input runs in a child interpreter
with a generous time limit, so a regression fails instead of hanging.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.frontend.source import compile_source
from repro.ir.opcodes import FOLD_BITS, BinaryOp, exceeds_fold_bound
from repro.scalar.sccp import BOTTOM, run_sccp
from repro.ssa.construct import construct_ssa

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

SQUARINGS = "a = 3 ** 1000\n" + "".join(
    f"{name} = {prev} * {prev}\n" for prev, name in zip("abcdefgh", "bcdefghk")
)

INPUTS = {
    "huge-power": "a = 7 ** 50000000\nb = a + 1\nreturn b",
    "power-100k": "a = 7 ** 100000\nb = a + 1\nreturn b",
    "power-2m": "a = 7 ** 2000000\nb = a + 1\nreturn b",
    "squarings": SQUARINGS + "return k",
    "in-loop": (
        "i = 50000000\n"
        "L1: while i < n do\n"
        "  x = 7 ** 50000000\n"
        "  y = 7 ** i\n"
        + "".join("  " + line + "\n" for line in SQUARINGS.splitlines())
        + "  i = i + x + y + k\n"
        "endwhile\n"
        "return i"
    ),
}

CHILD = """
import json, sys, time
from repro.ir.printer import print_function
from repro.pipeline import analyze
start = time.perf_counter()
program = analyze(sys.stdin.read(), ranges=True, invariants=True)
text = print_function(program.ssa)
described = program.describe_all()
print(json.dumps({
    "seconds": time.perf_counter() - start,
    "degradations": [record.diag_code for record in program.degradations],
    "ssa": text,
    "described": described,
}))
"""


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_wide_folds_stay_symbolic_and_fast(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=INPUTS[case],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seconds"] < 20
    assert out["degradations"] == []
    # no folded constant wider than the bound reaches the printed SSA
    longest = max(len(token) for token in out["ssa"].replace(",", " ").split())
    assert longest < FOLD_BITS
    assert all(len(text) < 4 * FOLD_BITS for text in out["described"].values())


def test_bound_checks_before_computing():
    assert exceeds_fold_bound(BinaryOp.EXP, 7, 50000000)
    assert exceeds_fold_bound(BinaryOp.MUL, 1 << FOLD_BITS, 3)
    assert not exceeds_fold_bound(BinaryOp.EXP, 2, 64)
    assert not exceeds_fold_bound(BinaryOp.MUL, 1 << 100, 1 << 100)
    for base in (-1, 0, 1):
        assert not exceeds_fold_bound(BinaryOp.EXP, base, 10**12)
    assert not exceeds_fold_bound(BinaryOp.ADD, 1 << FOLD_BITS, 1 << FOLD_BITS)


def test_sccp_leaves_wide_results_bottom():
    f = compile_source("a = 7 ** 50000000\nb = 2 ** 64\nc = (-1) ** 1000001\nreturn a + b + c")
    construct_ssa(f)
    values = run_sccp(f, apply=False).values
    folded = {v for v in values.values() if isinstance(v, int)}
    assert 2**64 in folded and -1 in folded
    assert values["a.1"] == BOTTOM
