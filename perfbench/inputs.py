"""Seeded program generators and the pinned real-Python inputs.

The three DSL generators mirror ``benchmarks/workloads.py``; with
``seed=None`` they return exactly the text the regression benchmarks
use, and with a seed they draw the step constants, so every pass of a
run feeds the process-global memo tables distinct programs, as a real
corpus would.

The Python inputs are committed copies under ``perfbench/data``: the
mini-corpus of ``tests/pyfront/corpus`` and a fixed list of CPython
3.11.7 standard-library modules, all present on Python 3.9-3.13.  Their
sha256 digests are pinned in ``data/MANIFEST.json`` and checked at
set-up, so parent and change always read the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, NamedTuple, Optional

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

#: programs per pass of a DSL workload; odd, so the median falls inside
#: one size rather than between two, and 25 puts p95 inside the
#: second-largest size
LADDER_STEPS = 25


class InputError(Exception):
    """A pinned input is missing or differs from its recorded digest."""


class Program(NamedTuple):
    uid: str
    source: str
    #: position on the size ladder (0 = smallest)
    rung: int


def straightline_iv_loop(n_variables: int, seed: Optional[int] = None) -> str:
    """``n_variables`` mutually-derived linear IVs in one loop."""
    rng = None if seed is None else random.Random(seed)

    def step(default: int) -> int:
        return default if rng is None else rng.randint(1, 9)

    lines = ["v0 = 0", "L1: loop", f"  v0 = v0 + {step(1)}"]
    for k in range(1, n_variables):
        lines.append(f"  v{k} = v{k - 1} + {step(k)}")
    lines.append("  if v0 > n then")
    lines.append("    break")
    lines.append("  endif")
    lines.append("endloop")
    return "\n".join(lines)


def deep_chain_loop(depth: int, seed: Optional[int] = None) -> str:
    """A single chain ``v_k = v_{k-1} + c`` of the given depth."""
    rng = None if seed is None else random.Random(seed)

    def step() -> int:
        return 1 if rng is None else rng.randint(1, 9)

    lines = [
        "base = 0",
        "L1: for i = 1 to n do",
        f"  base = base + {step()}",
        f"  v0 = i + {step()}",
    ]
    for k in range(1, depth):
        lines.append(f"  v{k} = v{k - 1} + {step()}")
    lines.append(f"  A[v{depth - 1}] = i")
    lines.append("endfor")
    return "\n".join(lines)


def mixed_class_loop(seed: int, n_statements: int) -> str:
    """A branchy loop mixing every variable class the paper recognizes."""
    rng = random.Random(seed)
    lines = [
        "a = 1",
        "b = 2",
        "c = 0",
        "w = n",
        "g = 1",
        "p = 1",
        "q = 2",
        "L1: for i = 1 to n do",
        "  B[w] = a",
    ]
    for k in range(n_statements):
        choice = rng.randrange(7)
        if choice == 0:
            lines.append(f"  a = a + {rng.randint(1, 4)}")
        elif choice == 1:
            lines.append("  b = b + a")
        elif choice == 2:
            lines.append(f"  g = g * 2 + {rng.randint(0, 2)}")
        elif choice == 3:
            lines.append("  t = p")
            lines.append("  p = q")
            lines.append("  q = t")
        elif choice == 4:
            lines.append(f"  if A[i] > {rng.randint(0, 5)} then")
            lines.append(f"    c = c + {rng.randint(1, 3)}")
            lines.append("  endif")
        elif choice == 5:
            lines.append("  w = i")
        else:
            lines.append(f"  x{k} = a * {rng.randint(2, 5)}")
    lines.append("endfor")
    return "\n".join(lines)


def pass_rng(tag: str, seed: int, index: int) -> random.Random:
    """The generator of pass ``index``: a pure function of its arguments."""
    return random.Random(f"{tag}:{seed}:{index}")


def ladder(low: int, high: int, steps: int = LADDER_STEPS) -> List[int]:
    """``steps`` sizes spaced evenly in log scale from ``low`` to ``high``."""
    return [
        round(low * (high / low) ** (i / (steps - 1))) for i in range(steps)
    ]


CHAIN_SIZES = ladder(32, 512)
MIXED_SIZES = ladder(25, 400)


def chain_pass(seed: int, index: int) -> List[Program]:
    """One ``dsl_chain`` pass: straight-line and deep chains, 32 to 512."""
    rng = pass_rng("dsl_chain", seed, index)
    programs = []
    for rung, size in enumerate(CHAIN_SIZES):
        generator = straightline_iv_loop if rung % 2 == 0 else deep_chain_loop
        source = generator(size, seed=rng.randrange(2**31))
        programs.append(Program(f"p{index}.{rung}", source, rung))
    return programs


def mixed_pass(seed: int, index: int) -> List[Program]:
    """One ``dsl_mixed`` pass: branchy mixed-class loops, 25 to 400 statements."""
    rng = pass_rng("dsl_mixed", seed, index)
    return [
        Program(f"p{index}.{rung}", mixed_class_loop(rng.randrange(2**31), size), rung)
        for rung, size in enumerate(MIXED_SIZES)
    ]


def load_pinned() -> Dict[str, str]:
    """Read every pinned file, checking it against its recorded digest.

    Returns ``{absolute path: text}`` in manifest order.  Raises
    :class:`InputError` naming the file on a missing file or a digest
    mismatch.
    """
    manifest_path = os.path.join(DATA_DIR, "MANIFEST.json")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as error:
        raise InputError(f"{manifest_path}: unreadable manifest: {error}") from error
    out: Dict[str, str] = {}
    for relative, digest in manifest["files"].items():
        path = os.path.join(DATA_DIR, relative)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise InputError(f"{path}: {error}") from error
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise InputError(
                f"{path}: sha256 {actual} does not match the pinned {digest}"
            )
        out[path] = raw.decode("utf-8")
    if not out:
        raise InputError(f"{manifest_path}: lists no inputs")
    return out
