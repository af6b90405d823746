"""An analyzed program holds no reference cycles.

Reference counting frees an :class:`~repro.pipeline.AnalyzedProgram` --
its IR, classes, closed forms and ranges -- the moment the last
reference is dropped.  A cycle anywhere in it (a region context holding
the result that holds it, a closure that calls itself, a provenance note
that captures its own class) would instead leave the whole program to
the cyclic garbage collector, whose collections then land in whichever
layer happens to allocate next.

Each case runs with the collector disabled: after ``del program`` the
weak reference to its SSA function must be dead and ``gc.collect()``
must find nothing.  Every case is run once beforehand, so lazy imports
and process-wide memo tables are settled before the measured run.
"""

import contextlib
import gc
import glob
import os
import weakref

import pytest

from benchmarks.workloads import (
    deep_chain_loop,
    dependence_workload,
    mixed_class_loop,
    straightline_iv_loop,
)
from repro.obs import observing
from repro.obs.runlog import build_record
from repro.pipeline import analyze
from repro.report import format_report

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _cases():
    cases = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = handle.read()
    for n in (1, 8, 32):
        cases[f"straightline:{n}"] = straightline_iv_loop(n)
        cases[f"deep_chain:{n}"] = deep_chain_loop(n)
    for seed in (1, 2, 3):
        cases[f"mixed_class:{seed}"] = mixed_class_loop(seed, 24)
    # over MAX_PATHS: the path summary's execution stays deferred
    cases["mixed_class:truncated"] = mixed_class_loop(1, 48)
    for kind in ("periodic", "monotonic", "wraparound", "linear"):
        cases[f"dependence:{kind}"] = dependence_workload(kind)
    return cases


CASES = _cases()


def _analyze(source):
    return analyze(source, ranges=True, invariants=True)


def _serve_path(source):
    """What a serve worker does with a DSL job."""
    with observing():
        program = _analyze(source)
        build_record(program)
        format_report(program)
    return program


@contextlib.contextmanager
def _collector_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _assert_freed_by_refcount(run, source):
    run(source)  # settle lazy imports and memo tables
    with _collector_disabled():
        program = run(source)
        ssa = weakref.ref(program.ssa)
        del program
        assert ssa() is None, "the SSA function outlived its program"
        assert gc.collect() == 0, "the analyzed program left cyclic garbage"


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_leaves_no_cycles(case):
    _assert_freed_by_refcount(_analyze, CASES[case])


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_path_leaves_no_cycles(case):
    _assert_freed_by_refcount(_serve_path, CASES[case])
