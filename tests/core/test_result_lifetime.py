"""An analysis unit leaves no reference cycles.

Reference counting frees an :class:`~repro.pipeline.AnalyzedProgram` --
its IR, classes, closed forms, ranges and loop nest -- the moment the
last reference is dropped, and likewise what ``compile_module``, ``repro
pylint`` and a served job leave behind.  A cycle anywhere in a unit's
objects (a region context holding the result that holds it, a closure
that calls itself, a provenance note that captures its own class, a loop
linked to its parent both ways, a frame held by the traceback of the
exception it re-raises) would instead leave them to the cyclic garbage
collector.  Units run with that collector paused (:mod:`repro.collector`),
so such a cycle is now collected after its unit ends, in one pass over
everything the unit left alive, not during the unit.

Each case runs with the collector disabled: after the unit's result is
dropped, a weak reference into it must be dead and ``gc.collect()`` must
find nothing.  Every case is run once beforehand, so lazy imports and
process-wide memo tables are settled before the measured run.

``python -m tests.core.test_result_lifetime`` (``make acyclic``) runs the
same check over every unit of a wider set -- each program of
``examples/`` and of the perfbench DSL seeds 1-3, and each module's
``compile_module`` and each lowered function of ``tests/pyfront/corpus``,
``perfbench/data`` and ``src/repro`` -- and lists every unit that leaves
cyclic garbage; it exits 1 if there is one.
"""

import contextlib
import gc
import glob
import itertools
import os
import sys
import weakref

import pytest

from benchmarks.workloads import (
    deep_chain_loop,
    dependence_workload,
    mixed_class_loop,
    straightline_iv_loop,
)
from repro.diagnostics.driver import collect_targets, discover_files
from repro.frontend.lexer import FrontendError
from repro.obs import observing
from repro.obs.runlog import build_record
from repro.pipeline import analyze
from repro.pyfront.driver import pylint_paths
from repro.pyfront.lower import compile_module
from repro.report import format_report
from repro.resilience.faultinject import FaultPlan, injecting
from repro.service.worker import run_job

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
CORPUS = os.path.join(ROOT, "tests", "pyfront", "corpus")

#: a two-level nest: the inner loop's parent is the outer loop
NEST = """
s = 0
L1: for i = 1 to n do
  L2: for j = 1 to i do
    s = s + j
  endfor
endfor
"""


def _example_cases():
    """Every program ``repro lint examples/`` reads, by file (and line)."""
    examples = os.path.join(ROOT, "examples")
    return {
        f"example:{os.path.relpath(target.origin, examples)}": target.source
        for target in collect_targets([examples])
    }


def _cases():
    cases = _example_cases()
    cases["nest:two-level"] = NEST
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
PY_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.py")))


def _analyze(source):
    return analyze(source, ranges=True, invariants=True)


def _serve_path(source):
    """What a serve worker does with a DSL job."""
    with observing():
        program = _analyze(source)
        build_record(program)
        format_report(program)
    return program


def _python_job(source):
    """A ``language: "python"`` job, report included."""
    options = {"language": "python", "ranges": True, "invariants": True, "report": True}
    return run_job({"id": 1, "source": source, "options": options})


def _read(path):
    with open(path) as handle:
        return handle.read()


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


def _cyclic_garbage(run, *args, held=None):
    """Run ``run(*args)`` with the collector disabled and drop its result;
    the number of objects only the cyclic collector could free.

    ``held(result)``, when given, names an object inside the result that
    reference counting must have freed with it.
    """
    with _collector_disabled():
        result = run(*args)
        inside = None if held is None else weakref.ref(held(result))
        del result
        assert inside is None or inside() is None, "the result outlived its unit"
        return gc.collect()


def _assert_freed_by_refcount(run, *args, held=None):
    run(*args)  # settle lazy imports and memo tables
    assert _cyclic_garbage(run, *args, held=held) == 0, "the unit left cyclic garbage"


def _ssa(program):
    return program.ssa


def _itself(result):
    return result


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_leaves_no_cycles(case):
    _assert_freed_by_refcount(_analyze, CASES[case], held=_ssa)


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_path_leaves_no_cycles(case):
    _assert_freed_by_refcount(_serve_path, CASES[case], held=_ssa)


@pytest.mark.parametrize("path", PY_FILES, ids=os.path.basename)
def test_compile_module_leaves_no_cycles(path):
    _assert_freed_by_refcount(compile_module, _read(path), path, held=_itself)


@pytest.mark.parametrize("path", PY_FILES, ids=os.path.basename)
def test_pylint_leaves_no_cycles(path):
    """``search.py`` holds ``count_runs``, a loop nested in a loop."""
    _assert_freed_by_refcount(pylint_paths, [path], held=_itself)


@pytest.mark.parametrize("path", PY_FILES, ids=os.path.basename)
def test_python_job_leaves_no_cycles(path):
    _assert_freed_by_refcount(_python_job, _read(path))


def _frontend_error(source):
    try:
        analyze(source)
    except FrontendError as error:
        return str(error)
    raise AssertionError("the source parsed")


def _injected(point):
    def run(source):
        with injecting(FaultPlan(points={point})):
            return _analyze(source)

    return run


#: a unit that fails or degrades: (run, argument, held)
DEGRADED = {
    "frontend-error": (_frontend_error, "L1: while i <", None),
    "dsl-job-frontend-error": (run_job, {"id": 1, "source": "L1: while i <"}, None),
    "python-syntax-error": (compile_module, "def f(:\n", _itself),
    "fault:classify.loop": (_injected("classify.loop"), NEST, _ssa),
    "fault:ranges.compute": (_injected("ranges.compute"), NEST, _ssa),
}


@pytest.mark.parametrize("case", sorted(DEGRADED))
def test_degraded_unit_leaves_no_cycles(case):
    run, argument, held = DEGRADED[case]
    _assert_freed_by_refcount(run, argument, held=held)


# ----------------------------------------------------------------------
# ``make acyclic``: every unit of the wider set
# ----------------------------------------------------------------------
def _dsl_units():
    from perfbench.inputs import chain_pass, mixed_pass

    for case, source in _example_cases().items():
        yield case, _serve_path, (source,)
    for seed in (1, 2, 3):
        for program in mixed_pass(seed, 0) + chain_pass(seed, 0):
            yield f"perfbench:{seed}:{program.uid}", _serve_path, (program.source,)


def _python_units():
    from repro.diagnostics import DiagnosticCollector
    from repro.pyfront.driver import _analyze_compiled

    def one_function(compiled):
        """``repro pylint``'s step for one lowered function."""
        return _analyze_compiled(
            compiled, DiagnosticCollector(), ranges=True, invariants=True, budget=None
        )

    roots = [CORPUS, os.path.join(ROOT, "perfbench", "data"), os.path.join(ROOT, "src", "repro")]
    for path in discover_files(roots, (".py",)):
        text = _read(path)
        name = os.path.relpath(path, ROOT)
        yield f"{name}: compile_module", compile_module, (text, path)
        for compiled in compile_module(text, path).functions:
            if compiled.ok:
                yield f"{name}: {compiled.qualname}", one_function, (compiled,)


def main() -> int:
    units = leaking = 0
    for unit, run, args in itertools.chain(_dsl_units(), _python_units()):
        units += 1
        garbage = _cyclic_garbage(run, *args)
        if garbage:  # a first run may leave one-time garbage: run again
            garbage = _cyclic_garbage(run, *args)
        if garbage:
            leaking += 1
            print(f"{unit}: {garbage} cyclic objects", flush=True)
    print(f"{units} units, {leaking} leave cyclic garbage")
    return 1 if leaking else 0


if __name__ == "__main__":
    sys.exit(main())
