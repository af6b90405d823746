"""Chaos suite: inject every fault point across the examples corpus.

The contract under test is the tentpole guarantee: **no single injected
fault can make ``analyze()`` escape with an exception** -- the result is
always a structurally valid :class:`~repro.pipeline.AnalyzedProgram`
where every SSA name still answers ``classification_of`` (possibly
``Unknown``) and the containment is visible in ``degradations``.  The
same holds for ``analyze_function()`` over every lowered function of the
Python mini-corpus.

``CHAOS_SEED=<int>`` narrows the seeded sweep to one seed (CI runs the
three defaults in separate jobs).
"""

import json
import os

import pytest

from repro.diagnostics.driver import collect_targets, discover_files
from repro.pipeline import AnalyzedProgram, analyze, analyze_function
from repro.pyfront.driver import pylint_paths, render_corpus_json, render_corpus_text
from repro.pyfront.lower import compile_module
from repro.resilience.errors import InjectedFault
from repro.resilience.faultinject import FAULT_POINTS, FaultPlan, injecting

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
CORPUS = collect_targets([EXAMPLES])
PY_CORPUS = os.path.join(os.path.dirname(__file__), "..", "pyfront", "corpus")


def _lowered_functions():
    functions = []
    for path in discover_files([PY_CORPUS], (".py",)):
        with open(path, encoding="utf-8") as handle:
            module = compile_module(handle.read(), origin=path)
        functions.extend(cf for cf in module.functions if cf.ok)
    return functions


PY_FUNCTIONS = _lowered_functions()

DEFAULT_SEEDS = [101, 202, 303, 404]
SEEDS = (
    [int(os.environ["CHAOS_SEED"])]
    if os.environ.get("CHAOS_SEED")
    else DEFAULT_SEEDS
)


def assert_valid(program, origin):
    """The degraded-but-valid contract for one analyzed program."""
    assert isinstance(program, AnalyzedProgram), origin
    for name in program.ssa.definitions():
        classification = program.result.classification_of(name)
        assert classification is not None, (origin, name)
        assert isinstance(classification.describe(), str), (origin, name)
    assert isinstance(program.describe_all(), dict), origin
    for summary in program.result.loops.values():
        assert summary.trip is not None, origin


def test_corpus_is_substantial():
    # the harvest must keep finding the embedded example programs, and
    # the Python mini-corpus must keep lowering
    assert len(CORPUS) >= 10
    assert len(PY_FUNCTIONS) >= 20


def assert_contained(point, run, origin):
    """Arm ``point`` at full rate around ``run()``: a valid program that
    records every fault that fired."""
    with injecting(FaultPlan(points={point})) as plan:
        program = run()
    assert_valid(program, origin)
    if plan.fired:
        assert program.degraded, (point, origin)
        assert any(
            record.code in ("injected-fault", "internal-error")
            for record in program.degradations
        ), (point, origin)


@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_single_point_never_escapes_analyze(point):
    """Arm one point at full rate over the whole corpus: no escape."""
    for target in CORPUS:
        # every optional phase on, so every fault point is reachable
        assert_contained(
            point,
            lambda: analyze(target.source, ranges=True, invariants=True),
            target.origin,
        )


@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_single_point_never_escapes_analyze_function(point):
    """The same contract over the lowered Python functions."""
    for cf in PY_FUNCTIONS:
        assert_contained(
            point,
            lambda: analyze_function(
                cf.function, source=cf.source, ranges=True, invariants=True
            ),
            cf.origin,
        )


def test_pylint_reports_each_skipped_loop_canonicalization():
    """A failed canonicalization is one RES502 per lowered function, which
    names that function's ``file:line`` and qualname."""
    with injecting(FaultPlan(points={"analysis.loop-simplify"})):
        result = pylint_paths([PY_CORPUS])
    skipped = [
        d for d in result.findings
        if d.code == "RES502" and d.stage == "analysis.loop-simplify"
    ]
    assert result.lowered == len(PY_FUNCTIONS) == 22
    assert sorted((d.origin, d.function) for d in skipped) == sorted(
        (cf.origin, cf.qualname) for cf in PY_FUNCTIONS
    )
    text = render_corpus_text(result)
    for cf in PY_FUNCTIONS:
        assert f"{cf.origin}: {cf.qualname}: warning RES502 " in text
    found = json.loads(render_corpus_json(result))["findings"]
    assert sorted(
        (d["origin"], d["function"]) for d in found if d["code"] == "RES502"
    ) == sorted((cf.origin, cf.qualname) for cf in PY_FUNCTIONS)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_sweep_never_escapes_analyze(seed):
    """A pseudo-random multi-point sweep (rate 0.3) over the corpus."""
    fired_total = 0
    for target in CORPUS:
        with injecting(FaultPlan(seed=seed, rate=0.3)) as plan:
            program = analyze(target.source, ranges=True, invariants=True)
        assert_valid(program, target.origin)
        fired_total += len(plan.fired)
        if plan.fired:
            assert program.degraded, (seed, target.origin)
    assert fired_total > 0  # the sweep must actually inject something


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_sweep_is_deterministic(seed):
    """Same seed + same corpus = byte-identical injection decisions."""

    def sweep():
        fired = []
        for target in CORPUS:
            with injecting(FaultPlan(seed=seed, rate=0.3)) as plan:
                analyze(target.source, ranges=True, invariants=True)
            fired.append(tuple(plan.fired))
        return fired

    assert sweep() == sweep()


def test_strict_mode_escapes_on_injection():
    """--strict-errors must surface the injected fault, corpus-wide."""
    target = CORPUS[0]
    with injecting(FaultPlan(points={"classify.function"})):
        with pytest.raises(InjectedFault):
            analyze(target.source, strict=True)
