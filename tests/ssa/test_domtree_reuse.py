"""One dominator tree per analysis: the one SSA construction built.

``analyze()`` hands ``SSAInfo.domtree`` to GVN, loop detection and
classification instead of rebuilding it.  That is sound only while the
tree is exactly what a fresh :func:`dominator_tree` of the final SSA
gives: the scalar passes must not edit the CFG, and construction's
removal of unreachable blocks must not touch the tree.  Every case here
compares the kept tree with a fresh one -- the same ``idom``, the same
``children`` in the same order and the same ``preorder()`` -- on the
paths that reach loop detection: optimized, ``optimize=False`` and a
failed optimize phase rebuilt from the named IR.
"""

import glob
import os

import pytest

from perfbench.inputs import chain_pass, mixed_pass
from repro.analysis.dominators import dominator_tree
from repro.pipeline import analyze
from repro.resilience.faultinject import FaultPlan, injecting

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: code after ``break`` lowers to a block no edge reaches
UNREACHABLE = """\
i = 0
s = 0
L1: while i < n do
  s = s + i
  if A[i] > 0 then
    break
    s = s + 100
  endif
  i = i + 1
endwhile
"""


def _sources():
    cases = {}
    for program in mixed_pass(1, 0):
        cases[f"mixed:{program.uid}"] = program.source
    for program in chain_pass(1, 0):
        cases[f"chain:{program.uid}"] = program.source
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = handle.read()
    cases["unreachable"] = UNREACHABLE
    return cases


SOURCES = _sources()


def assert_tree_is_fresh(program):
    kept = program.ssa_info.domtree
    fresh = dominator_tree(program.ssa)
    assert program.domtree is kept
    assert program.result.domtree is kept
    assert kept.entry == fresh.entry
    assert kept.idom == fresh.idom
    assert list(kept.children.items()) == list(fresh.children.items())
    assert kept.preorder() == fresh.preorder()


@pytest.mark.parametrize("case", sorted(SOURCES))
@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
def test_kept_tree_matches_a_fresh_one(case, optimize):
    program = analyze(
        SOURCES[case], optimize=optimize, ranges=True, invariants=True
    )
    assert not program.degraded
    assert_tree_is_fresh(program)


def test_unreachable_block_is_in_neither_tree():
    program = analyze(UNREACHABLE)
    dead = set(program.named_ir.blocks) - set(program.ssa.blocks)
    assert dead, "the fixture lost its unreachable block"
    assert not dead & set(program.ssa_info.domtree.idom)
    assert_tree_is_fresh(program)


@pytest.mark.parametrize(
    "point", ["scalar.sccp", "scalar.gvn", "scalar.copyprop"]
)
@pytest.mark.parametrize(
    "case", ["unreachable", "example:branchy_counters.loop"]
)
def test_failed_optimize_keeps_the_rebuilt_tree(case, point):
    with injecting(FaultPlan(points={point})):
        program = analyze(SOURCES[case])
    assert [(r.phase, r.action) for r in program.degradations] == [
        (point, "skipped")
    ]
    assert_tree_is_fresh(program)
