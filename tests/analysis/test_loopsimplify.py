"""``simplify_loops`` fixes every loop from one analysis.

It used to rebuild the dominator tree and the loop nest after every
single preheader or latch edit.  ``iterative_simplify_loops`` below is
a copy of that version; both must print the same named IR and report
the same change on ``examples/``, both front ends' corpora, perfbench
seeds 1-3 and a loop-count ladder, including IR in which every loop
needs a preheader and a latch.  ``find_loops`` must nest loops as the
all-pairs containment test did.
"""

import glob
import os

import pytest

from perfbench.inputs import chain_pass, load_pinned, mixed_pass
from repro.analysis import loopsimplify
from repro.analysis.dominators import dominator_tree
from repro.analysis.loops import find_loops
from repro.analysis.loopsimplify import simplify_loops
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.ir.clone import clone_function
from repro.ir.instructions import Jump
from repro.ir.parser import parse_function
from repro.ir.printer import print_function
from repro.pyfront.lower import compile_module

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def iterative_simplify_loops(function):
    """The former ``simplify_loops``: one edit per fresh loop analysis."""
    changed_any = False
    for _ in range(len(function.blocks) + 2):
        changed = _simplify_once(function)
        changed_any = changed_any or changed
        if not changed:
            break
    return changed_any


def _simplify_once(function):
    nest = find_loops(function, dominator_tree(function))
    preds_map = function.predecessors_map()
    for loop in nest:
        header_preds = preds_map[loop.header]
        outside = [p for p in header_preds if p not in loop.body]
        inside = [p for p in header_preds if p in loop.body]
        if len(outside) > 1 or (
            len(outside) == 1
            and function.successors(outside[0]) != (loop.header,)
        ):
            _merge_edges(function, outside, loop.header, f"{loop.header}.pre")
            return True
        if len(inside) > 1:
            _merge_edges(function, inside, loop.header, f"{loop.header}.latch")
            return True
    return False


def _merge_edges(function, sources, target, hint):
    label = function.fresh_label(hint)
    function.add_block(label).terminator = Jump(target)
    for source in sources:
        function.block(source).terminator.retarget(target, label)


def _dsl(source):
    return lower_program(parse_program(source), name="main")


def _sequential(count, body):
    lines = ["i = 0"]
    for k in range(count):
        lines += [f"L{k}: for j = 1 to n do", *body, "endfor"]
    return "\n".join(lines)


def _uncanonical(count, depth):
    """IR text with ``count`` loop nests ``depth`` deep, every loop
    entered from a branch and a second block and closed by two latches."""
    lines = ["func f(c) {", "entry:", "  jump x0.0"]

    def nest(k, level, exit_label):
        tag = f"{k}.{level}"
        lines.extend([
            f"x{tag}:", f"  branch %c, h{tag}, p{tag}",
            f"p{tag}:", f"  jump h{tag}",
            f"h{tag}:", f"  branch %c, a{tag}, {exit_label}",
        ])
        if level + 1 < depth:
            lines.extend([f"a{tag}:", f"  jump x{k}.{level + 1}"])
            nest(k, level + 1, f"m{tag}")
            lines.extend([f"m{tag}:", f"  branch %c, h{tag}, b{tag}"])
        else:
            lines.extend([f"a{tag}:", f"  branch %c, h{tag}, b{tag}"])
        lines.extend([f"b{tag}:", f"  jump h{tag}"])

    for k in range(count):
        nest(k, 0, f"x{k + 1}.0" if k + 1 < count else "done")
    lines.extend(["done:", "  return", "}"])
    return parse_function("\n".join(lines))


def _cases():
    cases = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.loop"))):
        with open(path) as handle:
            cases[f"example:{os.path.basename(path)}"] = _dsl(handle.read())
    texts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "pyfront", "corpus", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            texts[path] = handle.read()
    texts.update(load_pinned())
    for path, text in texts.items():
        origin = os.path.relpath(path, ROOT)
        for cf in compile_module(text, origin=origin).functions:
            if cf.ok:
                cases[f"py:{origin}:{cf.qualname}"] = cf.function
    for seed in (1, 2, 3):
        for program in mixed_pass(seed, 0) + chain_pass(seed, 0):
            cases[f"perfbench:{seed}:{program.uid}"] = _dsl(program.source)
    for count in (1, 10, 100, 400):
        cases[f"ladder:for:{count}"] = _dsl(_sequential(count, ["  A[j] = i"]))
        cases[f"ladder:if:{count}"] = _dsl(
            _sequential(count, ["  if A[j] > 0 then", "    i = i + 1", "  endif"])
        )
    for count, depth in ((1, 1), (1, 3), (10, 2), (100, 1), (40, 3)):
        cases[f"ladder:uncanonical:{count}x{depth}"] = _uncanonical(count, depth)
    # a header that is its own latch, entered from an unreachable block too
    cases["shape:self-loop"] = parse_function(SELF_LOOP)
    return cases


SELF_LOOP = """
func f(c) {
entry:
  branch %c, h, skip
skip:
  jump h
h:
  branch %c, h, a
a:
  branch %c, h, x
orphan:
  jump h
x:
  return
}
"""


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_the_iterative_version(case):
    expected, actual = clone_function(CASES[case]), clone_function(CASES[case])
    changed = iterative_simplify_loops(expected)
    assert simplify_loops(actual) == changed
    assert print_function(actual) == print_function(expected)


def test_the_ladder_needs_edits():
    function = clone_function(CASES["ladder:uncanonical:40x3"])
    before = len(function.blocks)
    assert simplify_loops(function)
    # every one of the 120 loops gains a preheader and a latch
    assert len(function.blocks) == before + 2 * 120


def test_one_dominator_tree_per_call(monkeypatch):
    calls = []

    def counting(function):
        calls.append(function)
        return dominator_tree(function)

    monkeypatch.setattr(loopsimplify, "dominator_tree", counting)
    for case in ("ladder:uncanonical:40x3", "ladder:for:100"):
        calls.clear()
        simplify_loops(clone_function(CASES[case]))
        assert len(calls) == 1


def _all_pairs_parents(nest):
    """The parent of each loop by the all-pairs containment test."""
    parents = {}
    for inner in nest:
        best = None
        for outer in nest:
            if outer is not inner and inner.body <= outer.body:
                if best is None or len(outer.body) < len(best.body):
                    best = outer
        parents[inner.header] = best.header if best is not None else None
    return parents


@pytest.mark.parametrize(
    "case",
    ["ladder:uncanonical:40x3", "ladder:uncanonical:1x3", "example:wolfe_figures.loop"]
    + sorted(c for c in CASES if c.startswith("py:tests")),
)
def test_nesting_matches_all_pairs_containment(case):
    function = clone_function(CASES[case])
    simplify_loops(function)
    nest = find_loops(function)
    parents = _all_pairs_parents(nest)
    assert {loop.header: loop.parent and loop.parent.header for loop in nest} == parents
    for loop in nest:
        expected = [c.header for c in nest if parents[c.header] == loop.header]
        assert [c.header for c in loop.children] == expected
