"""Differential oracle for the shared-prefix path executor.

:func:`repro.invariants.paths.enumerate_paths` executes its sorted paths
in one walk: it rewinds a single symbolic state to each path's common
prefix with the previous one and runs only the header-phi slice of the
new suffix.  The reference below is the naive executor it replaced --
every path re-executed from the header, every instruction run -- kept
here verbatim.  On random branchy loops (nested diamonds, ``break`` /
``continue`` exits, ``assume``-constant branches that pruning removes,
polynomial and opaque updates, path counts on both sides of
``MAX_PATHS``) both must produce identical :class:`LoopPath` tuples; a
loop the cap truncates keeps none.
"""

from typing import Dict, Optional, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.invariants.paths import (
    LoopPath,
    _symbolic,
    _value_expr,
    enumerate_paths,
)
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.pipeline import analyze
from repro.symbolic.expr import Expr

VARS = ["a", "b", "c", "d"]


def _execute_path(
    function: Function, path: Tuple[str, ...], phis: Tuple[str, ...]
) -> LoopPath:
    """Joint symbolic execution of one path over the header-phi symbols."""
    state: Dict[str, Optional[Expr]] = {phi: Expr.sym(phi) for phi in phis}
    for position, label in enumerate(path):
        block = function.block(label)
        if position > 0:
            predecessor = path[position - 1]
            staged = {
                phi.result: _value_expr(phi.incoming.get(predecessor), state)
                for phi in block.phis()
            }
            state.update(staged)
        for inst in block.instructions:
            if isinstance(inst, Phi) or inst.result is None:
                continue
            state[inst.result] = _symbolic(inst, state)

    latch = path[-1]
    header_block = function.block(path[0])
    updates = []
    for phi in header_block.phis():
        if phi.result not in phis:
            continue
        updates.append((phi.result, _value_expr(phi.incoming.get(latch), state)))
    updates.sort()
    return LoopPath(blocks=path, updates=tuple(updates))


def walk_matches_reference(source):
    """Assert the walk equals the reference on every loop; return summaries."""
    program = analyze(source, ranges=True)
    summaries = []
    for summary in program.result.loops.values():
        paths = enumerate_paths(
            program.ssa, summary.loop, program.result.ranges
        )
        if paths is None:
            continue
        reference = tuple(
            _execute_path(program.ssa, path.blocks, paths.phis)
            for path in paths.paths
        )
        assert paths.paths == reference, source
        summaries.append(paths)
    return summaries


@st.composite
def updates(draw):
    """One straight-line statement: polynomial, opaque, or off-slice."""
    target = draw(st.sampled_from(VARS))
    other = draw(st.sampled_from(VARS))
    k = draw(st.integers(min_value=1, max_value=4))
    return draw(
        st.sampled_from(
            [
                f"{target} = {target} + {k}",
                f"{target} = {target} - {other}",
                f"{target} = {target} * {other}",
                f"{target} = {target} ** 2",
                f"{target} = {target} / 2",
                f"x = {target} * {k}",  # derived: outside the slice
                f"B[i] = {target}",  # store: outside the slice
            ]
        )
    )


def _indent(lines):
    return ["  " + line for line in lines]


@st.composite
def statements(draw, depth):
    """A statement list whose branches nest at most ``depth`` deep."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(
            st.sampled_from(
                ["update", "diamond", "diamond", "dead", "exit"]
                if depth
                else ["update"]
            )
        )
        if kind == "update":
            out.append(draw(updates()))
            continue
        if kind == "exit":
            k = draw(st.integers(min_value=0, max_value=5))
            jump = draw(st.sampled_from(["break", "continue"]))
            out += [f"if A[i] < {k} then", f"  {jump}", "endif"]
            continue
        # `f` and `g` are assumed constant: their branches lose an edge
        cond = (
            f"A[i + {draw(st.integers(min_value=0, max_value=3))}] > 0"
            if kind == "diamond"
            else draw(st.sampled_from(["f > 0", "g > 0"]))
        )
        out.append(f"if {cond} then")
        out += _indent(draw(statements(depth - 1)))
        if draw(st.booleans()):
            out.append("else")
            out += _indent(draw(statements(depth - 1)))
        out.append("endif")
    return out


@st.composite
def branchy_loops(draw):
    body = draw(statements(draw(st.integers(min_value=1, max_value=3))))
    lines = ["assume f == 1", "assume g == 0"]
    lines += [f"{v} = {n}" for n, v in enumerate(VARS)]
    lines.append("L1: for i = 1 to n do")
    lines += _indent(body)
    lines.append("endfor")
    return "\n".join(lines)


@settings(max_examples=80, deadline=None)
@given(branchy_loops())
def test_walk_equals_per_path_reference(source):
    walk_matches_reference(source)


def _diamonds(count):
    return "\n".join(
        f"  if A[i + {k}] > 0 then\n    a = a + {k + 1}\n  else\n"
        f"    b = b * a\n  endif"
        for k in range(count)
    )


FEATURES = {
    "truncated": (
        f"a = 1\nb = 1\nL1: for i = 1 to n do\n{_diamonds(6)}\nendfor",
        lambda s: s.truncated and not s.paths,
    ),
    "below_cap": (
        f"a = 1\nb = 1\nL1: for i = 1 to n do\n{_diamonds(3)}\nendfor",
        lambda s: s.complete and len(s.paths) == 8,
    ),
    "pruned": (
        "assume f == 1\na = 0\nL1: for i = 1 to n do\n"
        f"{_diamonds(2)}\n  if f > 0 then\n    a = a + 1\n  else\n"
        "    a = a + 9\n  endif\nendfor",
        lambda s: s.pruned_paths == 1 and len(s.paths) == 4,
    ),
    "exits": (
        "a = 0\nL1: for i = 1 to n do\n  if A[i] < 0 then\n    break\n"
        "  endif\n  if A[i] > 0 then\n    continue\n  endif\n"
        f"{_diamonds(2)}\nendfor",
        lambda s: s.complete and len(s.paths) == 5,
    ),
    "over_max_degree": (
        "a = 2\nL1: for i = 1 to n do\n  a = a * a\n  a = a * a\n"
        "  a = a * a\nendfor",
        lambda s: any(p.update_of("a.2") is None for p in s.paths),
    ),
    "division": (
        "a = 2\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    a = a / 2\n"
        "  else\n    a = a + 1\n  endif\nendfor",
        lambda s: sum(p.update_of("a.2") is None for p in s.paths) == 1,
    ),
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
def test_walk_equals_reference_on_each_feature(feature):
    """Each feature the random loops mix, pinned once and checked present."""
    source, present = FEATURES[feature]
    (summary,) = walk_matches_reference(source)
    assert present(summary), [p.describe() for p in summary.paths]
