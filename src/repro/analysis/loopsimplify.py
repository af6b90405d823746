"""Loop canonicalization: dedicated preheaders and single latches.

Run on the *named* (pre-SSA) IR.  After this pass every natural loop header
has exactly two predecessors -- one preheader outside the loop and one latch
inside -- so every loop-header phi created by SSA construction has exactly
one initial value and one loop-carried value.  That is the shape all of the
paper's figures assume (e.g. ``i2 = phi(i1, i3)``), and it lets the
classifier identify "the reaching SSA name from outside the loop" (the
initial value, section 3.1) unambiguously.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.dominators import dominator_tree
from repro.analysis.loops import find_loops
from repro.ir.function import Function
from repro.ir.instructions import Jump

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point


@traced("analysis.loop-simplify")
def simplify_loops(function: Function) -> bool:
    """Insert preheaders/latches where needed.  Returns True if changed.

    One dominator tree and loop nest serve every loop.  Loops are fixed
    in nest order, each one's preheader before its latch.  An edit only
    moves edges into its own loop's header onto a new block, so it never
    changes another loop's header predecessors, nor which loops exist or
    what they need; the predecessor map is updated as each edit is made.
    """
    fault_point("analysis.loop-simplify")
    domtree = dominator_tree(function)
    nest = find_loops(function, domtree)
    preds_map = function.predecessors_map()
    changed = False
    for loop in nest:
        outside = [p for p in preds_map[loop.header] if p not in loop.body]
        if len(outside) > 1 or (
            len(outside) == 1
            and function.successors(outside[0]) != (loop.header,)
        ):
            _merge_edges(function, outside, loop.header, f"{loop.header}.pre", preds_map)
            changed = True
        inside = [p for p in preds_map[loop.header] if p in loop.body]
        if len(inside) > 1:
            _merge_edges(function, inside, loop.header, f"{loop.header}.latch", preds_map)
            changed = True
    return changed


def _merge_edges(
    function: Function,
    sources: List[str],
    target: str,
    hint: str,
    preds_map: Dict[str, List[str]],
) -> None:
    """Create one block through which all ``sources -> target`` edges pass.

    Updates ``preds_map[target]`` to what ``Function.predecessors_map``
    now gives (no later edit reads the new block's entry).
    """
    label = function.fresh_label(hint)
    block = function.add_block(label)
    block.terminator = Jump(target)
    for source in sources:
        function.block(source).terminator.retarget(target, label)
    preds_map[target] = [p for p in preds_map[target] if p not in sources] + [label]
    for phi in function.block(target).phis():
        values = [phi.incoming.pop(s) for s in sources if s in phi.incoming]
        if values:
            # pre-SSA IR has no phis; post-SSA callers must not need merging
            # of distinct values (loopsimplify runs before SSA construction).
            first = values[0]
            if any(v != first for v in values):
                raise ValueError(
                    "cannot merge phi inputs with distinct values in loopsimplify; "
                    "run this pass before SSA construction"
                )
            phi.incoming[label] = first
