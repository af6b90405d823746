"""Natural loop detection and the loop-nest forest.

A back edge is an edge ``u -> h`` whose target dominates its source; the
natural loop of ``h`` is ``h`` plus all blocks that reach some latch ``u``
without passing through ``h``.  Loops sharing a header are merged.  The
nest forest orders loops by body containment; the classifier of the paper
walks it inner-loops-first (section 5.3: "induction variable recognition
proceeds from the inner loops outward").
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.ir.function import Function


class Loop:
    """One natural loop."""

    def __init__(self, header: str, body: Set[str]):
        self.header = header
        self.body = set(body)  # includes the header
        self.latches: List[str] = []
        self._parent: Optional["weakref.ref[Loop]"] = None
        self.children: List["Loop"] = []

    @property
    def parent(self) -> Optional["Loop"]:
        """The smallest enclosing loop, or None for an outermost one.

        Held weakly, since the parent holds its ``children``: a nest has no
        reference cycle, so reference counting frees it.  It answers for as
        long as the nest (or the parent itself) is alive.
        """
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, loop: Optional["Loop"]) -> None:
        self._parent = None if loop is None else weakref.ref(loop)

    @property
    def name(self) -> str:
        """A printable identity; the paper numbers loops L1, L2, ..., we use
        the header label, which our frontend names after the source loop."""
        return self.header

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def contains_block(self, label: str) -> bool:
        return label in self.body

    def exit_edges(self, function: Function) -> List[Tuple[str, str]]:
        """Edges ``(from_block, to_block)`` leaving the loop."""
        out = []
        for label in sorted(self.body):
            for succ in function.successors(label):
                if succ not in self.body:
                    out.append((label, succ))
        return out

    def exit_blocks(self, function: Function) -> List[str]:
        """Blocks outside the loop targeted by exit edges (deduplicated)."""
        seen = []
        for _, target in self.exit_edges(function):
            if target not in seen:
                seen.append(target)
        return seen

    def preheader(self, function: Function) -> Optional[str]:
        """The unique out-of-loop predecessor of the header, if it exists
        and the header is its only successor."""
        preds = function.predecessors_map()[self.header]
        outside = [p for p in preds if p not in self.body]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if function.successors(candidate) != (self.header,):
            return None
        return candidate

    def __repr__(self) -> str:
        return f"<Loop {self.header}: {len(self.body)} blocks, depth {self.depth}>"


class LoopNest:
    """The forest of natural loops of one function."""

    def __init__(self, loops: List[Loop]):
        self.loops = loops
        self.by_header: Dict[str, Loop] = {loop.header: loop for loop in loops}
        self._block_to_loop: Dict[str, Loop] = {}
        # innermost loop per block: process outer loops first so inner wins
        for loop in sorted(loops, key=lambda l: len(l.body), reverse=True):
            for label in loop.body:
                self._block_to_loop[label] = loop

    @property
    def roots(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.parent is None]

    def innermost(self, label: str) -> Optional[Loop]:
        """The innermost loop containing block ``label`` (None if not in a loop)."""
        return self._block_to_loop.get(label)

    def inner_to_outer(self) -> List[Loop]:
        """All loops, innermost first (the paper's processing order)."""
        return sorted(self.loops, key=lambda l: l.depth, reverse=True)

    def loop_of_header(self, header: str) -> Optional[Loop]:
        return self.by_header.get(header)

    def __iter__(self):
        return iter(self.loops)

    def __len__(self) -> int:
        return len(self.loops)


def find_loops(function: Function, domtree: Optional[DominatorTree] = None) -> LoopNest:
    """Detect natural loops and build the nest forest."""
    if domtree is None:
        domtree = dominator_tree(function)
    preds = function.predecessors_map()
    reachable = set(domtree.idom)

    # back edges grouped by header
    latches_by_header: Dict[str, List[str]] = {}
    for label in reachable:
        for succ in function.successors(label):
            if succ in reachable and domtree.dominates(succ, label):
                latches_by_header.setdefault(succ, []).append(label)

    loops: List[Loop] = []
    for header in sorted(latches_by_header):
        body: Set[str] = {header}
        worklist = []
        for latch in latches_by_header[header]:
            if latch not in body:
                body.add(latch)
                worklist.append(latch)
        while worklist:
            label = worklist.pop()
            for pred in preds[label]:
                if pred in reachable and pred not in body:
                    body.add(pred)
                    worklist.append(pred)
        loop = Loop(header, body)
        loop.latches = sorted(latches_by_header[header])
        loops.append(loop)

    # nesting: the parent is the smallest containing loop.  Natural loops
    # with distinct headers are disjoint or nested, so it is the smallest
    # other loop holding the header: visiting loops largest first, the
    # last loop to claim the header before this one is that loop.
    innermost: Dict[str, Loop] = {}
    for loop in sorted(loops, key=lambda loop: -len(loop.body)):
        loop.parent = innermost.get(loop.header)
        for label in loop.body:
            innermost[label] = loop
    for inner in loops:
        if inner.parent is not None:
            inner.parent.children.append(inner)

    return LoopNest(loops)
