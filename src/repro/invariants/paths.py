"""Acyclic-path enumeration and per-path symbolic update maps.

A loop body without nested loops is a DAG once the back edge is removed
(any other cycle would be a second natural loop), so its iterations are
exactly the acyclic header-to-latch paths.  :func:`enumerate_paths` walks
them; executing them symbolically over the header-phi symbols records
what one trip down each path does to every loop-carried value:

    if c then i = i + 1 else i = i + 3 endif
    =>  path L1,then,endif:  i.2 -> i.2 + 1
        path L1,else,endif:  i.2 -> i.2 + 3

The per-path update maps are what the polynomial invariant generator
(:mod:`repro.invariants.poly`) consumes; the summaries ride on
:class:`~repro.invariants.analysis.InvariantInfo` for reports.

Execution is shared across paths.  The enumerated paths are sorted, so
each shares its longest common prefix with the one before it: a single
symbolic state with a per-block undo log rewinds to that prefix and only
the new suffix runs.  And only the backward slice of the header phis'
back-edge operands runs -- a derived ``x = a * 3`` or a store cannot
reach an update.  Symbolic work therefore scales with the distinct path
prefixes times the slice, not with the paths times the body.

Only a complete summary is executed.  A walk cut off at ``MAX_PATHS``
has seen a subset of the paths, so no equality can rest on it: a
``truncated`` summary keeps no paths (``paths == ()``) and reports only
that the cap stopped it.

Dead edges are pruned *before* summarization when a
:class:`~repro.ranges.analysis.RangeInfo` is supplied: a branch condition
with a single-constant range (the RNG606 verdict) makes one successor
edge unreachable, and every path through it is skipped.  ``pruned_paths``
counts each such dead edge once, however many paths it removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.loops import Loop
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Branch, Instruction, Phi, UnOp
from repro.ir.opcodes import BinaryOp
from repro.ir.values import Const, Ref, Value
from repro.ranges.interval import Interval
from repro.symbolic.expr import Expr, ExprError

#: cap on enumerated paths per loop (2**4 two-way branches)
MAX_PATHS = 16
#: cap on the total degree of any symbolic intermediate
MAX_DEGREE = 4

_POINT_TRUE = Interval.point(1)
_POINT_FALSE = Interval.point(0)


_Updates = Tuple[Tuple[str, Optional[Expr]], ...]


@dataclass(frozen=True)
class LoopPath:
    """One acyclic header-to-latch path and its joint update map.

    ``updates`` maps each header-phi name to the symbolic value flowing
    back to it after one trip down this path -- an expression over the
    header-phi symbols and loop-invariant names -- or ``None`` when the
    path computes something the symbolic executor cannot express
    (division, loads, comparisons...).
    """

    blocks: Tuple[str, ...]
    updates: _Updates

    def update_of(self, name: str) -> Optional[Expr]:
        for phi, expr in self.updates:
            if phi == name:
                return expr
        return None

    @property
    def affine(self) -> bool:
        """True when every update is a known affine expression."""
        return all(
            expr is not None and expr.as_affine() is not None
            for _, expr in self.updates
        )

    def describe(self) -> str:
        steps = ", ".join(
            f"{phi} -> {expr if expr is not None else '?'}"
            for phi, expr in self.updates
        )
        return f"[{' -> '.join(self.blocks)}] {{{steps}}}"


@dataclass
class PathSummary:
    """Every enumerated path of one loop, plus the enumeration's caveats."""

    loop: str
    phis: Tuple[str, ...]
    paths: Tuple[LoopPath, ...] = ()
    #: dead edges skipped thanks to RNG606 constant-branch verdicts
    pruned_paths: int = 0
    #: True when the MAX_PATHS cap stopped the enumeration: the paths it
    #: saw are a subset, which supports no equality, so none are kept
    truncated: bool = False

    @property
    def complete(self) -> bool:
        return bool(self.paths) and not self.truncated

    @property
    def affine(self) -> bool:
        """Every path known, every update affine: invariants may be run."""
        return self.complete and all(path.affine for path in self.paths)

    def notes(self) -> List[str]:
        out = [f"{MAX_PATHS if self.truncated else len(self.paths)} path(s)"]
        if self.pruned_paths:
            out.append(f"pruned_paths={self.pruned_paths}")
        if self.truncated:
            out.append(f"truncated at {MAX_PATHS}")
        return out


def enumerate_paths(
    function: Function,
    loop: Loop,
    ranges=None,
) -> Optional[PathSummary]:
    """Enumerate the acyclic header-to-latch paths of ``loop``.

    Returns ``None`` for loops containing nested loops (their region is
    not a path DAG; the classifier already summarizes them through exit
    values).  ``ranges`` (a ``RangeInfo``) enables dead-edge pruning.
    A summary the ``MAX_PATHS`` cap truncates keeps no paths.
    """
    if loop.children:
        return None
    header = function.blocks.get(loop.header)
    if header is None:
        return None
    phis = tuple(sorted(phi.result for phi in header.phis()))
    summary = PathSummary(loop=loop.header, phis=phis)
    if not phis:
        return summary

    prune = ranges is not None and not getattr(ranges, "degraded", True)
    paths: List[Tuple[str, ...]] = []
    dead_edges: Set[Tuple[str, str]] = set()

    # iterative DFS over in-loop successors; a back edge to the header
    # completes one path, an exit edge abandons the trip
    stack: List[Tuple[str, Tuple[str, ...]]] = [(loop.header, (loop.header,))]
    while stack:
        label, path = stack.pop()
        if len(paths) >= MAX_PATHS:
            summary.truncated = True
            break
        block = function.blocks.get(label)
        if block is None or block.terminator is None:
            continue
        successors = list(block.terminator.successors())
        if prune and isinstance(block.terminator, Branch) and len(successors) == 2:
            cond = ranges.value_interval(block.terminator.cond)
            if cond == _POINT_TRUE:
                successors = [block.terminator.true_target]
                dead_edges.add((label, block.terminator.false_target))
            elif cond == _POINT_FALSE:
                successors = [block.terminator.false_target]
                dead_edges.add((label, block.terminator.true_target))
        for succ in successors:
            if succ == loop.header:
                paths.append(path)
            elif succ in loop.body and succ not in path:
                stack.append((succ, path + (succ,)))
            # exit edges (and the impossible in-path revisit) end the walk

    summary.pruned_paths = len(dead_edges)
    if not summary.truncated:
        paths.sort()
        summary.paths = _execute_paths(function, loop, header.phis(), paths)
    return summary


def _execute_paths(
    function: Function,
    loop: Loop,
    header_phis: List[Phi],
    paths: List[Tuple[str, ...]],
) -> Tuple[LoopPath, ...]:
    """Joint symbolic execution of the sorted ``paths`` over the header phis.

    One state serves every path: ``written`` lists the names the current
    prefix assigned, ``marks[k]`` how many of them precede its block
    ``k``.  A new path rewinds to its common prefix with the previous one
    (SSA: every name is assigned once, so rewinding is deleting) and
    executes only its suffix, and only the header-phi slice of each block.
    """
    plan = _slice_plan(function, loop, header_phis)
    state: Dict[str, Optional[Expr]] = {
        phi.result: Expr.sym(phi.result) for phi in header_phis
    }
    written: List[str] = []
    marks: List[int] = []
    previous: Tuple[str, ...] = ()
    executed = []
    for path in paths:
        common, limit = 0, min(len(previous), len(path))
        while common < limit and previous[common] == path[common]:
            common += 1
        if common < len(marks):
            for name in written[marks[common]:]:
                del state[name]
            del written[marks[common]:]
            del marks[common:]
        for position in range(common, len(path)):
            marks.append(len(written))
            block_phis, instructions = plan[path[position]]
            if position > 0:
                predecessor = path[position - 1]
                staged = [
                    (phi.result, _value_expr(phi.incoming.get(predecessor), state))
                    for phi in block_phis
                ]
                for name, expr in staged:
                    state[name] = expr
                    written.append(name)
            for inst in instructions:
                state[inst.result] = _symbolic(inst, state)
                written.append(inst.result)
        previous = path

        latch = path[-1]
        updates = sorted(
            (phi.result, _value_expr(phi.incoming.get(latch), state))
            for phi in header_phis
        )
        executed.append(LoopPath(blocks=path, updates=tuple(updates)))
    return tuple(executed)


def _slice_plan(
    function: Function, loop: Loop, header_phis: List[Phi]
) -> Dict[str, Tuple[List[Phi], List[Instruction]]]:
    """Per body block: its phis and instructions that can reach an update.

    The slice is the header phis' back-edge operands closed over the
    operands of every in-body definition, body phis included; everything
    else (derived values, loads feeding only branches, stores) is dead
    to the update maps and never executed.
    """
    blocks = [
        function.blocks[label] for label in loop.body if label in function.blocks
    ]
    definitions: Dict[str, Instruction] = {
        inst.result: inst
        for block in blocks
        for inst in block.instructions
        if inst.result is not None
    }
    pending = [
        value.name
        for phi in header_phis
        for predecessor, value in phi.incoming.items()
        if predecessor in loop.body and isinstance(value, Ref)
    ]
    live: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in live:
            continue
        live.add(name)
        inst = definitions.get(name)
        if inst is not None:
            pending.extend(v.name for v in inst.uses() if isinstance(v, Ref))
    return {
        block.label: (
            [phi for phi in block.phis() if phi.result in live],
            [
                inst
                for inst in block.instructions
                if not isinstance(inst, Phi) and inst.result in live
            ],
        )
        for block in blocks
    }


def _value_expr(
    value: Optional[Value], state: Dict[str, Optional[Expr]]
) -> Optional[Expr]:
    if isinstance(value, Const):
        return Expr.const(value.value)
    if isinstance(value, Ref):
        if value.name in state:
            return state[value.name]
        # not defined on this path: by SSA dominance it is defined outside
        # the loop, i.e. loop invariant
        return Expr.sym(value.name)
    return None


def _symbolic(inst, state: Dict[str, Optional[Expr]]) -> Optional[Expr]:
    """Transfer function of one instruction; ``None`` = not polynomial."""
    if isinstance(inst, Assign):
        return _value_expr(inst.src, state)
    if isinstance(inst, UnOp):
        operand = _value_expr(inst.operand, state)
        return -operand if operand is not None else None
    if isinstance(inst, BinOp):
        lhs = _value_expr(inst.lhs, state)
        rhs = _value_expr(inst.rhs, state)
        if lhs is None or rhs is None:
            return None
        try:
            if inst.op is BinaryOp.ADD:
                return lhs + rhs
            if inst.op is BinaryOp.SUB:
                return lhs - rhs
            if inst.op is BinaryOp.MUL:
                product = lhs * rhs
                return product if product.degree() <= MAX_DEGREE else None
            if inst.op is BinaryOp.EXP and rhs.is_constant:
                exponent = rhs.constant_value()
                if exponent.denominator == 1 and 0 <= exponent <= MAX_DEGREE:
                    power = Expr.one()
                    for _ in range(int(exponent)):
                        power = power * lhs
                    return power if power.degree() <= MAX_DEGREE else None
        except ExprError:
            return None
        return None  # DIV / MOD / symbolic EXP: not polynomial
    return None  # Compare, Load, ... : opaque
