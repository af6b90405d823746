"""Sparse conditional constant propagation (Wegman & Zadeck [WZ91]).

The classic SSA lattice pass: each SSA name is TOP (unexecuted), a known
integer constant, or BOTTOM (varying).  Flow edges become executable as
branches are decided; phi functions only merge over executable edges.
The lattice only descends, so an instruction whose result is already
BOTTOM is never evaluated again.

``run_sccp`` computes the lattice; ``apply`` rewrites constant uses to
:class:`~repro.ir.values.Const` operands (leaving the CFG shape intact --
we do not delete never-executed branches here, since later passes rely on
the loop structure; :mod:`repro.scalar.dce` can clean up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Compare,
    Jump,
    Load,
    Phi,
    Return,
    Store,
    Terminator,
    UnOp,
)
from repro.ir.interp import _apply as apply_binop  # reference integer semantics
from repro.ir.opcodes import BinaryOp, exceeds_fold_bound
from repro.ir.values import Const, Ref, Value

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point

TOP = "top"
BOTTOM = "bottom"
# lattice values: TOP | int | BOTTOM


@dataclass
class SCCPResult:
    values: Dict[str, object]  # name -> TOP | int | BOTTOM
    executable_blocks: Set[str] = field(default_factory=set)
    # (pred, label) flow edges; the entry edge is (None, entry)
    executable_edges: Set[Tuple[Optional[str], str]] = field(default_factory=set)

    def constant_of(self, name: str) -> Optional[int]:
        value = self.values.get(name, BOTTOM)
        if isinstance(value, int):
            return value
        return None


@traced("scalar.sccp")
def run_sccp(function: Function, apply: bool = True) -> SCCPResult:
    """Run SCCP; if ``apply``, rewrite constant uses in place."""
    fault_point("scalar.sccp")
    values: Dict[str, object] = {}
    for name in function.definitions():
        values[name] = TOP
    for param in function.params:
        values[param] = BOTTOM

    executable_edges: Set[Tuple[Optional[str], str]] = set()
    executable_blocks: Set[str] = set()
    flow_worklist: List[Tuple[Optional[str], str]] = [(None, function.entry_label)]
    ssa_worklist: List[str] = []

    uses_of = _users(function)

    def lattice_of(value: Value) -> object:
        if type(value) is Const:
            return value.value
        return values.get(value.name, BOTTOM)

    def set_value(name: str, new: object) -> None:
        # the lattice only ever descends: TOP -> constant -> BOTTOM
        old = values.get(name, TOP)
        if old is BOTTOM or new is TOP or new == old:
            return
        values[name] = new if old is TOP else BOTTOM
        ssa_worklist.append(name)

    def evaluate(inst, block_label: str) -> None:
        kind = type(inst)
        if kind is BinOp:
            lhs = inst.lhs
            lhs = lhs.value if type(lhs) is Const else values.get(lhs.name, BOTTOM)
            rhs = inst.rhs
            rhs = rhs.value if type(rhs) is Const else values.get(rhs.name, BOTTOM)
            if type(lhs) is int and type(rhs) is int:
                if exceeds_fold_bound(inst.op, lhs, rhs):
                    set_value(inst.result, BOTTOM)
                    return
                try:
                    set_value(inst.result, apply_binop(inst.op, lhs, rhs))
                except Exception:
                    set_value(inst.result, BOTTOM)
            elif lhs is BOTTOM or rhs is BOTTOM:
                folded = _algebraic_identity(inst.op, lhs, rhs)
                set_value(inst.result, folded if folded is not None else BOTTOM)
        elif kind is Phi:
            acc: object = TOP
            for pred, value in inst.incoming.items():
                if (pred, block_label) in executable_edges:
                    incoming = lattice_of(value)
                    if acc is TOP:
                        acc = incoming
                    elif incoming is not TOP and incoming != acc:
                        acc = BOTTOM
                        break
            set_value(inst.result, acc)
        elif kind is Assign:
            set_value(inst.result, lattice_of(inst.src))
        elif kind is Compare:
            lhs = lattice_of(inst.lhs)
            rhs = lattice_of(inst.rhs)
            if type(lhs) is int and type(rhs) is int:
                set_value(inst.result, 1 if inst.relation.holds(lhs, rhs) else 0)
            elif lhs is BOTTOM or rhs is BOTTOM:
                set_value(inst.result, BOTTOM)
        elif kind is UnOp:
            operand = lattice_of(inst.operand)
            if type(operand) is int:
                set_value(inst.result, -operand)
            elif operand is BOTTOM:
                set_value(inst.result, BOTTOM)
        elif kind is Load:
            set_value(inst.result, BOTTOM)
        # stores define nothing

    def flow_into(pred: Optional[str], label: str) -> None:
        edge = (pred, label)
        if edge in executable_edges:
            # re-evaluate phis: a new edge may refine them -- handled when
            # the edge is first added; repeated adds are no-ops
            return
        flow_worklist.append(edge)

    def process_block(label: str) -> None:
        block = function.block(label)
        for inst in block:
            evaluate(inst, label)
        terminator = block.terminator
        if type(terminator) is Jump:
            flow_into(label, terminator.target)
        elif type(terminator) is Branch:
            cond = lattice_of(terminator.cond)
            if cond is BOTTOM or cond is TOP:
                # TOP conservatively treated as both (keeps termination)
                flow_into(label, terminator.true_target)
                flow_into(label, terminator.false_target)
            else:
                flow_into(label, terminator.true_target if cond else terminator.false_target)
        # Return: nothing

    def process_branch(label: str, terminator: Branch) -> None:
        cond = lattice_of(terminator.cond)
        if cond is BOTTOM:
            flow_into(label, terminator.true_target)
            flow_into(label, terminator.false_target)
        elif cond is not TOP:
            flow_into(label, terminator.true_target if cond else terminator.false_target)

    while flow_worklist or ssa_worklist:
        if flow_worklist:
            pred, label = flow_worklist.pop()
            first_visit = label not in executable_blocks
            edge_new = (pred, label) not in executable_edges
            executable_edges.add((pred, label))
            executable_blocks.add(label)
            if first_visit:
                process_block(label)
            elif edge_new:
                # only phis need re-evaluation for a new incoming edge
                for phi in function.block(label).phis():
                    if values.get(phi.result) is not BOTTOM:
                        evaluate(phi, label)
            continue
        name = ssa_worklist.pop()
        for block_label, user in uses_of.get(name, ()):
            if block_label not in executable_blocks:
                continue
            kind = type(user)
            if kind is Branch:
                process_branch(block_label, user)
            elif kind is not Return and kind is not Store:
                # BOTTOM is final: evaluating such a user cannot change it
                if values.get(user.result) is not BOTTOM:
                    evaluate(user, block_label)

    result = SCCPResult(
        values=values,
        executable_blocks=executable_blocks,
        executable_edges=executable_edges,
    )
    if apply:
        apply_sccp(function, result, uses_of)
    return result


def _users(function: Function) -> Dict[str, List[Tuple[str, object]]]:
    """Name -> ``(block label, instruction or terminator)`` of each read, in
    program order (an instruction reading a name twice appears twice)."""
    uses_of: Dict[str, List[Tuple[str, object]]] = {}
    for block in function:
        label = block.label
        for inst in block:
            for value in inst.uses():
                if type(value) is Ref:
                    uses_of.setdefault(value.name, []).append((label, inst))
        if block.terminator is not None:
            for value in block.terminator.uses():
                if type(value) is Ref:
                    uses_of.setdefault(value.name, []).append((label, block.terminator))
    return uses_of


def _algebraic_identity(op: BinaryOp, lhs: object, rhs: object) -> Optional[int]:
    """x*0 = 0 even when x is BOTTOM (and similar)."""
    if op is BinaryOp.MUL and (lhs == 0 or rhs == 0):
        return 0
    if op is BinaryOp.MOD and rhs == 1:
        return 0
    return None


def apply_sccp(
    function: Function,
    result: SCCPResult,
    uses_of: Optional[Dict[str, List[Tuple[str, object]]]] = None,
) -> int:
    """Rewrite uses of constant names to literal operands.

    Only the readers of a constant name are touched; ``uses_of`` is the
    reader index :func:`run_sccp` builds, rebuilt here when omitted.
    Returns the number of rewritten operands of non-terminator
    instructions (terminator operands are rewritten but not counted).
    """
    mapping: Dict[str, Value] = {}
    for name, value in result.values.items():
        if type(value) is int:
            mapping[name] = Const(value)
    if not mapping:
        return 0
    if uses_of is None:
        uses_of = _users(function)
    count = 0
    rewritten: Set[object] = set()
    for name in mapping:
        for _, user in uses_of.get(name, ()):
            if user in rewritten:
                continue
            rewritten.add(user)
            if not isinstance(user, Terminator):
                for value in user.uses():
                    if type(value) is Ref and value.name in mapping:
                        count += 1
            user.replace_uses(mapping)
    return count
