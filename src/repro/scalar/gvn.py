"""Dominator-based global value numbering.

The paper's section 2.1 points to [AWZ88] ("Detecting equality of variables
in programs") and [RWZ88] ("Global value numbers and redundant
computations") as the companion applications of SSA form.  This pass is the
standard dominator-tree-scoped hash-based GVN:

* walk the dominator tree in preorder with a scoped hash table;
* the key of a pure instruction is ``(op, canonical operands)`` --
  commutative operators sort their operands;
* an instruction whose key is already bound to a dominating definition is
  replaced by a copy of it (and its uses forwarded).

Besides removing redundancies, GVN helps the classifier: syntactically
different but equal invariants unify into one SSA name, so dependence
testing sees equal symbolic constants (ZIV proves more).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Compare, Load, Phi, Store, UnOp
from repro.ir.opcodes import BinaryOp
from repro.ir.values import Const, Ref, Value

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point

_COMMUTATIVE = {BinaryOp.ADD, BinaryOp.MUL}


def _value_key(value: Value, numbering: Dict[str, str]):
    if isinstance(value, Const):
        return ("const", value.value)
    if isinstance(value, Ref):
        return ("ref", numbering.get(value.name, value.name))
    return ("?", repr(value))


def _instruction_key(inst, numbering: Dict[str, str]) -> Optional[Tuple]:
    if isinstance(inst, BinOp):
        lhs = _value_key(inst.lhs, numbering)
        rhs = _value_key(inst.rhs, numbering)
        if inst.op in _COMMUTATIVE and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("bin", inst.op.value, lhs, rhs)
    if isinstance(inst, UnOp):
        return ("neg", _value_key(inst.operand, numbering))
    if isinstance(inst, Compare):
        return (
            "cmp",
            inst.relation.value,
            _value_key(inst.lhs, numbering),
            _value_key(inst.rhs, numbering),
        )
    if isinstance(inst, Assign):
        return ("copy", _value_key(inst.src, numbering))
    # phis, loads and stores are not pure w.r.t. program position
    return None


@traced("scalar.gvn")
def run_gvn(function: Function, domtree: Optional[DominatorTree] = None) -> int:
    """Value-number ``function`` (SSA form) in place.

    Redundant pure instructions become copies of their dominating
    equivalent, and all uses are forwarded.  Returns the number of
    instructions eliminated.
    """
    fault_point("scalar.gvn")
    if domtree is None:
        domtree = dominator_tree(function)

    numbering: Dict[str, str] = {}  # SSA name -> representative name
    eliminated = 0
    # scoped table over a dominator-tree preorder walk; each block's keys
    # are popped once its subtree is done (the explicit stack holds the
    # block's added keys as that second visit)
    table: Dict[Tuple, str] = {}
    stack: List[Tuple[str, Optional[List[Tuple]]]] = [(domtree.entry, None)]
    while stack:
        label, added = stack.pop()
        if added is not None:
            for key in added:
                del table[key]
            continue
        added = []
        block = function.block(label)
        for position, inst in enumerate(block.instructions):
            if inst.result is None or isinstance(inst, (Phi, Load)):
                continue
            key = _instruction_key(inst, numbering)
            if key is None:
                continue
            if key[0] == "copy":
                # a copy is itself a renaming: number through it
                source = key[1]
                if source[0] == "ref":
                    numbering[inst.result] = source[1]
                continue
            existing = table.get(key)
            if existing is not None:
                numbering[inst.result] = numbering.get(existing, existing)
                block.instructions[position] = Assign(inst.result, Ref(existing))
                eliminated += 1
            else:
                table[key] = inst.result
                added.append(key)
        stack.append((label, added))
        for child in reversed(domtree.children[label]):
            stack.append((child, None))

    if numbering:
        mapping = {name: Ref(rep) for name, rep in numbering.items()}
        for block in function:
            for inst in block:
                inst.replace_uses(mapping)
            if block.terminator is not None:
                block.terminator.replace_uses(mapping)
    if eliminated:
        function.dirty()
    return eliminated
