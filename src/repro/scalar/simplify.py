"""Local algebraic simplification.

Rewrites instructions whose result is statically determined by identities
(``x + 0``, ``x * 1``, ``x - x``, single-input phis, ...) into copies or
constants.  Run between SCCP and copy propagation for best effect.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Phi, UnOp
from repro.ir.opcodes import BinaryOp
from repro.ir.values import Const, Ref, Value

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point

_ZERO = Const(0)
_ONE = Const(1)


@traced("scalar.simplify")
def simplify_instructions(function: Function) -> int:
    """Apply local identities in place.  Returns number of rewrites."""
    fault_point("scalar.simplify")
    count = 0
    for block in function:
        converted_phi = False
        for position, inst in enumerate(block.instructions):
            replacement = _simplify(inst)
            if replacement is not None:
                if isinstance(inst, Phi):
                    converted_phi = True
                block.instructions[position] = replacement
                count += 1
        if converted_phi:
            # keep the phis-first block invariant: a phi rewritten to a copy
            # must move below the remaining phi prefix (its source is a
            # block-entry value, so evaluation order is preserved)
            phis = [i for i in block.instructions if isinstance(i, Phi)]
            rest = [i for i in block.instructions if not isinstance(i, Phi)]
            block.instructions = phis + rest
    if count:
        function.dirty()
    return count


def _values_equal(a: Value, b: Value) -> bool:
    return a == b


def _simplify(inst):
    if isinstance(inst, Phi):
        values = list(inst.incoming.values())
        if values and all(_values_equal(v, values[0]) for v in values[1:]):
            return Assign(inst.result, values[0])
        return None
    if isinstance(inst, UnOp):
        if isinstance(inst.operand, Const):
            return Assign(inst.result, Const(-inst.operand.value))
        return None
    if not isinstance(inst, BinOp):
        return None

    lhs, rhs, op = inst.lhs, inst.rhs, inst.op
    zero, one = _ZERO, _ONE

    if op is BinaryOp.ADD:
        if lhs == zero:
            return Assign(inst.result, rhs)
        if rhs == zero:
            return Assign(inst.result, lhs)
    elif op is BinaryOp.SUB:
        if rhs == zero:
            return Assign(inst.result, lhs)
        if _values_equal(lhs, rhs) and isinstance(lhs, Ref):
            return Assign(inst.result, zero)
    elif op is BinaryOp.MUL:
        if lhs == one:
            return Assign(inst.result, rhs)
        if rhs == one:
            return Assign(inst.result, lhs)
        if lhs == zero or rhs == zero:
            return Assign(inst.result, zero)
    elif op is BinaryOp.DIV:
        if rhs == one:
            return Assign(inst.result, lhs)
    elif op is BinaryOp.MOD:
        if rhs == one:
            return Assign(inst.result, zero)
    elif op is BinaryOp.EXP:
        if rhs == one:
            return Assign(inst.result, lhs)
        if rhs == zero:
            return Assign(inst.result, one)
    return None
