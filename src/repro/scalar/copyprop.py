"""Copy propagation on SSA: forward ``x = copy y`` to uses of ``x``.

SSA makes this trivial (a copy's source is unique and dominates every use
of the copy).  Chains are collapsed transitively.  The copies themselves
are left in place for :mod:`repro.scalar.dce` to remove.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.function import Function
from repro.ir.instructions import Assign
from repro.ir.values import Ref, Value

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point


@traced("scalar.copyprop")
def propagate_copies(function: Function) -> int:
    """Replace uses of copy results by their (transitive) sources."""
    fault_point("scalar.copyprop")
    forward: Dict[str, Value] = {}
    for block in function:
        for inst in block:
            if isinstance(inst, Assign):
                forward[inst.result] = inst.src

    def resolve(value: Value) -> Value:
        seen = set()
        while isinstance(value, Ref) and value.name in forward:
            if value.name in seen:
                break
            seen.add(value.name)
            value = forward[value.name]
        return value

    mapping: Dict[str, Value] = {}
    for name in forward:
        final = resolve(Ref(name))
        if not (isinstance(final, Ref) and final.name == name):
            mapping[name] = final

    if not mapping:
        return 0
    # only readers of a forwarded name change; each such operand is one
    # rewrite (it always prints differently afterwards)
    count = 0
    for block in function:
        for inst in block:
            reads = 0
            for value in inst.uses():
                if type(value) is Ref and value.name in mapping:
                    reads += 1
            if reads:
                inst.replace_uses(mapping)
                count += reads
        terminator = block.terminator
        if terminator is not None and any(
            type(value) is Ref and value.name in mapping for value in terminator.uses()
        ):
            terminator.replace_uses(mapping)
    return count
