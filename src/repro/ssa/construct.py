"""SSA construction: pruned phi placement + dominator-tree renaming.

The algorithm is the standard one the paper builds on [CFR+91]:

1. for each variable, place phis at the iterated dominance frontier of its
   definition blocks -- pruned by liveness, so no dead phis are created
   (dead phis would bloat the SSA graph that Tarjan's algorithm walks);
2. rename along a preorder walk of the dominator tree with a stack of
   reaching definitions per variable.

SSA names are ``var.N`` (the paper's subscripts): ``i`` becomes ``i.1``,
``i.2``, ...  The mapping back to source variables is kept in
:class:`SSAInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.domfrontier import dominance_frontiers, iterated_frontier
from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.analysis.liveness import live_in_sets
from repro.analysis.rpo import reachable_blocks
from repro.ir.function import Function, IRError
from repro.ir.instructions import Phi
from repro.ir.values import Ref

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point


@dataclass
class SSAInfo:
    """Results of SSA construction.

    ``origin`` maps each SSA name to its source variable.  ``undef_inputs``
    lists synthetic entry values created for variables that may be used
    before any definition on some path (they behave like extra parameters).
    """

    function: Function
    domtree: DominatorTree
    origin: Dict[str, str] = field(default_factory=dict)
    undef_inputs: List[str] = field(default_factory=list)

    def names_of(self, var: str) -> List[str]:
        return [name for name, source in self.origin.items() if source == var]


@traced("ssa.construct")
def construct_ssa(function: Function) -> SSAInfo:
    """Convert ``function`` (in place) from named form to SSA form."""
    fault_point("ssa.construct")
    for block in function:
        if block.phis():
            raise IRError("construct_ssa expects phi-free named IR")

    reachable = reachable_blocks(function)
    domtree = dominator_tree(function)
    frontiers = dominance_frontiers(function, domtree)
    live_in = live_in_sets(function)

    # definition sites per variable
    def_blocks: Dict[str, Set[str]] = {}
    for block in function:
        if block.label not in reachable:
            continue
        for inst in block:
            if inst.result is not None:
                def_blocks.setdefault(inst.result, set()).add(block.label)

    # 1. phi placement (pruned)
    phi_var: Dict[int, str] = {}  # id(phi) -> source variable
    for var in sorted(def_blocks):
        for label in sorted(iterated_frontier(frontiers, def_blocks[var])):
            if var not in live_in[label]:
                continue
            block = function.block(label)
            phi = Phi(var)  # renamed below
            block.instructions.insert(0, phi)
            phi_var[id(phi)] = var

    # 2. renaming
    info = SSAInfo(function, domtree)
    counters: Dict[str, int] = {}
    stacks: Dict[str, List[str]] = {}
    for param in function.params:
        stacks[param] = [param]
        info.origin[param] = param

    def fresh(var: str) -> str:
        counters[var] = counters.get(var, 0) + 1
        name = f"{var}.{counters[var]}"
        info.origin[name] = var
        return name

    def reaching(var: str) -> str:
        stack = stacks.get(var)
        if not stack:
            # used before defined on some path: synthesize an entry value
            name = f"{var}.undef"
            if name not in info.undef_inputs:
                info.undef_inputs.append(name)
                function.params.append(name)
                info.origin[name] = var
            stacks.setdefault(var, []).append(name)
            return name
        return stack[-1]

    pushed: Dict[str, List[str]] = {label: [] for label in function.blocks}

    def rename_block(label: str) -> None:
        block = function.block(label)
        for inst in block.instructions:
            if isinstance(inst, Phi):
                var = phi_var[id(inst)]
                new_name = fresh(var)
                inst.result = new_name
                stacks.setdefault(var, []).append(new_name)
                pushed[label].append(var)
            else:
                mapping = {}
                for value in inst.uses():
                    if isinstance(value, Ref):
                        mapping[value.name] = Ref(reaching(value.name))
                if mapping:
                    inst.replace_uses(mapping)
                if inst.result is not None:
                    var = inst.result
                    new_name = fresh(var)
                    inst.result = new_name
                    stacks.setdefault(var, []).append(new_name)
                    pushed[label].append(var)
        terminator = block.terminator
        if terminator is not None:
            mapping = {}
            for value in terminator.uses():
                if isinstance(value, Ref):
                    mapping[value.name] = Ref(reaching(value.name))
            if mapping:
                terminator.replace_uses(mapping)
        # fill phi arguments of successors
        for succ in block.successors():
            for phi in function.block(succ).phis():
                var = phi_var.get(id(phi))
                if var is None:
                    continue  # already-renamed phi (shouldn't happen in preorder)
                phi.set_incoming(label, Ref(reaching(var)))

    # phis must know their variable even after renaming their own result,
    # because successors' phi arguments are filled from the predecessor.
    # phi_var is keyed by identity so renaming the result doesn't disturb it.
    # The walk is a dominator-tree preorder; a block's second visit, once
    # its subtree is done, pops the names it pushed.
    walk: List[Tuple[str, bool]] = [(domtree.entry, False)]
    while walk:
        label, done = walk.pop()
        if done:
            for var in reversed(pushed[label]):
                stacks[var].pop()
            continue
        rename_block(label)
        walk.append((label, True))
        for child in reversed(domtree.children[label]):
            walk.append((child, False))

    # drop unreachable blocks: they were not renamed and would fail the
    # SSA verifier; they are dead anyway.
    for label in list(function.blocks):
        if label not in reachable:
            del function.blocks[label]

    from repro.ir.verify import verify_function

    verify_function(function, ssa=True)
    function.dirty()
    return info
