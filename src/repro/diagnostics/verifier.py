"""Collect-all IR verifier.

The original ``repro.ir.verify`` raised :class:`~repro.ir.function.IRError`
on the *first* problem; this module reports *every* problem as a
:class:`~repro.diagnostics.diagnostic.Diagnostic` so a broken pass can be
diagnosed in one run.  ``repro.ir.verify.verify_function`` remains as the
raise-on-first compatibility wrapper on top of :func:`verify_collect`.

Checks, in emission order:

* structural (any IR): blocks exist, entry exists, branch targets resolve,
  every block has a terminator, phis form a block prefix, no phi in the
  entry block, every block is reachable.
* SSA (``ssa=True``, only when the structure is sound): unique
  definitions, no parameter shadowing, phi arity matches predecessors,
  no self-referential non-phi definitions, every use dominated by its
  definition (phi uses checked at the incoming edge's predecessor), no
  references to names that are defined nowhere.  The dominance and
  undefined-use findings follow every self-reference finding, in block
  and instruction order.  The SSA checks build their own dominator tree:
  they must not trust the pass whose output they check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.diagnostics.diagnostic import Diagnostic, DiagnosticCollector, Severity
from repro.ir.function import Function
from repro.ir.instructions import Phi, Ref


def verify_collect(
    function: Function,
    ssa: bool = False,
    collector: Optional[DiagnosticCollector] = None,
) -> List[Diagnostic]:
    """Run every applicable check; return the full list of findings.

    When ``collector`` is given, findings are also appended to it.  SSA
    checks are skipped if structural *errors* were found (the CFG is not
    trustworthy enough to compute dominators on).
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.diagnostics)
    _check_structure(function, out)
    structural_errors = any(
        d.severity >= Severity.ERROR for d in out.diagnostics[start:]
    )
    if ssa and not structural_errors:
        _check_ssa(function, out)
    return out.diagnostics[start:]


# ----------------------------------------------------------------------
# structural checks
# ----------------------------------------------------------------------
def _check_structure(function: Function, out: DiagnosticCollector) -> None:
    fname = function.name
    if not function.blocks:
        out.emit("IR001", f"{fname}: function has no blocks", function=fname)
        return
    if function.entry_label not in function.blocks:
        out.emit(
            "IR002",
            f"{fname}: entry label {function.entry_label!r} missing",
            function=fname,
        )

    for block in function:
        for succ in block.successors():
            if succ not in function.blocks:
                out.emit(
                    "IR003",
                    f"block {block.label!r} targets unknown label {succ!r}",
                    function=fname,
                    block=block.label,
                )

    for block in function:
        if block.terminator is None:
            out.emit(
                "IR004",
                f"{fname}/{block.label}: missing terminator",
                function=fname,
                block=block.label,
            )
        seen_non_phi = False
        for inst in block:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    out.emit(
                        "IR005",
                        f"{fname}/{block.label}: phi after non-phi instruction",
                        function=fname,
                        block=block.label,
                        name=inst.result,
                    )
            else:
                seen_non_phi = True

    entry = function.entry_label
    if entry in function.blocks:
        for phi in function.blocks[entry].phis():
            out.emit(
                "IR007",
                f"{fname}/{entry}: phi %{phi.result} in entry block "
                "(the entry has no predecessors)",
                function=fname,
                block=entry,
                name=phi.result,
                hint="phis merge predecessor values; the entry block has none",
            )
        for label in sorted(_unreachable_blocks(function)):
            out.emit(
                "IR006",
                f"{fname}/{label}: block unreachable from entry",
                function=fname,
                block=label,
                hint="delete the block or add an edge reaching it",
            )


def _unreachable_blocks(function: Function) -> Set[str]:
    if function.entry_label not in function.blocks:
        return set(function.blocks)
    seen: Set[str] = set()
    stack = [function.entry_label]
    while stack:
        label = stack.pop()
        if label in seen:
            continue
        seen.add(label)
        block = function.blocks.get(label)
        if block is None:
            continue
        for succ in block.successors():
            if succ in function.blocks and succ not in seen:
                stack.append(succ)
    return set(function.blocks) - seen


# ----------------------------------------------------------------------
# SSA checks
# ----------------------------------------------------------------------
def _check_ssa(function: Function, out: DiagnosticCollector) -> None:
    """The SSA checks, in one pass over the definitions and one over the uses.

    The first pass records where each name is defined (IR101, IR102);
    the second visits every use once, reporting self-reference (IR108) as
    it goes and keeping the dominance and undefined-use findings
    (IR104-IR107) to emit after the last IR108.  The dominator tree is
    built here from the CFG, never taken from the pass under check.
    """
    from repro.analysis.dominators import dominator_tree

    fname = function.name
    blocks = function.blocks
    params = set(function.params)
    domtree = dominator_tree(function)

    # Number the program points in dominator-tree preorder: block B owns
    # ticks first[B] + 0 .. first[B] + len(B) + 1 (its instructions, its
    # terminator, then the end of its outgoing edges, where phi uses are
    # checked), and its dominator subtree owns first[B] .. last[B].  A
    # definition at tick d in B then reaches a use at tick u exactly when
    # d < u <= last[B].  Unreachable blocks are numbered after the rest,
    # each owning only its own ticks; a use the ticks reject is re-judged
    # by ``reaches`` below, which also knows the unreachable-block rules.
    preorder = domtree.preorder()
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    clock = 0
    for label in preorder:
        first[label] = clock
        clock += len(blocks[label].instructions) + 2
    for label in reversed(preorder):
        last[label] = max(
            [first[label] + len(blocks[label].instructions) + 1]
            + [last[child] for child in domtree.children[label]]
        )
    for label, block in blocks.items():
        if label not in first:
            first[label] = clock
            clock += len(block.instructions) + 2
            last[label] = clock - 1

    # unique definitions / parameter shadowing; ``avail`` maps each name to
    # the ticks it reaches and its first definition's block and position
    avail: Dict[str, tuple] = {}
    for block in function:
        label = block.label
        base, end = first[label], last[label]
        for position, inst in enumerate(block.instructions):
            result = inst.result
            if result is None:
                continue
            site = avail.get(result)
            if site is not None:
                out.emit(
                    "IR101",
                    f"{fname}: {result!r} defined in both "
                    f"{site[2]!r} and {label!r}",
                    function=fname,
                    block=label,
                    name=result,
                )
            else:
                avail[result] = (base + position, end, label, position)
            if result in params:
                out.emit(
                    "IR102",
                    f"{fname}: {result!r} shadows a parameter",
                    function=fname,
                    block=label,
                    name=result,
                )
    for name in params:
        avail[name] = (-1, clock, None, -1)

    # phi arity matches predecessors
    preds: Dict[str, List[str]] = {label: [] for label in blocks}
    for block in function:
        for succ in block.successors():
            preds[succ].append(block.label)
    for block in function:
        block_preds = set(preds[block.label])
        for phi in block.phis():
            incoming = set(phi.incoming)
            if incoming != block_preds:
                out.emit(
                    "IR103",
                    f"{fname}/{block.label}: phi %{phi.result} incoming "
                    f"{sorted(incoming)} != predecessors {sorted(block_preds)}",
                    function=fname,
                    block=block.label,
                    name=phi.result,
                )

    # dominance findings as (code, use block, name, phi block, phi)
    failed: List[tuple] = []

    def reaches(name, use_label, use_position, code, phi_label=None, phi=None):
        """Judge a use the ticks rejected; record it unless it is fine."""
        site = avail.get(name)
        if site is None:
            failed.append(("IR107", use_label, name, phi_label, phi))
            return
        def_label, def_position = site[2], site[3]
        if def_label == use_label:
            fine = def_position < use_position
        elif def_label not in domtree.idom or use_label not in domtree.idom:
            fine = True  # unreachable code: IR006 already covers it
        else:
            fine = domtree.dominates(def_label, use_label)
        if not fine:
            failed.append((code, use_label, name, phi_label, phi))

    # every use once: IR108 as found, dominance findings after the last one
    for block in function:
        label = block.label
        base = first[label]
        instructions = block.instructions
        for position, inst in enumerate(instructions):
            if type(inst) is Phi:
                for pred_label, value in inst.incoming.items():
                    if type(value) is not Ref or pred_label not in blocks:
                        continue
                    edge = len(blocks[pred_label].instructions) + 1
                    site = avail.get(value.name)
                    if site is None or not site[0] < first[pred_label] + edge <= site[1]:
                        reaches(value.name, pred_label, edge, "IR105", label, inst)
                continue
            uses = inst.uses()
            result = inst.result
            for value in uses:
                if type(value) is Ref and value.name == result:
                    out.emit(
                        "IR108",
                        f"{fname}/{label}: %{result} uses its own result "
                        "(only phis may be self-referential in SSA)",
                        function=fname,
                        block=label,
                        name=result,
                    )
                    break
            else:  # not self-referential: check dominance
                tick = base + position
                for value in uses:
                    if type(value) is Ref:
                        site = avail.get(value.name)
                        if site is None or not site[0] < tick <= site[1]:
                            reaches(value.name, label, position, "IR104")
        if block.terminator is not None:
            end = len(instructions)
            for value in block.terminator.uses():
                if type(value) is Ref:
                    site = avail.get(value.name)
                    if site is None or not site[0] < base + end <= site[1]:
                        reaches(value.name, label, end, "IR106")

    for code, use_label, name, phi_label, phi in failed:
        if code == "IR107":
            message = f"{fname}/{use_label}: use of %{name}, which is defined nowhere"
        elif code == "IR105":
            message = (
                f"{fname}/{phi_label}: phi %{phi.result} uses "
                f"%{name} not available on edge from {use_label!r}"
            )
        elif code == "IR104":
            message = (
                f"{fname}/{use_label}: use of %{name} "
                "not dominated by its definition"
            )
        else:
            message = (
                f"{fname}/{use_label}: terminator uses %{name} "
                "not dominated by its definition"
            )
        out.emit(code, message, function=fname, block=use_label, name=name)
