"""Human-readable classification derivations (``--explain``).

Renders the provenance chain recorded by :mod:`repro.obs.provenance` as an
indented derivation tree: each step shows the classification in the
paper's tuple notation, the algebra rule that produced it, and the operand
classifications the rule consumed -- recursively, down to the axioms
(constants, loop-invariant symbols).

::

    i.2: (L1, 0, 2)
      rule: scr.linear-recurrence -- x' = 1*x + (2); x(0) = 0
      from init 0: invariant 0
        rule: algebra.const
      from i.3: (L1, 2, 2)
        rule: scr.member -- i.3 = 1*header + (2)
        ...

The walker is purely a consumer of ``AnalyzedProgram`` /
``AnalysisResult`` attributes, so it imports nothing from the core.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.obs.provenance import Provenance, provenance_of

__all__ = ["explain", "explain_lines"]

_MAX_DEPTH = 10


def _provenance_for(result, label: str, cls) -> Optional[Provenance]:
    """The derivation of ``label``'s classification.

    SCR-classified names (cycles, wrap-around phis) and axioms (consts,
    loop-external symbols) carry their record on the classification object
    itself; operator nodes record nothing at classification time, so their
    rule + operand summary is reconstructed here from the region context
    the loop summary retains.
    """
    if result is not None:
        try:
            loop = result.defining_loop(label)
        except Exception:
            loop = None
        if loop is not None:
            summary = result.loops.get(loop.header)
            ctx = getattr(summary, "region_ctx", None)
            if (
                ctx is not None
                and label in ctx.nodes
                and label not in ctx.scr_classified
            ):
                # runtime-only import; this module must not pull the core
                # in at import time
                from repro.core.algebra import operator_provenance

                rule, operands = operator_provenance(ctx.nodes[label], ctx)
                return Provenance(rule, operands)
    return provenance_of(cls)


def _resolve_names(program, var: str) -> List[str]:
    """SSA names to explain for ``var`` (a source variable or SSA name)."""
    try:
        names = list(program.ssa_names(var))
    except Exception:
        names = []
    if names:
        classified = [
            name
            for name in names
            if any(name in s.classifications for s in program.result.loops.values())
        ]
        return classified or names
    for summary in program.result.loops.values():
        if var in summary.classifications:
            return [var]
    try:
        if var in program.ssa.definitions():
            return [var]
    except Exception:
        pass
    return []


def _explain_loop(program, header: str) -> List[str]:
    """The parallelism verdict of loop ``header`` with its why-not chain.

    ``explain(program, "L1")`` with a loop header instead of a variable
    renders the DOALL verdict and, when serial, the structured
    why-not-DOALL attribution (one reason per carried dependence).
    """
    summary = program.result.loops[header]
    lines = [f"loop {header} (depth {summary.loop.depth})"]
    try:
        verdicts = program.dependences()[1]
    except Exception as error:  # degraded analyses may lack a graph
        lines.append(f"  parallelism undecided: dependence analysis failed ({error})")
        return lines
    verdict = verdicts.get(header)
    if verdict is None:
        lines.append("  parallelism undecided: no verdict for this loop")
        return lines
    if verdict.parallelizable:
        lines.append("  parallelizable: yes (DOALL) -- no carried dependence")
        return lines
    lines.append(
        f"  parallelizable: no ({len(verdict.carried)} carried dependence(s))"
    )
    for blocker in verdict.blockers:
        lines.append(f"  blocked by {blocker.kind} {blocker.source} -> {blocker.sink}")
        lines.append(f"    reason: {blocker.reason} -- {blocker.detail}")
        lines.append(
            f"    subscripts: {blocker.subscripts[0]} vs {blocker.subscripts[1]}"
        )
        lines.append(f"    direction: {blocker.direction}")
        if blocker.range_blocked:
            lines.append(
                "    range refinement: blocked (trip range is ⊤; "
                "re-run with --ranges or add assume bounds)"
            )
        if blocker.unknown_blocked:
            lines.append(
                "    classification: an Unknown subscript blocked the exact tests"
            )
    return lines


def explain_lines(program, var: str, max_depth: int = _MAX_DEPTH) -> List[str]:
    """The derivation chain of ``var`` as a list of text lines.

    When ``var`` names a loop header the lines are the loop's parallelism
    verdict and why-not-DOALL attribution instead.
    """
    if var in getattr(program.result, "loops", {}):
        return _explain_loop(program, var)
    names = _resolve_names(program, var)
    if not names:
        return [f"no classification recorded for {var!r}"]
    lines: List[str] = []
    for i, name in enumerate(names):
        if i:
            lines.append("")
        cls = program.result.classification_of(name)
        _render(
            name, cls, lines, indent=0, seen=set(), depth=max_depth,
            result=program.result,
        )
    return lines


def explain(program, var: str, max_depth: int = _MAX_DEPTH) -> str:
    """The derivation chain of ``var`` as one printable string."""
    return "\n".join(explain_lines(program, var, max_depth))


def _render(
    label: str,
    cls,
    lines: List[str],
    indent: int,
    seen: Set[str],
    depth: int,
    result=None,
    prefix: str = "",
) -> None:
    pad = "  " * indent
    describe = cls.describe() if cls is not None else "<no classification>"
    lines.append(f"{pad}{prefix}{label}: {describe}")
    info = getattr(result, "ranges", None) if result is not None else None
    if info is not None:
        interval = info.range_of(label)
        if not interval.is_top:
            lines.append(f"{pad}  range: {interval}")
    inv_info = getattr(result, "invariants", None) if result is not None else None
    if inv_info is not None and not inv_info.degraded:
        for invariants in inv_info.by_loop.values():
            for invariant in invariants:
                if label in invariant.variables:
                    lines.append(f"{pad}  invariant: {invariant.describe()}")
    if cls is None:
        return
    prov = _provenance_for(result, label, cls)
    if prov is None:
        lines.append(f"{pad}  rule: <unrecorded>")
        return
    note = f" -- {prov.note}" if prov.note else ""
    lines.append(f"{pad}  rule: {prov.rule}{note}")
    if depth <= 0 and prov.operands:
        lines.append(f"{pad}  ... (depth limit)")
        return
    for operand_label, operand_cls in prov.operands:
        if operand_label in seen:
            shown = operand_cls.describe() if operand_cls is not None else "?"
            lines.append(f"{pad}  from {operand_label}: {shown}  (already shown)")
            continue
        seen.add(operand_label)
        _render(
            operand_label,
            operand_cls,
            lines,
            indent + 1,
            seen,
            depth - 1,
            result=result,
            prefix="from ",
        )
