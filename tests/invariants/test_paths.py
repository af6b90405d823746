"""Acyclic-path enumeration and per-path symbolic update maps."""

import pytest

from benchmarks.workloads import mixed_class_loop
from repro.invariants import paths as paths_module
from repro.invariants.paths import MAX_PATHS, enumerate_paths
from repro.ir.instructions import Phi
from repro.ir.values import Ref
from repro.pipeline import analyze
from repro.symbolic.expr import Expr

TWO_PATH = """
i = 0
j = 0
L1: while i < n do
  if A[i] > 0 then
    i = i + 1
    j = j + 2
  else
    i = i + 3
    j = j + 6
  endif
endwhile
"""

THREE_PATH = """
k = 0
L1: while k < n do
  if A[k] > 0 then
    k = k + 1
  else
    if A[k] < 0 then
      k = k + 2
    else
      k = k + 3
    endif
  endif
endwhile
"""


#: 5 independent two-way branches = 32 paths > MAX_PATHS
FIVE_DIAMONDS = "s = 0\nL1: for i = 1 to n do\n" + "\n".join(
    f"  if A[i + {k}] > 0 then\n    s = s + {k + 1}\n  endif" for k in range(5)
) + "\nendfor"


def summarize(source, loop="L1", ranges=None, **kwargs):
    program = analyze(source, **kwargs)
    loop_obj = program.result.loops[loop].loop
    return enumerate_paths(program.ssa, loop_obj, ranges)


def phi_named(summary, stem):
    return next(phi for phi in summary.phis if phi.startswith(stem + "."))


class TestEnumeration:
    def test_two_path_loop(self):
        summary = summarize(TWO_PATH)
        assert len(summary.paths) == 2
        assert summary.complete and not summary.truncated
        assert summary.pruned_paths == 0

    def test_three_path_loop(self):
        summary = summarize(THREE_PATH)
        assert len(summary.paths) == 3
        assert summary.complete

    def test_single_path_loop(self):
        summary = summarize("s = 0\nL1: for i = 1 to n do\n  s = s + 2\nendfor")
        assert len(summary.paths) == 1
        assert summary.complete

    def test_nested_loop_yields_none(self):
        source = """
L1: for i = 1 to n do
  L2: for j = 1 to n do
    x = i + j
  endfor
endfor
"""
        assert summarize(source, loop="L1") is None
        inner = summarize(source, loop="L2")
        assert inner is not None and inner.complete

    def test_truncation_at_max_paths(self):
        summary = summarize(FIVE_DIAMONDS)
        assert summary.truncated
        assert len(summary.paths) <= MAX_PATHS
        assert not summary.complete and not summary.affine
        assert any("truncated" in note for note in summary.notes())


class TestUpdateMaps:
    def test_updates_are_per_path_symbolic_steps(self):
        summary = summarize(TWO_PATH)
        i = phi_named(summary, "i")
        j = phi_named(summary, "j")
        steps = sorted(
            (path.update_of(i) - Expr.sym(i)).constant_value()
            for path in summary.paths
        )
        assert steps == [1, 3]
        for path in summary.paths:
            di = (path.update_of(i) - Expr.sym(i)).constant_value()
            dj = (path.update_of(j) - Expr.sym(j)).constant_value()
            assert dj == 2 * di  # each path preserves j == 2*i

    def test_affine_updates(self):
        summary = summarize(TWO_PATH)
        assert summary.affine
        for path in summary.paths:
            assert path.affine

    def test_polynomial_update_is_not_affine(self):
        summary = summarize(
            "p = m\nL1: for i = 1 to n do\n  p = p * p\nendfor"
        )
        p = phi_named(summary, "p")
        (path,) = summary.paths
        update = path.update_of(p)
        assert update is not None and update.degree() == 2
        assert not summary.affine

    def test_division_update_is_opaque(self):
        summary = summarize(
            "h = n\nL1: for i = 1 to n do\n  h = h / 2\nendfor"
        )
        h = phi_named(summary, "h")
        (path,) = summary.paths
        assert path.update_of(h) is None
        assert not path.affine and not summary.affine

    def test_loop_invariant_refs_stay_symbolic(self):
        summary = summarize(
            "j = 0\nL1: for i = 1 to n do\n  j = j + m\nendfor"
        )
        j = phi_named(summary, "j")
        (path,) = summary.paths
        update = path.update_of(j)
        assert "m" in {s.split(".")[0] for s in update.free_symbols()}

    def test_describe_mentions_blocks_and_updates(self):
        summary = summarize(TWO_PATH)
        text = summary.paths[0].describe()
        assert "L1" in text and "->" in text


class TestPruning:
    PRUNABLE = """
assume c == 1
i = 0
L1: while i < n do
  if c > 0 then
    i = i + 1
  else
    i = i + 5
  endif
endwhile
"""

    def test_constant_branch_prunes_dead_path(self):
        program = analyze(self.PRUNABLE, ranges=True)
        loop = program.result.loops["L1"].loop
        summary = enumerate_paths(
            program.ssa, loop, program.result.ranges
        )
        assert summary.pruned_paths >= 1
        assert len(summary.paths) == 1
        assert any("pruned_paths" in note for note in summary.notes())

    def test_no_ranges_means_no_pruning(self):
        summary = summarize(self.PRUNABLE)
        assert summary.pruned_paths == 0
        assert len(summary.paths) == 2

    def test_degraded_ranges_disable_pruning(self):
        program = analyze(self.PRUNABLE, ranges=True)
        program.result.ranges.degraded = True
        loop = program.result.loops["L1"].loop
        summary = enumerate_paths(program.ssa, loop, program.result.ranges)
        assert summary.pruned_paths == 0
        assert len(summary.paths) == 2

    @staticmethod
    def dead_branch_loop(before, after=0, dead_branches=1):
        """``before`` diamonds, ``dead_branches`` constant branches, then
        ``after`` diamonds; each constant branch has one dead edge."""
        diamond = "  if A[i + {k}] > 0 then\n    s = s + {k}\n  endif"
        lines = ["assume c == 1", "s = 0", "L1: for i = 1 to n do"]
        lines += [diamond.format(k=k) for k in range(before)]
        for d in range(dead_branches):
            lines.append(
                f"  if c > {d - 1} then\n    s = s + 10\n"
                f"  else\n    s = s + 20\n  endif"
            )
        lines += [diamond.format(k=before + k) for k in range(after)]
        lines.append("endfor")
        return "\n".join(lines)

    def pruned(self, source):
        program = analyze(source, ranges=True)
        loop = program.result.loops["L1"].loop
        return enumerate_paths(program.ssa, loop, program.result.ranges)

    @pytest.mark.parametrize(
        "before, after", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 3)]
    )
    def test_dead_edge_counted_once(self, before, after):
        summary = self.pruned(self.dead_branch_loop(before, after))
        assert len(summary.paths) == 2 ** (before + after)
        assert summary.pruned_paths == 1

    def test_two_dead_branches_count_two(self):
        # c == 1 makes both `c > -1` (true) and `c > 0` (true) constant
        summary = self.pruned(self.dead_branch_loop(2, dead_branches=2))
        assert len(summary.paths) == 4
        assert summary.pruned_paths == 2


def header_phi_slice(function, loop):
    """Names that can reach a header phi's back-edge operand.

    An independent restatement of the executor's slice: the back-edge
    operands, closed over the operands of every in-body definition.
    """
    definitions = {
        inst.result: inst
        for label in loop.body
        for inst in function.block(label).instructions
        if inst.result is not None
    }
    header = function.block(loop.header)
    pending = [
        value.name
        for phi in header.phis()
        for pred, value in phi.incoming.items()
        if pred in loop.body and isinstance(value, Ref)
    ]
    live = set()
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            if name in definitions:
                pending.extend(
                    v.name for v in definitions[name].uses() if isinstance(v, Ref)
                )
    return live


class TestWorkBound:
    """Each distinct path prefix is executed once, and only its slice.

    ``_symbolic`` runs once per executed non-phi instruction, so its call
    count may not exceed the sliced instructions of the distinct path
    prefixes (the nodes of the path trie).  Re-executing the body once
    per path -- sliced or not -- exceeds that bound on both loops.
    """

    @staticmethod
    def symbolic_calls(monkeypatch, source):
        program = analyze(source)
        loop = program.result.loops["L1"].loop
        calls = []
        real = paths_module._symbolic

        def counting(inst, state):
            calls.append(inst.result)
            return real(inst, state)

        monkeypatch.setattr(paths_module, "_symbolic", counting)
        summary = enumerate_paths(program.ssa, loop)
        for path in summary.paths:  # execution is deferred to the reads
            path.updates
        return program.ssa, loop, summary, len(calls)

    @staticmethod
    def sliced(function, live, label):
        return sum(
            1
            for inst in function.block(label).instructions
            if not isinstance(inst, Phi) and inst.result in live
        )

    @pytest.mark.parametrize(
        "source",
        [FIVE_DIAMONDS, mixed_class_loop(3, 100)],
        ids=["five_diamonds", "mixed_class_loop"],
    )
    def test_symbolic_work_bounded_by_distinct_prefixes(self, monkeypatch, source):
        function, loop, summary, calls = self.symbolic_calls(monkeypatch, source)
        assert len(summary.paths) > 1
        live = header_phi_slice(function, loop)
        prefixes = {
            path.blocks[:k]
            for path in summary.paths
            for k in range(1, len(path.blocks) + 1)
        }
        bound = sum(self.sliced(function, live, prefix[-1]) for prefix in prefixes)
        per_path = sum(
            self.sliced(function, live, label)
            for path in summary.paths
            for label in path.blocks
        )
        assert calls <= bound
        assert bound < per_path  # the bound does tell the two apart


#: 5 diamonds = 32 paths > MAX_PATHS, with products among the updates
AB_DIAMONDS = "a = 1\nb = 1\nL1: for i = 1 to n do\n" + "\n".join(
    f"  if A[i + {k}] > 0 then\n    a = a + {k + 1}\n  else\n"
    f"    b = b * a\n  endif"
    for k in range(5)
) + "\nendfor"


class TestDeferredExecution:
    """Paths execute on the first read of an update map, all at once."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        real = paths_module._symbolic

        def counted(inst, state):
            calls.append(inst.result)
            return real(inst, state)

        monkeypatch.setattr(paths_module, "_symbolic", counted)
        return calls

    def test_truncated_loop_executes_only_when_read(self, monkeypatch):
        calls = self.counting(monkeypatch)
        program = analyze(AB_DIAMONDS, ranges=True, invariants=True)
        summary = program.result.invariants.path_summary_of("L1")
        # everything analyze() and the run-log record read stays cheap
        assert summary.truncated and len(summary.paths) == MAX_PATHS
        assert not summary.complete and not summary.affine
        assert summary.notes() == [
            f"{MAX_PATHS} path(s)",
            f"truncated at {MAX_PATHS}",
        ]
        assert all(len(path.blocks) > 1 for path in summary.paths)
        assert calls == []

        lines = [path.describe() for path in summary.paths]
        executed = len(calls)
        assert executed > 0
        assert [path.describe() for path in summary.paths] == lines
        assert len(calls) == executed  # one execution served every path

        loop = program.result.loops["L1"].loop
        eager = paths_module._execute_paths(
            program.ssa,
            loop,
            program.ssa.block("L1").phis(),
            [path.blocks for path in summary.paths],
        )
        assert [path.describe() for path in eager] == lines
        assert summary.paths == eager

    def test_complete_loop_executes_during_analysis(self, monkeypatch):
        calls = self.counting(monkeypatch)
        program = analyze(TWO_PATH, invariants=True)
        summary = program.result.invariants.path_summary_of("L1")
        assert summary.complete and summary.affine
        assert calls  # invariant generation read every update
        assert program.result.invariants.invariants_of("L1")

    @pytest.mark.parametrize(
        "read",
        [
            lambda path: path.updates,
            lambda path: path.update_of("s.2"),
            lambda path: path.affine,
            lambda path: path.describe(),
            repr,
            hash,
        ],
        ids=["updates", "update_of", "affine", "describe", "repr", "hash"],
    )
    def test_every_update_read_executes(self, monkeypatch, read):
        program = analyze(FIVE_DIAMONDS)
        calls = self.counting(monkeypatch)
        summary = enumerate_paths(program.ssa, program.result.loops["L1"].loop)
        assert calls == []
        read(summary.paths[-1])
        assert calls

    def test_tight_term_budget_no_longer_degrades_the_phase(self):
        """Finer-grained degradation: only claimed-on work is budgeted.

        Executing a truncated loop's 16 paths builds products of more
        than three terms.  When enumeration executed them, a three-term
        cap degraded the whole invariants phase over updates no claim
        rests on; now they execute when the report reads them, after
        the analysis and outside its budget.
        """
        from repro.report import format_report
        from repro.resilience.budget import AnalysisBudget, budgeted
        from repro.resilience.errors import BudgetExceeded

        program = analyze(
            AB_DIAMONDS,
            ranges=True,
            invariants=True,
            budget=AnalysisBudget(max_expr_terms=3),
        )
        assert not program.degraded
        info = program.result.invariants
        assert not info.degraded and info.path_summary_of("L1").truncated
        report = format_report(program)
        assert report.count("    path [") == MAX_PATHS

        # the same execution inside the budget is what used to degrade
        summary = enumerate_paths(program.ssa, program.result.loops["L1"].loop)
        with budgeted(AnalysisBudget(max_expr_terms=3)):
            with pytest.raises(BudgetExceeded):
                summary.paths[0].updates
