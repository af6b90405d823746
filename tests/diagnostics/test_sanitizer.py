"""Pipeline sanitizer: stale-cache audits and broken-pass detection.

The deliberate-bug tests mutate IR *without* calling ``Function.dirty()``
to prove the sanitizer catches exactly the contract violations the cached
indexes (PR 1) depend on.
"""

import pytest

from repro.diagnostics import DiagnosticCollector, sanitizing
from repro.diagnostics.sanitizer import (
    SanitizerError,
    active,
    audit_caches,
    checkpoint,
    stages_run,
)
from repro.ir.function import Function
from repro.ir.instructions import Assign, Jump, Return
from repro.ir.parser import parse_function
from repro.obs.metrics import MetricsRegistry, collecting
from repro.pipeline import analyze

SRC = """
i = 0
L1: while i < n do
  i = i + 2
endwhile
return i
"""


def make_linear():
    return parse_function(
        """
func f() {
entry:
  %a = copy 1
  %b = copy 2
  jump next
next:
  %c = copy 3
  return %c
}
"""
    )


class TestContext:
    def test_checkpoint_noop_when_inactive(self):
        f = Function("f")  # would report IR001 under a context
        assert not active()
        assert checkpoint(f, "anything") == []

    def test_context_activates_and_deactivates(self):
        assert not active()
        with sanitizing(strict=False):
            assert active()
        assert not active()

    def test_contexts_do_not_nest(self):
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out) as outer:
            with sanitizing(strict=True) as inner:
                assert inner is outer
            assert active()

    def test_stages_recorded(self):
        f = make_linear()
        with sanitizing(strict=False):
            checkpoint(f, "one", ssa=False)
            checkpoint(f, "two", ssa=False)
            assert stages_run() == ["one", "two"]

    def test_pipeline_checkpoints_fire(self):
        with sanitizing(strict=True):
            analyze(SRC)
            stages = stages_run()
        assert "simplify-loops" in stages
        assert "construct-ssa" in stages
        assert "sccp" in stages

    def test_analyze_sanitize_flag_is_clean(self):
        with collecting(MetricsRegistry()) as registry:
            program = analyze(SRC, sanitize=True)  # strict: raises on violation
        assert program.result.loops
        # the flag really armed the sanitizer, and only for the call
        assert registry.snapshot()["counters"]["sanitizer.checkpoints"] > 0
        assert not active()


class TestCacheAudit:
    def test_clean_function_audits_clean(self):
        f = make_linear()
        f.definitions()
        assert audit_caches(f) == []

    def test_san201_inplace_rename_skipping_dirty(self):
        f = make_linear()
        f.definitions()  # populate the cache
        f.block("entry").instructions[0] = Assign("renamed", 1)  # no dirty()!
        found = audit_caches(f)
        assert "SAN201" in [d.code for d in found]

    def test_san202_inplace_swap_skipping_dirty(self):
        f = make_linear()
        f.def_site("a")  # populate the cache
        insts = f.block("entry").instructions
        insts[0], insts[1] = insts[1], insts[0]  # no dirty()!
        found = audit_caches(f)
        codes = [d.code for d in found]
        # definitions() maps name -> (label, inst): unchanged by a swap;
        # def_site() positions are what go stale
        assert "SAN202" in codes
        assert "SAN201" not in codes

    def test_dirty_call_heals_the_caches(self):
        f = make_linear()
        f.definitions()
        f.block("entry").instructions[0] = Assign("renamed", 1)
        f.dirty()
        assert audit_caches(f) == []

    def test_checkpoint_reports_stale_cache(self):
        f = make_linear()
        f.definitions()
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out):
            f.block("entry").instructions[0] = Assign("renamed", 1)
            checkpoint(f, "bad-pass", ssa=False)
        assert "SAN201" in out.codes()
        (diag,) = [d for d in out if d.code == "SAN201"]
        assert diag.stage == "bad-pass"

    def test_strict_checkpoint_raises_on_stale_cache(self):
        f = make_linear()
        f.definitions()
        with sanitizing(strict=True):
            f.block("entry").instructions[0] = Assign("renamed", 1)
            with pytest.raises(SanitizerError) as excinfo:
                checkpoint(f, "bad-pass", ssa=False)
        assert excinfo.value.stage == "bad-pass"
        assert "SAN201" in [d.code for d in excinfo.value.diagnostics]


class TestBrokenIR:
    def test_san203_pass_broke_ssa(self):
        program = analyze(SRC)
        f = program.ssa
        # a "pass" that duplicates an existing SSA definition
        name = next(iter(f.definitions()))
        f.block(f.entry_label).append(Assign(name, 0))
        f.dirty()  # caches are fine -- the *IR* is broken
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out):
            checkpoint(f, "evil-pass")
        assert "IR101" in out.codes()
        assert "SAN203" in out.codes()
        assert all(d.stage == "evil-pass" for d in out)

    def test_san203_strict_raises(self):
        program = analyze(SRC)
        f = program.ssa
        name = next(iter(f.definitions()))
        f.block(f.entry_label).append(Assign(name, 0))
        f.dirty()
        with sanitizing(strict=True):
            with pytest.raises(SanitizerError, match="evil-pass"):
                checkpoint(f, "evil-pass")

    def test_structural_break_detected_pre_ssa(self):
        f = make_linear()
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out):
            f.block("next").terminator = None
            f.dirty()
            checkpoint(f, "terminator-eater", ssa=False)
        assert "IR004" in out.codes()
        assert "SAN203" in out.codes()

    def test_frontend_dead_landing_blocks_not_flagged(self):
        # `return` mid-function parks unreachable code in a `dead` block;
        # checkpoints must not warn about the frontend's own convention
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out):
            analyze(SRC)
        assert "IR006" not in out.codes()

    def test_transform_orphaned_block_is_flagged(self):
        f = make_linear()
        orphan = f.add_block("orphan")
        orphan.terminator = Return()
        f.dirty()
        out = DiagnosticCollector()
        with sanitizing(strict=False, collector=out):
            checkpoint(f, "edge-eater", ssa=False)
        assert "IR006" in out.codes()
