"""Tests for the public pipeline API (AnalyzedProgram and friends)."""

import os

import pytest

import repro
from repro import analyze
from repro.diagnostics.driver import collect_targets
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.ir.printer import print_function
from repro.pipeline import analyze_function

SOURCE = """
s = 0
L1: for i = 1 to n do
  s = s + i
  A[s] = i
endfor
return s
"""

#: ``continue`` gives L1 two latches: only canonical loops classify ``i``
#: as branch-dependent with steps {1, 2} rather than as an IV of step 1
CONTINUE_LOOP = """
i = 0
j = 0
L1: while i < n do
  if i > 3 then
    j = j + 1
    i = i + 1
    continue
  endif
  i = i + 2
endwhile
"""

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
ENTRY_POINT_INPUTS = {"source": SOURCE, "continue-loop": CONTINUE_LOOP}
ENTRY_POINT_INPUTS.update(
    (os.path.relpath(target.origin, EXAMPLES), target.source)
    for target in collect_targets([EXAMPLES])
)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_analyze_returns_everything(self):
        program = analyze(SOURCE)
        assert program.source == SOURCE
        assert program.named_ir is not program.ssa
        assert program.nest.loop_of_header("L1") is not None
        assert "L1" in program.result.loops

    def test_named_ir_untouched(self):
        """The named IR keeps its pre-SSA form for the baseline."""
        from repro.ir.instructions import Phi

        program = analyze(SOURCE)
        assert not any(isinstance(i, Phi) for b in program.named_ir for i in b)
        assert any(isinstance(i, Phi) for b in program.ssa for i in b)

    def test_ssa_names_and_lookup(self):
        program = analyze(SOURCE)
        names = program.ssa_names("s")
        assert len(names) >= 3
        header_name = program.ssa_name("s", "L1")
        assert header_name in names

    def test_ssa_name_missing_raises(self):
        program = analyze(SOURCE)
        with pytest.raises(KeyError):
            program.ssa_name("nosuch", "L1")

    def test_describe_all(self):
        program = analyze(SOURCE)
        table = program.describe_all()
        assert any(v.startswith("(L1,") for v in table.values())

    def test_classification_shortcut(self):
        program = analyze(SOURCE)
        name = program.ssa_name("i", "L1")
        assert program.classification(name).describe() == "(L1, 1, 1)"

    @pytest.mark.parametrize("case", sorted(ENTRY_POINT_INPUTS))
    def test_analyze_function_entry_point(self, case):
        """From raw lowered IR, the same classes as ``analyze()``; the
        argument is left as it was."""
        source = ENTRY_POINT_INPUTS[case]
        named = lower_program(parse_program(source))
        printed = print_function(named)
        program = analyze_function(named)
        assert program.source is None
        assert program.describe_all() == analyze(source).describe_all()
        assert print_function(named) == printed

    def test_optimize_flag(self):
        unopt = analyze(SOURCE, optimize=False)
        opt = analyze(SOURCE, optimize=True)
        # with optimization the init constant 1 is folded into the tuple
        assert opt.classification(opt.ssa_name("i", "L1")).describe() == "(L1, 1, 1)"
        cls = unopt.classification(unopt.ssa_name("i", "L1"))
        assert "i.1" in cls.describe()  # unresolved symbolic init


class TestAnalysisResultAPI:
    def test_all_classifications(self):
        program = analyze(SOURCE)
        table = program.result.all_classifications()
        assert program.ssa_name("i", "L1") in table

    def test_classification_of_param(self):
        program = analyze(SOURCE)
        cls = program.result.classification_of("n")
        assert cls.describe() == "invariant n"

    def test_defining_loop(self):
        program = analyze(SOURCE)
        assert program.result.defining_loop(program.ssa_name("i", "L1")).header == "L1"
        assert program.result.defining_loop("n") is None

    def test_opaque_definitions_recorded(self):
        program = analyze("L1: for i = 0 to n by 4 do\n  x = i\nendfor")
        trip = program.result.trip_count("L1")
        symbol = str(trip.count)
        assert symbol in program.result.opaque_definitions
        key = program.result.opaque_definitions[symbol]
        assert key[0] == "ceildiv"

    def test_opaque_symbols_deduplicated(self):
        source = (
            "L1: for i = 0 to n by 4 do\n  x = i\nendfor\n"
            "L2: for j = 0 to n by 4 do\n  y = j\nendfor"
        )
        program = analyze(source)
        t1 = program.result.trip_count("L1").count
        t2 = program.result.trip_count("L2").count
        assert t1 == t2  # same ceil-division => same opaque symbol
