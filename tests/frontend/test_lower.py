"""Tests for AST -> IR lowering."""

import pytest

from repro.frontend.lexer import FrontendError
from repro.frontend.lower import analyze_names, lower_program
from repro.frontend.parser import parse_program
from repro.frontend.source import compile_source
from repro.ir.instructions import Branch, Compare, Store
from repro.ir.interp import Interpreter
from repro.ir.verify import verify_function


def lower(source):
    return lower_program(parse_program(source))


class TestNameAnalysis:
    def test_free_reads_become_params(self):
        params, arrays = analyze_names(parse_program("x = n + m\ny = x"))
        assert params == ["n", "m"]
        assert arrays == []

    def test_arrays_inferred(self):
        params, arrays = analyze_names(parse_program("A[1] = B[2]"))
        assert set(arrays) == {"A", "B"}

    def test_for_var_not_param(self):
        params, _ = analyze_names(parse_program("for i = 1 to n do\n  x = i\nendfor"))
        assert params == ["n"]

    def test_scalar_array_clash(self):
        with pytest.raises(FrontendError, match="both scalar and array"):
            analyze_names(parse_program("x = A\nA[1] = 2"))


class TestLowering:
    def test_executes_correctly(self):
        f = lower("s = 0\nfor i = 1 to n do\n  s = s + i\nendfor\nreturn s")
        assert Interpreter(f).run({"n": 10}).return_value == 55

    def test_verified(self):
        f = lower("x = 1\nif x > 0 then\n  y = 2\nelse\n  y = 3\nendif\nreturn y")
        verify_function(f)
        assert Interpreter(f).run({}).return_value == 2

    def test_loop_label_becomes_header(self):
        f = lower("L9: loop\n  break\nendloop")
        assert "L9" in f.blocks

    def test_label_spelled_like_a_generated_loop_label(self):
        f = lower("loop\n  break\nendloop\nloop1: loop\n  break\nendloop")
        assert "loop1" in f.blocks and "loop1.1" in f.blocks
        assert f.blocks["loop1"].terminator.target == "loop1.exit"

    def test_label_spelled_like_a_dead_block(self):
        f = lower("x = 1\nreturn x\ndead: loop\n  break\nendloop")
        assert "dead" in f.blocks
        assert f.blocks["dead"].terminator.target == "dead.exit"

    def test_label_spelled_like_the_entry_block(self):
        f = lower("i = 0\nentry: loop\n  i = i + 1\n  if i > 2 then\n    break\n  endif\nendloop\nreturn i")
        assert f.entry_label == "entry.1"
        assert Interpreter(f).run({}).return_value == 3

    def test_two_loops_with_one_label_are_rejected(self):
        with pytest.raises(FrontendError, match="duplicate loop label"):
            lower("L1: loop\n  break\nendloop\nL1: loop\n  break\nendloop")

    def test_while_executes(self):
        f = lower("i = 0\nwhile i < n do\n  i = i + 2\nendwhile\nreturn i")
        assert Interpreter(f).run({"n": 5}).return_value == 6
        assert Interpreter(f).run({"n": 0}).return_value == 0

    def test_for_downto(self):
        f = lower("s = 0\nfor i = n downto 1 do\n  s = s + i\nendfor\nreturn s")
        assert Interpreter(f).run({"n": 4}).return_value == 10

    def test_for_by_step(self):
        f = lower("s = 0\nfor i = 0 to 10 by 3 do\n  s = s + 1\nendfor\nreturn s")
        assert Interpreter(f).run({}).return_value == 4

    def test_for_zero_trips(self):
        f = lower("s = 9\nfor i = 5 to 1 do\n  s = 0\nendfor\nreturn s")
        assert Interpreter(f).run({}).return_value == 9

    def test_limit_evaluated_once(self):
        # Fortran DO semantics: reassigning the bound inside does not extend
        f = lower("n = 3\nc = 0\nfor i = 1 to n do\n  n = 100\n  c = c + 1\nendfor\nreturn c")
        assert Interpreter(f).run({}).return_value == 3

    def test_break_leaves_innermost(self):
        f = lower(
            "c = 0\nloop\n  loop\n    break\n  endloop\n  c = c + 1\n"
            "  if c > 2 then\n    break\n  endif\nendloop\nreturn c"
        )
        assert Interpreter(f).run({}).return_value == 3

    def test_break_outside_loop(self):
        with pytest.raises(FrontendError, match="break outside"):
            lower("break")

    def test_statements_after_break_are_dead(self):
        f = lower("loop\n  break\n  x = 1\nendloop\nreturn 5")
        assert Interpreter(f).run({}).return_value == 5

    def test_return_mid_program(self):
        f = lower("return 1\nx = 2")
        assert Interpreter(f).run({}).return_value == 1

    def test_multidim_store_load(self):
        f = lower("A[1, 2] = 7\nx = A[1, 2]\nreturn x")
        assert Interpreter(f).run({}).return_value == 7

    def test_short_circuit_and(self):
        f = lower(
            "x = 0\nif a > 0 and b > 0 then\n  x = 1\nendif\nreturn x"
        )
        assert Interpreter(f).run({"a": 1, "b": 1}).return_value == 1
        assert Interpreter(f).run({"a": 0, "b": 1}).return_value == 0
        assert Interpreter(f).run({"a": 1, "b": 0}).return_value == 0

    def test_short_circuit_or_not(self):
        f = lower("x = 0\nif not (a > 0) or b > 5 then\n  x = 1\nendif\nreturn x")
        assert Interpreter(f).run({"a": 0, "b": 0}).return_value == 1
        assert Interpreter(f).run({"a": 1, "b": 9}).return_value == 1
        assert Interpreter(f).run({"a": 1, "b": 0}).return_value == 0

    def test_exponent(self):
        f = lower("return 2 ** k")
        assert Interpreter(f).run({"k": 8}).return_value == 256

    def test_division_mod(self):
        f = lower("return (a / b) * 100 + a % b")
        assert Interpreter(f).run({"a": 17, "b": 5}).return_value == 302


class TestCompileSource:
    def test_loops_canonical(self):
        f = compile_source("i = 0\nL1: loop\n  i = i + 1\n  if i > n then\n    break\n  endif\nendloop")
        preds = f.predecessors_map()
        # canonical: header has exactly one outside + one inside predecessor
        assert len(preds["L1"]) == 2

    def test_for_header_shape(self):
        f = compile_source("L2: for i = 1 to n do\n  x = i\nendfor")
        header = f.block("L2")
        assert isinstance(header.instructions[-1], Compare)
        assert isinstance(header.terminator, Branch)


class TestContinue:
    def test_for_continue_still_increments(self):
        f = lower(
            "s = 0\nfor i = 1 to 10 do\n  if i % 2 == 0 then\n    continue\n  endif\n"
            "  s = s + i\nendfor\nreturn s"
        )
        assert Interpreter(f).run({}).return_value == 25  # 1+3+5+7+9

    def test_while_continue(self):
        f = lower(
            "s = 0\ni = 0\nwhile i < 8 do\n  i = i + 1\n  if i % 3 == 0 then\n"
            "    continue\n  endif\n  s = s + 1\nendwhile\nreturn s"
        )
        assert Interpreter(f).run({}).return_value == 6

    def test_loop_continue(self):
        f = lower(
            "s = 0\ni = 0\nloop\n  i = i + 1\n  if i > 8 then\n    break\n  endif\n"
            "  if i % 3 == 0 then\n    continue\n  endif\n  s = s + 1\nendloop\nreturn s"
        )
        assert Interpreter(f).run({}).return_value == 6

    def test_continue_targets_innermost(self):
        f = lower(
            "s = 0\nfor i = 1 to 3 do\n  for j = 1 to 3 do\n"
            "    if j == 2 then\n      continue\n    endif\n    s = s + 1\n  endfor\nendfor\nreturn s"
        )
        assert Interpreter(f).run({}).return_value == 6

    def test_continue_outside_loop(self):
        with pytest.raises(FrontendError, match="continue outside"):
            lower("continue")

    def test_iv_analysis_with_continue(self):
        """A continue must not break the IV family (the increment is in the
        latch, which every path reaches)."""
        from repro.pipeline import analyze

        p = analyze(
            "s = 0\nL1: for i = 1 to n do\n  if A[i] > 0 then\n    continue\n  endif\n"
            "  s = s + 1\nendfor"
        )
        assert p.classification(p.ssa_name("i", "L1")).describe() == "(L1, 1, 1)"


class TestForBoundsBeforeBinding:
    """The limit and step are read before the loop variable is bound
    (Fortran DO, CPython ``range``): a limit naming the loop variable
    sees its value before the loop.  Each case is compared against the
    equivalent CPython loop."""

    @staticmethod
    def _cpython(body):
        env = {"__builtins__": {"range": range}}
        exec("def f():\n" + body, env)
        return env["f"]()

    def test_limit_names_the_loop_variable(self):
        f = lower("i = 5\nc = 0\nfor i = 1 to i do\n  c = c + 1\nendfor\nreturn c")
        expected = self._cpython(
            "    i = 5\n    c = 0\n    for i in range(1, i + 1):\n        c = c + 1\n    return c\n"
        )
        assert expected == 5
        assert Interpreter(f).run({}).return_value == expected

    def test_limit_reassigned_in_body(self):
        f = lower(
            "n = 4\nc = 0\nfor i = 1 to n do\n  n = n + 1\n  c = c + 1\nendfor\nreturn c"
        )
        expected = self._cpython(
            "    n = 4\n    c = 0\n    for i in range(1, n + 1):\n"
            "        n = n + 1\n        c = c + 1\n    return c\n"
        )
        assert expected == 4
        assert Interpreter(f).run({}).return_value == expected

    def test_step_and_limit_name_the_loop_variable(self):
        f = lower(
            "i = 9\nc = 0\nfor i = 1 to i by i - 6 do\n  c = c + i\nendfor\nreturn c"
        )
        expected = self._cpython(
            "    i = 9\n    c = 0\n    for i in range(1, i + 1, i - 6):\n"
            "        c = c + i\n    return c\n"
        )
        assert Interpreter(f).run({}).return_value == expected == 1 + 4 + 7

    def test_trip_count_uses_the_limit_before_binding(self):
        from repro.pipeline import analyze

        p = analyze("i = 5\nc = 0\nL1: for i = 1 to i do\n  c = c + 1\nendfor")
        assert p.result.trip_count("L1").constant() == 5
