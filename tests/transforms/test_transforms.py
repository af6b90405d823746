"""Tests for strength reduction, IV substitution, peeling, normalization.

Every transform is validated two ways: structurally (the expected shape
appears) and semantically (the interpreter observes identical results on a
spread of inputs).
"""

import pytest

from repro.frontend.source import compile_source
from repro.ir.clone import clone_function
from repro.ir.instructions import BinOp, Phi
from repro.ir.interp import Interpreter
from repro.ir.opcodes import BinaryOp
from repro.ir.verify import verify_function
from repro.pipeline import analyze_function
from repro.transforms import (
    materialize_expr,
    normalize_loop,
    peel_first_iteration,
    strength_reduce,
    substitute_induction_variables,
)


def equivalent(f1, f2, cases):
    for args in cases:
        r1 = Interpreter(f1).run(dict(args))
        r2 = Interpreter(f2).run(dict(args))
        assert r1.return_value == r2.return_value, args
        assert r1.arrays == r2.arrays, args


class TestMaterialize:
    def test_constant(self):
        from repro.ir.function import Function
        from repro.ir.values import Const
        from repro.symbolic.expr import Expr

        f = Function("f")
        block = f.add_block("entry")
        value, nxt = materialize_expr(f, block, 0, Expr.const(42))
        assert value == Const(42) and nxt == 0
        assert block.instructions == []

    def test_polynomial(self):
        from repro.ir.function import Function
        from repro.ir.instructions import Return
        from repro.symbolic.expr import Expr

        f = Function("f", params=["a", "b"])
        block = f.add_block("entry")
        expr = Expr.sym("a") * Expr.sym("a") * 3 + Expr.sym("b") * -1 + 7
        value, _ = materialize_expr(f, block, 0, expr)
        block.terminator = Return(value)
        result = Interpreter(f).run({"a": 5, "b": 2})
        assert result.return_value == 3 * 25 - 2 + 7

    def test_opaque_rejected(self):
        from repro.ir.function import Function
        from repro.symbolic.expr import Expr
        from repro.transforms.materialize import MaterializeError

        f = Function("f")
        block = f.add_block("entry")
        with pytest.raises(MaterializeError):
            materialize_expr(f, block, 0, Expr.sym("$k1"))

    def test_fractional_rejected(self):
        from fractions import Fraction
        from repro.ir.function import Function
        from repro.symbolic.expr import Expr
        from repro.transforms.materialize import MaterializeError

        f = Function("f")
        block = f.add_block("entry")
        with pytest.raises(MaterializeError):
            materialize_expr(f, block, 0, Expr.sym("x") * Fraction(1, 2))


class TestStrengthReduce:
    SOURCE = "L1: for i = 0 to n do\n  A[i * 8] = i\nendfor\nreturn 0"

    def reduced(self, source=None):
        p = __import__("repro.pipeline", fromlist=["analyze"]).analyze(source or self.SOURCE)
        loop = p.nest.loop_of_header("L1")
        records = strength_reduce(p.ssa, p.result, loop)
        verify_function(p.ssa, ssa=True)
        return p, records

    def test_multiplication_reduced(self):
        p, records = self.reduced()
        assert len(records) == 1
        muls = [
            i
            for b in p.ssa
            for i in b
            if isinstance(i, BinOp) and i.op is BinaryOp.MUL
        ]
        # the body multiplication is gone; only the latch add remains new
        assert muls == []

    def test_new_phi_in_header(self):
        p, records = self.reduced()
        phis = p.ssa.block("L1").phis()
        assert any(ph.result == records[0].new_phi for ph in phis)

    def test_semantics_preserved(self):
        from repro.pipeline import analyze

        p1 = analyze(self.SOURCE)
        p2, _ = self.reduced()
        equivalent(p1.ssa, p2.ssa, [{"n": k} for k in (0, 1, 5, 17)])

    def test_symbolic_invariant_multiplier(self):
        source = "L1: for i = 0 to n do\n  A[i * c] = i\nendfor\nreturn 0"
        from repro.pipeline import analyze

        p1 = analyze(source)
        p2, records = self.reduced(source)
        assert records
        equivalent(p1.ssa, p2.ssa, [{"n": 5, "c": 3}, {"n": 0, "c": -2}])

    def test_nothing_to_reduce(self):
        p, records = self.reduced("L1: for i = 0 to n do\n  A[i] = i\nendfor\nreturn 0")
        assert records == []


class TestIVSubstitution:
    def test_rewrites_to_closed_form(self):
        from repro.pipeline import analyze

        source = "s = b\nL1: for i = 0 to n do\n  s = s + 4\n  A[s] = i\nendfor\nreturn s"
        p1 = analyze(source)
        p2 = analyze(source)
        loop = p2.nest.loop_of_header("L1")
        rewritten = substitute_induction_variables(p2.ssa, p2.result, loop)
        assert rewritten
        verify_function(p2.ssa, ssa=True)
        equivalent(p1.ssa, p2.ssa, [{"n": k, "b": 3} for k in (0, 2, 9)])

    def test_nested_untouched(self):
        from repro.pipeline import analyze

        source = (
            "s = 0\nL1: for i = 0 to 5 do\n  L2: for j = 0 to 3 do\n    s = s + 1\n  endfor\nendfor\nreturn s"
        )
        p1 = analyze(source)
        p2 = analyze(source)
        loop = p2.nest.loop_of_header("L1")
        substitute_induction_variables(p2.ssa, p2.result, loop)
        verify_function(p2.ssa, ssa=True)
        equivalent(p1.ssa, p2.ssa, [{}])


class TestPeel:
    WRAP = (
        "iml = n\ns = 0\nL9: for i = 1 to n do\n  s = s + A[iml]\n  A[i] = i\n  iml = i\nendfor\nreturn s"
    )

    def test_semantics(self):
        named = compile_source(self.WRAP)
        peeled = clone_function(named)
        peel_first_iteration(peeled, "L9")
        verify_function(peeled)
        arrays = {"A": {(k,): k * 10 for k in range(12)}}
        for n in (0, 1, 2, 7):
            r1 = Interpreter(named).run({"n": n}, {k: dict(v) for k, v in arrays.items()})
            r2 = Interpreter(peeled).run({"n": n}, {k: dict(v) for k, v in arrays.items()})
            assert r1.return_value == r2.return_value
            assert r1.arrays == r2.arrays

    def test_wraparound_becomes_iv(self):
        """The paper's motivation: after peeling, the wrap-around variable
        'is replaced with the appropriate induction variable'."""
        from repro.core.classes import InductionVariable, WrapAround

        named = compile_source(self.WRAP)
        before = analyze_function(named)
        iml_before = before.classification(before.ssa_name("iml", "L9"))
        assert isinstance(iml_before, WrapAround)

        peeled = clone_function(named)
        peel_first_iteration(peeled, "L9")
        after = analyze_function(peeled)
        iml_after = after.classification(after.ssa_name("iml", "L9"))
        assert isinstance(iml_after, InductionVariable)

    def test_requires_named_ir(self):
        from repro.ir.function import IRError
        from repro.pipeline import analyze

        p = analyze(self.WRAP)
        with pytest.raises(IRError, match="named"):
            peel_first_iteration(p.ssa, "L9")

    def test_requires_existing_loop(self):
        from repro.ir.function import IRError

        named = compile_source(self.WRAP)
        with pytest.raises(IRError, match="no loop"):
            peel_first_iteration(named, "nope")


class TestNormalize:
    def test_equivalence_sweep(self):
        named = compile_source(
            "s = 0\nL5: for i = 2 to m by 3 do\n  s = s + i\nendfor\nreturn s"
        )
        normalized = clone_function(named)
        assert normalize_loop(normalized, "L5") is not None
        verify_function(normalized)
        equivalent(named, normalized, [{"m": v} for v in range(-3, 15)])

    def test_downward(self):
        named = compile_source(
            "s = 0\nL5: for i = m downto 1 by -2 do\n  s = s + i\nendfor\nreturn s"
        )
        normalized = clone_function(named)
        assert normalize_loop(normalized, "L5") is not None
        equivalent(named, normalized, [{"m": v} for v in range(-2, 12)])

    def test_analysis_same_after_normalization(self):
        """Section 6.1: the classification is invariant under normalization."""
        named = compile_source(
            "L5: for i = 2 to m by 3 do\n  A[i] = 0\nendfor"
        )
        normalized = clone_function(named)
        normalize_loop(normalized, "L5")
        p1 = analyze_function(named)
        p2 = analyze_function(normalized)
        iv1 = p1.classification(p1.ssa_name("i", "L5"))
        # after normalization `i` is recomputed in the body; find its class
        recomputed = [
            p2.classification(n)
            for n in p2.ssa_names("i")
            if p2.result.defining_loop(n) is not None
        ]
        assert any(c == iv1 for c in recomputed)

    def test_non_counted_loop_returns_none(self):
        named = compile_source(
            "i = 0\nL1: loop\n  i = i + 1\n  if A[i] > 0 then\n    break\n  endif\nendloop"
        )
        assert normalize_loop(named, "L1") is None


class TestUnroll:
    def test_constant_trip_unrolled(self):
        from repro.transforms import fully_unroll

        named = compile_source(
            "s = 0\nL1: for i = 1 to 5 do\n  s = s + i\n  A[i] = s\nendfor\nreturn s"
        )
        reference = Interpreter(clone_function(named)).run({})
        count = fully_unroll(named, "L1")
        assert count == 5
        result = Interpreter(named).run({})
        assert result.return_value == reference.return_value == 15
        assert result.arrays == reference.arrays
        # 5 peeled copies of the header exist (L1.peel, L1.peel.1, ...)
        peeled_headers = [
            label for label in named.blocks if label.startswith("L1.peel")
        ]
        assert len(peeled_headers) == 5

    def test_mid_exit_loop_unrolls_correctly(self):
        """The Figure 7 shape: increments above the exit run tc+1 times."""
        from repro.transforms import fully_unroll

        source = (
            "k = 0\ni = 1\nL18: loop\n  k = k + 2\n  if i > 4 then\n    break\n  endif\n"
            "  i = i + 1\nendloop\nreturn k"
        )
        named = compile_source(source)
        reference = Interpreter(clone_function(named)).run({})
        count = fully_unroll(named, "L18")
        assert count == 4
        assert Interpreter(named).run({}).return_value == reference.return_value == 10

    def test_symbolic_trip_refused(self):
        from repro.transforms import fully_unroll

        named = compile_source("s = 0\nL1: for i = 1 to n do\n  s = s + 1\nendfor\nreturn s")
        assert fully_unroll(named, "L1") is None
        # untouched
        assert not any(".peel" in label for label in named.blocks)

    def test_above_limit_refused(self):
        from repro.transforms import fully_unroll

        named = compile_source("s = 0\nL1: for i = 1 to 100 do\n  s = s + 1\nendfor\nreturn s")
        assert fully_unroll(named, "L1", max_trips=16) is None

    def test_zero_trip_loop(self):
        from repro.transforms import fully_unroll

        named = compile_source("s = 7\nL1: for i = 5 to 1 do\n  s = 0\nendfor\nreturn s")
        count = fully_unroll(named, "L1")
        assert count == 0
        assert Interpreter(named).run({}).return_value == 7
