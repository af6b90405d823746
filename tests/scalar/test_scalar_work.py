"""Work bounds of the scalar passes, counted on their own helpers.

SCCP's lattice only descends, and BOTTOM is its last value: evaluating
an instruction whose result is already BOTTOM cannot change anything,
so SCCP must not do it.  The rewrites count changed operands without
printing them and touch only instructions that read a rewritten name.
"""

import pytest

from repro.frontend.source import compile_source
from repro.ir import instructions
from repro.ir.instructions import BinOp
from repro.ir.parser import parse_function
from repro.ir.values import Const, Ref
from repro.scalar import sccp
from repro.scalar.copyprop import propagate_copies
from repro.scalar.sccp import BOTTOM, run_sccp
from repro.ssa.construct import construct_ssa

CHAIN = 40


def _bottom_chain():
    lines = ["x0 = n"] + [f"x{k} = x{k - 1} + {k}" for k in range(1, CHAIN + 1)]
    f = compile_source("\n".join(lines + [f"return x{CHAIN}"]))
    construct_ssa(f)
    return f


def test_sccp_evaluates_each_bottom_binop_once(monkeypatch):
    f = _bottom_chain()
    binops = sum(isinstance(inst, BinOp) for block in f for inst in block)
    assert binops == CHAIN
    calls = []
    original = sccp._algebraic_identity

    def counting(op, lhs, rhs):
        calls.append(op)
        return original(op, lhs, rhs)

    monkeypatch.setattr(sccp, "_algebraic_identity", counting)
    result = run_sccp(f)
    assert len(calls) == binops
    assert all(result.values[inst.result] == BOTTOM for block in f for inst in block)


def _refuse_str(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} printed during a scalar pass")

    monkeypatch.setattr(Const, "__str__", refuse)
    monkeypatch.setattr(Ref, "__str__", refuse)


def test_sccp_rewrites_without_printing(monkeypatch):
    f = compile_source(
        "a = 2\nb = a + 3\ni = 0\n"
        "L1: while i < n do\n  i = i + b\n  A[i] = a * i\nendwhile\nreturn i + a"
    )
    construct_ssa(f)
    _refuse_str(monkeypatch)
    result = run_sccp(f)
    monkeypatch.undo()
    assert 5 in result.values.values()
    operands = [u for block in f for inst in block for u in inst.uses()]
    assert Const(5) in operands and Const(2) in operands
    assert all(not (isinstance(u, Ref) and result.constant_of(u.name) is not None) for u in operands)


def test_apply_counts_non_terminator_operands():
    f = parse_function(
        "func f(n) {\ne:\n  %a = copy 4\n  %b = add %a, %a\n  %c = mul %b, %n\n"
        "  branch %a, t, t\nt:\n  return %a\n}"
    )
    result = run_sccp(f, apply=False)
    # %b reads %a twice and %c reads %b once; the branch and return are not counted
    assert sccp.apply_sccp(f, result) == 3
    assert str(f.block("e").terminator) == "branch 4, t, t"


def test_copyprop_rewrites_without_printing(monkeypatch):
    f = parse_function(
        "func f(n) {\ne:\n  %a = copy %n\n  %b = copy %a\n  %c = add %b, %a\n  return %c\n}"
    )
    _refuse_str(monkeypatch)
    assert propagate_copies(f) == 3
    monkeypatch.undo()
    assert f.block("e").instructions[2].uses() == [Ref("n"), Ref("n")]


def test_copyprop_leaves_forwarded_code_alone(monkeypatch):
    f = parse_function(
        "func f(n) {\ne:\n  %a = copy %n\n  %b = copy %n\n  %c = add %n, 1\n"
        "  branch %c, t, t\nt:\n  return %n\n}"
    )
    for name in dir(instructions):
        cls = getattr(instructions, name)
        if isinstance(cls, type) and "replace_uses" in vars(cls):
            monkeypatch.setattr(cls, "replace_uses", _no_rewrite)
    assert propagate_copies(f) == 0


def _no_rewrite(self, mapping):
    pytest.fail(f"replace_uses called on {type(self).__name__}")
