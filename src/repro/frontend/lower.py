"""Lowering: AST -> named (pre-SSA) IR.

Conventions that matter to the rest of the system:

* Loop labels from the source (``L18: loop``) become the loop-header block
  labels, so the classifier's results are phrased exactly like the paper's
  (``(L18, 1, 1)``).
* ``for v = lo to hi`` evaluates ``hi`` into a temporary *before* the loop
  header (once per loop entry), tests ``v <= hi`` (or ``>=`` for ``downto``)
  at the header, and increments in a dedicated latch block.  The exit test
  therefore precedes all body code, giving the classical countable-loop
  shape of section 5.2.
* ``loop ... endloop`` only exits through ``break``; a ``break`` guarded by
  ``if`` reproduces the paper's mid-loop exits (Figure 7), where code above
  the exit runs one more time than code below it.
* Temporaries are named ``$tN`` -- the ``$`` cannot appear in source
  identifiers, so there are no collisions.
* Generated block labels (``entry``, ``then``, ``dead``, ``loop1``, ...)
  are picked around every label the program spells, so any source label
  is valid once; only two loops with the same label are an error.
* Variables read before any (syntactically preceding) assignment become
  function parameters; names indexed with ``[...]`` become arrays.
  :func:`lower_ast` takes the parameters as an argument instead, for
  front ends that know their signature (:mod:`repro.pyfront` does).

Constructs that exist only in the AST, built by :mod:`repro.pyfront`:

* ``//`` and ``%%`` are floor division and floor modulo.  The IR's
  ``DIV`` truncates toward zero; ``a // b`` expands branch-free to
  ``q0 - (r0 != 0)*(sign(a) != sign(b))`` using the 0/1 results of
  ``Compare``, and ``a %% b`` is ``a - (a // b)*b``, so both match
  CPython exactly (and both trap on a zero divisor).
* A :class:`~repro.frontend.ast.CompareExpr` used as a value is its 0/1
  ``Compare`` result.
* A :class:`~repro.frontend.ast.ConstCondition` is an unconditional
  jump, so ``while True:`` keeps the paper's ``loop ... endloop`` shape.
* A :class:`~repro.frontend.ast.RangeLoop` has an exclusive limit: its
  header tests ``<`` (``>`` when downward).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.frontend import ast
from repro.frontend.lexer import FrontendError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Assign,
    BinOp,
    Branch,
    Compare,
    Jump,
    Load,
    Return,
    Store,
    UnOp,
)
from repro.ir.opcodes import BinaryOp, Relation
from repro.ir.values import Const, Ref, Value

from repro.obs.trace import traced
from repro.resilience.faultinject import fault_point

_BINOPS = {
    "+": BinaryOp.ADD,
    "-": BinaryOp.SUB,
    "*": BinaryOp.MUL,
    "/": BinaryOp.DIV,
    "%": BinaryOp.MOD,
    "**": BinaryOp.EXP,
}

_RELATIONS = {
    "<": Relation.LT,
    "<=": Relation.LE,
    ">": Relation.GT,
    ">=": Relation.GE,
    "==": Relation.EQ,
    "!=": Relation.NE,
}


def analyze_names(program: ast.Program) -> Tuple[List[str], List[str]]:
    """Infer (params, arrays) from use order, as documented above."""
    return _NameScan(program).names()


class _NameScan:
    """The source-order walk behind :func:`analyze_names`."""

    def __init__(self, program: ast.Program):
        self.params: List[str] = []
        self.arrays: List[str] = []
        self.written: Set[str] = set()
        #: every loop label the program spells
        self.labels: Set[str] = set()
        self.walk_body(program.body)

    def names(self) -> Tuple[List[str], List[str]]:
        clash = set(self.params) & set(self.arrays)
        if clash:
            raise FrontendError(0, 0, f"names used as both scalar and array: {sorted(clash)}")
        return self.params, self.arrays

    def note_read(self, name: str) -> None:
        if name not in self.written and name not in self.params:
            self.params.append(name)

    def note_array(self, name: str) -> None:
        if name not in self.arrays:
            self.arrays.append(name)

    def walk_expr(self, expr: ast.Expression) -> None:
        if isinstance(expr, ast.Name):
            self.note_read(expr.name)
        elif isinstance(expr, ast.ArrayRef):
            self.note_array(expr.array)
            for index in expr.indices:
                self.walk_expr(index)
        elif isinstance(expr, ast.BinaryExpr):
            self.walk_expr(expr.lhs)
            self.walk_expr(expr.rhs)
        elif isinstance(expr, ast.UnaryExpr):
            self.walk_expr(expr.operand)
        elif isinstance(expr, ast.CompareExpr):
            self.walk_cond(expr)

    def walk_cond(self, cond: ast.Condition) -> None:
        if isinstance(cond, ast.CompareExpr):
            self.walk_expr(cond.lhs)
            self.walk_expr(cond.rhs)
        elif isinstance(cond, ast.BoolExpr):
            self.walk_cond(cond.lhs)
            self.walk_cond(cond.rhs)
        elif isinstance(cond, ast.NotExpr):
            self.walk_cond(cond.operand)

    def walk_body(self, body: List[ast.Statement]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Loop, ast.WhileLoop, ast.ForLoop)) and stmt.label:
                self.labels.add(stmt.label)
            if isinstance(stmt, ast.Assign):
                self.walk_expr(stmt.value)
                self.written.add(stmt.target)
            elif isinstance(stmt, ast.StoreStmt):
                self.note_array(stmt.array)
                for index in stmt.indices:
                    self.walk_expr(index)
                self.walk_expr(stmt.value)
            elif isinstance(stmt, ast.If):
                self.walk_cond(stmt.condition)
                self.walk_body(stmt.then_body)
                self.walk_body(stmt.else_body)
            elif isinstance(stmt, ast.Loop):
                self.walk_body(stmt.body)
            elif isinstance(stmt, ast.WhileLoop):
                self.walk_cond(stmt.condition)
                self.walk_body(stmt.body)
            elif isinstance(stmt, ast.ForLoop):
                self.walk_expr(stmt.start)
                self.walk_expr(stmt.stop)
                if stmt.step is not None:
                    self.walk_expr(stmt.step)
                self.written.add(stmt.var)
                self.walk_body(stmt.body)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self.walk_expr(stmt.value)
            elif isinstance(stmt, ast.AssumeStmt):
                self.note_read(stmt.name)
            elif isinstance(stmt, ast.ArrayDecl):
                self.note_array(stmt.array)
                for extent in stmt.extents:
                    if isinstance(extent, str):
                        self.note_read(extent)


class _Lowerer:
    def __init__(self, name: str, program: ast.Program, params: Optional[List[str]]):
        scan = _NameScan(program)
        inferred, arrays = scan.names()
        params = inferred if params is None else params
        #: generated labels avoid these, so every source label is free
        self.labels = scan.labels
        self.function = Function(name, params=params, arrays=arrays)
        self.arrays = set(arrays)
        self.scalars: Set[str] = set(params)
        self.current: BasicBlock = self.function.add_block(self.fresh_label("entry"))
        self.temp_counter = 0
        self.loop_counter = 0
        self.exit_stack: List[str] = []  # break targets
        self.continue_stack: List[str] = []  # continue targets (latch/header)

    # ------------------------------------------------------------------
    def temp(self) -> str:
        self.temp_counter += 1
        return f"$t{self.temp_counter}"

    def fresh_label(self, hint: str) -> str:
        """``hint``, or ``hint.N``: unused, and not a label of the source."""
        label, counter = hint, 0
        while label in self.function.blocks or label in self.labels:
            counter += 1
            label = f"{hint}.{counter}"
        return label

    def new_block(self, hint: str) -> BasicBlock:
        return self.function.add_block(self.fresh_label(hint))

    def set_current(self, block: BasicBlock) -> None:
        self.current = block

    def loop_label(self, user_label: Optional[str]) -> str:
        if user_label is not None:
            if user_label in self.function.blocks:
                raise FrontendError(0, 0, f"duplicate loop label {user_label!r}")
            return user_label
        self.loop_counter += 1
        return self.fresh_label(f"loop{self.loop_counter}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def lower_expr(self, expr: ast.Expression, target: Optional[str] = None) -> Value:
        """Lower ``expr``; if ``target`` is given, the result is stored there."""
        if isinstance(expr, ast.IntLit):
            value: Value = Const(expr.value)
            if target is not None:
                self.current.append(Assign(target, value))
                return Ref(target)
            return value
        if isinstance(expr, ast.Name):
            if expr.name in self.arrays:
                raise FrontendError(0, 0, f"array {expr.name!r} used as a scalar")
            self.scalars.add(expr.name)
            value = Ref(expr.name)
            if target is not None:
                self.current.append(Assign(target, value))
                return Ref(target)
            return value
        if isinstance(expr, ast.ArrayRef):
            indices = [self.lower_expr(i) for i in expr.indices]
            result = target if target is not None else self.temp()
            self.current.append(Load(result, expr.array, indices))
            return Ref(result)
        if isinstance(expr, ast.BinaryExpr):
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs)
            if expr.op == "//":
                return self.floor_div(lhs, rhs, target)
            if expr.op == "%%":
                return self.floor_mod(lhs, rhs, target)
            result = target if target is not None else self.temp()
            self.current.append(BinOp(result, _BINOPS[expr.op], lhs, rhs))
            return Ref(result)
        if isinstance(expr, ast.CompareExpr):
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs)
            result = target if target is not None else self.temp()
            self.current.append(Compare(result, _RELATIONS[expr.relation], lhs, rhs))
            return Ref(result)
        if isinstance(expr, ast.UnaryExpr):
            operand = self.lower_expr(expr.operand)
            if isinstance(operand, Const):
                value = Const(-operand.value)
                if target is not None:
                    self.current.append(Assign(target, value))
                    return Ref(target)
                return value
            result = target if target is not None else self.temp()
            self.current.append(UnOp(result, operand))
            return Ref(result)
        raise FrontendError(0, 0, f"cannot lower expression {expr!r}")

    def floor_div(self, lhs: Value, rhs: Value, target: Optional[str] = None) -> Value:
        """Branch-free CPython floor division from truncating ``DIV``.

        ``q0 = trunc(a/b)``; the quotient needs one correction step when
        the division was inexact *and* the signs differ:
        ``a // b == q0 - (a - q0*b != 0) * ((a < 0) != (b < 0))``.
        """
        q0, back, rem, inexact, lhs_neg, rhs_neg, differ, fix = [self.temp() for _ in range(8)]
        emit = self.current.append
        emit(BinOp(q0, BinaryOp.DIV, lhs, rhs))
        emit(BinOp(back, BinaryOp.MUL, Ref(q0), rhs))
        emit(BinOp(rem, BinaryOp.SUB, lhs, Ref(back)))
        emit(Compare(inexact, Relation.NE, Ref(rem), Const(0)))
        emit(Compare(lhs_neg, Relation.LT, lhs, Const(0)))
        emit(Compare(rhs_neg, Relation.LT, rhs, Const(0)))
        emit(Compare(differ, Relation.NE, Ref(lhs_neg), Ref(rhs_neg)))
        emit(BinOp(fix, BinaryOp.MUL, Ref(inexact), Ref(differ)))
        result = target if target is not None else self.temp()
        emit(BinOp(result, BinaryOp.SUB, Ref(q0), Ref(fix)))
        return Ref(result)

    def floor_mod(self, lhs: Value, rhs: Value, target: Optional[str] = None) -> Value:
        """CPython ``%`` (sign follows the divisor): ``a - (a // b) * b``."""
        quotient = self.floor_div(lhs, rhs)
        back = self.temp()
        self.current.append(BinOp(back, BinaryOp.MUL, quotient, rhs))
        result = target if target is not None else self.temp()
        self.current.append(BinOp(result, BinaryOp.SUB, lhs, Ref(back)))
        return Ref(result)

    # ------------------------------------------------------------------
    # conditions (short-circuit)
    # ------------------------------------------------------------------
    def lower_condition(self, cond: ast.Condition, true_label: str, false_label: str) -> None:
        if isinstance(cond, ast.CompareExpr):
            lhs = self.lower_expr(cond.lhs)
            rhs = self.lower_expr(cond.rhs)
            result = self.temp()
            self.current.append(Compare(result, _RELATIONS[cond.relation], lhs, rhs))
            self.current.terminator = Branch(Ref(result), true_label, false_label)
            return
        if isinstance(cond, ast.NotExpr):
            self.lower_condition(cond.operand, false_label, true_label)
            return
        if isinstance(cond, ast.ConstCondition):
            self.current.terminator = Jump(true_label if cond.value else false_label)
            return
        if isinstance(cond, ast.BoolExpr):
            if cond.op == "and":
                mid = self.new_block("and")
                self.lower_condition(cond.lhs, mid.label, false_label)
                self.set_current(mid)
                self.lower_condition(cond.rhs, true_label, false_label)
            else:
                mid = self.new_block("or")
                self.lower_condition(cond.lhs, true_label, mid.label)
                self.set_current(mid)
                self.lower_condition(cond.rhs, true_label, false_label)
            return
        raise FrontendError(0, 0, f"cannot lower condition {cond!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def lower_body(self, body: List[ast.Statement]) -> None:
        for stmt in body:
            self.lower_statement(stmt)

    def lower_statement(self, stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.Assign):
            if stmt.target in self.arrays:
                raise FrontendError(0, 0, f"array {stmt.target!r} assigned as a scalar")
            self.scalars.add(stmt.target)
            self.lower_expr(stmt.value, target=stmt.target)
        elif isinstance(stmt, ast.StoreStmt):
            indices = [self.lower_expr(i) for i in stmt.indices]
            value = self.lower_expr(stmt.value)
            self.current.append(Store(stmt.array, indices, value))
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.Loop):
            self.lower_loop(stmt)
        elif isinstance(stmt, ast.WhileLoop):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.ForLoop):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.exit_stack:
                raise FrontendError(0, 0, "break outside of a loop")
            self.current.terminator = Jump(self.exit_stack[-1])
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.Continue):
            if not self.continue_stack:
                raise FrontendError(0, 0, "continue outside of a loop")
            self.current.terminator = Jump(self.continue_stack[-1])
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.Return):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self.current.terminator = Return(value)
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.AssumeStmt):
            # declarations, not code: recorded as function metadata
            if stmt.name in self.arrays:
                raise FrontendError(0, 0, f"cannot assume a range for array {stmt.name!r}")
            self.function.assumptions.append((stmt.name, stmt.relation, stmt.bound))
        elif isinstance(stmt, ast.ArrayDecl):
            if stmt.array not in self.arrays:
                self.arrays.add(stmt.array)
                self.function.arrays.append(stmt.array)
            self.function.array_extents[stmt.array] = stmt.extents
        else:
            raise FrontendError(0, 0, f"cannot lower statement {stmt!r}")

    def lower_if(self, stmt: ast.If) -> None:
        then_block = self.new_block("then")
        join_block = self.new_block("endif")
        if stmt.else_body:
            else_block = self.new_block("else")
            self.lower_condition(stmt.condition, then_block.label, else_block.label)
            self.set_current(else_block)
            self.lower_body(stmt.else_body)
            self.current.terminator = Jump(join_block.label)
        else:
            self.lower_condition(stmt.condition, then_block.label, join_block.label)
        self.set_current(then_block)
        self.lower_body(stmt.then_body)
        self.current.terminator = Jump(join_block.label)
        self.set_current(join_block)

    def lower_loop(self, stmt: ast.Loop) -> None:
        header_label = self.loop_label(stmt.label)
        header = self.function.add_block(header_label)
        exit_block = self.new_block(f"{header_label}.exit")
        self.current.terminator = Jump(header_label)
        self.set_current(header)
        self.exit_stack.append(exit_block.label)
        self.continue_stack.append(header_label)
        self.lower_body(stmt.body)
        self.continue_stack.pop()
        self.exit_stack.pop()
        self.current.terminator = Jump(header_label)
        self.set_current(exit_block)

    def lower_while(self, stmt: ast.WhileLoop) -> None:
        header_label = self.loop_label(stmt.label)
        header = self.function.add_block(header_label)
        body_block = self.new_block(f"{header_label}.body")
        exit_block = self.new_block(f"{header_label}.exit")
        self.current.terminator = Jump(header_label)
        self.set_current(header)
        self.lower_condition(stmt.condition, body_block.label, exit_block.label)
        self.set_current(body_block)
        self.exit_stack.append(exit_block.label)
        self.continue_stack.append(header_label)
        self.lower_body(stmt.body)
        self.continue_stack.pop()
        self.exit_stack.pop()
        self.current.terminator = Jump(header_label)
        self.set_current(exit_block)

    def lower_for(self, stmt: ast.ForLoop) -> None:
        if stmt.var in self.arrays:
            raise FrontendError(0, 0, f"array {stmt.var!r} used as a loop variable")
        self.scalars.add(stmt.var)
        # the (once-evaluated) limit & step, then the initial value: the
        # bounds are read before the loop variable is bound, so a limit
        # that names the loop variable sees its value before the loop
        limit = self.lower_expr(stmt.stop)
        if isinstance(limit, Ref) and not limit.name.startswith("$"):
            # copy into a temp so reassignment of the limit variable in the
            # body does not change the loop bound (Fortran DO semantics)
            fresh = self.temp()
            self.current.append(Assign(fresh, limit))
            limit = Ref(fresh)
        if stmt.step is not None:
            step = self.lower_expr(stmt.step)
        else:
            step = Const(-1) if stmt.downward else Const(1)
        if isinstance(step, Ref) and not step.name.startswith("$"):
            fresh = self.temp()
            self.current.append(Assign(fresh, step))
            step = Ref(fresh)
        self.lower_expr(stmt.start, target=stmt.var)

        header_label = self.loop_label(stmt.label)
        header = self.function.add_block(header_label)
        body_block = self.new_block(f"{header_label}.body")
        latch_block = self.new_block(f"{header_label}.latch")
        exit_block = self.new_block(f"{header_label}.exit")

        self.current.terminator = Jump(header_label)
        self.set_current(header)
        if isinstance(stmt, ast.RangeLoop):
            relation = Relation.GT if stmt.downward else Relation.LT
        else:
            relation = Relation.GE if stmt.downward else Relation.LE
        cond = self.temp()
        self.current.append(Compare(cond, relation, Ref(stmt.var), limit))
        self.current.terminator = Branch(Ref(cond), body_block.label, exit_block.label)

        self.set_current(body_block)
        self.exit_stack.append(exit_block.label)
        self.continue_stack.append(latch_block.label)
        self.lower_body(stmt.body)
        self.continue_stack.pop()
        self.exit_stack.pop()
        self.current.terminator = Jump(latch_block.label)

        self.set_current(latch_block)
        latch_block.append(BinOp(stmt.var, BinaryOp.ADD, Ref(stmt.var), step))
        latch_block.terminator = Jump(header_label)

        self.set_current(exit_block)


@traced("frontend.lower")
def lower_program(program: ast.Program, name: str = "main") -> Function:
    """Lower a parsed loop-language program to named IR."""
    fault_point("frontend.lower")
    return lower_ast(program, name)


def lower_ast(
    program: ast.Program, name: str = "main", params: Optional[List[str]] = None
) -> Function:
    """Lower an AST to named IR (with a final implicit ``return``).

    ``params`` is the signature; ``None`` infers it from use order.
    """
    lowerer = _Lowerer(name, program, params)
    lowerer.lower_body(program.body)
    if lowerer.current.terminator is None:
        lowerer.current.terminator = Return()
    # any dangling block (e.g. trailing dead block) gets a return
    for block in lowerer.function:
        if block.terminator is None:
            block.terminator = Return()
    from repro.ir.verify import verify_function

    verify_function(lowerer.function, ssa=False)
    return lowerer.function
