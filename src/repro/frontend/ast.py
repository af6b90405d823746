"""Abstract syntax of the loop language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expression:
    """Base class for arithmetic expressions."""


@dataclass(frozen=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True)
class Name(Expression):
    name: str


@dataclass(frozen=True)
class ArrayRef(Expression):
    array: str
    indices: Tuple[Expression, ...]


@dataclass(frozen=True)
class BinaryExpr(Expression):
    op: str  # '+', '-', '*', '/', '%', '**'; AST-only: '//', '%%' (floor)
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class UnaryExpr(Expression):
    op: str  # '-'
    operand: Expression


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------
class Condition:
    """Base class for boolean conditions (short-circuit lowered)."""


@dataclass(frozen=True)
class CompareExpr(Condition, Expression):
    """A branch condition, or (AST-only) the 0/1 value of the comparison."""

    relation: str  # '<', '<=', '>', '>=', '==', '!='
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class ConstCondition(Condition):
    """AST-only: a condition known while lowering (``while True``)."""

    value: bool


@dataclass(frozen=True)
class BoolExpr(Condition):
    op: str  # 'and' | 'or'
    lhs: Condition
    rhs: Condition


@dataclass(frozen=True)
class NotExpr(Condition):
    operand: Condition


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Statement:
    """Base class for statements."""


@dataclass
class Assign(Statement):
    target: str
    value: Expression


@dataclass
class StoreStmt(Statement):
    array: str
    indices: Tuple[Expression, ...]
    value: Expression


@dataclass
class If(Statement):
    condition: Condition
    then_body: List[Statement]
    else_body: List[Statement] = field(default_factory=list)


@dataclass
class Loop(Statement):
    """``loop ... endloop``: exits only via ``break``/``return``."""

    body: List[Statement]
    label: Optional[str] = None


@dataclass
class WhileLoop(Statement):
    condition: Condition
    body: List[Statement]
    label: Optional[str] = None


@dataclass
class ForLoop(Statement):
    var: str
    start: Expression
    stop: Expression
    body: List[Statement]
    downward: bool = False
    step: Optional[Expression] = None  # default 1 (or -1 when downward)
    label: Optional[str] = None


@dataclass
class RangeLoop(ForLoop):
    """AST-only: ``stop`` is exclusive, like Python's ``range``."""


@dataclass
class Break(Statement):
    pass


@dataclass
class Continue(Statement):
    pass


@dataclass
class Return(Statement):
    value: Optional[Expression] = None


@dataclass
class AssumeStmt(Statement):
    """``assume n <= 50``: a range fact about a parameter, no code."""

    name: str
    relation: str  # '<', '<=', '>', '>=', '=='
    bound: int


@dataclass
class ArrayDecl(Statement):
    """``array A[10]`` / ``array A[n, 20]``: declared extents, no code."""

    array: str
    extents: Tuple[object, ...]  # int literals or parameter names


@dataclass
class Program:
    body: List[Statement]
