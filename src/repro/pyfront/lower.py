"""Lower a subset of real CPython functions (stdlib ``ast``) to named IR.

The supported subset is exactly what the IR can execute with identical
semantics to CPython on int inputs (the differential oracle in
``tests/pyfront/test_differential.py`` holds the frontend to that):

* ``def`` with positional int / list-of-int parameters
* ``for i in range(...)`` (1/2/3-arg, constant step), ``for x in xs``
* ``while`` / ``if`` / ``elif`` / ``else`` / ``break`` / ``continue``
* int ``+ - * // %``, unary ``-``, augmented assigns, comparisons
  (including chained), ``and`` / ``or`` / ``not`` in conditions
* list subscript loads and stores (constant negative indices included),
  ``len()``
* ``assert`` bounds of the shapes ``assert n <op> literal`` and
  ``assert len(a) <op> literal``, recorded as range assumptions

Everything else **degrades, never raises**: validation collects one
:class:`~repro.resilience.isolation.DegradationRecord` per unsupported
construct (the ``PYF4xx`` diagnostic family) and the function is skipped.
Ingesting an arbitrary package is therefore total -- the corpus driver
(:mod:`repro.pyfront.driver`) leans on that to walk real packages.

Semantics notes (where CPython and the IR disagree and how it's bridged):

* ``//`` floors while the IR's ``DIV`` truncates toward zero; ``a // b``
  expands branch-free to ``q0 - (r0 != 0)*(sign(a) != sign(b))`` using
  the 0/1 results of ``Compare``.  ``%`` derives from that quotient, so
  both match CPython exactly (and both trap on a zero divisor).
* ``for i in range(...)`` lowers to the classical counted-loop shape
  (init / header compare / latch increment).  After the loop CPython
  keeps the *last yielded* value while the counted shape overshoots by
  one step, so a loop variable that is read after its loop (or written
  inside it) degrades the function (``PYF405``) instead of miscompiling.
* ``for x in xs`` lowers to a hidden counter plus a body-top ``Load``;
  the post-loop binding of ``x`` matches CPython, so only in-body writes
  to ``x`` degrade.
* A list parameter ``a`` becomes an IR array plus a synthetic length
  parameter ``a$len`` (``$`` cannot appear in Python identifiers) with
  the assumption ``a$len >= 0``; ``len(a)`` reads it and ``a[-k]``
  rewrites to ``a[a$len - k]``.
"""

from __future__ import annotations

import ast
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from repro.pyfront.typeinfer import INT, LIST, Kinds, all_args, infer_kinds
from repro.resilience.isolation import DegradationRecord

__all__ = [
    "LEN_SUFFIX",
    "CompiledFunction",
    "ModuleCompilation",
    "compile_function",
    "compile_module",
]

#: suffix of the synthetic length parameter of a list parameter
LEN_SUFFIX = "$len"

_BINOPS = {
    ast.Add: BinaryOp.ADD,
    ast.Sub: BinaryOp.SUB,
    ast.Mult: BinaryOp.MUL,
}

_RELATIONS = {
    ast.Lt: ("<", Relation.LT),
    ast.LtE: ("<=", Relation.LE),
    ast.Gt: (">", Relation.GT),
    ast.GtE: (">=", Relation.GE),
    ast.Eq: ("==", Relation.EQ),
    ast.NotEq: ("!=", Relation.NE),
}

#: comparison relations the range analysis consumes as assumptions
_ASSUMABLE = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class CompiledFunction:
    """One Python function: lowered IR, or the reasons it degraded."""

    qualname: str
    origin: str
    lineno: int
    #: parameter names with inferred kinds, in signature order
    params: List[Tuple[str, str]] = field(default_factory=list)
    #: the named IR, or ``None`` when the function degraded
    function: Optional[Function] = None
    #: one record per unsupported construct (PYF4xx), plus dropped-assert
    #: notes; non-empty degradations with ``function is None`` mean skipped
    degradations: List[DegradationRecord] = field(default_factory=list)
    #: the def that :attr:`source` is unparsed from
    node: InitVar[Optional[ast.AST]] = None
    _node: Optional[ast.AST] = field(default=None, init=False, repr=False, compare=False)
    _source: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, node: Optional[ast.AST]) -> None:
        self._node = node

    @property
    def ok(self) -> bool:
        return self.function is not None

    @property
    def source(self) -> Optional[str]:
        """Clean re-rendered source (``ast.unparse``) for the oracle / runlog.

        Unparsed on first read, then kept; the def node is released then.
        Most functions degrade and are never read, so they never pay.
        """
        if self._node is not None:
            node, self._node = self._node, None
            try:
                self._source = ast.unparse(node)
            except Exception:  # noqa: BLE001 - unparse is best-effort metadata
                self._source = None
        return self._source


@dataclass
class ModuleCompilation:
    """Every function of one Python file, compiled or degraded."""

    origin: str
    functions: List[CompiledFunction] = field(default_factory=list)
    #: the PYF406 record of an unparseable file (``functions`` is empty)
    error: Optional[DegradationRecord] = None

    @property
    def degradations(self) -> List[DegradationRecord]:
        out = [self.error] if self.error is not None else []
        for compiled in self.functions:
            out.extend(compiled.degradations)
        return out


class _Unsupported(Exception):
    """Internal: a construct slipped past validation into the lowerer."""


def _record(
    diag_code: str,
    code: str,
    message: str,
    scope: str,
    action: str = "skipped",
) -> DegradationRecord:
    return DegradationRecord(
        phase="pyfront.lower",
        code=code,
        message=message,
        diag_code=diag_code,
        scope=scope,
        action=action,
    )


def _const_int(node: ast.AST) -> Optional[int]:
    """The value of an int literal (allowing a leading unary minus)."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is int
    ):
        return -node.operand.value if isinstance(node.op, ast.USub) else node.operand.value
    return None


def _is_none(node: Optional[ast.AST]) -> bool:
    return node is None or (isinstance(node, ast.Constant) and node.value is None)


def _describe(node: ast.AST) -> str:
    kind = type(node).__name__
    lineno = getattr(node, "lineno", None)
    return f"{kind} (line {lineno})" if lineno is not None else kind


def _len_call(node: ast.AST) -> Optional[str]:
    """The list name of a ``len(name)`` call, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Name)
    ):
        return node.args[0].id
    return None


# ----------------------------------------------------------------------
# validation: collect every unsupported construct, never raise
# ----------------------------------------------------------------------
class _Validator:
    """Walks one function and records every construct the IR can't carry.

    Collecting *all* problems (instead of failing fast) is what gives the
    corpus driver per-construct degradation records.
    """

    def __init__(
        self,
        node: ast.FunctionDef,
        nodes: Sequence[ast.AST],
        kinds: Kinds,
        scope: str,
    ):
        self.node = node
        #: ``list(ast.walk(node))``, shared with kind inference
        self.nodes = nodes
        self.kinds = kinds
        self.scope = scope
        self.records: List[DegradationRecord] = []
        self.loop_depth = 0
        self.params = [a.arg for a in all_args(node)]

    # -- recording -----------------------------------------------------
    def problem(self, diag_code: str, code: str, message: str) -> None:
        self.records.append(_record(diag_code, code, message, self.scope))

    def note(self, code: str, message: str) -> None:
        self.records.append(
            _record("PYF407", code, message, self.scope, action="dropped")
        )

    # -- entry ---------------------------------------------------------
    def run(self) -> List[DegradationRecord]:
        node = self.node
        if node.decorator_list:
            self.problem(
                "PYF401", "decorated-function",
                f"decorated function {self.scope!r} is not lowered",
            )
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs:
            self.problem(
                "PYF403", "unsupported-signature",
                f"{self.scope!r} takes *args/**kwargs/keyword-only "
                "parameters; only positional int/list parameters lower",
            )
        for name, why_int, why_list in self.kinds.conflicts:
            self.problem(
                "PYF404", "kind-conflict",
                f"{name!r} is {why_int} and {why_list}; names must be "
                "either int scalars or list-of-int parameters",
            )
        for name, kind in self.kinds.kinds.items():
            if kind == LIST and name not in self.params:
                self.problem(
                    "PYF404", "local-list",
                    f"{name!r} is used as a list but is not a parameter; "
                    "only list parameters are modeled as arrays",
                )
        self.body(node.body)
        self.check_loop_targets()
        return self.records

    # -- statements ----------------------------------------------------
    def body(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self.statement(statement)

    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            if not _is_none(stmt.value):
                self.int_expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self.target(target)
            self.int_expr(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self.target(stmt.target)
            if stmt.value is not None:
                self.int_expr(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.target(stmt.target, augmented=True)
            if type(stmt.op) not in _BINOPS and not isinstance(
                stmt.op, (ast.FloorDiv, ast.Mod)
            ):
                self.problem(
                    "PYF401", "unsupported-augassign",
                    f"augmented {type(stmt.op).__name__} at line "
                    f"{stmt.lineno}; only += -= *= //= %= lower",
                )
            self.int_expr(stmt.value)
        elif isinstance(stmt, ast.If):
            self.condition(stmt.test)
            self.body(stmt.body)
            self.body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.condition(stmt.test)
            if stmt.orelse:
                self.problem(
                    "PYF401", "loop-else",
                    f"while-else at line {stmt.lineno} is not lowered",
                )
            self.loop_depth += 1
            self.body(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.For):
            self.for_loop(stmt)
        elif isinstance(stmt, ast.Expr):
            if not isinstance(stmt.value, ast.Constant):
                self.problem(
                    "PYF401", "expression-statement",
                    f"expression statement {_describe(stmt.value)} has no "
                    "IR effect (calls are not supported)",
                )
        elif isinstance(stmt, ast.Assert):
            if _assert_bound(stmt.test, self.kinds) is None:
                self.note(
                    "assert-dropped",
                    f"assert at line {stmt.lineno} is not a recognized "
                    "bound shape; dropped",
                )
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                self.problem(
                    "PYF401", "break-outside-loop",
                    f"{type(stmt).__name__.lower()} outside a loop at "
                    f"line {stmt.lineno}",
                )
        else:
            self.problem(
                "PYF401", f"unsupported-statement:{type(stmt).__name__}",
                f"unsupported statement {_describe(stmt)}",
            )

    def for_loop(self, stmt: ast.For) -> None:
        if stmt.orelse:
            self.problem(
                "PYF401", "loop-else",
                f"for-else at line {stmt.lineno} is not lowered",
            )
        if not isinstance(stmt.target, ast.Name):
            self.problem(
                "PYF401", "unsupported-loop-target",
                f"for target {_describe(stmt.target)}; only a plain name "
                "is supported",
            )
        iterable = stmt.iter
        if isinstance(iterable, ast.Name):
            if not self.kinds.is_list(iterable.id):
                self.problem(
                    "PYF402", "unsupported-iterable",
                    f"iterating non-list {iterable.id!r} at line "
                    f"{stmt.lineno}",
                )
        elif _range_call(iterable) is not None:
            args = iterable.args
            for arg in args:
                self.int_expr(arg)
            if len(args) == 3 and (_const_int(args[2]) or 0) == 0:
                self.problem(
                    "PYF401", "non-constant-range-step",
                    f"range() step at line {stmt.lineno} must be a "
                    "non-zero int literal",
                )
        else:
            self.problem(
                "PYF402", "unsupported-iterable",
                f"for iterates {_describe(iterable)}; only range(...) "
                "and list parameters are supported",
            )
        self.loop_depth += 1
        self.body(stmt.body)
        self.loop_depth -= 1

    def target(self, node: ast.expr, augmented: bool = False) -> None:
        if isinstance(node, ast.Name):
            return
        if isinstance(node, ast.Subscript):
            self.subscript(node)
            return
        self.problem(
            "PYF401", "unsupported-target",
            f"assignment target {_describe(node)}; only names and "
            "list subscripts are supported",
        )

    # -- expressions ---------------------------------------------------
    def int_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, bool):
                self.problem(
                    "PYF402", "non-int-literal",
                    f"literal {node.value!r} at line {node.lineno}; only "
                    "int and bool literals lower",
                )
        elif isinstance(node, ast.Name):
            self.name_use(node)
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS and not isinstance(
                node.op, (ast.FloorDiv, ast.Mod)
            ):
                self.problem(
                    "PYF402", f"unsupported-operator:{type(node.op).__name__}",
                    f"operator {type(node.op).__name__} at line "
                    f"{node.lineno}; only + - * // % lower",
                )
            self.int_expr(node.left)
            self.int_expr(node.right)
        elif isinstance(node, ast.UnaryOp):
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                self.int_expr(node.operand)
            else:
                self.problem(
                    "PYF402", f"unsupported-operator:{type(node.op).__name__}",
                    f"unary {type(node.op).__name__} at line {node.lineno} "
                    "is not an integer expression",
                )
        elif isinstance(node, ast.Subscript):
            self.subscript(node)
        elif isinstance(node, ast.Call):
            if _len_call(node) is None:
                self.problem(
                    "PYF402", "unsupported-call",
                    f"call {_describe(node)}; only len(list_param) and a "
                    "for-loop's range(...) are supported",
                )
        elif isinstance(node, ast.Compare):
            if len(node.ops) == 1:
                self.int_expr(node.left)
                self.int_expr(node.comparators[0])
                self.relation(node.ops[0], node)
            else:
                self.problem(
                    "PYF402", "chained-compare-value",
                    f"chained comparison at line {node.lineno} used as a "
                    "value (supported only as a branch condition)",
                )
        else:
            self.problem(
                "PYF402", f"unsupported-expression:{type(node).__name__}",
                f"unsupported expression {_describe(node)}",
            )

    def subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.value, ast.Name):
            self.problem(
                "PYF402", "unsupported-subscript-base",
                f"subscript base {_describe(node.value)}; only list "
                "parameters are subscriptable",
            )
            return
        index = node.slice
        if isinstance(index, ast.Slice):
            self.problem(
                "PYF402", "slice",
                f"slice of {node.value.id!r} at line {node.lineno}; only "
                "single int indices are supported",
            )
            return
        self.int_expr(index)

    def name_use(self, node: ast.Name) -> None:
        name = node.id
        if self.kinds.is_list(name):
            self.problem(
                "PYF402", "list-as-value",
                f"list {name!r} used as a value at line {node.lineno} "
                "(only element loads/stores and len() are supported)",
            )
            return
        if (
            name not in self.params
            and name not in self.kinds.assigned
            and name not in ("True", "False")
        ):
            self.problem(
                "PYF402", "free-variable",
                f"free variable {name!r} at line {node.lineno}; globals "
                "and closures are not modeled",
            )

    def relation(self, op: ast.cmpop, node: ast.Compare) -> None:
        if type(op) not in _RELATIONS:
            self.problem(
                "PYF402", f"unsupported-comparison:{type(op).__name__}",
                f"comparison {type(op).__name__} at line {node.lineno}; "
                "only < <= > >= == != lower",
            )

    def condition(self, node: ast.expr) -> None:
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.condition(value)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self.condition(node.operand)
        elif isinstance(node, ast.Compare):
            self.int_expr(node.left)
            for op, comparator in zip(node.ops, node.comparators):
                self.relation(op, node)
                self.int_expr(comparator)
        else:
            self.int_expr(node)  # int truthiness: lowered as  != 0

    # -- loop-variable escape checks (see module docstring) ------------
    def check_loop_targets(self) -> None:
        loops = [
            child
            for child in self.nodes
            if isinstance(child, ast.For) and isinstance(child.target, ast.Name)
        ]
        if not loops:
            return
        # every Name node of each loop variable, in walk order
        names: Dict[str, List[ast.Name]] = {loop.target.id: [] for loop in loops}
        for child in self.nodes:
            if isinstance(child, ast.Name) and child.id in names:
                names[child.id].append(child)
        # the variable's Name nodes inside the *body* of a loop over it:
        # reads there see that loop's fresh per-iteration binding, so a
        # later same-named loop "shields" reads inside its own body
        shielded: Dict[str, Set[int]] = {var: set() for var in names}
        subtrees: List[Set[int]] = []
        for loop in loops:
            var = loop.target.id
            body = _name_ids(loop.body, var)
            shielded[var] |= body
            subtrees.append(body | _name_ids([loop.target, loop.iter, *loop.orelse], var))
        for loop, subtree in zip(loops, subtrees):
            var = loop.target.id
            end = (loop.end_lineno or loop.lineno, loop.end_col_offset or 0)
            is_range = _range_call(loop.iter) is not None
            for child in names[var]:
                if isinstance(child.ctx, ast.Store):
                    if id(child) in subtree and child is not loop.target:
                        self.problem(
                            "PYF405", "loop-variable-reassigned",
                            f"loop variable {var!r} is reassigned inside "
                            f"its loop (line {child.lineno}); the counted "
                            "shape would diverge from CPython",
                        )
                elif is_range and id(child) not in subtree:
                    position = (child.lineno, child.col_offset)
                    if position > end and id(child) not in shielded[var]:
                        self.problem(
                            "PYF405", "loop-variable-read-after-loop",
                            f"loop variable {var!r} is read after its loop "
                            f"(line {child.lineno}); its post-loop value "
                            "differs from CPython's",
                        )


def _name_ids(roots: Sequence[ast.AST], name: str) -> Set[int]:
    """The ids of every ``Name`` node spelling ``name`` under ``roots``."""
    return {
        id(child)
        for root in roots
        for child in ast.walk(root)
        if isinstance(child, ast.Name) and child.id == name
    }


def _range_call(node: ast.AST) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and not node.keywords
        and 1 <= len(node.args) <= 3
    ):
        return node
    return None


def _assert_bound(
    test: ast.expr, kinds: Kinds
) -> Optional[Tuple[str, str, int, bool]]:
    """Decode ``assert`` shapes into ``(name, relation, bound, is_len)``.

    Supported: ``name <op> literal``, ``literal <op> name``,
    ``len(a) <op> literal``, ``literal <op> len(a)`` with a relational
    ``<op>`` the range analysis consumes.  Returns None otherwise.
    """
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = type(test.ops[0])
    if op not in _RELATIONS:
        return None
    relation = _RELATIONS[op][0]
    if relation not in _ASSUMABLE:
        return None
    left, right = test.left, test.comparators[0]
    flipped = False
    if _const_int(left) is not None:
        left, right = right, left
        flipped = True
    bound = _const_int(right)
    if bound is None:
        return None
    if flipped:
        relation = _ASSUMABLE[relation]
    array = _len_call(left)
    if array is not None:
        return (array, relation, bound, True)
    if isinstance(left, ast.Name) and not kinds.is_list(left.id):
        return (left.id, relation, bound, False)
    return None


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
class _PyLowerer:
    """AST -> named IR for one pre-validated function."""

    def __init__(self, node: ast.FunctionDef, kinds: Kinds, name: str):
        self.node = node
        self.kinds = kinds
        params: List[str] = []
        arrays: List[str] = []
        for arg in all_args(node):
            if kinds.is_list(arg.arg):
                arrays.append(arg.arg)
                params.append(arg.arg + LEN_SUFFIX)
            else:
                params.append(arg.arg)
        self.function = Function(name, params=params, arrays=arrays)
        for array in arrays:
            self.function.array_extents[array] = [array + LEN_SUFFIX]
            self.function.assumptions.append((array + LEN_SUFFIX, ">=", 0))
        self.current: BasicBlock = self.function.add_block("entry")
        self.temp_counter = 0
        self.exit_stack: List[str] = []
        self.continue_stack: List[str] = []

    # -- plumbing ------------------------------------------------------
    def temp(self) -> str:
        self.temp_counter += 1
        return f"$t{self.temp_counter}"

    def new_block(self, hint: str) -> BasicBlock:
        return self.function.add_block(self.function.fresh_label(hint))

    def set_current(self, block: BasicBlock) -> None:
        self.current = block

    def loop_header(self, lineno: int) -> BasicBlock:
        # line-numbered headers phrase findings like the paper phrases
        # classifications: "(L12, 0, 1)" points at the source line
        return self.function.add_block(self.function.fresh_label(f"L{lineno}"))

    # -- expressions ---------------------------------------------------
    def lower_expr(self, node: ast.expr, target: Optional[str] = None) -> Value:
        constant = _const_int(node)
        if constant is None and isinstance(node, ast.Constant):
            if type(node.value) is bool:
                constant = int(node.value)
        if constant is not None:
            return self.place(Const(constant), target)
        if isinstance(node, ast.Name):
            return self.place(Ref(node.id), target)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = self.lower_expr(node.operand)
            if isinstance(node.op, ast.UAdd):
                return self.place(operand, target)
            result = target if target is not None else self.temp()
            self.current.append(UnOp(result, operand))
            return Ref(result)
        if isinstance(node, ast.BinOp):
            lhs = self.lower_expr(node.left)
            rhs = self.lower_expr(node.right)
            if isinstance(node.op, ast.FloorDiv):
                return self.floor_div(lhs, rhs, target)
            if isinstance(node.op, ast.Mod):
                return self.floor_mod(lhs, rhs, target)
            result = target if target is not None else self.temp()
            self.current.append(BinOp(result, _BINOPS[type(node.op)], lhs, rhs))
            return Ref(result)
        if isinstance(node, ast.Subscript):
            array = node.value.id  # validated: Name of list kind
            index = self.lower_index(node.slice, array)
            result = target if target is not None else self.temp()
            self.current.append(Load(result, array, [index]))
            return Ref(result)
        if isinstance(node, ast.Call):
            array = _len_call(node)
            if array is not None:
                return self.place(Ref(array + LEN_SUFFIX), target)
            raise _Unsupported(_describe(node))
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            lhs = self.lower_expr(node.left)
            rhs = self.lower_expr(node.comparators[0])
            relation = _RELATIONS[type(node.ops[0])][1]
            result = target if target is not None else self.temp()
            self.current.append(Compare(result, relation, lhs, rhs))
            return Ref(result)
        raise _Unsupported(_describe(node))

    def place(self, value: Value, target: Optional[str]) -> Value:
        if target is None:
            return value
        self.current.append(Assign(target, value))
        return Ref(target)

    def lower_index(self, node: ast.expr, array: str) -> Value:
        constant = _const_int(node)
        if constant is not None and constant < 0:
            # a[-k]  ->  a[a$len - k]  (CPython raises for len(a) < k,
            # where the oracle skips the input)
            result = self.temp()
            self.current.append(
                BinOp(result, BinaryOp.SUB, Ref(array + LEN_SUFFIX), Const(-constant))
            )
            return Ref(result)
        return self.lower_expr(node)

    def floor_div(self, lhs: Value, rhs: Value, target: Optional[str] = None) -> Value:
        """Branch-free CPython floor division from truncating ``DIV``.

        ``q0 = trunc(a/b)``; the quotient needs one correction step when
        the division was inexact *and* the signs differ:
        ``a // b == q0 - (a - q0*b != 0) * ((a < 0) != (b < 0))``.
        """
        q0 = self.temp()
        self.current.append(BinOp(q0, BinaryOp.DIV, lhs, rhs))
        back = self.temp()
        self.current.append(BinOp(back, BinaryOp.MUL, Ref(q0), rhs))
        remainder = self.temp()
        self.current.append(BinOp(remainder, BinaryOp.SUB, lhs, Ref(back)))
        inexact = self.temp()
        self.current.append(Compare(inexact, Relation.NE, Ref(remainder), Const(0)))
        lhs_neg = self.temp()
        self.current.append(Compare(lhs_neg, Relation.LT, lhs, Const(0)))
        rhs_neg = self.temp()
        self.current.append(Compare(rhs_neg, Relation.LT, rhs, Const(0)))
        signs_differ = self.temp()
        self.current.append(
            Compare(signs_differ, Relation.NE, Ref(lhs_neg), Ref(rhs_neg))
        )
        correction = self.temp()
        self.current.append(
            BinOp(correction, BinaryOp.MUL, Ref(inexact), Ref(signs_differ))
        )
        result = target if target is not None else self.temp()
        self.current.append(BinOp(result, BinaryOp.SUB, Ref(q0), Ref(correction)))
        return Ref(result)

    def floor_mod(self, lhs: Value, rhs: Value, target: Optional[str] = None) -> Value:
        """CPython ``%`` (sign follows the divisor): ``a - (a // b) * b``."""
        quotient = self.floor_div(lhs, rhs)
        back = self.temp()
        self.current.append(BinOp(back, BinaryOp.MUL, quotient, rhs))
        result = target if target is not None else self.temp()
        self.current.append(BinOp(result, BinaryOp.SUB, lhs, Ref(back)))
        return Ref(result)

    # -- conditions (short-circuit) ------------------------------------
    def lower_condition(
        self, node: ast.expr, true_label: str, false_label: str
    ) -> None:
        if isinstance(node, ast.BoolOp):
            values = list(node.values)
            if isinstance(node.op, ast.And):
                for value in values[:-1]:
                    step = self.new_block("and")
                    self.lower_condition(value, step.label, false_label)
                    self.set_current(step)
            else:
                for value in values[:-1]:
                    step = self.new_block("or")
                    self.lower_condition(value, true_label, step.label)
                    self.set_current(step)
            self.lower_condition(values[-1], true_label, false_label)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self.lower_condition(node.operand, false_label, true_label)
            return
        if isinstance(node, ast.Compare):
            left = self.lower_expr(node.left)
            pairs = list(zip(node.ops, node.comparators))
            for position, (op, comparator) in enumerate(pairs):
                right = self.lower_expr(comparator)
                flag = self.temp()
                self.current.append(
                    Compare(flag, _RELATIONS[type(op)][1], left, right)
                )
                if position == len(pairs) - 1:
                    self.current.terminator = Branch(
                        Ref(flag), true_label, false_label
                    )
                else:
                    step = self.new_block("and")
                    self.current.terminator = Branch(
                        Ref(flag), step.label, false_label
                    )
                    self.set_current(step)
                    left = right
            return
        constant = _const_int(node)
        if constant is None and isinstance(node, ast.Constant):
            constant = int(bool(node.value)) if type(node.value) is bool else None
        if constant is not None:
            # e.g. "while True:" -- an unconditional edge, not a Compare,
            # so the loop lowers to the paper's loop/endloop shape
            self.current.terminator = Jump(
                true_label if constant else false_label
            )
            return
        value = self.lower_expr(node)
        flag = self.temp()
        self.current.append(Compare(flag, Relation.NE, value, Const(0)))
        self.current.terminator = Branch(Ref(flag), true_label, false_label)

    # -- statements ----------------------------------------------------
    def lower_body(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            self.lower_statement(statement)

    def lower_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return):
            value = None if _is_none(stmt.value) else self.lower_expr(stmt.value)
            self.current.terminator = Return(value)
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.Assign):
            self.lower_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.lower_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.lower_augassign(stmt)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            self.current.terminator = Jump(self.exit_stack[-1])
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.Continue):
            self.current.terminator = Jump(self.continue_stack[-1])
            self.set_current(self.new_block("dead"))
        elif isinstance(stmt, ast.Assert):
            self.lower_assert(stmt)
        elif isinstance(stmt, (ast.Pass, ast.Expr)):
            pass  # docstrings / constant expression statements
        else:
            raise _Unsupported(_describe(stmt))

    def lower_assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            self.lower_expr(value, target=targets[0].id)
            return
        lowered = self.lower_expr(value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.current.append(Assign(target.id, lowered))
            else:  # validated: Subscript of a list name
                array = target.value.id
                index = self.lower_index(target.slice, array)
                self.current.append(Store(array, [index], lowered))

    def lower_augassign(self, stmt: ast.AugAssign) -> None:
        op = type(stmt.op)
        if isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            rhs = self.lower_expr(stmt.value)
            self.apply_binop(op, Ref(name), rhs, target=name)
            return
        array = stmt.target.value.id
        index = self.lower_index(stmt.target.slice, array)
        loaded = self.temp()
        self.current.append(Load(loaded, array, [index]))
        rhs = self.lower_expr(stmt.value)
        result = self.apply_binop(op, Ref(loaded), rhs)
        self.current.append(Store(array, [index], result))

    def apply_binop(
        self, op: type, lhs: Value, rhs: Value, target: Optional[str] = None
    ) -> Value:
        if op is ast.FloorDiv:
            return self.floor_div(lhs, rhs, target)
        if op is ast.Mod:
            return self.floor_mod(lhs, rhs, target)
        result = target if target is not None else self.temp()
        self.current.append(BinOp(result, _BINOPS[op], lhs, rhs))
        return Ref(result)

    def lower_assert(self, stmt: ast.Assert) -> None:
        decoded = _assert_bound(stmt.test, self.kinds)
        if decoded is None:
            return  # validator recorded the PYF407 note
        name, relation, bound, is_len = decoded
        if is_len:
            if relation == "==" and bound >= 0:
                # a concrete extent: RNG601/RNG602 can prove bounds on it
                self.function.array_extents[name] = [bound]
            self.function.assumptions.append((name + LEN_SUFFIX, relation, bound))
        else:
            self.function.assumptions.append((name, relation, bound))

    def lower_if(self, stmt: ast.If) -> None:
        then_block = self.new_block("then")
        join_block = self.new_block("endif")
        if stmt.orelse:
            else_block = self.new_block("else")
            self.lower_condition(stmt.test, then_block.label, else_block.label)
            self.set_current(else_block)
            self.lower_body(stmt.orelse)
            self.current.terminator = Jump(join_block.label)
        else:
            self.lower_condition(stmt.test, then_block.label, join_block.label)
        self.set_current(then_block)
        self.lower_body(stmt.body)
        self.current.terminator = Jump(join_block.label)
        self.set_current(join_block)

    def lower_while(self, stmt: ast.While) -> None:
        header = self.loop_header(stmt.lineno)
        body_block = self.new_block(f"{header.label}.body")
        exit_block = self.new_block(f"{header.label}.exit")
        self.current.terminator = Jump(header.label)
        self.set_current(header)
        self.lower_condition(stmt.test, body_block.label, exit_block.label)
        self.set_current(body_block)
        self.exit_stack.append(exit_block.label)
        self.continue_stack.append(header.label)
        self.lower_body(stmt.body)
        self.continue_stack.pop()
        self.exit_stack.pop()
        self.current.terminator = Jump(header.label)
        self.set_current(exit_block)

    def lower_for(self, stmt: ast.For) -> None:
        var = stmt.target.id
        call = _range_call(stmt.iter)
        if call is not None:
            args = call.args
            if len(args) == 1:
                start: ast.expr = ast.Constant(value=0)
                stop = args[0]
            else:
                start, stop = args[0], args[1]
            step = _const_int(args[2]) if len(args) == 3 else 1
            # range() evaluates its bounds before the first binding of var
            limit = self.once(self.lower_expr(stop))
            self.lower_expr(start, target=var)
            counter = var
        else:
            array = stmt.iter.id  # validated: a list parameter
            counter = self.temp()
            self.current.append(Assign(counter, Const(0)))
            limit = Ref(array + LEN_SUFFIX)
            step = 1

        header = self.loop_header(stmt.lineno)
        body_block = self.new_block(f"{header.label}.body")
        latch_block = self.new_block(f"{header.label}.latch")
        exit_block = self.new_block(f"{header.label}.exit")

        self.current.terminator = Jump(header.label)
        self.set_current(header)
        relation = Relation.LT if step > 0 else Relation.GT
        flag = self.temp()
        self.current.append(Compare(flag, relation, Ref(counter), limit))
        self.current.terminator = Branch(
            Ref(flag), body_block.label, exit_block.label
        )

        self.set_current(body_block)
        if call is None:
            self.current.append(Load(var, stmt.iter.id, [Ref(counter)]))
        self.exit_stack.append(exit_block.label)
        self.continue_stack.append(latch_block.label)
        self.lower_body(stmt.body)
        self.continue_stack.pop()
        self.exit_stack.pop()
        self.current.terminator = Jump(latch_block.label)

        self.set_current(latch_block)
        latch_block.append(BinOp(counter, BinaryOp.ADD, Ref(counter), Const(step)))
        latch_block.terminator = Jump(header.label)

        self.set_current(exit_block)

    def once(self, value: Value) -> Value:
        """Copy a bare name into a temp: range() bounds evaluate once."""
        if isinstance(value, Ref) and not value.name.startswith("$"):
            fresh = self.temp()
            self.current.append(Assign(fresh, value))
            return Ref(fresh)
        return value

    # -- entry ---------------------------------------------------------
    def lower(self) -> Function:
        self.lower_body(self.node.body)
        for block in self.function:
            if block.terminator is None:
                block.terminator = Return()
        from repro.ir.verify import verify_function

        verify_function(self.function, ssa=False)
        return self.function


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def compile_function(
    node: ast.FunctionDef, qualname: str, origin: str
) -> CompiledFunction:
    """Compile one ``ast.FunctionDef``; degrades instead of raising.

    One ``ast.walk`` of the def feeds both kind inference and validation
    (the loop-variable check walks only each loop's own subtree), and
    ``source`` is unparsed only if read.
    """
    scope = qualname
    nodes = list(ast.walk(node))
    kinds = infer_kinds(node, nodes)
    compiled = CompiledFunction(
        qualname=qualname,
        origin=f"{origin}:{node.lineno}",
        lineno=node.lineno,
        params=[(arg.arg, kinds.kind_of(arg.arg)) for arg in all_args(node)],
        node=node,
    )
    try:
        records = _Validator(node, nodes, kinds, scope).run()
    except Exception as error:  # noqa: BLE001 - total-ingestion contract
        compiled.degradations.append(
            _record(
                "PYF401", "internal-error",
                f"validation failed: {type(error).__name__}: {error}", scope,
            )
        )
        return compiled
    compiled.degradations.extend(records)
    if any(entry.diag_code != "PYF407" for entry in records):
        return compiled
    try:
        compiled.function = _PyLowerer(node, kinds, node.name).lower()
    except Exception as error:  # noqa: BLE001 - total-ingestion contract
        compiled.function = None
        compiled.degradations.append(
            _record(
                "PYF401", "internal-error",
                f"lowering failed: {type(error).__name__}: {error}", scope,
            )
        )
    return compiled


@traced("pyfront.lower")
def compile_module(source: str, origin: str = "<python>") -> ModuleCompilation:
    """Compile every function of one Python source text.

    Never raises: an unparseable file yields a ``PYF406`` record, and
    each function degrades independently.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError) as error:
        return ModuleCompilation(
            origin=origin,
            error=DegradationRecord(
                phase="pyfront.parse",
                code="syntax-error",
                message=f"{origin}: {error}",
                diag_code="PYF406",
                scope=origin,
                action="skipped",
            ),
        )
    out = ModuleCompilation(origin=origin)
    for qualname, node in _function_defs(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            out.functions.append(
                CompiledFunction(
                    qualname=qualname,
                    origin=f"{origin}:{node.lineno}",
                    lineno=node.lineno,
                    degradations=[
                        _record(
                            "PYF401", "async-function",
                            f"async function {qualname!r} is not lowered",
                            qualname,
                        )
                    ],
                )
            )
            continue
        out.functions.append(compile_function(node, qualname, origin))
    return out


def _function_defs(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Every (qualname, def) in the module, in source order."""
    found: List[Tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    found.sort(key=lambda item: item[1].lineno)
    return found
