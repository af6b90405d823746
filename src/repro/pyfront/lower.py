"""Compile a subset of real CPython functions (stdlib ``ast``) to named IR.

Kinds are read from one walk of each def its header does not reject,
and one recursive walk (:class:`_Desugarer`) desugars it into a
loop-language program (:mod:`repro.frontend.ast`), stopping at the first
construct outside the subset; for a function it walked to the end,
:func:`repro.frontend.lower.lower_ast` builds its IR, so each construct
is lowered in one place for both front ends.  Adding a construct takes
one method of that walk, which both records and rewrites.  The subset
is exactly what the IR executes with CPython's semantics on int inputs
(``tests/pyfront/test_differential.py`` and
``tests/pyfront/test_generated_differential.py`` hold it to that):

* ``def`` with positional int / list-of-int parameters
* ``for i in range(...)`` (1/2/3-arg, constant step), ``for x in xs``
* ``while`` / ``if`` / ``elif`` / ``else`` / ``break`` / ``continue``
* int ``+ - * // %``, unary ``-``, augmented assigns, comparisons
  (including chained), ``and`` / ``or`` / ``not`` in conditions
* list subscript loads and stores (constant negative indices included),
  ``len()``
* ``assert`` bounds of the shapes ``assert n <op> literal`` and
  ``assert len(a) <op> literal``, recorded as range assumptions

Everything else **degrades, never raises**: the function is skipped
with one :class:`~repro.resilience.isolation.DegradationRecord` (the
``PYF4xx`` diagnostic family) naming its first blocking construct.
Ingesting an arbitrary package is therefore total -- the corpus driver
(:mod:`repro.pyfront.driver`) leans on that to walk real packages.

The rewrites (``$`` cannot appear in Python identifiers):

* ``//`` and ``%`` become the AST-only floor operators ``//`` and ``%%``.
* ``for i in range(a, b, s)`` becomes a ``RangeLoop`` (exclusive limit)
  labelled ``L<line>``.  After the loop CPython keeps the *last yielded*
  value while the counted shape overshoots by one step, so a loop
  variable that is read after its loop (or written inside it) degrades
  the function (``PYF405``) instead of miscompiling.
* ``for x in xs`` becomes a ``RangeLoop`` over the hidden counter
  ``$L<line>`` whose body starts with ``x = xs[$L<line>]``; the
  post-loop binding of ``x`` matches CPython, so only in-body writes to
  ``x`` degrade.
* A list parameter ``a`` becomes an array declared with the synthetic
  length parameter ``a$len`` and the assumption ``a$len >= 0``;
  ``len(a)`` reads it and ``a[-k]`` rewrites to ``a[a$len - k]``.
* Chained comparisons become ``and`` chains, ``x = y = e`` assigns
  ``$vN = e`` first, and ``while True`` is a constant condition.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional, Sequence, Set, Tuple

from repro.collector import collector_paused
from repro.frontend import ast as fe
from repro.frontend.lower import lower_ast
from repro.ir.function import Function
from repro.obs.trace import traced
from repro.pyfront.typeinfer import CHILD_FIELDS, LIST, Kinds, all_args, walk, walk_def
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

#: Python operators and their loop-language spelling (``//`` and ``%%``
#: are the AST-only floor operators)
_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Mod: "%%",
}

_RELATIONS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

#: per node type, the fields holding statements (or except clauses and
#: match cases); only statement lists are ever looked up
_BLOCKS = {
    kind: tuple(f for f in fields if f in ("body", "handlers", "orelse", "finalbody", "cases"))
    for kind, fields in CHILD_FIELDS.items()
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
    #: parameter names with inferred kinds, in signature order; empty for
    #: a def its header rejects, whose kinds are never inferred
    params: List[Tuple[str, str]] = field(default_factory=list)
    #: the named IR, or ``None`` when the function degraded
    function: Optional[Function] = None
    #: a skipped function (``function is None``): the one record of its
    #: first blocking construct (PYF401-PYF405); a lowered one: its
    #: dropped-assert notes (PYF407)
    degradations: List[DegradationRecord] = field(default_factory=list)
    #: the def's own text from its module, without the def's indentation
    #: (the oracle execs it, the runlog fingerprints it); set by
    #: :func:`compile_module`, which has the module text
    source: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.function is not None


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
# desugaring: one walk builds the program or stops at the first problem
# ----------------------------------------------------------------------
class _Blocked(Exception):
    """The first blocking record of a def, which ends its walk."""

    def __init__(self, record: DegradationRecord):
        super().__init__(record.message)
        self.record = record


class _Desugarer:
    """Walks one def once, rewriting it into a loop-language program.

    Each construct has one method that either returns (or, for a
    statement, appends) its loop-language node or raises :class:`_Blocked`
    with its ``PYF4xx`` record.  The walk therefore fails fast: a degraded
    def is reported by its first blocking construct, in walk order, and
    nothing after it is visited.
    """

    def __init__(self, node: ast.FunctionDef, kinds: Kinds, scope: str):
        self.node = node
        self.kinds = kinds
        self.scope = scope
        #: the dropped-assert notes (PYF407) of the walk so far
        self.notes: List[DegradationRecord] = []
        self.loop_depth = 0
        self.temp_counter = 0
        self.params = [a.arg for a in all_args(node)]

    # -- recording -----------------------------------------------------
    def problem(self, diag_code: str, code: str, message: str) -> NoReturn:
        raise _Blocked(_record(diag_code, code, message, self.scope))

    def note(self, code: str, message: str) -> None:
        self.notes.append(
            _record("PYF407", code, message, self.scope, action="dropped")
        )

    # -- entry ---------------------------------------------------------
    def run(self, names: List[ast.Name], loops: List[ast.For]) -> Tuple[fe.Program, List[str]]:
        """The program and its parameters; raises :class:`_Blocked`.  The
        def's ``Name`` nodes and loops come from its ``walk_def``."""
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
        body = self.body(self.node.body)
        self.check_loop_targets(names, loops)
        params: List[str] = []
        prologue: List[fe.Statement] = []
        for name in self.params:
            if self.kinds.is_list(name):
                length = name + LEN_SUFFIX
                params.append(length)
                prologue.append(fe.ArrayDecl(name, (length,)))
                prologue.append(fe.AssumeStmt(length, ">=", 0))
            else:
                params.append(name)
        return fe.Program(prologue + body), params

    # -- statements ----------------------------------------------------
    def body(self, statements: Sequence[ast.stmt]) -> List[fe.Statement]:
        out: List[fe.Statement] = []
        for stmt in statements:
            method = self.STATEMENTS.get(type(stmt))
            if method is None:
                self.problem(
                    "PYF401", f"unsupported-statement:{type(stmt).__name__}",
                    f"unsupported statement {_describe(stmt)}",
                )
            else:
                method(self, stmt, out)
        return out

    def loop_body(self, statements: Sequence[ast.stmt]) -> List[fe.Statement]:
        self.loop_depth += 1
        out = self.body(statements)
        self.loop_depth -= 1
        return out

    def return_(self, stmt: ast.Return, out: List[fe.Statement]) -> None:
        value = None if _is_none(stmt.value) else self.expr(stmt.value)
        out.append(fe.Return(value))

    def assign(self, stmt: ast.Assign, out: List[fe.Statement]) -> None:
        targets = [self.target(target) for target in stmt.targets]
        value = self.expr(stmt.value)
        if len(targets) > 1:
            # x = y = e: e once, then one assignment per target
            self.temp_counter += 1
            temp = f"$v{self.temp_counter}"
            out.append(fe.Assign(temp, value))
            value = fe.Name(temp)
        out.extend(_store(target, value) for target in targets)

    def ann_assign(self, stmt: ast.AnnAssign, out: List[fe.Statement]) -> None:
        target = self.target(stmt.target)
        if stmt.value is not None:
            out.append(_store(target, self.expr(stmt.value)))

    def aug_assign(self, stmt: ast.AugAssign, out: List[fe.Statement]) -> None:
        target = self.target(stmt.target)
        op = _OPS.get(type(stmt.op))
        if op is None:
            self.problem(
                "PYF401", "unsupported-augassign",
                f"augmented {type(stmt.op).__name__} at line "
                f"{stmt.lineno}; only += -= *= //= %= lower",
            )
        value = self.expr(stmt.value)
        out.append(_store(target, fe.BinaryExpr(op, target, value)))

    def if_(self, stmt: ast.If, out: List[fe.Statement]) -> None:
        test = self.condition(stmt.test)
        body, orelse = self.body(stmt.body), self.body(stmt.orelse)
        out.append(fe.If(test, body, orelse))

    def while_(self, stmt: ast.While, out: List[fe.Statement]) -> None:
        test = self.condition(stmt.test)
        if stmt.orelse:
            self.problem(
                "PYF401", "loop-else",
                f"while-else at line {stmt.lineno} is not lowered",
            )
        body = self.loop_body(stmt.body)
        out.append(fe.WhileLoop(test, body, label=f"L{stmt.lineno}"))

    def for_(self, stmt: ast.For, out: List[fe.Statement]) -> None:
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
        call = _range_call(iterable)
        if call is not None:
            args = [self.expr(arg) for arg in call.args]
            step = _const_int(call.args[2]) if len(args) == 3 else 1
            if not step:
                self.problem(
                    "PYF401", "non-constant-range-step",
                    f"range() step at line {stmt.lineno} must be a "
                    "non-zero int literal",
                )
        elif not isinstance(iterable, ast.Name):  # a name iterated over is a list
            self.problem(
                "PYF402", "unsupported-iterable",
                f"for iterates {_describe(iterable)}; only range(...) "
                "and list parameters are supported",
            )
        body = self.loop_body(stmt.body)
        # line-numbered headers phrase findings like the paper phrases
        # classifications: "(L12, 0, 1)" points at the source line
        label = f"L{stmt.lineno}"
        if call is None:
            # for x in xs: a hidden counter (unique per loop, "$" keeps it
            # out of reports) and x = xs[counter] at the top of the body
            array = iterable.id
            counter = f"$L{stmt.lineno}"
            load = fe.Assign(stmt.target.id, fe.ArrayRef(array, (fe.Name(counter),)))
            out.append(fe.RangeLoop(
                counter, fe.IntLit(0), fe.Name(array + LEN_SUFFIX), [load] + body,
                label=label,
            ))
            return
        start, stop = (fe.IntLit(0), args[0]) if len(args) == 1 else args[:2]
        out.append(fe.RangeLoop(
            stmt.target.id, start, stop, body,
            downward=step < 0, step=fe.IntLit(step), label=label,
        ))

    def expression_statement(self, stmt: ast.Expr, out: List[fe.Statement]) -> None:
        # a docstring or other constant has no code
        if not isinstance(stmt.value, ast.Constant):
            self.problem(
                "PYF401", "expression-statement",
                f"expression statement {_describe(stmt.value)} has no "
                "IR effect (calls are not supported)",
            )

    def assert_(self, stmt: ast.Assert, out: List[fe.Statement]) -> None:
        decoded = _assert_bound(stmt.test, self.kinds)
        if decoded is None:
            self.note(
                "assert-dropped",
                f"assert at line {stmt.lineno} is not a recognized "
                "bound shape; dropped",
            )
            return
        name, relation, bound, is_len = decoded
        if is_len:
            if relation == "==" and bound >= 0:
                # a concrete extent: RNG601/RNG602 can prove bounds on it
                out.append(fe.ArrayDecl(name, (bound,)))
            name += LEN_SUFFIX
        out.append(fe.AssumeStmt(name, relation, bound))

    def jump(self, stmt: ast.stmt, out: List[fe.Statement]) -> None:
        if self.loop_depth == 0:
            self.problem(
                "PYF401", "break-outside-loop",
                f"{type(stmt).__name__.lower()} outside a loop at "
                f"line {stmt.lineno}",
            )
        out.append(fe.Break() if isinstance(stmt, ast.Break) else fe.Continue())

    def pass_(self, stmt: ast.Pass, out: List[fe.Statement]) -> None:
        pass

    #: statement type -> the method that records and rewrites it; any
    #: other statement is recorded as unsupported
    STATEMENTS = {
        ast.Return: return_,
        ast.Assign: assign,
        ast.AnnAssign: ann_assign,
        ast.AugAssign: aug_assign,
        ast.If: if_,
        ast.While: while_,
        ast.For: for_,
        ast.Expr: expression_statement,
        ast.Assert: assert_,
        ast.Break: jump,
        ast.Continue: jump,
        ast.Pass: pass_,
    }

    def target(self, node: ast.expr) -> fe.Expression:
        """An assignment target, as the value it reads before an update."""
        if isinstance(node, ast.Name):
            return fe.Name(node.id)
        if isinstance(node, ast.Subscript):
            return self.subscript(node)
        self.problem(
            "PYF401", "unsupported-target",
            f"assignment target {_describe(node)}; only names and "
            "list subscripts are supported",
        )

    # -- expressions ---------------------------------------------------
    def expr(self, node: ast.expr) -> fe.Expression:
        """The int expression ``node``; one frame per level of nesting."""
        kind = type(node)
        if kind is ast.Name:
            name = node.id
            if self.kinds.is_list(name):
                self.problem(
                    "PYF402", "list-as-value",
                    f"list {name!r} used as a value at line {node.lineno} "
                    "(only element loads/stores and len() are supported)",
                )
            elif (
                name not in self.params
                and name not in self.kinds.assigned
                and name not in ("True", "False")
            ):
                self.problem(
                    "PYF402", "free-variable",
                    f"free variable {name!r} at line {node.lineno}; globals "
                    "and closures are not modeled",
                )
            return fe.Name(name)
        if kind is ast.Constant:
            if type(node.value) not in (int, bool):
                self.problem(
                    "PYF402", "non-int-literal",
                    f"literal {node.value!r} at line {node.lineno}; only "
                    "int and bool literals lower",
                )
            return fe.IntLit(int(node.value))
        if kind is ast.BinOp:
            op = _OPS.get(type(node.op))
            if op is None:
                self.problem(
                    "PYF402", f"unsupported-operator:{type(node.op).__name__}",
                    f"operator {type(node.op).__name__} at line "
                    f"{node.lineno}; only + - * // % lower",
                )
            left, right = self.expr(node.left), self.expr(node.right)
            return fe.BinaryExpr(op, left, right)
        if kind is ast.UnaryOp:
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                self.problem(
                    "PYF402", f"unsupported-operator:{type(node.op).__name__}",
                    f"unary {type(node.op).__name__} at line {node.lineno} "
                    "is not an integer expression",
                )
            operand = self.expr(node.operand)
            constant = _const_int(node)
            if constant is not None:
                return fe.IntLit(constant)
            return fe.UnaryExpr("-", operand) if isinstance(node.op, ast.USub) else operand
        if kind is ast.Subscript:
            return self.subscript(node)
        if kind is ast.Call:
            array = _len_call(node)
            if array is None:
                self.problem(
                    "PYF402", "unsupported-call",
                    f"call {_describe(node)}; only len(list_param) and a "
                    "for-loop's range(...) are supported",
                )
            return fe.Name(array + LEN_SUFFIX)
        if kind is ast.Compare:
            if len(node.ops) > 1:
                self.problem(
                    "PYF402", "chained-compare-value",
                    f"chained comparison at line {node.lineno} used as a "
                    "value (supported only as a branch condition)",
                )
            # a single comparison, used as its 0/1 value
            left, right = self.expr(node.left), self.expr(node.comparators[0])
            relation = self.relation(node.ops[0], node)
            return fe.CompareExpr(relation, left, right)
        self.problem(
            "PYF402", f"unsupported-expression:{kind.__name__}",
            f"unsupported expression {_describe(node)}",
        )

    def subscript(self, node: ast.Subscript) -> fe.Expression:
        if not isinstance(node.value, ast.Name):
            self.problem(
                "PYF402", "unsupported-subscript-base",
                f"subscript base {_describe(node.value)}; only list "
                "parameters are subscriptable",
            )
        array, index = node.value.id, node.slice
        if isinstance(index, ast.Slice):
            self.problem(
                "PYF402", "slice",
                f"slice of {array!r} at line {node.lineno}; only "
                "single int indices are supported",
            )
        constant = _const_int(index)
        if constant is not None and constant < 0:
            # a[-k]  ->  a[a$len - k]  (CPython raises for len(a) < k,
            # where the oracle skips the input)
            value = fe.BinaryExpr("-", fe.Name(array + LEN_SUFFIX), fe.IntLit(-constant))
        else:
            value = self.expr(index)
        return fe.ArrayRef(array, (value,))

    def relation(self, op: ast.cmpop, node: ast.Compare) -> str:
        relation = _RELATIONS.get(type(op))
        if relation is None:
            self.problem(
                "PYF402", f"unsupported-comparison:{type(op).__name__}",
                f"comparison {type(op).__name__} at line {node.lineno}; "
                "only < <= > >= == != lower",
            )
        return relation

    def condition(self, node: ast.expr) -> fe.Condition:
        if isinstance(node, ast.BoolOp):
            values = [self.condition(value) for value in node.values]
            op = "and" if isinstance(node.op, ast.And) else "or"
            return _chain(op, values)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return fe.NotExpr(self.condition(node.operand))
        if isinstance(node, ast.Compare):
            # a < b < c  ->  a < b and b < c  (b is pure: printed twice)
            operands = [self.expr(node.left)]
            relations = []
            for op, comparator in zip(node.ops, node.comparators):
                relations.append(self.relation(op, node))
                operands.append(self.expr(comparator))
            return _chain("and", [
                fe.CompareExpr(relation, lhs, rhs)
                for relation, lhs, rhs in zip(relations, operands, operands[1:])
            ])
        value = self.expr(node)
        if isinstance(node, ast.Constant) or _const_int(node) is not None:
            # e.g. "while True:" -- an unconditional edge, not a Compare,
            # so the loop lowers to the paper's loop/endloop shape
            return fe.ConstCondition(bool(value.value))
        return fe.CompareExpr("!=", value, fe.IntLit(0))  # int truthiness

    # -- loop-variable escape checks (see module docstring) ------------
    def check_loop_targets(self, names: List[ast.Name], loops: List[ast.For]) -> None:
        if not loops:
            return
        # every Name node of each loop variable, in walk order
        uses: Dict[str, List[ast.Name]] = {loop.target.id: [] for loop in loops}
        for child in names:
            if child.id in uses:
                uses[child.id].append(child)
        # the variable's Name nodes inside the *body* of a loop over it:
        # reads there see that loop's fresh per-iteration binding, so a
        # later same-named loop "shields" reads inside its own body
        shielded: Dict[str, Set[int]] = {var: set() for var in uses}
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
            for child in uses[var]:
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


def _store(target: fe.Expression, value: fe.Expression) -> fe.Statement:
    """Assign ``value`` to a target read by :meth:`_Desugarer.target`."""
    if isinstance(target, fe.Name):
        return fe.Assign(target.name, value)
    return fe.StoreStmt(target.array, target.indices, value)


def _chain(op: str, conditions: List[fe.Condition]) -> fe.Condition:
    """Right-nested, so blocks are made in the order they are tested."""
    result = conditions[-1]
    for condition in reversed(conditions[:-1]):
        result = fe.BoolExpr(op, condition, result)
    return result


def _name_ids(roots: Sequence[ast.AST], name: str) -> Set[int]:
    """The ids of every ``Name`` node spelling ``name`` under ``roots``."""
    return {
        id(child)
        for root in roots
        for child in walk(root)
        if type(child) is ast.Name and child.id == name
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
    relation = _RELATIONS[op]
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
# entry points
# ----------------------------------------------------------------------
def _rejected(node: ast.AST, scope: str) -> Optional[DegradationRecord]:
    """The record of a def its header alone rejects (``async``, a
    decorator, then a signature beyond positional parameters), or None."""
    if isinstance(node, ast.AsyncFunctionDef):
        return _record(
            "PYF401", "async-function", f"async function {scope!r} is not lowered", scope
        )
    if node.decorator_list:
        return _record(
            "PYF401", "decorated-function",
            f"decorated function {scope!r} is not lowered", scope,
        )
    args = node.args
    if args.vararg or args.kwarg or args.kwonlyargs:
        return _record(
            "PYF403", "unsupported-signature",
            f"{scope!r} takes *args/**kwargs/keyword-only parameters; only "
            "positional int/list parameters lower", scope,
        )
    return None


def compile_function(node: ast.AST, qualname: str, origin: str) -> CompiledFunction:
    """Compile one def; degrades instead of raising.

    A def its header rejects (:func:`_rejected`) is never walked.  Any
    other def costs one walk (:func:`~repro.pyfront.typeinfer.walk_def`),
    which infers kinds and feeds the loop-variable check (which walks
    only each loop's own subtree), and one recursive walk
    (:class:`_Desugarer`), which desugars the def and stops at its first
    blocking construct, the one record a skipped function carries.  An
    expression nested deeper than that walk or lowering can follow
    degrades the function with PYF402, as the loop language's parser
    reports it.
    """
    compiled = CompiledFunction(
        qualname=qualname, origin=f"{origin}:{node.lineno}", lineno=node.lineno
    )
    rejected = _rejected(node, qualname)
    if rejected is not None:
        compiled.degradations.append(rejected)
        return compiled
    kinds, names, loops = walk_def(node)
    compiled.params = [(arg.arg, kinds.kind_of(arg.arg)) for arg in all_args(node)]
    try:
        desugarer = _Desugarer(node, kinds, qualname)
        program, params = desugarer.run(names, loops)
        compiled.function = lower_ast(program, node.name, params)
        compiled.degradations.extend(desugarer.notes)
    except _Blocked as blocked:
        compiled.degradations.append(blocked.record)
    except RecursionError:
        compiled.degradations.append(_too_deep(qualname))
    except Exception as error:  # noqa: BLE001 - total-ingestion contract
        compiled.degradations.append(
            _record(
                "PYF401", "internal-error",
                f"lowering failed: {type(error).__name__}: {error}", qualname,
            )
        )
    return compiled


@traced("pyfront.lower")
@collector_paused
def compile_module(source: str, origin: str = "<python>") -> ModuleCompilation:
    """Compile every function of one Python source text.

    Never raises: an unparseable file (a syntax error, a null byte, or
    nesting too deep for ``ast.parse``) yields a ``PYF406`` record, and
    each function degrades independently.  The cyclic collector is paused
    for the whole module (:mod:`repro.collector`).
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError, RecursionError) as error:
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
    lines = _source_lines(source)
    out = ModuleCompilation(origin=origin)
    for qualname, node in _function_defs(tree):
        compiled = compile_function(node, qualname, origin)
        compiled.source = _def_source(lines, node)
        out.functions.append(compiled)
    return out


def _too_deep(scope: str) -> DegradationRecord:
    return _record(
        "PYF402", "expression-too-deep", "expression nested too deeply", scope
    )


def _source_lines(source: str) -> List[str]:
    r"""The module's lines, split at the line ends ``ast`` counts.

    ``\r\n`` and a lone ``\r`` end a line as ``\n`` does, so they are
    normalized first; form feeds and other Unicode line breaks do not.
    """
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    return source.split("\n")


def _def_source(lines: List[str], node: ast.AST) -> str:
    r"""The def's own text, without the def's indentation.

    The text is what ``ast.get_source_segment(source, node, padded=True)``
    returns (with ``\n`` line ends), cut from lines split once per
    module instead of once per def; the prefix the ``def`` line is
    indented by is then taken off every line that starts with it.  It
    depends only on the file, never on the interpreter, as
    ``ast.unparse`` output would.
    """
    first, last = node.lineno - 1, node.end_lineno - 1
    text = lines[first:last]
    text.append(lines[last].encode()[: node.end_col_offset].decode())
    indent = lines[first][: node.col_offset]
    if indent:
        width = len(indent)
        text = [line[width:] if line.startswith(indent) else line for line in text]
    return "\n".join(text)


def _function_defs(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Every (qualname, def) in the module, in source order.

    A def is a statement, so only statement lists are searched, with a
    stack (an ``elif`` chain nests as deep as it is long): expressions,
    however deep, are never entered.
    """
    found: List[Tuple[str, ast.AST]] = []
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((prefix + node.name, node))
            prefix += node.name + "."
        elif isinstance(node, ast.ClassDef):
            prefix += node.name + "."
        children = [c for f in _BLOCKS[type(node)] for c in getattr(node, f)]
        stack.extend((child, prefix) for child in reversed(children))
    found.sort(key=lambda item: item[1].lineno)
    return found
