"""Compile a subset of real CPython functions (stdlib ``ast``) to named IR.

Each def is walked once and kinds are read from that walk; :class:`_Validator`
records every construct outside the subset, and a function with none is
desugared by :class:`_Desugarer` into a loop-language program
(:mod:`repro.frontend.ast`), and :func:`repro.frontend.lower.lower_ast`
builds its IR, so each construct is lowered in one place for both front
ends.  The subset is exactly what the IR executes with CPython's
semantics on int inputs (``tests/pyfront/test_differential.py`` and
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

Everything else **degrades, never raises**: validation collects one
:class:`~repro.resilience.isolation.DegradationRecord` per unsupported
construct (the ``PYF4xx`` diagnostic family) and the function is skipped.
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
from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.frontend import ast as fe
from repro.frontend.lower import lower_ast
from repro.ir.function import Function
from repro.obs.trace import traced
from repro.pyfront.typeinfer import INT, LIST, Kinds, all_args, walk, walk_def
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

#: the fields holding statements (or except clauses and match cases)
_BLOCKS = frozenset(("body", "handlers", "orelse", "finalbody", "cases"))

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
        #: the def's nodes in ``ast.walk`` order, shared with kind inference
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
            if type(stmt.op) not in _OPS:
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
            if type(node.op) not in _OPS:
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
# desugaring
# ----------------------------------------------------------------------
class _Desugarer:
    """A validated def -> a loop-language program and its signature.

    Check-free: it runs only on defs the validator passed, so every node
    it meets has a rewrite.  :func:`~repro.frontend.lower.lower_ast`
    builds the IR.
    """

    def __init__(self, kinds: Kinds):
        self.kinds = kinds
        self.temp_counter = 0

    def program(self, node: ast.FunctionDef) -> Tuple[fe.Program, List[str]]:
        params: List[str] = []
        prologue: List[fe.Statement] = []
        for arg in all_args(node):
            if self.kinds.is_list(arg.arg):
                length = arg.arg + LEN_SUFFIX
                params.append(length)
                prologue.append(fe.ArrayDecl(arg.arg, (length,)))
                prologue.append(fe.AssumeStmt(length, ">=", 0))
            else:
                params.append(arg.arg)
        return fe.Program(prologue + self.body(node.body)), params

    # -- statements ----------------------------------------------------
    def body(self, statements: Sequence[ast.stmt]) -> List[fe.Statement]:
        out: List[fe.Statement] = []
        for statement in statements:
            self.statement(statement, out)
        return out

    def statement(self, stmt: ast.stmt, out: List[fe.Statement]) -> None:
        if isinstance(stmt, ast.Return):
            out.append(fe.Return(None if _is_none(stmt.value) else self.expr(stmt.value)))
        elif isinstance(stmt, ast.Assign):
            value = self.expr(stmt.value)
            if len(stmt.targets) > 1:
                # x = y = e: e once, then one assignment per target
                self.temp_counter += 1
                temp = f"$v{self.temp_counter}"
                out.append(fe.Assign(temp, value))
                value = fe.Name(temp)
            for target in stmt.targets:
                out.append(self.assign(target, value))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                out.append(self.assign(stmt.target, self.expr(stmt.value)))
        elif isinstance(stmt, ast.AugAssign):
            current = self.expr(stmt.target)  # a Name or a Subscript
            value = fe.BinaryExpr(_OPS[type(stmt.op)], current, self.expr(stmt.value))
            out.append(self.assign(stmt.target, value))
        elif isinstance(stmt, ast.If):
            out.append(
                fe.If(self.condition(stmt.test), self.body(stmt.body), self.body(stmt.orelse))
            )
        elif isinstance(stmt, ast.While):
            out.append(
                fe.WhileLoop(
                    self.condition(stmt.test), self.body(stmt.body), label=f"L{stmt.lineno}"
                )
            )
        elif isinstance(stmt, ast.For):
            out.append(self.for_loop(stmt))
        elif isinstance(stmt, ast.Break):
            out.append(fe.Break())
        elif isinstance(stmt, ast.Continue):
            out.append(fe.Continue())
        elif isinstance(stmt, ast.Assert):
            decoded = _assert_bound(stmt.test, self.kinds)
            if decoded is None:
                return  # the validator recorded the PYF407 note
            name, relation, bound, is_len = decoded
            if is_len:
                if relation == "==" and bound >= 0:
                    # a concrete extent: RNG601/RNG602 can prove bounds on it
                    out.append(fe.ArrayDecl(name, (bound,)))
                name += LEN_SUFFIX
            out.append(fe.AssumeStmt(name, relation, bound))
        # Pass and docstring / constant expression statements: no code

    def assign(self, target: ast.expr, value: fe.Expression) -> fe.Statement:
        if isinstance(target, ast.Name):
            return fe.Assign(target.id, value)
        return fe.StoreStmt(target.value.id, (self.index(target),), value)

    def for_loop(self, stmt: ast.For) -> fe.RangeLoop:
        # line-numbered headers phrase findings like the paper phrases
        # classifications: "(L12, 0, 1)" points at the source line
        label = f"L{stmt.lineno}"
        body = self.body(stmt.body)
        call = _range_call(stmt.iter)
        if call is None:
            # for x in xs: a hidden counter (unique per loop, "$" keeps it
            # out of reports) and x = xs[counter] at the top of the body
            array = stmt.iter.id
            counter = f"$L{stmt.lineno}"
            load = fe.Assign(stmt.target.id, fe.ArrayRef(array, (fe.Name(counter),)))
            return fe.RangeLoop(
                counter, fe.IntLit(0), fe.Name(array + LEN_SUFFIX), [load] + body,
                label=label,
            )
        args = [self.expr(arg) for arg in call.args]
        start, stop = (fe.IntLit(0), args[0]) if len(args) == 1 else args[:2]
        step = _const_int(call.args[2]) if len(args) == 3 else 1
        return fe.RangeLoop(
            stmt.target.id, start, stop, body,
            downward=step < 0, step=fe.IntLit(step), label=label,
        )

    # -- expressions ---------------------------------------------------
    def expr(self, node: ast.expr) -> fe.Expression:
        constant = _const_int(node)
        if constant is not None:
            return fe.IntLit(constant)
        if isinstance(node, ast.Constant):  # validated: a bool
            return fe.IntLit(int(node.value))
        if isinstance(node, ast.Name):
            return fe.Name(node.id)
        if isinstance(node, ast.UnaryOp):
            operand = self.expr(node.operand)
            return fe.UnaryExpr("-", operand) if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.BinOp):
            return fe.BinaryExpr(
                _OPS[type(node.op)], self.expr(node.left), self.expr(node.right)
            )
        if isinstance(node, ast.Subscript):
            return fe.ArrayRef(node.value.id, (self.index(node),))
        if isinstance(node, ast.Call):  # validated: len(list_param)
            return fe.Name(_len_call(node) + LEN_SUFFIX)
        # validated: a single comparison, used as its 0/1 value
        return fe.CompareExpr(
            _RELATIONS[type(node.ops[0])], self.expr(node.left),
            self.expr(node.comparators[0]),
        )

    def index(self, node: ast.Subscript) -> fe.Expression:
        constant = _const_int(node.slice)
        if constant is not None and constant < 0:
            # a[-k]  ->  a[a$len - k]  (CPython raises for len(a) < k,
            # where the oracle skips the input)
            length = fe.Name(node.value.id + LEN_SUFFIX)
            return fe.BinaryExpr("-", length, fe.IntLit(-constant))
        return self.expr(node.slice)

    def condition(self, node: ast.expr) -> fe.Condition:
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            return self.chain(op, [self.condition(value) for value in node.values])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return fe.NotExpr(self.condition(node.operand))
        if isinstance(node, ast.Compare):
            # a < b < c  ->  a < b and b < c  (b is pure: printed twice)
            operands = [self.expr(node.left)] + [self.expr(c) for c in node.comparators]
            compares = [
                fe.CompareExpr(_RELATIONS[type(op)], lhs, rhs)
                for op, lhs, rhs in zip(node.ops, operands, operands[1:])
            ]
            return self.chain("and", compares)
        if isinstance(node, ast.Constant):
            # e.g. "while True:" -- an unconditional edge, not a Compare,
            # so the loop lowers to the paper's loop/endloop shape
            return fe.ConstCondition(bool(node.value))
        constant = _const_int(node)
        if constant is not None:
            return fe.ConstCondition(bool(constant))
        return fe.CompareExpr("!=", self.expr(node), fe.IntLit(0))  # int truthiness

    @staticmethod
    def chain(op: str, conditions: List[fe.Condition]) -> fe.Condition:
        """Right-nested, so blocks are made in the order they are tested."""
        result = conditions[-1]
        for condition in reversed(conditions[:-1]):
            result = fe.BoolExpr(op, condition, result)
        return result


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def compile_function(
    node: ast.FunctionDef, qualname: str, origin: str
) -> CompiledFunction:
    """Compile one ``ast.FunctionDef``; degrades instead of raising.

    One walk of the def (:func:`~repro.pyfront.typeinfer.walk_def`) infers
    kinds and feeds validation (the loop-variable check walks only each
    loop's own subtree), and ``source`` is unparsed only if read.
    """
    scope = qualname
    nodes, kinds = walk_def(node)
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
        program, params = _Desugarer(kinds).program(node)
        compiled.function = lower_ast(program, node.name, params)
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

    Never raises: an unparseable file (a syntax error, a null byte, or
    nesting too deep for ``ast.parse``) yields a ``PYF406`` record, and
    each function degrades independently.
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
        children = [c for f in node._fields if f in _BLOCKS for c in getattr(node, f)]
        stack.extend((child, prefix) for child in reversed(children))
    found.sort(key=lambda item: item[1].lineno)
    return found
