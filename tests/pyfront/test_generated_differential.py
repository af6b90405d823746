"""Generated differential oracle: random Python functions vs their IR.

A hypothesis strategy writes whole functions over the supported subset:
range loops (negative steps, zero trips, loop variables in their own
bounds, limits reassigned in the body), ``for x in xs``, fuel-bounded
``while`` and ``while True`` loops, ``break`` / ``continue`` inside
nests, multi-target and augmented assignments, chained comparisons,
floor ``//`` / ``%`` and ``len``.  Each function runs under CPython
``exec`` and through ``compile_module`` + the IR interpreter; return
value and final list contents must agree.  Inputs on which CPython
raises, or runs more source lines than the IR's fuel covers, are out of
contract and discarded.

Functions in the subset the loop language shares (no ``//``, ``%``,
``len``, negative constant index, comparison value or ``for x in xs``)
are also printed as a loop-language program, and the IR that
``repro.frontend`` lowers from it must agree as well.

Every index the strategy draws is ``>= 0`` (a constant, or a loop
variable that never goes negative): Python wraps a negative computed
index and the IR does not, which is out of contract (see
``test_differential.py``).
"""

import random
import re
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings

from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.ir.interp import Interpreter, InterpreterError
from repro.pyfront.lower import LEN_SUFFIX, compile_module

INTS = ("n", "m")
LISTS = ("xs", "ys")
ACCUMULATORS = ("s", "t")
RELATIONS = ("<", "<=", ">", ">=", "==", "!=")

#: the IR interpreter's step budget, which also catches a miscompiled loop
#: that never ends
IR_FUEL = 200_000
#: the source lines one CPython run may execute: no generated line lowers
#: to more than about 15 IR steps, so the IR's fuel covers every kept input
#: (list stores can grow a later ``range()`` limit far past both budgets)
PY_LINES = IR_FUEL // 40


@dataclass
class Generated:
    python: str
    #: the same function in the loop language, or None outside the shared subset
    dsl: Optional[str]
    features: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class _Loop:
    """What a body may read of one enclosing loop."""

    #: the loop variable (the element of ``for x in xs``, the fuel of a while)
    var: str
    #: the variable never goes negative, so it is a safe index
    nonneg: bool
    #: names read by the range bounds
    limits: Tuple[str, ...] = ()


def _literal(text: str) -> Optional[int]:
    try:
        return int(text.strip("()"))
    except ValueError:
        return None


class _Writer:
    """Draws one function; every piece is a (python, loop-language) pair."""

    def __init__(self, draw, shared: bool):
        self.draw = draw
        self.shared = shared
        self.count = 0
        self.features: Set[str] = set()

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def pick(self, options):
        return self.draw(st.sampled_from(options))

    def coin(self) -> bool:
        return self.draw(st.booleans())

    def between(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(lo, hi))

    # -- expressions ---------------------------------------------------
    @staticmethod
    def literal(value: int) -> Tuple[str, str]:
        text = str(value) if value >= 0 else f"(-{-value})"
        return text, text

    def small(self, loops: List[_Loop], own: Optional[str] = None) -> Tuple[str, str]:
        """A range bound: its values stay small, so every loop is short."""
        options = ["const", "param", "offset"]
        if loops:
            options.append("loop")
        if own is not None:
            options.append("own")
        if not self.shared:
            options.append("len")
        kind = self.pick(options)
        if kind == "const":
            return self.literal(self.between(-2, 6))
        if kind == "loop":
            name = self.pick([loop.var for loop in loops])
            return name, name
        if kind == "own":
            return own, own
        if kind == "len":
            text = f"len({self.pick(LISTS)})"
            return text, ""
        name = self.pick(INTS)
        if kind == "param":
            return name, name
        delta = self.between(1, 2)
        op = self.pick(("+", "-"))
        return f"({name} {op} {delta})", f"({name} {op} {delta})"

    def index(self, loops: List[_Loop]) -> Tuple[str, str]:
        safe = [loop.var for loop in loops if loop.nonneg]
        options = ["const"] + (["loop", "loop+1"] if safe else [])
        if not self.shared:
            options.append("negative")
        kind = self.pick(options)
        if kind == "const":
            return self.literal(self.between(0, 3))
        if kind == "negative":
            text = f"-{self.between(1, 2)}"
            return text, ""
        name = self.pick(safe)
        return (name, name) if kind == "loop" else (f"({name} + 1)", f"({name} + 1)")

    def expr(self, loops: List[_Loop], depth: int = 2) -> Tuple[str, str]:
        leaves = ["const", "var", "load"]
        if not self.shared:
            leaves.append("len")
        inner = ["add", "sub", "scale", "neg"]
        if not self.shared:
            inner += ["floordiv", "mod", "compare"]
        kind = self.pick(leaves + inner if depth > 0 else leaves)
        if kind == "const":
            return self.literal(self.between(-3, 6))
        if kind == "var":
            name = self.pick(list(INTS + ACCUMULATORS) + [loop.var for loop in loops])
            return name, name
        if kind == "len":
            return f"len({self.pick(LISTS)})", ""
        if kind == "load":
            array = self.pick(LISTS)
            py, dsl = self.index(loops)
            return f"{array}[{py}]", f"{array}[{dsl}]"
        if kind == "neg":
            py, dsl = self.expr(loops, depth - 1)
            return f"(-{py})", f"(-{dsl})"
        if kind == "scale":
            # the multiplier stays small, so values grow at most geometrically
            py, dsl = self.expr(loops, depth - 1)
            factor = self.pick([str(k) for k in (2, 3)] + [loop.var for loop in loops])
            return f"({py} * {factor})", f"({dsl} * {factor})"
        if kind == "compare":
            lhs, _ = self.expr(loops, depth - 1)
            rhs, _ = self.expr(loops, depth - 1)
            return f"({lhs} {self.pick(RELATIONS)} {rhs})", ""
        lhs_py, lhs_dsl = self.expr(loops, depth - 1)
        rhs_py, rhs_dsl = self.expr(loops, depth - 1)
        op = {"add": "+", "sub": "-", "floordiv": "//", "mod": "%"}[kind]
        if op in ("//", "%"):
            self.features.add("floor")
        return f"({lhs_py} {op} {rhs_py})", f"({lhs_dsl} {op} {rhs_dsl})"

    def condition(self, loops: List[_Loop], depth: int = 1) -> Tuple[str, str]:
        kinds = ["compare", "compare", "chain", "truth"]
        if depth > 0:
            kinds += ["and", "or", "not"]
        kind = self.pick(kinds)
        if kind in ("and", "or"):
            parts = [
                self.condition(loops, depth - 1) for _ in range(self.between(2, 3))
            ]
            return (
                "(" + f" {kind} ".join(py for py, _ in parts) + ")",
                "(" + f" {kind} ".join(dsl for _, dsl in parts) + ")",
            )
        if kind == "not":
            py, dsl = self.condition(loops, depth - 1)
            return f"(not {py})", f"(not {dsl})"
        if kind == "truth":
            py, dsl = self.expr(loops, 1)
            return py, f"{dsl} != 0"
        operands = [self.expr(loops, 1) for _ in range(3 if kind == "chain" else 2)]
        relations = [self.pick(RELATIONS) for _ in operands[1:]]
        py = operands[0][0] + "".join(
            f" {rel} {operand[0]}" for rel, operand in zip(relations, operands[1:])
        )
        dsl = " and ".join(
            f"{lhs[1]} {rel} {rhs[1]}"
            for rel, lhs, rhs in zip(relations, operands, operands[1:])
        )
        if kind == "chain":
            self.features.add("chained-compare")
        return f"({py})", f"({dsl})"

    # -- statements: lists of (indent, python, loop-language) lines -----
    def body(self, loops: List[_Loop], depth: int, indent: int):
        lines = []
        for _ in range(self.between(1, 3)):
            lines += self.statement(loops, depth, indent)
        return lines

    def statement(self, loops: List[_Loop], depth: int, indent: int):
        kinds = ["assign", "augassign", "store", "multi"]
        if loops:
            kinds += ["exit", "limit"]
        if depth > 0:
            kinds += ["if", "range", "range", "while"]
            if not self.shared:
                kinds += ["for-list"] * 3
        kind = self.pick(kinds)
        return getattr(self, "stmt_" + kind.replace("-", "_"))(loops, depth, indent)

    def stmt_assign(self, loops, depth, indent):
        target = self.pick(ACCUMULATORS)
        py, dsl = self.expr(loops)
        return [(indent, f"{target} = {py}", f"{target} = {dsl}")]

    def stmt_augassign(self, loops, depth, indent):
        op = self.pick(("+", "-") if self.shared else ("+", "-", "//", "%"))
        py, dsl = self.expr(loops, 1)
        if self.coin():
            array = self.pick(LISTS)
            index_py, index_dsl = self.index(loops)
            target_py, target_dsl = f"{array}[{index_py}]", f"{array}[{index_dsl}]"
        else:
            target_py = target_dsl = self.pick(ACCUMULATORS)
        return [(indent, f"{target_py} {op}= {py}", f"{target_dsl} = {target_dsl} {op} {dsl}")]

    def stmt_store(self, loops, depth, indent):
        array = self.pick(LISTS)
        index_py, index_dsl = self.index(loops)
        py, dsl = self.expr(loops)
        return [(indent, f"{array}[{index_py}] = {py}", f"{array}[{index_dsl}] = {dsl}")]

    def stmt_multi(self, loops, depth, indent):
        self.features.add("multi-target")
        targets = []
        for _ in range(self.between(2, 3)):
            if self.coin():
                targets.append((self.pick(ACCUMULATORS),) * 2)
            else:
                array = self.pick(LISTS)
                index_py, index_dsl = self.index(loops)
                targets.append((f"{array}[{index_py}]", f"{array}[{index_dsl}]"))
        py, dsl = self.expr(loops)
        temp = self.fresh("mt")
        lines = [(indent, " = ".join(t for t, _ in targets) + f" = {py}", f"{temp} = {dsl}")]
        lines += [(indent, None, f"{target} = {temp}") for _, target in targets]
        return lines

    def stmt_exit(self, loops, depth, indent):
        kind = self.pick(("break", "continue", "return"))
        if kind != "return" and len(loops) > 1:
            self.features.add(kind + "-in-nest")
        cond_py, cond_dsl = self.condition(loops)
        if kind == "return":
            py, dsl = self.expr(loops)
            py, dsl = f"return {py}", f"return {dsl}"
        else:
            py = dsl = kind
        return [
            (indent, f"if {cond_py}:", f"if {cond_dsl} then"),
            (indent + 1, py, dsl),
            (indent, None, "endif"),
        ]

    def stmt_limit(self, loops, depth, indent):
        # reassign a name a range bound reads; limits only shrink or reset
        # to a literal, so later loops stay short
        name = self.pick(INTS)
        if any(name in loop.limits for loop in loops):
            self.features.add("limit-reassigned")
        if self.coin():
            return [(indent, f"{name} -= 1", f"{name} = {name} - 1")]
        value = self.between(-1, 4)
        return [(indent, f"{name} = {value}", f"{name} = {value}")]

    def stmt_if(self, loops, depth, indent):
        cond_py, cond_dsl = self.condition(loops)
        lines = [(indent, f"if {cond_py}:", f"if {cond_dsl} then")]
        lines += self.body(loops, depth - 1, indent + 1)
        closers = 1
        if self.coin():
            cond_py, cond_dsl = self.condition(loops)
            lines += [(indent, f"elif {cond_py}:", "else"), (indent, None, f"if {cond_dsl} then")]
            lines += self.body(loops, depth - 1, indent + 1)
            closers += 1
        if self.coin():
            lines += [(indent, "else:", "else")]
            lines += self.body(loops, depth - 1, indent + 1)
        return lines + [(indent, None, "endif")] * closers

    def stmt_range(self, loops, depth, indent):
        var = self.fresh("i")
        lines = []
        own = None
        if self.coin():
            # the loop variable in its own bounds: range() reads it first
            value_py, value_dsl = self.small(loops)
            lines.append((indent, f"{var} = {value_py}", f"{var} = {value_dsl}"))
            own = var
            self.features.add("own-bounds")
        arity = self.between(1, 3)
        start = self.literal(0) if arity == 1 else self.small(loops, own)
        stop = self.small(loops, own)
        step = self.pick((-2, -1, 1, 2, 3)) if arity == 3 else 1
        first, bound = _literal(start[0]), _literal(stop[0])
        if step < 0:
            self.features.add("negative-step")
        if first is not None and bound is not None and not range(first, bound, step):
            self.features.add("zero-trip")
        args = [start[0], stop[0], str(step)][:arity] if arity > 1 else [stop[0]]
        if step > 0:
            header = f"for {var} = {start[1]} to {stop[1]} - 1"
            nonneg = first is not None and first >= 0
        else:
            header = f"for {var} = {start[1]} downto {stop[1]} + 1"
            nonneg = bound is not None and bound >= -1
        if step != 1:
            header += f" by {self.literal(step)[1]}"
        limits = tuple(set(INTS) & set(re.findall(r"\w+", f"{start[0]} {stop[0]}")))
        inner = loops + [_Loop(var, nonneg, limits)]
        lines.append((indent, f"for {var} in range({', '.join(args)}):", header + " do"))
        lines += self.body(inner, depth - 1, indent + 1)
        return lines + [(indent, None, "endfor")]

    def stmt_for_list(self, loops, depth, indent):
        self.features.add("for-list")
        if any(loop.var.startswith("x") for loop in loops):
            self.features.add("nested-for-list")  # the counters must differ
        var = self.fresh("x")
        header = (indent, f"for {var} in {self.pick(LISTS)}:", None)
        return [header] + self.body(loops + [_Loop(var, False)], depth - 1, indent + 1)

    def stmt_while(self, loops, depth, indent):
        fuel = self.fresh("w")
        inner = loops + [_Loop(fuel, True)]
        lines = [(indent, f"{fuel} = 0", f"{fuel} = 0")]
        if self.coin():
            self.features.add("while-true")
            lines += [
                (indent, "while True:", "loop"),
                (indent + 1, f"{fuel} += 1", f"{fuel} = {fuel} + 1"),
                (indent + 1, f"if {fuel} > 4:", f"if {fuel} > 4 then"),
                (indent + 2, "break", "break"),
                (indent + 1, None, "endif"),
            ]
            closer = "endloop"
        else:
            cond_py, cond_dsl = self.condition(inner)
            lines += [
                (indent, f"while {fuel} < 4 and {cond_py}:", f"while {fuel} < 4 and {cond_dsl} do"),
                (indent + 1, f"{fuel} += 1", f"{fuel} = {fuel} + 1"),
            ]
            closer = "endwhile"
        lines += self.body(inner, depth - 1, indent + 1)
        return lines + [(indent, None, closer)]

    # -- the function --------------------------------------------------
    def function(self) -> Generated:
        # the loop language infers parameters from what is read first; an
        # assume reads n and m (and holds: inputs are drawn from -3 up)
        lines = [(1, None, f"assume {name} >= -3") for name in INTS]
        init = [f"s = {self.pick(('0', 'n', '1'))}", f"t = {self.pick(('0', 'm', '2'))}"]
        lines += [(1, text, text) for text in init]
        lines += self.body([], 3, 1)
        ret_py, ret_dsl = self.expr([])
        lines.append((1, f"return {ret_py}", f"return {ret_dsl}"))
        python = f"def f({', '.join(INTS + LISTS)}):\n" + "".join(
            "    " * i + py + "\n" for i, py, _ in lines if py is not None
        )
        dsl = None
        if self.shared:
            dsl = "".join("  " * i + text + "\n" for i, _, text in lines if text is not None)
        return Generated(python, dsl, self.features)


@st.composite
def functions(draw) -> Generated:
    return _Writer(draw, shared=draw(st.booleans())).function()


class _OverBudget(Exception):
    """CPython ran more than ``PY_LINES`` lines of the function."""


def _python_run(source: str, ints: Dict[str, int], lists: Dict[str, List[int]]):
    env = {"__builtins__": {"range": range, "len": len}}
    exec(source, env)
    copies = {name: list(values) for name, values in lists.items()}
    code, lines = env["f"].__code__, 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > PY_LINES:
                raise _OverBudget
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        returned = env["f"](**ints, **copies)
    except Exception:
        return None  # out of contract (or over budget): the input is discarded
    finally:
        sys.settrace(previous)
    return _normal(returned), {name: [_normal(v) for v in vs] for name, vs in copies.items()}


def _ir_run(function, scalars: Dict[str, int], lists: Dict[str, List[int]]):
    arrays = {
        name: {(i,): v for i, v in enumerate(values)}
        for name, values in lists.items()
        if name in function.arrays
    }
    args = {name: scalars[name] for name in function.params}
    result = Interpreter(function, fuel=IR_FUEL).run(args, arrays)
    final = {
        name: [result.arrays.get(name, {}).get((i,), v) for i, v in enumerate(values)]
        for name, values in lists.items()
    }
    return _normal(result.return_value), final


def _normal(value):
    return int(value) if isinstance(value, bool) else value


@settings(
    max_examples=150,
    deadline=None,
    # no shrink phase: a failure already prints the whole function, and
    # shrinking these programs takes minutes
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(program=functions(), data=st.data())
def test_generated_function_matches_cpython(program, data):
    compared = 0
    for _ in range(3):
        ints = {name: data.draw(st.integers(-3, 7), label=name) for name in INTS}
        lists = {
            name: data.draw(st.lists(st.integers(-5, 9), max_size=10), label=name)
            for name in LISTS
        }
        compared += _matches_cpython(program, ints, lists)
    assume(compared > 0)


def _matches_cpython(program: Generated, ints, lists) -> bool:
    """Run one input through CPython and the IR(s) and compare; False if
    the input is out of contract and discarded."""
    (cf,) = compile_module(program.python, origin="generated.py").functions
    assert cf.ok, (program.python, [d.message for d in cf.degradations])
    expected = _python_run(program.python, ints, lists)
    if expected is None:
        return False
    # an unused list parameter has int kind: the IR never sees it
    scalars = dict(ints)
    used = {name: lists[name] for name, kind in cf.params if kind == "list"}
    scalars.update({name + LEN_SUFFIX: len(values) for name, values in used.items()})
    scalars.update({name: 0 for name, kind in cf.params if kind == "int" and name in LISTS})
    try:
        got = _ir_run(cf.function, scalars, used)
    except InterpreterError as error:
        pytest.fail(f"pyfront IR raised {error} where CPython did not:\n{program.python}")
    assert got[0] == expected[0], (program.python, ints, lists)
    assert got[1] == {name: expected[1][name] for name in used}, (program.python, ints, lists)
    if program.dsl is not None:
        dsl_function = lower_program(parse_program(program.dsl), name="f")
        got = _ir_run(dsl_function, ints, lists)
        assert got[0] == expected[0], (program.dsl, ints, lists)
        assert got[1] == expected[1], (program.dsl, ints, lists)
    return True


#: on ``GROWING_INPUT`` the list stores keep raising the ``range(x1)``
#: limits: CPython runs 84,626 lines and the IR would need 212,316 steps,
#: past its fuel
GROWING_LIMIT = Generated(
    python=textwrap.dedent(
        """\
        def f(n, m, xs, ys):
            for x1 in xs:
                w2 = 0
                while w2 < 4:
                    w2 += 1
                    for i3 in range(w2, len(xs), 2):
                        xs[w2 + 1] = -(x1 * i3)
                for i6 in range(x1):
                    pass
            return 6
        """
    ),
    dsl=None,
)
GROWING_INPUT = {"xs": [1, 8, 6, 3, -1, 3, 7, -2, 8, -2], "ys": []}


def test_input_past_the_fuel_is_discarded():
    ints = {"n": 0, "m": 0}
    assert not _matches_cpython(GROWING_LIMIT, ints, GROWING_INPUT)
    assert _matches_cpython(GROWING_LIMIT, ints, {"xs": [3, 0, 0, 0, 0, 0], "ys": []})


class _SeededWriter(_Writer):
    """The same writer on ``random.Random`` draws: cheap and repeatable."""

    def __init__(self, rng: random.Random):
        super().__init__(None, shared=rng.random() < 0.5)
        self.rng = rng

    def pick(self, options):
        return self.rng.choice(list(options))

    def coin(self) -> bool:
        return self.rng.random() < 0.5

    def between(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)


def test_writer_draws_every_required_case():
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        seen |= _SeededWriter(rng).function().features
    assert seen >= {
        "own-bounds",
        "limit-reassigned",
        "negative-step",
        "zero-trip",
        "break-in-nest",
        "continue-in-nest",
        "for-list",
        "nested-for-list",
        "multi-target",
        "chained-compare",
        "while-true",
        "floor",
    }
