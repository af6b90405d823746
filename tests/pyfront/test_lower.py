"""Lowering correctness: real Python functions into named IR."""

import textwrap

import pytest

from repro.ir.interp import Interpreter, InterpreterError
from repro.pyfront.lower import LEN_SUFFIX, compile_module


def compile_one(source, name=None):
    module = compile_module(textwrap.dedent(source), origin="test.py")
    table = {cf.qualname: cf for cf in module.functions}
    cf = table[name] if name else module.functions[0]
    assert cf.ok, [d.message for d in cf.degradations]
    return cf


def run(cf, args=None, lists=None):
    """Execute a compiled function with Python-style list arguments."""
    scalars = dict(args or {})
    arrays = {}
    for array, values in (lists or {}).items():
        scalars[array + LEN_SUFFIX] = len(values)
        arrays[array] = {(i,): v for i, v in enumerate(values)}
    result = Interpreter(cf.function).run(scalars, arrays)
    return result


class TestStraightLine:
    def test_arithmetic_and_return(self):
        cf = compile_one(
            """
            def f(a, b):
                c = a * 3 - b
                return c + 2
            """
        )
        assert run(cf, {"a": 5, "b": 4}).return_value == 13

    def test_bare_and_none_return(self):
        cf = compile_one(
            """
            def f(a):
                if a > 0:
                    return
                return None
            """
        )
        assert run(cf, {"a": 1}).return_value is None
        assert run(cf, {"a": -1}).return_value is None

    def test_multi_target_assignment(self):
        cf = compile_one(
            """
            def f(n):
                a = b = n + 1
                return a + b
            """
        )
        assert run(cf, {"n": 3}).return_value == 8

    def test_bool_literals_are_ints(self):
        cf = compile_one(
            """
            def f():
                x = True
                return x + True + False
            """
        )
        assert run(cf).return_value == 2


class TestFloorDivision:
    """CPython floors; the IR truncates -- the expansion must bridge."""

    @pytest.mark.parametrize("a", range(-7, 8))
    @pytest.mark.parametrize("b", [-3, -2, -1, 1, 2, 3])
    def test_floordiv_matches_cpython(self, a, b):
        cf = compile_one("def f(a, b):\n    return a // b\n")
        assert run(cf, {"a": a, "b": b}).return_value == a // b

    @pytest.mark.parametrize("a", range(-7, 8))
    @pytest.mark.parametrize("b", [-3, -2, -1, 1, 2, 3])
    def test_mod_matches_cpython(self, a, b):
        cf = compile_one("def f(a, b):\n    return a % b\n")
        assert run(cf, {"a": a, "b": b}).return_value == a % b

    def test_division_by_zero_raises_like_cpython(self):
        cf = compile_one("def f(a, b):\n    return a // b\n")
        with pytest.raises(InterpreterError):
            run(cf, {"a": 1, "b": 0})

    def test_augmented_floordiv(self):
        cf = compile_one(
            """
            def f(a, b):
                a //= b
                return a
            """
        )
        assert run(cf, {"a": -7, "b": 2}).return_value == -4


class TestLoops:
    def test_range_one_arg(self):
        cf = compile_one(
            """
            def f(n):
                s = 0
                for i in range(n):
                    s += i
                return s
            """
        )
        assert run(cf, {"n": 5}).return_value == 10
        assert run(cf, {"n": 0}).return_value == 0
        assert run(cf, {"n": -3}).return_value == 0

    def test_range_three_args_negative_step(self):
        cf = compile_one(
            """
            def f(n):
                s = 0
                for i in range(n, 0, -2):
                    s += i
                return s
            """
        )
        assert run(cf, {"n": 7}).return_value == 7 + 5 + 3 + 1

    def test_range_stop_evaluated_once(self):
        # CPython evaluates range(n) before the loop; mutating n inside
        # must not change the trip count
        cf = compile_one(
            """
            def f(n):
                count = 0
                for i in range(n):
                    n = 0
                    count += 1
                return count
            """
        )
        assert run(cf, {"n": 4}).return_value == 4

    def test_for_over_list_binds_elements(self):
        cf = compile_one(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total += x
                return total
            """
        )
        assert run(cf, lists={"xs": [3, -1, 4]}).return_value == 6

    def test_while_with_break_continue(self):
        cf = compile_one(
            """
            def f(n):
                total = 0
                i = 0
                while True:
                    i += 1
                    if i > 100:
                        break
                    if i % 2 == 0:
                        continue
                    if i > n:
                        break
                    total += i
                return total
            """
        )
        assert run(cf, {"n": 7}).return_value == 1 + 3 + 5 + 7

    def test_nested_loops(self):
        cf = compile_one(
            """
            def f(n):
                total = 0
                for i in range(n):
                    for j in range(i):
                        total += 1
                return total
            """
        )
        assert run(cf, {"n": 5}).return_value == 0 + 1 + 2 + 3 + 4

    def test_sequential_loop_variable_reuse_is_allowed(self):
        cf = compile_one(
            """
            def f(n):
                s = 0
                for i in range(n):
                    s += i
                for i in range(n):
                    s += i
                return s
            """
        )
        assert run(cf, {"n": 4}).return_value == 12


class TestRangeBoundsBeforeBinding:
    """``range`` evaluates its bounds before the loop variable is bound:
    IR and CPython must agree when a bound names the loop variable or the
    body reassigns the limit."""

    @staticmethod
    def _cpython(source, **args):
        env = {"__builtins__": {"range": range}}
        exec(textwrap.dedent(source), env)
        return env["f"](**args)

    CASES = {
        "limit_names_loop_variable": """
            def f(i):
                c = 0
                for i in range(1, i + 1):
                    c = c + 1
                return c
            """,
        "bare_limit_is_loop_variable": """
            def f(i):
                c = 0
                for i in range(i):
                    c = c + i
                return c
            """,
        "limit_reassigned_in_body": """
            def f(i):
                n = i
                c = 0
                for k in range(n):
                    n = n - 1
                    c = c + 1
                return c + n
            """,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("i", [-2, 0, 1, 5])
    def test_ir_matches_cpython(self, case, i):
        source = self.CASES[case]
        expected = self._cpython(source, i=i)
        assert run(compile_one(source), {"i": i}).return_value == expected

    def test_roadmap_example_returns_five(self):
        cf = compile_one(self.CASES["limit_names_loop_variable"])
        assert run(cf, {"i": 5}).return_value == 5


class TestConditions:
    def test_chained_comparison_short_circuits(self):
        cf = compile_one(
            """
            def f(a, b, c):
                if a < b < c:
                    return 1
                return 0
            """
        )
        assert run(cf, {"a": 1, "b": 2, "c": 3}).return_value == 1
        assert run(cf, {"a": 1, "b": 5, "c": 3}).return_value == 0
        assert run(cf, {"a": 9, "b": 2, "c": 3}).return_value == 0

    def test_and_or_not(self):
        cf = compile_one(
            """
            def f(a, b):
                if a > 0 and not (b > 0 or a > 10):
                    return 1
                return 0
            """
        )
        assert run(cf, {"a": 5, "b": -1}).return_value == 1
        assert run(cf, {"a": 5, "b": 1}).return_value == 0
        assert run(cf, {"a": 11, "b": -1}).return_value == 0

    def test_integer_truthiness(self):
        cf = compile_one(
            """
            def f(a):
                if a:
                    return 1
                return 0
            """
        )
        assert run(cf, {"a": -7}).return_value == 1
        assert run(cf, {"a": 0}).return_value == 0

    def test_comparison_as_value(self):
        cf = compile_one(
            """
            def f(a, b):
                return (a < b) + (a == b)
            """
        )
        assert run(cf, {"a": 1, "b": 2}).return_value == 1
        assert run(cf, {"a": 2, "b": 2}).return_value == 1
        assert run(cf, {"a": 3, "b": 2}).return_value == 0


class TestLists:
    def test_subscript_store_and_load(self):
        cf = compile_one(
            """
            def f(xs):
                for i in range(len(xs)):
                    xs[i] = xs[i] * 2 + 1
                return 0
            """
        )
        result = run(cf, lists={"xs": [1, 2, 3]})
        assert [result.arrays["xs"][(i,)] for i in range(3)] == [3, 5, 7]

    def test_negative_constant_index(self):
        cf = compile_one(
            """
            def f(xs):
                return xs[-1] + xs[-2]
            """
        )
        assert run(cf, lists={"xs": [10, 20, 30]}).return_value == 50

    def test_augmented_subscript(self):
        cf = compile_one(
            """
            def f(xs, k):
                xs[k] += 5
                return xs[k]
            """
        )
        result = run(cf, {"k": 1}, lists={"xs": [1, 2, 3]})
        assert result.return_value == 7
        assert result.arrays["xs"][(1,)] == 7

    def test_len_reads_length_parameter(self):
        cf = compile_one("def f(xs):\n    return len(xs)\n")
        assert f"xs{LEN_SUFFIX}" in cf.function.params
        assert run(cf, lists={"xs": [5, 6]}).return_value == 2


class TestAsserts:
    def test_scalar_assert_becomes_assumption(self):
        cf = compile_one(
            """
            def f(n):
                assert n >= 0
                return n
            """
        )
        assert ("n", ">=", 0) in cf.function.assumptions

    def test_flipped_assert_normalizes(self):
        cf = compile_one(
            """
            def f(n):
                assert 10 > n
                return n
            """
        )
        assert ("n", "<", 10) in cf.function.assumptions

    def test_len_equality_sets_concrete_extent(self):
        cf = compile_one(
            """
            def f(xs):
                assert len(xs) == 4
                return xs[0]
            """
        )
        assert cf.function.array_extents["xs"] == (4,)

    def test_unrecognized_assert_drops_with_note(self):
        module = compile_module(
            "def f(a, b):\n    assert a < b\n    return a\n", origin="t.py"
        )
        (cf,) = module.functions
        assert cf.ok
        assert [d.diag_code for d in cf.degradations] == ["PYF407"]


class TestModuleStructure:
    def test_nested_and_method_qualnames(self):
        module = compile_module(
            textwrap.dedent(
                """
                class Outer:
                    def method(self, x):
                        return x

                def top(n):
                    def inner(m):
                        return m
                    return n
                """
            ),
            origin="q.py",
        )
        names = [cf.qualname for cf in module.functions]
        assert names == ["Outer.method", "top", "top.inner"]

    def test_origin_carries_line_numbers(self):
        module = compile_module("\n\ndef late(n):\n    return n\n", origin="x.py")
        assert module.functions[0].origin == "x.py:3"
