"""Graceful degradation: a def is skipped with the PYF4xx record of its
first unsupported construct."""

import ast
import textwrap

import pytest

from repro.pyfront.lower import _Desugarer, compile_module


def degrade_codes(source, name=None):
    """Compile one function and return its (diag_code, code) pairs."""
    module = compile_module(textwrap.dedent(source), origin="deg.py")
    assert module.error is None
    table = {cf.qualname: cf for cf in module.functions}
    cf = table[name] if name else module.functions[0]
    assert not cf.ok
    assert cf.function is None
    return [(d.diag_code, d.code) for d in cf.degradations]


CASES = [
    # statements -> PYF401
    ("def f(x):\n    try:\n        return x\n    except Exception:\n        return 0\n", "PYF401"),
    ("def f(x):\n    with open(x):\n        pass\n    return 0\n", "PYF401"),
    ("def f(a, b):\n    a, b = b, a\n    return a\n", "PYF401"),
    ("def f(n):\n    for i in range(n):\n        pass\n    else:\n        return 1\n    return 0\n", "PYF401"),
    ("def f(n):\n    raise ValueError(n)\n", "PYF401"),
    ("def f(n):\n    del n\n    return 0\n", "PYF401"),
    ("def f(n):\n    import os\n    return n\n", "PYF401"),
    ("def f(n):\n    for i in range(0, n, n):\n        pass\n    return 0\n", "PYF401"),
    ("@staticmethod\ndef f(n):\n    return n\n", "PYF401"),
    ("def f(n):\n    break\n", "PYF401"),
    # expressions -> PYF402
    ("def f(x):\n    return x * 0.5\n", "PYF402"),
    ("def f(s):\n    return s + 'suffix'\n", "PYF402"),
    ("def f(t, k):\n    return t.get(k, 0)\n", "PYF402"),
    ("def f(n):\n    return [i for i in range(n)]\n", "PYF402"),
    ("def f(xs):\n    return xs[1:3]\n", "PYF402"),
    ("def f(x):\n    return undefined_global + x\n", "PYF402"),
    ("def f(x):\n    return x ** 2\n", "PYF402"),
    ("def f(n):\n    out = []\n    return n\n", "PYF402"),  # bare list literal
    # signatures -> PYF403
    ("def f(*args):\n    return 0\n", "PYF403"),
    ("def f(**kwargs):\n    return 0\n", "PYF403"),
    ("def f(*, flag):\n    return flag\n", "PYF403"),
    # type confusion -> PYF404
    ("def f(xs):\n    out = []\n    out[0] = 1\n    return xs[0]\n", "PYF404"),
    ("def f(xs):\n    xs = 3\n    return xs[0]\n", "PYF404"),
]


@pytest.mark.parametrize("source,expected", CASES)
def test_construct_degrades_with_expected_code(source, expected):
    codes = degrade_codes(source)
    assert expected in [diag for diag, _ in codes], codes


def test_loop_variable_reassigned_inside_loop():
    codes = degrade_codes(
        """
        def f(n):
            for i in range(n):
                i = 0
            return n
        """
    )
    assert ("PYF405", "loop-variable-reassigned") in codes


def test_loop_variable_read_after_loop():
    codes = degrade_codes(
        """
        def f(n):
            total = 0
            for i in range(n):
                total += i
            return i + total
        """
    )
    assert ("PYF405", "loop-variable-read-after-loop") in codes


def test_async_function_degrades():
    module = compile_module("async def f(n):\n    return n\n", origin="a.py")
    (cf,) = module.functions
    assert not cf.ok
    assert cf.degradations[0].diag_code == "PYF401"


def test_syntax_error_yields_module_record_not_exception():
    module = compile_module("def broken(:\n", origin="bad.py")
    assert module.error is not None
    assert module.error.diag_code == "PYF406"
    assert module.functions == []


def test_null_byte_source_never_raises():
    module = compile_module("def f():\n    return \x00\n", origin="nul.py")
    assert module.error is not None
    assert module.error.diag_code == "PYF406"


def test_walk_reports_only_the_first_problem():
    # the Try statement after the float literal is never visited
    module = compile_module(
        textwrap.dedent(
            """
            def f(x):
                y = x * 0.5
                try:
                    return y
                except Exception:
                    return 0
            """
        ),
        origin="deg.py",
    )
    (cf,) = module.functions
    assert cf.function is None
    assert [(d.diag_code, d.code, d.message) for d in cf.degradations] == [
        (
            "PYF402",
            "non-int-literal",
            "literal 0.5 at line 3; only int and bool literals lower",
        )
    ]


def test_walk_stops_at_the_first_blocker(monkeypatch):
    # a statement after the blocker that would crash the walk is never
    # reached, so the def reports the blocker, not PYF401 internal-error
    def crash(self, stmt, out):
        raise RuntimeError("walked past the first blocker")

    monkeypatch.setitem(_Desugarer.STATEMENTS, ast.Pass, crash)
    source = "def f(x):\n    y = x * 0.5\n    pass\n    return y\n"
    assert degrade_codes(source) == [("PYF402", "non-int-literal")]
    # the patched statement alone does crash it
    crashed = degrade_codes("def f(x):\n    pass\n    return x\n")
    assert crashed == [("PYF401", "internal-error")]


def test_assert_notes_only_on_functions_that_lower():
    source = "def f(x):\n    assert x\n    return x{}\n"
    (lowered,) = compile_module(source.format(""), origin="a.py").functions
    assert lowered.ok
    assert [(d.diag_code, d.code) for d in lowered.degradations] == [
        ("PYF407", "assert-dropped")
    ]
    assert degrade_codes(source.format(" * 0.5")) == [("PYF402", "non-int-literal")]


def test_one_bad_function_does_not_poison_siblings():
    module = compile_module(
        textwrap.dedent(
            """
            def bad(x):
                return x + "oops"

            def good(x):
                return x + 1
            """
        ),
        origin="mix.py",
    )
    table = {cf.qualname: cf for cf in module.functions}
    assert not table["bad"].ok
    assert table["good"].ok


def test_degradation_records_carry_scope_and_phase():
    module = compile_module("def f(x):\n    return x * 0.5\n", origin="s.py")
    (cf,) = module.functions
    record = cf.degradations[0]
    assert record.phase == "pyfront.lower"
    assert record.action == "skipped"
    assert "f" in (record.scope or "")


@pytest.mark.parametrize(
    "source",
    [
        "lambda: 0",
        "x = 1\n",
        "class C:\n    pass\n",
        "",
        "# just a comment\n",
    ],
)
def test_non_function_modules_compile_to_empty(source):
    module = compile_module(source, origin="misc.py")
    assert module.error is None
    assert module.functions == []
