"""An ``Expr`` keeps its rendered text; keeping it must change nothing.

``str(expr)`` is computed once per instance and stored on it.  Over the
classifier golden's inputs, every text rendered while analyzing,
recording and reporting a program must equal a fresh rendering under
``set_memoization(False)``, and ``describe_all()`` must be the same with
and without memoization.  Arithmetic on an already-rendered value must
render the result's own text, never its operand's.
"""

from fractions import Fraction

import pytest

from repro.obs.runlog import build_record
from repro.pipeline import analyze
from repro.report import format_report
from repro.symbolic import expr as expr_module
from repro.symbolic.expr import Expr
from tests.core.test_classify_golden import CASES


def _rendered_while_serving(source, monkeypatch):
    """(expr, text) for every ``str()`` taken while a program is served."""
    seen = []
    render = Expr.__str__

    def recording(self):
        text = render(self)
        seen.append((self, text))
        return text

    monkeypatch.setattr(Expr, "__str__", recording)
    try:
        program = analyze(source, ranges=True, invariants=True)
        described = program.describe_all()
        build_record(program)
        format_report(program)
    finally:
        monkeypatch.undo()
    return seen, described


@pytest.mark.parametrize("case", sorted(CASES))
def test_kept_text_equals_a_fresh_rendering(case, monkeypatch):
    seen, described = _rendered_while_serving(CASES[case], monkeypatch)
    assert seen
    previous = expr_module.set_memoization(False)
    try:
        for expr, text in seen:
            assert expr._str == text
            assert str(expr) == text
        fresh = analyze(CASES[case], ranges=True, invariants=True).describe_all()
    finally:
        expr_module.set_memoization(previous)
    assert fresh == described


def test_memoization_off_renders_fresh_and_keeps_nothing():
    previous = expr_module.set_memoization(False)
    try:
        value = Expr.sym("n") * 3 + 7
        assert str(value) == "7 + 3*n"
        assert value._str is None
    finally:
        expr_module.set_memoization(previous)
    assert str(value) == "7 + 3*n"
    assert value._str == "7 + 3*n"


def test_arithmetic_on_a_rendered_value_renders_its_own_text():
    n = Expr.sym("n")
    base = n + 1
    assert str(base) == "1 + n"
    results = [
        (-base, "-1 - n"),
        (base + 1, "2 + n"),
        (base - 1, "n"),
        (base * 2, "2 + 2*n"),
        (base * Fraction(1, 2), "1/2 + 1/2*n"),
        (base * base, "1 + 2*n + n^2"),
        (base**2, "1 + 2*n + n^2"),
        (base - base, "0"),
        (base.substitute({"n": Expr.sym("m")}), "1 + m"),
        (base.rename({"n": "k"}), "1 + k"),
    ]
    for value, expected in results:
        assert value is not base
        assert str(value) == expected
    assert str(base) == "1 + n"
