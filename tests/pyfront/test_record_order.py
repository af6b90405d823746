"""Which ``PYF4xx`` record a degraded def carries, shape by shape.

One walk both desugars a def and stops at its first problem, and for
these shapes the order in which it checks differs from the order in
which it builds: each def below has at least two problems (their walk
order is in the comment), and the one record it carries, the first of
them, is pinned.  The first-blocker golden catches a change too, but
only as a changed sha256; a failure here names the shape.
"""

import textwrap

import pytest

from repro.pyfront.lower import compile_module

CASES = {
    # the targets, left to right, then the value
    "assign": (
        """
        def assign(n):
            n.x = n.y[1:2] = "s"
        """,
        (
            "PYF401",
            "unsupported-target",
            "assignment target Attribute (line 3); only names and list "
            "subscripts are supported",
        ),
    ),
    # the target, then the operator, then the value
    "augassign": (
        """
        def augassign(n):
            n.x **= "s"
        """,
        (
            "PYF401",
            "unsupported-target",
            "assignment target Attribute (line 3); only names and list "
            "subscripts are supported",
        ),
    ),
    # the else clause, the target, the range arguments, the step, the body
    "for": (
        """
        def loop(n):
            for i, j in range(n.x, "s", n.y):
                return "t"
            else:
                pass
        """,
        (
            "PYF401",
            "loop-else",
            "for-else at line 3 is not lowered",
        ),
    ),
    # the test, then the else clause, then the body
    "while": (
        """
        def spin(n):
            while n.x:
                return "t"
            else:
                pass
        """,
        (
            "PYF402",
            "unsupported-expression:Attribute",
            "unsupported expression Attribute (line 3)",
        ),
    ),
    # the left operand, then each relation with its comparator
    "chained-compare": (
        """
        def chained(n):
            if n.x is "a" in n.y:
                return 0
        """,
        (
            "PYF402",
            "unsupported-expression:Attribute",
            "unsupported expression Attribute (line 3)",
        ),
    ),
    # the operator, then the left operand, then the right one
    "binop": (
        """
        def binop(n):
            return n.x @ "s"
        """,
        (
            "PYF402",
            "unsupported-operator:MatMult",
            "operator MatMult at line 3; only + - * // % lower",
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(CASES))
def test_records_come_in_walk_order(shape):
    source, expected = CASES[shape]
    (compiled,) = compile_module(textwrap.dedent(source), origin="order.py").functions
    assert not compiled.ok
    assert [
        (d.diag_code, d.code, d.message) for d in compiled.degradations
    ] == [expected]
