"""The order of a degraded def's ``PYF4xx`` records, shape by shape.

One walk both records a def's problems and desugars it, and for these
shapes the order in which it records differs from the order in which it
builds: each def below has at least two problems, and its exact
``(diag_code, code)`` sequence is pinned.  The compile and pylint
goldens catch a reordering too, but only as a changed sha256; a failure
here names the shape.
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
        [
            ("PYF401", "unsupported-target"),
            ("PYF402", "unsupported-subscript-base"),
            ("PYF402", "non-int-literal"),
        ],
    ),
    # the target, then the operator, then the value
    "augassign": (
        """
        def augassign(n):
            n.x **= "s"
        """,
        [
            ("PYF401", "unsupported-target"),
            ("PYF401", "unsupported-augassign"),
            ("PYF402", "non-int-literal"),
        ],
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
        [
            ("PYF401", "loop-else"),
            ("PYF401", "unsupported-loop-target"),
            ("PYF402", "unsupported-expression:Attribute"),
            ("PYF402", "non-int-literal"),
            ("PYF402", "unsupported-expression:Attribute"),
            ("PYF401", "non-constant-range-step"),
            ("PYF402", "non-int-literal"),
        ],
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
        [
            ("PYF402", "unsupported-expression:Attribute"),
            ("PYF401", "loop-else"),
            ("PYF402", "non-int-literal"),
        ],
    ),
    # the left operand, then each relation with its comparator
    "chained-compare": (
        """
        def chained(n):
            if n.x is "a" in n.y:
                return 0
        """,
        [
            ("PYF402", "unsupported-expression:Attribute"),
            ("PYF402", "unsupported-comparison:Is"),
            ("PYF402", "non-int-literal"),
            ("PYF402", "unsupported-comparison:In"),
            ("PYF402", "unsupported-expression:Attribute"),
        ],
    ),
    # the operator, then the left operand, then the right one
    "binop": (
        """
        def binop(n):
            return n.x @ "s"
        """,
        [
            ("PYF402", "unsupported-operator:MatMult"),
            ("PYF402", "unsupported-expression:Attribute"),
            ("PYF402", "non-int-literal"),
        ],
    ),
}


@pytest.mark.parametrize("shape", sorted(CASES))
def test_records_come_in_walk_order(shape):
    source, expected = CASES[shape]
    (compiled,) = compile_module(textwrap.dedent(source), origin="order.py").functions
    assert not compiled.ok
    assert [(d.diag_code, d.code) for d in compiled.degradations] == expected
