"""Property tests for the int-first coefficient representation.

An :class:`Expr` coefficient is a plain ``int`` unless a division made it
non-integral, and then a :class:`~fractions.Fraction` -- never a float
and never an integral ``Fraction``.  The representation must be
invisible: arithmetic commutes with numeric evaluation, and an ``int``
and the equal ``Fraction`` build equal, equal-hashing expressions.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.symbolic.closedform import ClosedForm
from repro.symbolic.expr import Expr

SYMBOLS = ("x", "y", "z")

small_ints = st.integers(min_value=-6, max_value=6)
leaves = st.one_of(
    small_ints.map(Expr.const),
    st.sampled_from(SYMBOLS).map(Expr.sym),
)


def _combine(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda ab: ab[0] + ab[1]),
        binary.map(lambda ab: ab[0] - ab[1]),
        binary.map(lambda ab: ab[0] * ab[1]),
        st.tuples(children, st.sampled_from((2, 3))).map(lambda ad: ad[0] / ad[1]),
    )


exprs = st.recursive(leaves, _combine, max_leaves=8)
fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)
points = st.fixed_dictionaries({name: fractions for name in SYMBOLS})


def _assert_canonical(expr):
    for _mono, coeff in expr.iter_terms():
        assert type(coeff) is int or (
            type(coeff) is Fraction and coeff.denominator != 1
        ), f"non-canonical coefficient {coeff!r} in {expr}"


@settings(max_examples=200, deadline=None)
@given(exprs, exprs)
def test_coefficients_are_int_or_nonintegral_fraction(a, b):
    for expr in (a, b, a + b, a - b, a * b, a / 2, a / 3, -a):
        _assert_canonical(expr)


@settings(max_examples=200, deadline=None)
@given(exprs, exprs, points)
def test_arithmetic_commutes_with_evaluate(a, b, env):
    va, vb = a.evaluate(env), b.evaluate(env)
    assert (a + b).evaluate(env) == va + vb
    assert (a - b).evaluate(env) == va - vb
    assert (a * b).evaluate(env) == va * vb
    for divisor in (2, 3, Fraction(2, 3)):
        assert (a / divisor).evaluate(env) == va / divisor


@example(3)
@given(small_ints)
def test_int_and_fraction_constants_are_one_value(n):
    as_int = Expr.const(n)
    as_fraction = Expr({(): Fraction(n)})
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert Expr.const(Fraction(n)) == as_int
    _assert_canonical(as_fraction)


def test_integral_quotient_collapses_to_int():
    half = Expr.sym("x") / 2
    assert type(dict(half.iter_terms())[(("x", 1),)]) is Fraction
    whole = half * 2
    assert type(dict(whole.iter_terms())[(("x", 1),)]) is int
    assert whole == Expr.sym("x")


geometric_forms = st.builds(
    lambda poly, geo: ClosedForm(poly, geo),
    st.lists(small_ints, max_size=3),
    st.dictionaries(st.sampled_from((-3, -2, 2, 3)), small_ints, min_size=1, max_size=2),
)


@settings(max_examples=100, deadline=None)
@given(geometric_forms, st.integers(min_value=0, max_value=6))
def test_shift_back_delays_a_geometric_form(form, h):
    shifted = form.shift(-1)
    assert shifted.value_at(h + 1) == form.value_at(h)
    for coeff in shifted.coeffs + tuple(shifted.geo.values()):
        _assert_canonical(coeff)
    _assert_canonical(form.value_at(h))
