"""The constant-form kernel agrees with the general interval algebra.

:func:`repro.ranges.analysis._constant_form_interval` computes the
interval of a closed form whose coefficients are all constants on plain
``int``/``Fraction`` endpoints.  It must return exactly what the
general algebra returns for the same form: the sum of
``_power(h, p).scale(c)`` over the polynomial terms and
``_geo_power(b, lower, upper).scale(g)`` over the geometric ones.  The
draws cross ``MAX_POWER``, include zero middle coefficients and
negative geometric bases, and use both bounded and unbounded ``h``.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ranges.analysis import (
    MAX_ENUM,
    MAX_POWER,
    _constant_form_interval,
    _geo_power,
    _power,
    closedform_interval,
)
from repro.ranges.interval import Interval, set_interning
from repro.symbolic.closedform import ClosedForm

GEO_BASES = (-3, -2, 2, 3, 262144)

coefficients = st.one_of(
    st.just(0),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def constant_forms(draw):
    degree = draw(st.integers(min_value=0, max_value=MAX_POWER + 2))
    coeffs = [draw(coefficients) for _ in range(degree + 1)]
    bases = draw(st.lists(st.sampled_from(GEO_BASES), max_size=2, unique=True))
    geo = {base: draw(coefficients.filter(bool)) for base in bases}
    return ClosedForm(coeffs, geo)


@st.composite
def iteration_intervals(draw):
    """``(lower, upper)``: ``upper`` is None for ``[lower, +inf)``."""
    lower = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        return lower, None
    return lower, lower + draw(st.integers(min_value=0, max_value=MAX_ENUM + 12))


def reference(form, lower, upper):
    """The general interval algebra over the same form."""
    h = Interval(lower, upper) if upper is not None else Interval.at_least(lower)
    total = Interval.point(0)
    for power, coeff in enumerate(form.coeffs):
        total = total + _power(h, power).scale(coeff.constant_value())
    for base, coeff in form.geo.items():
        total = total + _geo_power(base, lower, upper).scale(coeff.constant_value())
    return total


def routed_to_kernel(form, lower, upper):
    """True when ``closedform_interval`` has no tighter derivation to use."""
    if upper is None:
        return True
    small_poly = not form.geo and len(form.coeffs) <= 3
    return not small_poly and upper - lower > MAX_ENUM


def check(form, span):
    lower, upper = span
    expected = reference(form, lower, upper)
    assert _constant_form_interval(form, lower, upper) == expected
    h = Interval(lower, upper) if upper is not None else Interval.at_least(lower)
    actual = closedform_interval(form, h, {})
    if routed_to_kernel(form, lower, upper):
        assert actual == expected
    else:
        # enumeration and the quadratic hull are exact: never looser
        assert expected.contains_interval(actual)


@settings(max_examples=300, deadline=None)
@given(constant_forms(), iteration_intervals())
def test_kernel_matches_interval_algebra(form, span):
    check(form, span)


@settings(max_examples=100, deadline=None)
@given(constant_forms(), iteration_intervals())
def test_kernel_matches_interval_algebra_without_interning(form, span):
    previous = set_interning(False)
    try:
        check(form, span)
    finally:
        set_interning(previous)


class TestTraps:
    def test_power_zero_is_one_on_a_half_line(self):
        form = ClosedForm([5])
        assert _constant_form_interval(form, 0, None) == Interval.point(5)

    def test_half_line_powers_stay_half_lines(self):
        form = ClosedForm([0, 0, 0, 2])
        assert _constant_form_interval(form, 0, None) == Interval.at_least(0)
        form = ClosedForm([1, 0, -3])
        assert _constant_form_interval(form, 0, None) == Interval.at_most(1)

    def test_power_above_cap_is_the_full_interval(self):
        form = ClosedForm([1] + [0] * MAX_POWER + [1])
        assert _constant_form_interval(form, 0, 10).is_top
        assert reference(form, 0, 10).is_top

    def test_zero_middle_coefficient_adds_zero(self):
        form = ClosedForm([Fraction(1, 2), 0, 3])
        assert _constant_form_interval(form, 2, 4) == Interval(Fraction(25, 2), Fraction(97, 2))

    def test_negative_base(self):
        form = ClosedForm([], {-2: 3})
        assert _constant_form_interval(form, 0, None).is_top
        assert _constant_form_interval(form, 0, 5) == Interval(-96, 96)

    def test_symbolic_coefficient_is_not_the_kernels(self):
        from repro.symbolic.expr import Expr

        form = ClosedForm([Expr.sym("n"), 1])
        assert _constant_form_interval(form, 0, None) is None
