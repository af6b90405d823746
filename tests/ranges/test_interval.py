"""Unit tests for the shared interval algebra (Bound + Interval)."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.ranges.interval import NEG_INF, POS_INF, Bound, Interval


class TestBound:
    def test_of_coerces_and_passes_through(self):
        assert Bound.of(3) == Bound(Fraction(3))
        assert Bound.of(Fraction(1, 2)).value == Fraction(1, 2)
        assert Bound.of(POS_INF) is POS_INF

    def test_ordering_with_infinities(self):
        assert NEG_INF < Bound.of(-(10**9)) < Bound.of(0) < POS_INF
        assert NEG_INF <= NEG_INF
        assert POS_INF >= POS_INF
        assert not (POS_INF < POS_INF)

    def test_equality_against_numbers(self):
        assert Bound.of(5) == 5
        assert Bound.of(Fraction(1, 2)) == Fraction(1, 2)
        assert POS_INF != 5

    def test_addition(self):
        assert Bound.of(2) + Bound.of(3) == 5
        assert POS_INF + Bound.of(7) == POS_INF
        assert Bound.of(7) + NEG_INF == NEG_INF

    def test_indeterminate_sum_raises(self):
        with pytest.raises(ValueError, match="indeterminate"):
            POS_INF + NEG_INF

    def test_negation(self):
        assert -POS_INF == NEG_INF
        assert -Bound.of(3) == -3

    def test_multiplication_signs(self):
        assert Bound.of(-2) * POS_INF == NEG_INF
        assert NEG_INF * NEG_INF == POS_INF
        assert Bound.of(3) * Bound.of(-4) == -12

    def test_zero_times_infinity_is_zero(self):
        # the hull convention: a zero factor pins the product
        assert Bound.of(0) * POS_INF == 0
        assert NEG_INF * Bound.of(0) == 0

    def test_floor_and_ceil(self):
        assert Bound.of(Fraction(7, 2)).floor_int() == 3
        assert Bound.of(Fraction(7, 2)).ceil_int() == 4
        assert POS_INF.floor_int() is None
        assert NEG_INF.ceil_int() is None

    def test_repr(self):
        assert repr(POS_INF) == "+inf"
        assert repr(NEG_INF) == "-inf"
        assert repr(Bound.of(3)) == "3"


class TestIntervalBasics:
    def test_constructor_coerces_ints(self):
        iv = Interval(0, 10)
        assert iv.lo == 0 and iv.hi == 10

    def test_point_and_top(self):
        assert Interval.point(4).is_point
        assert Interval.top().is_top
        assert not Interval(0, 1).is_top

    def test_contains(self):
        iv = Interval(1, 50)
        assert iv.contains(1) and iv.contains(50) and iv.contains(25)
        assert not iv.contains(0) and not iv.contains(51)
        assert not Interval.empty_interval().contains(0)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 3))
        assert not Interval(0, 10).contains_interval(Interval(2, 11))
        assert Interval(0, 10).contains_interval(Interval.empty_interval())
        assert not Interval.empty_interval().contains_interval(Interval(1, 1))

    def test_hull(self):
        assert Interval.hull([3, -1, 7]) == Interval(-1, 7)
        assert Interval.hull([]).empty


class TestIntervalAlgebra:
    def test_addition(self):
        assert Interval(1, 2) + Interval(10, 20) == Interval(11, 22)
        assert (Interval.at_least(0) + Interval.point(5)) == Interval.at_least(5)

    def test_subtraction(self):
        assert Interval(1, 2) - Interval(1, 2) == Interval(-1, 1)

    def test_negation(self):
        assert -Interval(1, 3) == Interval(-3, -1)
        assert -Interval.at_least(2) == Interval.at_most(-2)

    def test_multiplication_corners(self):
        assert Interval(-2, 3) * Interval(-5, 4) == Interval(-15, 12)
        assert Interval(2, 3) * Interval.at_least(1) == Interval.at_least(2)

    def test_scale(self):
        assert Interval(1, 2).scale(-3) == Interval(-6, -3)

    def test_union_and_intersect(self):
        assert Interval(0, 2).union(Interval(5, 7)) == Interval(0, 7)
        assert Interval(0, 5).intersect(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 1).intersect(Interval(2, 3)).empty

    def test_empty_propagates(self):
        empty = Interval.empty_interval()
        assert (empty + Interval(0, 1)).empty
        assert (empty * Interval(0, 1)).empty
        assert empty.union(Interval(1, 2)) == Interval(1, 2)

    def test_intersects(self):
        assert Interval(0, 5).intersects(Interval(5, 9))
        assert not Interval(0, 4).intersects(Interval(5, 9))

    def test_integer_views(self):
        iv = Interval(Fraction(1, 2), Fraction(9, 2))
        assert iv.int_lower() == 1
        assert iv.int_upper() == 4
        assert Interval.top().int_upper() is None
        assert Interval.empty_interval().int_lower() is None

    def test_repr(self):
        assert repr(Interval(1, 50)) == "[1, 50]"
        assert repr(Interval.top()) == "[-inf, +inf]"
        assert repr(Interval.empty_interval()) == "Interval(empty)"


finite_values = st.one_of(
    st.integers(min_value=-2000, max_value=2000),
    st.fractions(min_value=-50, max_value=50, max_denominator=6),
)


@st.composite
def intervals(draw):
    """Non-empty intervals with int, Fraction or infinite endpoints."""
    a, b = sorted((draw(finite_values), draw(finite_values)))
    lo = NEG_INF if draw(st.booleans()) else Bound.of(a)
    hi = POS_INF if draw(st.booleans()) else Bound.of(b)
    return Interval(lo, hi)


class TestFastPathsMatchBoundOperators:
    """``__add__``/``intersect`` read finite values directly; same results."""

    @given(intervals(), intervals())
    def test_addition(self, a, b):
        assert a + b == Interval(a.lo + b.lo, a.hi + b.hi)

    @given(intervals(), intervals())
    def test_intersection(self, a, b):
        lo = a.lo if a.lo >= b.lo else b.lo
        hi = a.hi if a.hi <= b.hi else b.hi
        meet = a.intersect(b)
        if lo > hi:
            assert meet.empty
        else:
            assert meet == Interval(lo, hi)
