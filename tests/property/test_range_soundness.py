"""Soundness oracle for the value-range analysis.

Every interval :func:`repro.ranges.compute_ranges` predicts must contain
every value the interpreter actually observes for that name -- for random
loop bodies and for parameterized programs driven with arguments drawn
from their ``assume`` ranges.  The analysis may be *imprecise* (wider is
always allowed, the full interval trivially so) but never *wrong*.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ir.interp import Interpreter, InterpreterError
from repro.pipeline import analyze

VARS = ["a", "b", "c", "d"]
FUEL = 200_000


def assert_history_within_ranges(program, args):
    """Run the SSA function and check every observed value's interval."""
    info = program.result.ranges
    assert info is not None
    try:
        run = Interpreter(program.ssa, fuel=FUEL, record_history=True).run(args)
    except InterpreterError:
        return  # e.g. out of fuel: nothing observed, nothing to check
    for name, values in run.value_history.items():
        interval = info.range_of(name)
        for value in values:
            assert interval.contains(value), (
                f"{name} observed {value} outside predicted {interval}\n"
                f"args={args}\nhistory={values}"
            )
    for param, value in (args or {}).items():
        assert info.range_of(param).contains(value)


@st.composite
def statements(draw):
    """One random loop-body statement over VARS."""
    kind = draw(
        st.sampled_from(
            ["inc", "dec", "affine", "copy", "swapstep", "mulstep", "condinc"]
        )
    )
    target = draw(st.sampled_from(VARS))
    source = draw(st.sampled_from(VARS))
    const = draw(st.integers(min_value=-3, max_value=3))
    if kind == "inc":
        return f"{target} = {target} + {abs(const)}"
    if kind == "dec":
        return f"{target} = {target} - {abs(const)}"
    if kind == "affine":
        return f"{target} = {source} + {const}"
    if kind == "copy":
        return f"{target} = {source}"
    if kind == "swapstep":
        return f"{target} = {3 + abs(const)} - {target}"
    if kind == "mulstep":
        return f"{target} = {target} * {abs(const) % 3 + 1} + {abs(const)}"
    if kind == "condinc":
        return (
            f"if i % 3 == {abs(const) % 3} then\n"
            f"    {target} = {target} + {abs(const)}\n"
            f"  endif"
        )
    raise AssertionError(kind)


@st.composite
def loop_programs(draw):
    inits = [f"{v} = {draw(st.integers(min_value=-4, max_value=4))}" for v in VARS]
    body = [f"  {draw(statements())}" for _ in range(draw(st.integers(1, 5)))]
    trips = draw(st.integers(min_value=0, max_value=9))
    lines = inits + [f"L1: for i = 1 to {trips} do"] + body + ["endfor"]
    return "\n".join(lines)


@settings(max_examples=80, deadline=None)
@given(loop_programs())
def test_predicted_ranges_contain_every_observed_value(source):
    program = analyze(source, ranges=True)
    assert_history_within_ranges(program, {})


@st.composite
def assumed_programs(draw):
    """A parameterized loop whose trip count is bounded by ``assume``."""
    lo = draw(st.integers(min_value=-2, max_value=3))
    hi = lo + draw(st.integers(min_value=0, max_value=8))
    body = [f"  {draw(statements())}" for _ in range(draw(st.integers(1, 3)))]
    lines = (
        [f"assume n >= {lo}", f"assume n <= {hi}"]
        + [f"{v} = {draw(st.integers(min_value=-4, max_value=4))}" for v in VARS]
        + ["L1: for i = 1 to n do"]
        + body
        + ["endfor"]
    )
    n = draw(st.integers(min_value=lo, max_value=hi))
    return "\n".join(lines), n


@settings(max_examples=80, deadline=None)
@given(assumed_programs())
def test_assumed_ranges_sound_for_conforming_arguments(case):
    source, n = case
    program = analyze(source, ranges=True)
    assert_history_within_ranges(program, {"n": n})


@st.composite
def accumulations(draw):
    """``t = t + s``: summing another variable gives polynomial forms."""
    target = draw(st.sampled_from(VARS))
    source = draw(st.sampled_from(VARS))
    return f"{target} = {target} + {source}"


@st.composite
def unbounded_programs(draw):
    """``for i = 1 to n`` with no ``assume``: the trip range is ``[0, +inf)``.

    Every closed form is then evaluated over a half-line of iterations,
    which per-point enumeration never covers.
    """
    step = st.one_of(statements(), accumulations())
    body = [f"  {draw(step)}" for _ in range(draw(st.integers(1, 4)))]
    lines = (
        [f"{v} = {draw(st.integers(min_value=-4, max_value=4))}" for v in VARS]
        + ["L1: for i = 1 to n do"]
        + body
        + ["endfor"]
    )
    return "\n".join(lines)


#: trip counts each unbounded program runs with (negative and zero-trip too)
UNBOUNDED_TRIPS = (-1, 0, 1, 2, 5, 12)


@settings(max_examples=60, deadline=None)
@given(unbounded_programs())
def test_unbounded_trip_ranges_sound(source):
    program = analyze(source, ranges=True)
    assert program.result.ranges.trip_upper_bound("L1") is None
    for n in UNBOUNDED_TRIPS:
        assert_history_within_ranges(program, {"n": n})


def test_examples_corpus_is_sound():
    """Every embedded example program passes the oracle on fixed samples."""
    import os

    from repro.diagnostics.driver import collect_targets

    examples = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
    for target in collect_targets([examples]):
        program = analyze(target.source, ranges=True)
        params = program.ssa.params
        for seed in (1, 3, 7):
            args = {}
            for param in params:
                interval = program.result.ranges.range_of(param)
                value = seed
                lo, hi = interval.int_lower(), interval.int_upper()
                if lo is not None and value < lo:
                    value = lo
                if hi is not None and value > hi:
                    value = hi
                args[param] = value
            assert_history_within_ranges(program, args)
