"""Value-range analysis over the classification lattice.

Every classified SSA value already *is* a range fact (section 4's whole
point): an ``Invariant(e)`` is the point ``[e, e]``; a linear IV with a
known trip count spans exactly ``[init, init + step*(n-1)]`` (sign
aware); a constant quadratic gets its exact hull from the endpoints and
the interior vertex, and a short finite span is enumerated point by
point; every other closed form with constant coefficients goes through
one exact integer kernel (:func:`_constant_form_interval`) that sums
each term's endpoint values on plain ``int``/``Fraction`` numbers, so
only symbolic coefficients use the general interval algebra; a
monotonic variable is half-bounded from its initial value; wrap-around
and periodic variables take finitely many values; ``Unknown`` is the
full interval.  :func:`compute_ranges` seeds every name from its class, then
propagates through the operator nodes (phi = union, arithmetic =
interval algebra, compare = ``[0, 1]``) to a decreasing fixpoint --
operator information only ever *intersects* what the lattice already
proved, so each step stays a sound over-approximation.

Parameter facts come from source-level ``assume`` declarations
(:attr:`~repro.ir.function.Function.assumptions`); trip-count ranges are
derived per loop from its :class:`~repro.core.tripcount.TripCount`, so a
symbolic count like ``n`` with ``assume n <= 50`` yields the finite trip
bound the Banerjee tester needs.

The operator fixpoint runs on a **def-use worklist** seeded in
topological (block) order: an instruction re-runs its transfer function
only when an operand's interval actually narrowed, so the cost is
proportional to the narrowings that happen rather than to
``passes * instructions``.  The result is the unique greatest fixpoint
below the seed (every transfer function is monotone and intersection
only descends), bit-identical to the old whole-function re-sweep
retained as :func:`_fixpoint_resweep` for the equivalence tests.  Both
call the one transfer function, :func:`_transfer`, which dispatches on
the instruction's type and reads operand intervals straight from the
value map.

Everything degrades safely: an unknown symbol, an unevaluable closed
form, or an injected fault (point ``ranges.compute``) answers the full
interval and analysis continues.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.core.classes import (
    BranchDependent,
    Classification,
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    WrapAround,
)
from repro.core.driver import AnalysisResult
from repro.core.tripcount import TripCount, TripCountKind
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, Compare, Instruction, Load, Phi, UnOp
from repro.ir.opcodes import BinaryOp, Relation
from repro.ir.values import Ref, Value
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.ranges import interval as _interval
from repro.ranges.interval import NEG_INF, POS_INF, Bound, Finite, Interval
from repro.ranges.interval import _canonical as _num
from repro.resilience.faultinject import fault_point
from repro.symbolic.closedform import ClosedForm, ClosedFormError
from repro.symbolic.expr import Expr

TOP = Interval.top()
_ONE = Interval.point(1)

#: fixpoint pass cap of the reference re-sweep (:func:`_fixpoint_resweep`)
MAX_PASSES = 8
#: largest finite iteration span enumerated exactly for closed forms
MAX_ENUM = 64
#: largest exponent interval-powered before giving up
MAX_POWER = 16


@dataclass
class RangeInfo:
    """Queryable result of one value-range analysis.

    ``values`` maps SSA names (and parameters) to intervals; ``trips``
    maps loop headers to trip-*count* intervals.  Missing entries -- and
    everything on a ``degraded`` instance -- answer the full interval,
    which is the safe default the resilience boundary degrades to.
    """

    function: str = ""
    values: Dict[str, Interval] = field(default_factory=dict)
    trips: Dict[str, Interval] = field(default_factory=dict)
    degraded: bool = False
    #: worklist statistics of the run that produced this info (exported
    #: as the ``ranges.fixpoint.*`` metrics)
    fixpoint_visits: int = 0
    fixpoint_narrowed: int = 0
    fixpoint_insts: int = 0

    def range_of(self, name: str) -> Interval:
        return self.values.get(name, TOP)

    def value_interval(self, value: Value) -> Interval:
        """Range of an IR operand (constants are points)."""
        return _operand(value, self.values)

    def trip_range(self, header: str) -> Interval:
        return self.trips.get(header, Interval.at_least(0))

    def trip_upper_bound(self, header: str) -> Optional[int]:
        """Largest possible trip count of ``header``, or None if unbounded.

        This is what tightens the Banerjee tests: iteration variables
        range over ``[0, bound - 1]``, and any upper bound on the trip
        count is sound there.
        """
        upper = self.trip_range(header).int_upper()
        if upper is None:
            return None
        return max(upper, 0)

    def nontrivial(self) -> int:
        """How many tracked values have a better-than-full interval."""
        return sum(1 for iv in self.values.values() if not iv.is_top)

    @staticmethod
    def top_info(function: str = "", degraded: bool = True) -> "RangeInfo":
        """The all-top fallback used when the ranges phase degrades."""
        return RangeInfo(function=function, degraded=degraded)


# ----------------------------------------------------------------------
# assumptions and expression evaluation
# ----------------------------------------------------------------------
def assumption_env(function: Function) -> Dict[str, Interval]:
    """Intervals implied by the source's ``assume`` declarations."""
    env: Dict[str, Interval] = {}
    for name, relation, bound in getattr(function, "assumptions", ()):
        if relation == "<=":
            fact = Interval.at_most(bound)
        elif relation == "<":
            fact = Interval.at_most(bound - 1)
        elif relation == ">=":
            fact = Interval.at_least(bound)
        elif relation == ">":
            fact = Interval.at_least(bound + 1)
        elif relation == "==":
            fact = Interval.point(bound)
        else:
            continue
        env[name] = env.get(name, TOP).intersect(fact)
    return env


def _power(interval: Interval, exponent: int) -> Interval:
    if exponent == 1:
        return interval
    if exponent < 0 or exponent > MAX_POWER:
        return TOP
    out = _ONE
    for _ in range(exponent):
        out = out * interval
    if exponent and exponent % 2 == 0:
        # an even power is never negative, even when the base straddles 0
        out = out.intersect(_NONNEG)
    return out


_NONNEG = Interval.at_least(0)
_NONPOS = Interval.at_most(0)


def eval_expr(expr: Expr, env: Dict[str, Interval]) -> Interval:
    """Interval of ``expr`` under per-symbol intervals (unknown = full)."""
    total: Optional[Interval] = None
    for mono, coeff in expr.iter_terms():
        term = Interval.point(coeff)
        for symbol, exponent in mono:
            term = term * _power(env.get(symbol, TOP), exponent)
        total = term if total is None else total + term
    return total if total is not None else Interval.point(0)


# ----------------------------------------------------------------------
# trip-count ranges
# ----------------------------------------------------------------------
def trip_interval(
    trip: Optional[TripCount],
    env: Dict[str, Interval],
    result: Optional[AnalysisResult] = None,
) -> Interval:
    """Sound interval of a loop's dynamic trip count.

    The paper's formula clamps at zero (``tripcount = 0 if i <= 0``), so
    a symbolic count expression is an upper bound wherever non-negative:
    the true count always lies in ``[0, max(count, 0)]``.
    """
    if trip is None or trip.kind is TripCountKind.UNKNOWN:
        return Interval.at_least(0)
    if trip.kind is TripCountKind.ZERO:
        return Interval.point(0)
    if trip.kind is TripCountKind.INFINITE:
        return Interval.at_least(0)
    constant = trip.constant()
    if constant is not None:
        if trip.exact:
            return Interval.point(constant)
        return Interval(0, max(constant, 0))
    if trip.count is None:
        return Interval.at_least(0)
    count = eval_expr(trip.count, env)
    count = _refine_opaque_count(trip.count, count, env, result)
    if count.empty:
        return Interval.at_least(0)
    if trip.exact and count.int_lower() is not None and count.int_lower() >= 1:
        # the count expression is provably positive: it is exact
        return count.intersect(Interval.at_least(0))
    upper = count.int_upper()
    if upper is None:
        return Interval.at_least(0)
    return Interval(0, max(upper, 0))


def _refine_opaque_count(
    count: Expr,
    evaluated: Interval,
    env: Dict[str, Interval],
    result: Optional[AnalysisResult],
) -> Interval:
    """Bound an opaque ``$k = ceil(init / d)`` symbol through its definition."""
    if result is None or not evaluated.is_top:
        return evaluated
    symbols = count.free_symbols()
    if len(symbols) != 1:
        return evaluated
    definition = result.opaque_definitions.get(next(iter(symbols)))
    if not definition or definition[0] != "ceildiv":
        return evaluated
    _tag, init, divisor = definition
    inner = eval_expr(init, env)
    if inner.empty or divisor <= 0:
        return evaluated
    # ceil(x / d) lies within [x/d, x/d + 1)
    lo = (
        Bound.of(Fraction(inner.lo.value) / divisor)
        if inner.lo.is_finite
        else NEG_INF
    )
    hi = (
        Bound.of(Fraction(inner.hi.value) / divisor + 1)
        if inner.hi.is_finite
        else POS_INF
    )
    return Interval(lo, hi)


def _iteration_interval(trip: Interval) -> Interval:
    """``h in [0, trips - 1]`` for the iterations that actually execute."""
    upper = trip.int_upper()
    if upper is None:
        return Interval.at_least(0)
    return Interval(0, max(upper - 1, 0))


def _phi_iteration_interval(trip: Interval) -> Interval:
    """``h in [0, trips]``: header phis see one extra evaluation.

    The guarded header runs once more than the body -- the evaluation
    whose guard fails and exits the loop -- so a header phi's closed form
    must also cover ``h = trips`` (e.g. ``i`` reaches 11 leaving
    ``for i = 1 to 10``).
    """
    upper = trip.int_upper()
    if upper is None:
        return Interval.at_least(0)
    return Interval(0, max(upper, 0))


# ----------------------------------------------------------------------
# per-class intervals
# ----------------------------------------------------------------------
def class_interval(
    cls: Classification, h: Interval, env: Dict[str, Interval]
) -> Interval:
    """Interval of a classified value over the iteration space ``h``."""
    if isinstance(cls, Invariant):
        return eval_expr(cls.expr, env)
    if isinstance(cls, InductionVariable):
        return closedform_interval(cls.form, h, env)
    if isinstance(cls, WrapAround):
        out = class_interval(cls.inner, h, env)
        upper = h.int_upper()
        for index, pre in enumerate(cls.pre_values):
            if upper is not None and index > upper:
                break
            out = out.union(eval_expr(pre, env))
        return out
    if isinstance(cls, Periodic):
        out = Interval.empty_interval()
        for value in cls.values:
            out = out.union(eval_expr(value, env))
        return out if not out.empty else TOP
    if isinstance(cls, Monotonic):
        if cls.init is None:
            return TOP
        start = eval_expr(cls.init, env)
        if start.empty:
            return TOP
        if cls.direction > 0:
            return Interval(start.lo, POS_INF)
        return Interval(NEG_INF, start.hi)
    if isinstance(cls, BranchDependent):
        # after h full trips the value lies in ``init + h * [min, max]``
        # over the per-path step set: an affine hull for bounded h, a
        # half-line for one-signed steps, top only when nothing is known
        if cls.init is None:
            return TOP
        start = eval_expr(cls.init, env)
        if start.empty:
            return TOP
        step = Interval.empty_interval()
        for candidate in cls.steps:
            step = step.union(eval_expr(candidate, env))
        if step.empty:
            return TOP
        # every step's sign is part of the classification: fold it in even
        # when the step expressions themselves evaluate unbounded
        if cls.direction == 1:
            step = step.intersect(_NONNEG)
        elif cls.direction == -1:
            step = step.intersect(_NONPOS)
        return start + h * step
    return TOP  # Unknown and anything new


def closedform_interval(
    form: ClosedForm, h: Interval, env: Dict[str, Interval]
) -> Interval:
    """Interval of ``form(h)`` over an iteration interval ``h``.

    ``h`` is what :func:`_iteration_interval` builds: a finite lower
    bound ``>= 0`` and an upper bound that may be ``+inf``.  The tighter
    derivations come first where they apply -- the exact hull of a
    constant polynomial of degree <= 2, then per-point enumeration of a
    short finite span.  Otherwise a form whose coefficients are all
    constants goes through :func:`_constant_form_interval`, and only a
    form with a symbolic coefficient uses the general interval algebra.
    """
    lower = h.int_lower()
    upper = h.int_upper()
    if lower is None or lower < 0:
        raise ValueError(f"closed forms are evaluated over h >= 0, not {h!r}")

    if upper is not None:
        if not form.geo and len(form.coeffs) <= 3 and _is_constant_form(form):
            return _quadratic_hull(form, lower, upper)
        if upper - lower <= MAX_ENUM:
            out = Interval.empty_interval()
            for point in range(lower, upper + 1):
                try:
                    value = form.value_at(point)
                except ClosedFormError:
                    out = None
                    break
                out = out.union(eval_expr(value, env))
            if out is not None:
                return out if not out.empty else TOP

    out = _constant_form_interval(form, lower, upper)
    if out is not None:
        return out

    # a symbolic coefficient: general interval arithmetic over the
    # polynomial + geometric parts
    total = Interval.point(0)
    for power, coeff in enumerate(form.coeffs):
        total = total + eval_expr(coeff, env) * _power(h, power)
    for base, coeff in form.geo.items():
        total = total + eval_expr(coeff, env) * _geo_power(base, lower, upper)
    return total


def _is_constant_form(form: ClosedForm) -> bool:
    for coeff in form.coeffs:
        if not coeff.is_constant:
            return False
    for coeff in form.geo.values():
        if not coeff.is_constant:
            return False
    return True


def _constant_form_interval(
    form: ClosedForm, lower: int, upper: Optional[int]
) -> Optional[Interval]:
    """``form(h)`` for ``h in [lower, upper]`` when every coefficient is constant.

    ``0 <= lower``; ``upper`` is None when ``h`` is unbounded.  Answers
    None when a coefficient is symbolic.  Otherwise the result is exactly
    the interval the general algebra gives -- the endpoint-wise sum of
    ``_power(h, p).scale(c)`` and ``_geo_power(b, ...).scale(g)`` --
    computed on plain ``int``/``Fraction`` endpoints, with None standing
    for the infinite ones.  Over ``h >= 0`` every ``h ** p`` and every
    ``b ** h`` with ``b > 1`` is nondecreasing, so each term spans its
    values at the two ends (``h ** 0`` is ``[1, 1]``, and the hull
    convention ``0 * inf = 0`` keeps ``[0, +inf) ** p`` at ``[0, +inf)``).
    """
    lo: Optional[Finite] = 0  # None is -inf
    hi: Optional[Finite] = 0  # None is +inf
    # each non-constant term is ``c * x`` with ``x`` in ``[first, last]``;
    # None is the infinite end on that side
    terms: List[Tuple[Finite, Optional[Finite], Optional[Finite]]] = []
    for power, coeff in enumerate(form.coeffs):
        if not coeff.is_constant:
            return None
        c = coeff.constant_term()
        if not c:
            continue  # a zero coefficient adds the point 0
        if power == 0:
            lo = hi = c  # h ** 0 is 1, even when h is unbounded
        elif power > MAX_POWER:
            terms.append((c, None, None))  # the full interval, as _power
        else:
            terms.append((c, lower**power, None if upper is None else upper**power))
    for base, coeff in form.geo.items():
        if not coeff.is_constant:
            return None
        g = coeff.constant_term()
        if base > 0:
            terms.append((g, base**lower, None if upper is None else base**upper))
        elif upper is None:
            terms.append((g, None, None))
        else:
            # alternating sign: |base ** h| <= |base| ** upper
            magnitude = (-base) ** upper
            terms.append((g, -magnitude, magnitude))

    for c, first, last in terms:
        if c < 0:
            first, last = last, first  # a negative factor swaps the ends
        if lo is not None:
            if first is None:
                lo = None
            elif first:
                lo += c * first
        if hi is not None:
            if last is None:
                hi = None
            elif last:
                hi += c * last
    return Interval._raw(
        NEG_INF if lo is None else Bound.of(lo),
        POS_INF if hi is None else Bound.of(hi),
    )


def _quadratic_hull(form: ClosedForm, lower: int, upper: int) -> Interval:
    """Exact hull of a constant quadratic: endpoints + interior extremum.

    A quadratic over an integer interval attains its extrema at the
    endpoints or at the integers adjacent to the real vertex.
    """
    c0 = _num(form.coeff(0).constant_value())
    c1 = _num(form.coeff(1).constant_value())
    c2 = _num(form.coeff(2).constant_value())

    def value(h: int) -> Finite:
        return c0 + (c1 + c2 * h) * h

    points = {lower, upper}
    if c2 != 0:
        vertex = Fraction(-c1, 2 * c2) if type(c1) is int and type(c2) is int else -c1 / (2 * c2)
        for candidate in (int(vertex), int(vertex) + 1, int(vertex) - 1):
            if lower <= candidate <= upper:
                points.add(candidate)
    return Interval.hull(value(h) for h in points)


def _geo_power(base: int, lower: Optional[int], upper: Optional[int]) -> Interval:
    """Interval of ``base ** h`` for integer ``h`` in ``[lower, upper]``."""
    if lower is None:
        lower = 0
    lower = max(lower, 0)
    if base == 0:
        return Interval(0, 1)  # 0**0 == 1, 0**h == 0 afterwards
    if base >= 1:
        if upper is None:
            return Interval(base**lower, POS_INF) if base > 1 else Interval.point(1)
        return Interval(base**lower, base**upper)
    # negative base: alternating sign, magnitude bounded by |base|**upper
    if upper is None:
        return TOP
    magnitude = abs(base) ** upper
    return Interval(-magnitude, magnitude)


# ----------------------------------------------------------------------
# operator transfer functions
# ----------------------------------------------------------------------
def _div_interval(a: Interval, b: Interval) -> Interval:
    """Truncating integer division: ``trunc(a / b)``.

    Truncation moves toward zero, so the quotient always lies in the hull
    of the dividend's range and zero; a constant divisor gives the exact
    monotone image.
    """
    if a.empty or b.empty:
        return Interval.empty_interval()
    coarse = a.union(Interval.point(0))
    if b.is_point and b.lo.is_finite and b.lo.value != 0:
        divisor = b.lo.value
        lo = a.lo
        hi = a.hi
        if lo.is_finite and hi.is_finite:
            corners = [_trunc_div(lo.value, divisor), _trunc_div(hi.value, divisor)]
            return Interval(min(corners), max(corners))
    return coarse


def _trunc_div(a, b) -> int:
    """Exact ``trunc(a / b)`` without intermediate Fraction allocation."""
    if type(a) is int and type(b) is int:
        quotient = a // b
        if quotient < 0 and quotient * b != a:
            quotient += 1  # floor -> trunc for inexact negative quotients
        return quotient
    return int(Fraction(a) / b)  # int() truncates toward zero for Fractions


def _mod_interval(a: Interval, b: Interval) -> Interval:
    """Remainder with the dividend's sign (``|r| < |b|`` and ``|r| <= |a|``)."""
    if a.empty or b.empty:
        return Interval.empty_interval()
    out = a.union(Interval.point(0))
    if b.lo.is_finite and b.hi.is_finite:
        magnitude = max(abs(b.lo.value), abs(b.hi.value))
        if magnitude > 0:
            out = out.intersect(Interval(-(magnitude - 1), magnitude - 1))
    return out


_BOOL = Interval(0, 1)


def _compare_interval(relation: Relation, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return _BOOL
    definitely = _relation_definitely(relation, a, b)
    if definitely is True:
        return Interval.point(1)
    if definitely is False:
        return Interval.point(0)
    return _BOOL


def _relation_definitely(relation: Relation, a: Interval, b: Interval):
    """True/False when every value pair decides the relation; else None."""
    if relation is Relation.LT:
        if a.hi < b.lo:
            return True
        if a.lo >= b.hi:
            return False
    elif relation is Relation.LE:
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
    elif relation is Relation.GT:
        return _relation_definitely(Relation.LT, b, a)
    elif relation is Relation.GE:
        return _relation_definitely(Relation.LE, b, a)
    elif relation is Relation.EQ:
        if a.is_point and b.is_point and a.lo == b.lo:
            return True
        if not a.intersects(b):
            return False
    elif relation is Relation.NE:
        inverse = _relation_definitely(Relation.EQ, a, b)
        if inverse is not None:
            return not inverse
    return None


def _operand(value: Value, env: Dict[str, Interval]) -> Interval:
    """Interval of an operand: a constant is its point interval."""
    if type(value) is Ref:
        return env.get(value.name, TOP)
    return Interval.point(value.value)


def _transfer(inst: Instruction, env: Dict[str, Interval]) -> Optional[Interval]:
    """Operator interval of ``inst`` over ``env`` (None: defines nothing).

    Dispatches on ``type(inst)`` and reads operand intervals straight
    from ``env``.
    """
    kind = type(inst)
    if kind is BinOp:
        # the hot case: operands read inline rather than through _operand
        a = inst.lhs
        a = env.get(a.name, TOP) if type(a) is Ref else Interval.point(a.value)
        b = inst.rhs
        b = env.get(b.name, TOP) if type(b) is Ref else Interval.point(b.value)
        op = inst.op
        if op is BinaryOp.ADD:
            return a + b
        if op is BinaryOp.SUB:
            return a - b
        if op is BinaryOp.MUL:
            return a * b
        if op is BinaryOp.DIV:
            return _div_interval(a, b)
        if op is BinaryOp.MOD:
            return _mod_interval(a, b)
        if op is BinaryOp.EXP:
            if b.is_point and b.lo.is_finite:
                exponent = b.lo.value
                if exponent.denominator == 1 and 0 <= exponent <= MAX_POWER:
                    return _power(a, int(exponent))
            return TOP
        return TOP
    if kind is Phi:
        out = None
        for value in inst.incoming.values():
            a = _operand(value, env)
            out = a if out is None else out.union(a)
        return out if out is not None and not out.empty else TOP
    if kind is Assign:
        return _operand(inst.src, env)
    if kind is Compare:
        return _compare_interval(
            inst.relation, _operand(inst.lhs, env), _operand(inst.rhs, env)
        )
    if kind is UnOp:
        return -_operand(inst.operand, env)
    if kind is Load:
        return TOP
    return None


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def compute_ranges(result: AnalysisResult) -> RangeInfo:
    """Map every classified SSA value of ``result`` to a sound interval."""
    fault_point("ranges.compute")
    function = result.function
    registry = _metrics.active()
    interval_cache = _metrics.CacheDelta("interval.cache", _interval.cache_stats)
    with _trace.span("ranges", function=function.name):
        info = _compute(function, result)
    if registry is not None:
        registry.inc("ranges.values", len(info.values))
        registry.inc("ranges.nontrivial", info.nontrivial())
        registry.inc("ranges.loops", len(info.trips))
        registry.inc(
            "ranges.trips.bounded",
            sum(1 for iv in info.trips.values() if iv.int_upper() is not None),
        )
        registry.inc("ranges.fixpoint.insts", info.fixpoint_insts)
        registry.inc("ranges.fixpoint.visits", info.fixpoint_visits)
        registry.inc("ranges.fixpoint.narrowed", info.fixpoint_narrowed)
        interval_cache.publish()
    return info


def _compute(function: Function, result: AnalysisResult) -> RangeInfo:
    """Seed from the classification lattice, then run the worklist fixpoint."""
    info = _seed(function, result)
    _fixpoint_worklist(function, info)
    return info


def _compute_resweep(function: Function, result: AnalysisResult) -> RangeInfo:
    """Reference implementation: seed, then the old whole-function re-sweep.

    Kept (not exported) purely so the equivalence tests can assert the
    worklist fixpoint is bit-identical to the historical behavior.
    """
    info = _seed(function, result)
    _fixpoint_resweep(function, info)
    return info


def _seed(function: Function, result: AnalysisResult) -> RangeInfo:
    info = RangeInfo(function=function.name, values=assumption_env(function))
    env = info.values

    # seed classification-derived ranges, outermost loops first: an inner
    # (symbolic) trip count mentions outer names whose ranges must exist
    for loop in reversed(list(result.nest.inner_to_outer())):
        summary = result.loops.get(loop.header)
        trip = trip_interval(
            summary.trip if summary is not None else None, env, result
        )
        info.trips[loop.header] = trip
        if summary is None:
            continue
        h = _iteration_interval(trip)
        h_phi = _phi_iteration_interval(trip)
        header = function.blocks.get(loop.header)
        phi_names = (
            {phi.result for phi in header.phis()} if header is not None else set()
        )
        for name, cls in summary.classifications.items():
            try:
                defining = result.defining_loop(name)
            except Exception:  # noqa: BLE001 - treat as not-in-a-loop
                defining = None
            if defining is not None and defining.header != loop.header:
                # an enclosing summary sees an inner loop's name only as
                # its exit value; the inner summary covers every value it
                # actually takes, so only that one may seed the range
                continue
            derived = class_interval(
                cls, h_phi if name in phi_names else h, env
            )
            env[name] = env.get(name, TOP).intersect(derived)
    return info


def _fixpoint_worklist(function: Function, info: RangeInfo) -> None:
    """Operator propagation on a def-use worklist (intersection only).

    Every result-producing instruction is queued once in topological
    (block) order; after that, an instruction re-enters the queue only
    when one of its operands' intervals actually narrowed.  Transfer
    functions are monotone and intersection only descends, so this
    converges to the unique greatest fixpoint below the seed -- the same
    intervals :func:`_fixpoint_resweep` computes, visiting a fraction of
    the instructions.
    """
    env = info.values
    insts: List[Instruction] = []
    users: Dict[str, List[int]] = {}
    for block in function:
        for inst in block:
            if inst.result is None:
                continue
            pos = len(insts)
            insts.append(inst)
            for value in inst.uses():
                if type(value) is Ref:
                    users.setdefault(value.name, []).append(pos)

    count = len(insts)
    pending = deque(range(count))
    popleft = pending.popleft
    queued = bytearray(b"\x01") * count
    narrowed = requeued = 0
    while pending:
        pos = popleft()
        queued[pos] = 0
        inst = insts[pos]
        derived = _transfer(inst, env)
        if derived is None:
            continue
        name = inst.result
        old = env.get(name, TOP)
        new = old.intersect(derived)
        if new is old or new == old:
            continue
        env[name] = new
        narrowed += 1
        for user in users.get(name, ()):
            if not queued[user]:
                queued[user] = 1
                pending.append(user)
                requeued += 1
    info.fixpoint_insts = count
    # every instruction is visited once, plus once per re-queue
    info.fixpoint_visits = count + requeued
    info.fixpoint_narrowed = narrowed


def _fixpoint_resweep(function: Function, info: RangeInfo) -> None:
    """The historical intersect-only re-sweep (reference for equivalence)."""
    env = info.values
    for _ in range(MAX_PASSES):
        changed = False
        for block in function:
            for inst in block:
                if inst.result is None:
                    continue
                derived = _transfer(inst, env)
                if derived is None:
                    continue
                old = env.get(inst.result, TOP)
                new = old.intersect(derived)
                if new != old:
                    env[inst.result] = new
                    changed = True
        if not changed:
            break
