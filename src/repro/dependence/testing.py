"""The dependence-testing driver (section 6).

``test_dependence(analysis, source, sink)`` decides whether the memory
reference ``source`` may conflict with ``sink`` on a later (or equal)
execution, and with which direction vectors over their common loops.

The dependence equation is built from the classified subscripts: for linear
subscripts ``sum_k a_k h_k - sum_k b_k h'_k = delta`` with ``delta`` the
difference of the invariant parts; the classic battery (ZIV, exact SIV
cases, GCD, Banerjee bounds under a hierarchy of direction vectors) then
applies.  Periodic / monotonic / wrap-around subscripts take the translated
paths of :mod:`repro.dependence.extended`.

Soundness convention: ``dependent=False`` is a *proof* of independence;
``dependent=True`` with ``exact=False`` merely means "could not disprove".
Direction vectors are filtered to those plausible for the source-to-sink
orientation (lexicographically forward; the all-``=`` vector only when the
source executes before the sink inside one iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.driver import AnalysisResult
from repro.dependence.banerjee import banerjee_feasible
from repro.obs.trace import traced
from repro.dependence.direction import (
    ANY,
    EQ,
    GT,
    LT,
    DirectionVector,
    DistanceVector,
)
from repro.dependence.gcd import gcd_feasible
from repro.dependence.siv import strong_siv, weak_crossing_siv, weak_zero_siv
from repro.dependence.subscript import (
    SubscriptDescriptor,
    SubscriptKind,
    describe_subscript,
)
from repro.ir.values import Value

MAX_ENUMERATED_LEVELS = 4


@dataclass(frozen=True)
class RefSite:
    """One static array reference.  ``indices`` is None for scalar memory,
    otherwise one subscript value per dimension."""

    array: str
    indices: Optional[Tuple[Value, ...]]
    block: str
    position: int
    is_write: bool

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"{kind}:{self.array}@{self.block}:{self.position}"


@dataclass
class DependenceResult:
    """Outcome of one source-to-sink dependence test."""

    dependent: bool
    common_loops: Tuple[str, ...] = ()
    directions: List[DirectionVector] = field(default_factory=list)
    distance: Optional[DistanceVector] = None
    holds_after: int = 0  # wrap-around: valid only after this many iterations
    exact: bool = False
    notes: List[str] = field(default_factory=list)
    #: why-not-DOALL attribution slug (see ``repro.obs.attribution``):
    #: which decision site failed to disprove this dependence
    cause: Optional[str] = None

    @staticmethod
    def independent(common: Tuple[str, ...] = (), note: str = "") -> "DependenceResult":
        return DependenceResult(False, common, [], exact=True, notes=[note] if note else [])

    @staticmethod
    def conservative(
        common: Tuple[str, ...], note: str, cause: str = "no-direction-info"
    ) -> "DependenceResult":
        return DependenceResult(
            True,
            common,
            [DirectionVector.star(len(common))],
            exact=False,
            notes=[note],
            cause=cause,
        )

    def __repr__(self) -> str:
        if not self.dependent:
            return "independent"
        dirs = ", ".join(map(repr, self.directions))
        extra = f" after {self.holds_after} iters" if self.holds_after else ""
        return f"dependent[{dirs}]{extra}"


def common_loop_prefix(
    analysis: AnalysisResult, block_a: str, block_b: str
) -> Tuple[str, ...]:
    from repro.dependence.subscript import loop_chain_of

    chain_a = loop_chain_of(analysis, block_a)
    chain_b = loop_chain_of(analysis, block_b)
    common: List[str] = []
    for a, b in zip(chain_a, chain_b):
        if a != b:
            break
        common.append(a)
    return tuple(common)


@traced("dependence.test")
def test_dependence(
    analysis: AnalysisResult,
    source: RefSite,
    sink: RefSite,
    source_first: Optional[bool] = None,
) -> DependenceResult:
    """May ``sink`` touch the same element as an earlier-or-equal ``source``?

    ``source_first``: whether the source site executes before the sink site
    within a single iteration of their common loops (decides whether the
    all-``=`` direction is plausible).  ``None`` keeps it conservatively.
    """
    if source.array != sink.array:
        return DependenceResult.independent(note="different arrays")
    common = common_loop_prefix(analysis, source.block, sink.block)
    if source.indices is None or sink.indices is None:
        result = DependenceResult.conservative(
            common, "unsubscripted reference", cause="unsubscripted"
        )
        return _filter_plausible(result, source_first)
    if len(source.indices) != len(sink.indices):
        result = DependenceResult.conservative(
            common, "rank mismatch", cause="rank-mismatch"
        )
        return _filter_plausible(result, source_first)

    # subscript-by-subscript: each dimension constrains the same iteration
    # pair, so the results intersect (independence in any dimension proves
    # independence overall)
    combined: Optional[DependenceResult] = None
    for src_index, sink_index in zip(source.indices, sink.indices):
        d_source = describe_subscript(analysis, src_index, source.block)
        d_sink = describe_subscript(analysis, sink_index, sink.block)
        result = _dispatch(analysis, d_source, d_sink, common, source, sink, source_first)
        if not result.dependent:
            return result
        combined = result if combined is None else _intersect(combined, result)
        if not combined.dependent:
            return combined
    assert combined is not None
    return _filter_plausible(combined, source_first)


def _dispatch(
    analysis: AnalysisResult,
    d_source: SubscriptDescriptor,
    d_sink: SubscriptDescriptor,
    common: Tuple[str, ...],
    source: RefSite,
    sink: RefSite,
    source_first: Optional[bool],
) -> DependenceResult:
    from repro.dependence import extended

    kinds = (d_source.kind, d_sink.kind)
    if SubscriptKind.WRAPAROUND in kinds:
        return extended.test_wraparound(
            analysis, d_source, d_sink, common, source, sink, source_first
        )
    if kinds == (SubscriptKind.LINEAR, SubscriptKind.LINEAR):
        return solve_linear(analysis, d_source, d_sink, common)
    if kinds == (SubscriptKind.PERIODIC, SubscriptKind.PERIODIC):
        return extended.test_periodic(d_source, d_sink, common)
    if kinds == (SubscriptKind.MONOTONIC, SubscriptKind.MONOTONIC):
        return extended.test_monotonic(
            d_source, d_sink, common, source_first,
            analysis=analysis, source_site=source,
        )
    note = f"no test for {kinds[0].value} vs {kinds[1].value}"
    reasons = [
        d.reason
        for d in (d_source, d_sink)
        if d.kind is SubscriptKind.UNKNOWN and d.reason
    ]
    if reasons:
        note += " (" + "; ".join(dict.fromkeys(reasons)) + ")"
    cause = "non-affine" if SubscriptKind.UNKNOWN in kinds else "mixed-kinds"
    return DependenceResult.conservative(common, note, cause=cause)


# ----------------------------------------------------------------------
# linear solving
# ----------------------------------------------------------------------
def solve_linear(
    analysis: AnalysisResult,
    d_source: SubscriptDescriptor,
    d_sink: SubscriptDescriptor,
    common: Tuple[str, ...],
    holds_after: int = 0,
) -> DependenceResult:
    delta_expr = d_sink.const - d_source.const
    ranges = getattr(analysis, "ranges", None)
    used_range_bound = False
    trips: Dict[str, Optional[int]] = {}
    for header in set(common) | set(d_source.coeffs) | set(d_sink.coeffs):
        summary = analysis.loops.get(header)
        trips[header] = summary.trip.constant() if summary is not None else None
        if trips[header] is None and ranges is not None:
            # a symbolic trip count with a known finite range: any upper
            # bound is sound here (iteration variables span [0, trips-1],
            # and a superset of that span can only hide independence, not
            # fabricate it)
            bound = ranges.trip_upper_bound(header)
            if bound is not None:
                trips[header] = bound
                used_range_bound = True

    # private loops (not common to both references)
    private: List[Tuple[Fraction, Optional[int]]] = []
    for header, coeff in d_source.coeffs.items():
        if header not in common and coeff:
            private.append((coeff, trips.get(header)))
    for header, coeff in d_sink.coeffs.items():
        if header not in common and coeff:
            private.append((-coeff, trips.get(header)))

    pairs = [(d_source.coeff(h), d_sink.coeff(h), trips.get(h)) for h in common]

    def annotate(result: DependenceResult) -> DependenceResult:
        if used_range_bound:
            result.notes.append("trip bounds tightened by value ranges")
        return result

    if not delta_expr.is_constant:
        if delta_expr.is_zero:
            delta = Fraction(0)
        else:
            result = DependenceResult.conservative(
                common, "symbolic constant difference", cause="symbolic-delta"
            )
            result.holds_after = holds_after
            return result
    else:
        delta = delta_expr.constant_value()

    active = [i for i, (a, b, _t) in enumerate(pairs) if a or b]

    # ZIV
    if not active and not private:
        if delta == 0:
            return DependenceResult(
                True,
                common,
                [DirectionVector.star(len(common))],
                distance=DistanceVector([None] * len(common)),
                exact=True,
                holds_after=holds_after,
                notes=["ZIV: always the same element"],
                cause="ziv",
            )
        return DependenceResult.independent(common, "ZIV: constant difference nonzero")

    # exact SIV cases
    if len(active) == 1 and not private:
        level = active[0]
        a, b, trip = pairs[level]
        siv = _siv_dispatch(a, b, delta, trip)
        if siv is not None:
            if siv.independent:
                return annotate(DependenceResult.independent(common, siv.note))
            vectors = []
            for vec in siv.directions or []:
                elements = [ANY] * len(common)
                elements[level] = vec[0]
                vectors.append(DirectionVector(elements))
            distance = None
            if siv.distance is not None:
                distances: List[Optional[int]] = [None] * len(common)
                distances[level] = siv.distance
                distance = DistanceVector(distances)
            return annotate(
                DependenceResult(
                    True,
                    common,
                    vectors,
                    distance=distance,
                    exact=True,
                    holds_after=holds_after,
                    notes=[siv.note],
                    cause="siv",
                )
            )

    # MIV: hierarchical direction-vector refinement with GCD + Banerjee
    return annotate(_refine_directions(pairs, private, delta, common, holds_after))


def _siv_dispatch(a: Fraction, b: Fraction, delta: Fraction, trip: Optional[int]):
    if a and b:
        if a == b:
            return strong_siv(a, delta, trip)
        if a == -b:
            return weak_crossing_siv(a, delta, trip)
        return None
    if a and not b:
        return weak_zero_siv(a, delta, trip, zero_side_is_sink=True)
    if b and not a:
        # equation: -b * h' = delta
        return weak_zero_siv(-b, delta, trip, zero_side_is_sink=False)
    return None


def _refine_directions(
    pairs: Sequence[Tuple[Fraction, Fraction, Optional[int]]],
    private: Sequence[Tuple[Fraction, Optional[int]]],
    delta: Fraction,
    common: Tuple[str, ...],
    holds_after: int,
) -> DependenceResult:
    levels = len(common)

    def feasible(signs_per_level) -> bool:
        if not gcd_feasible([(a, b) for a, b, _ in pairs], [c for c, _ in private], delta, signs_per_level):
            return False
        return banerjee_feasible(pairs, private, delta, signs_per_level)

    if not feasible([ANY] * levels):
        return DependenceResult.independent(common, "Banerjee/GCD: no solution")

    if levels == 0:
        return DependenceResult(
            True, common, [DirectionVector([])], exact=False,
            holds_after=holds_after, notes=["loop-independent overlap possible"],
            cause="miv",
        )

    if levels > MAX_ENUMERATED_LEVELS:
        result = DependenceResult.conservative(
            common, "too many levels to enumerate", cause="too-many-levels"
        )
        result.holds_after = holds_after
        return result

    leaves: List[DirectionVector] = []
    _refine([], levels, feasible, leaves)
    if not leaves:
        return DependenceResult.independent(common, "all direction vectors infeasible")
    return DependenceResult(
        True,
        common,
        leaves,
        exact=False,
        holds_after=holds_after,
        notes=["direction hierarchy (GCD + Banerjee)"],
        cause="miv",
    )


def _refine(
    prefix: List, levels: int, feasible: Callable[[List], bool], leaves: List[DirectionVector]
) -> None:
    """Append every feasible direction vector extending ``prefix``, LT
    before EQ before GT at each level.  A module function, not a closure
    that calls itself: that closure would be a reference cycle."""
    level = len(prefix)
    if level == levels:
        leaves.append(DirectionVector(prefix))
        return
    for signs in (LT, EQ, GT):
        if feasible(prefix + [signs] + [ANY] * (levels - level - 1)):
            _refine(prefix + [signs], levels, feasible, leaves)


# ----------------------------------------------------------------------
def _intersect(a: DependenceResult, b: DependenceResult) -> DependenceResult:
    """Conjunction of two per-dimension results on the same iteration pair."""
    directions: List[DirectionVector] = []
    for va in a.directions:
        for vb in b.directions:
            if len(va) != len(vb):
                continue
            meet = DirectionVector(
                [ea & eb for ea, eb in zip(va.elements, vb.elements)]
            )
            if not meet.is_empty:
                directions.append(meet)
    directions = _dedupe(directions)
    if not directions and (a.directions or b.directions):
        return DependenceResult.independent(
            a.common_loops, "per-dimension directions are incompatible"
        )
    distance = _intersect_distance(a.distance, b.distance)
    if distance is _CONFLICT:
        return DependenceResult.independent(
            a.common_loops, "per-dimension distances are incompatible"
        )
    return DependenceResult(
        True,
        a.common_loops,
        directions,
        distance=distance,
        holds_after=max(a.holds_after, b.holds_after),
        exact=a.exact and b.exact,
        notes=a.notes + b.notes,
        cause=a.cause or b.cause,
    )


_CONFLICT = object()


def _intersect_distance(a: Optional[DistanceVector], b: Optional[DistanceVector]):
    if a is None:
        return b
    if b is None:
        return a
    merged: List[Optional[int]] = []
    for da, db in zip(a.distances, b.distances):
        if da is None:
            merged.append(db)
        elif db is None or da == db:
            merged.append(da)
        else:
            return _CONFLICT
    return DistanceVector(merged)


def _filter_plausible(
    result: DependenceResult, source_first: Optional[bool]
) -> DependenceResult:
    """Keep only directions meaningful for the source-to-sink orientation."""
    if not result.dependent:
        return result
    kept = []
    for vector in result.directions:
        if not vector.is_plausible:
            continue
        if source_first is False and vector.elements:
            # a same-iteration (all '=') dependence needs the source to
            # execute before the sink: subtract the all-'=' instance
            kept.extend(_drop_backward(v) for v in _without_all_equal(vector))
        else:
            kept.append(_drop_backward(vector))
    kept = [v for v in kept if not v.is_empty]
    if not kept and result.directions:
        return DependenceResult.independent(
            result.common_loops, "only backward directions (belongs to reversed pair)"
        )
    result.directions = _dedupe(kept)
    return result


def _without_all_equal(vector: DirectionVector) -> List[DirectionVector]:
    """Decompose ``vector`` minus its all-'=' instance (lexicographic split).

    The instance space minus (=, =, ..., =) is the union, over each level k
    whose element allows a non-'=' sign, of
    ``(=, ..., =, e_k - {0}, e_{k+1}, ...)``.
    """
    if not all(0 in element for element in vector.elements):
        return [vector]  # cannot instantiate all-'='
    out: List[DirectionVector] = []
    for level, element in enumerate(vector.elements):
        rest = frozenset(element - {0})
        if not rest:
            continue
        elements = [EQ] * level + [rest] + list(vector.elements[level + 1:])
        out.append(DirectionVector(elements))
    return out


def _drop_backward(vector: DirectionVector) -> DirectionVector:
    """Remove sign choices that would make the vector lexicographically
    negative (source after sink)."""
    elements = list(vector.elements)
    for index, element in enumerate(elements):
        if element == EQ:
            continue
        if len(element) == 1:
            break
        # leading non-fixed level: the backward component (-1) is only
        # reachable while every previous level is '='; drop it here
        elements[index] = frozenset(element - {-1}) if 1 in element or 0 in element else element
        break
    return DirectionVector(elements)


def _dedupe(vectors: List[DirectionVector]) -> List[DirectionVector]:
    seen = set()
    out = []
    for vector in vectors:
        if vector not in seen:
            seen.add(vector)
            out.append(vector)
    return out
