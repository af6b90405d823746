"""The shared interval algebra: exact endpoints, typed infinities.

One implementation serves both consumers: the Banerjee bound tester
(:mod:`repro.dependence.banerjee`) and the value-range analysis
(:mod:`repro.ranges.analysis`).  Endpoints are exact -- a finite
:class:`Bound` wraps a plain :class:`int` when the value is integral and
only falls back to a :class:`~fractions.Fraction` for non-integral
values (the result of a division, an opaque ceil refinement); the
infinities are the module constants :data:`NEG_INF` and :data:`POS_INF`
rather than sentinel strings, so arithmetic and comparisons are total
and typed.

Because bounds and intervals are immutable values, the hot constructors
are **hash-consed** the same way :mod:`repro.symbolic.expr` interns its
expressions: small integer bounds and small integer point intervals are
interned, ``TOP`` and ``EMPTY`` are canonical singletons, and the
memo-table hit/miss tallies are served by :func:`cache_stats` (the
observability layer records per-``analyze`` deltas as the
``interval.cache.*`` metrics).  Interning is semantically invisible --
``==`` and ``hash`` are value-based, and :func:`set_interning` switches
it off so the equivalence tests can prove exactly that.

Multiplication uses the hull convention ``0 * inf = 0`` (sound for
interval products: the zero factor pins the result).  ``+inf + -inf``
is a programming error and raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Dict, Iterable, Optional, Union

__all__ = [
    "Bound",
    "Interval",
    "NEG_INF",
    "POS_INF",
    "cache_stats",
    "reset_cache_stats",
    "set_interning",
]

Finite = Union[int, Fraction]


def _canonical(value: Finite) -> Finite:
    """Normalize integral Fractions to plain ints (the fast representation).

    ``Fraction(3) == 3`` and ``hash(Fraction(3)) == hash(3)``, so the
    collapse is invisible to equality, ordering and hashing -- it only
    makes the subsequent arithmetic int-speed.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return value
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError(f"bound value must be int or Fraction, got {type(value).__name__}")


class Bound:
    """One interval endpoint: a finite exact number or an infinity.

    ``infinite`` is -1 (negative infinity), 0 (finite, ``value`` valid)
    or +1 (positive infinity).  ``value`` is a plain :class:`int`
    whenever the bound is integral and a :class:`~fractions.Fraction`
    otherwise.
    """

    __slots__ = ("value", "infinite")

    def __init__(self, value: Finite = 0, infinite: int = 0):
        if infinite:
            self.value = 0
            self.infinite = infinite
        else:
            self.value = _canonical(value)
            self.infinite = 0

    @staticmethod
    def of(value: Union["Bound", Finite]) -> "Bound":
        if type(value) is int:
            if _INTERN_ENABLED:
                cached = _INT_BOUNDS.get(value)
                if cached is not None:
                    _STATS["bound_hits"] += 1
                    return cached
                _STATS["bound_misses"] += 1
            return Bound(value)
        if isinstance(value, Bound):
            return value
        return Bound(value)

    @property
    def is_finite(self) -> bool:
        return self.infinite == 0

    def _key(self):
        if self.infinite:
            return (self.infinite, 0)
        return (0, self.value)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, Bound):
            if self.infinite != other.infinite:
                return False
            return bool(self.infinite) or self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.infinite == 0 and self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.infinite, self.value))

    def __lt__(self, other) -> bool:
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if self.infinite or other.infinite:
            return self.infinite < other.infinite
        return self.value < other.value

    def __le__(self, other) -> bool:
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if self.infinite or other.infinite:
            return self.infinite <= other.infinite
        return self.value <= other.value

    def __gt__(self, other) -> bool:
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if self.infinite or other.infinite:
            return self.infinite > other.infinite
        return self.value > other.value

    def __ge__(self, other) -> bool:
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if self.infinite or other.infinite:
            return self.infinite >= other.infinite
        return self.value >= other.value

    def __neg__(self) -> "Bound":
        if self.infinite:
            return NEG_INF if self.infinite > 0 else POS_INF
        return _bound(-self.value)

    def __add__(self, other: Union["Bound", Finite]) -> "Bound":
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if self.infinite:
            if other.infinite and self.infinite != other.infinite:
                raise ValueError("indeterminate bound sum: +inf + -inf")
            return self
        if other.infinite:
            return other
        return _bound(self.value + other.value)

    def __sub__(self, other: Union["Bound", Finite]) -> "Bound":
        return self + (-Bound.of(other))

    def __mul__(self, other: Union["Bound", Finite]) -> "Bound":
        if not isinstance(other, Bound):
            other = Bound.of(other)
        if not self.infinite and not other.infinite:
            return _bound(self.value * other.value)
        # hull convention: a zero factor pins the product at zero
        if (self.is_finite and self.value == 0) or (
            other.is_finite and other.value == 0
        ):
            return _ZERO_BOUND
        sign_a = self.infinite or (1 if self.value > 0 else -1)
        sign_b = other.infinite or (1 if other.value > 0 else -1)
        return POS_INF if sign_a * sign_b > 0 else NEG_INF

    def floor_int(self) -> Optional[int]:
        """Largest integer <= this bound, or None when infinite."""
        if self.infinite:
            return None
        value = self.value
        return value if type(value) is int else floor(value)

    def ceil_int(self) -> Optional[int]:
        """Smallest integer >= this bound, or None when infinite."""
        if self.infinite:
            return None
        value = self.value
        return value if type(value) is int else ceil(value)

    def __repr__(self) -> str:
        if self.infinite > 0:
            return "+inf"
        if self.infinite < 0:
            return "-inf"
        return str(self.value)


#: the typed infinities (canonical singletons; the old string sentinels
#: are long gone)
NEG_INF = Bound(infinite=-1)
POS_INF = Bound(infinite=1)

#: interned small-int bounds, read by :func:`_bound` / :meth:`Bound.of`
_INT_BOUND_LIMIT = 1024
_INT_BOUNDS: Dict[int, Bound] = {
    n: Bound(n) for n in range(-_INT_BOUND_LIMIT, _INT_BOUND_LIMIT + 1)
}
_ZERO_BOUND = _INT_BOUNDS[0]

_INTERN_ENABLED = True

#: hit/miss tallies of the memo tables, served by :func:`cache_stats`
_STATS: Dict[str, int] = {
    "bound_hits": 0,
    "bound_misses": 0,
    "point_hits": 0,
    "point_misses": 0,
}


def _bound(value: Finite) -> Bound:
    """Finite-bound constructor: interned for small ints, fresh otherwise."""
    if type(value) is int:
        if _INTERN_ENABLED:
            cached = _INT_BOUNDS.get(value)
            if cached is not None:
                _STATS["bound_hits"] += 1
                return cached
            _STATS["bound_misses"] += 1
        out = Bound.__new__(Bound)
        out.value = value
        out.infinite = 0
        return out
    return Bound(value)


def _scale_bound(bound: Bound, factor: Finite) -> Bound:
    """``bound * factor`` for a nonzero exact scalar (sign flips infinities)."""
    if bound.infinite:
        if factor > 0:
            return bound
        return NEG_INF if bound.infinite > 0 else POS_INF
    return _bound(bound.value * factor)


def _bmin(a: Bound, b: Bound) -> Bound:
    return a if a <= b else b


def _bmax(a: Bound, b: Bound) -> Bound:
    return a if a >= b else b


class Interval:
    """A closed interval with possibly infinite endpoints; may be empty.

    The constructor coerces ints / Fractions, so ``Interval(0, 10)`` and
    ``Interval(Fraction(0), Bound(Fraction(10)))`` are the same value.
    Instances are immutable by contract (the hot constructors hand out
    interned, shared objects); equality and hashing are value-based.
    """

    __slots__ = ("lo", "hi", "empty")

    def __init__(self, lo, hi, empty: bool = False):
        self.lo = lo if isinstance(lo, Bound) else Bound.of(lo)
        self.hi = hi if isinstance(hi, Bound) else Bound.of(hi)
        self.empty = empty

    @classmethod
    def _raw(cls, lo: Bound, hi: Bound) -> "Interval":
        """Internal fast constructor: endpoints must already be Bounds."""
        out = cls.__new__(cls)
        out.lo = lo
        out.hi = hi
        out.empty = False
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(value: Finite) -> "Interval":
        if type(value) is int and _INTERN_ENABLED:
            cached = _POINT_CACHE.get(value)
            if cached is not None:
                _STATS["point_hits"] += 1
                return cached
            _STATS["point_misses"] += 1
        bound = Bound.of(value)
        return Interval._raw(bound, bound)

    @staticmethod
    def empty_interval() -> "Interval":
        if _INTERN_ENABLED:
            return EMPTY
        return Interval(_ZERO_BOUND, _ZERO_BOUND, empty=True)

    @staticmethod
    def top() -> "Interval":
        if _INTERN_ENABLED:
            return TOP
        return Interval(NEG_INF, POS_INF)

    @staticmethod
    def at_least(value: Finite) -> "Interval":
        return Interval._raw(Bound.of(value), POS_INF)

    @staticmethod
    def at_most(value: Finite) -> "Interval":
        return Interval._raw(NEG_INF, Bound.of(value))

    @staticmethod
    def hull(values: Iterable[Finite]) -> "Interval":
        """Smallest interval containing every value (empty for none)."""
        lo = hi = None
        for value in values:
            value = _canonical(value)
            if lo is None:
                lo = hi = value
            else:
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
        if lo is None:
            return Interval.empty_interval()
        return Interval._raw(_bound(lo), _bound(hi))

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def is_top(self) -> bool:
        return not self.empty and bool(self.lo.infinite) and bool(self.hi.infinite)

    @property
    def is_point(self) -> bool:
        return not self.empty and self.lo == self.hi

    def contains(self, value: Finite) -> bool:
        """Membership test; ``value`` is compared exactly, converted never."""
        if self.empty:
            return False
        lo = self.lo
        if lo.infinite == 0:
            if value < lo.value:
                return False
        elif lo.infinite > 0:
            return False
        hi = self.hi
        if hi.infinite == 0:
            if value > hi.value:
                return False
        elif hi.infinite < 0:
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        if other.empty:
            return True
        if self.empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        meet = self.intersect(other)
        return not meet.empty

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return Interval.empty_interval()
        # finite endpoints add their exact values directly; only an
        # infinite one goes through the Bound operator
        a, c = self.lo, other.lo
        lo = a + c if a.infinite or c.infinite else _bound(a.value + c.value)
        b, d = self.hi, other.hi
        hi = b + d if b.infinite or d.infinite else _bound(b.value + d.value)
        return Interval._raw(lo, hi)

    def __neg__(self) -> "Interval":
        if self.empty:
            return self
        return Interval._raw(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.empty or other.empty:
            return Interval.empty_interval()
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if not (a.infinite or b.infinite or c.infinite or d.infinite):
            # all-finite fast path: four exact products, no Bound temporaries
            av, bv, cv, dv = a.value, b.value, c.value, d.value
            p1 = av * cv
            p2 = av * dv
            p3 = bv * cv
            p4 = bv * dv
            return Interval._raw(
                _bound(min(p1, p2, p3, p4)), _bound(max(p1, p2, p3, p4))
            )
        corners = (a * c, a * d, b * c, b * d)
        lo = hi = corners[0]
        for corner in corners[1:]:
            if corner < lo:
                lo = corner
            elif corner > hi:
                hi = corner
        return Interval._raw(lo, hi)

    def scale(self, factor: Finite) -> "Interval":
        """Multiply by an exact scalar (cheaper than ``* point(factor)``)."""
        if self.empty:
            return self
        factor = _canonical(factor)
        if factor == 0:
            return _POINT_CACHE[0]  # hull convention: 0 * inf = 0
        lo, hi = (self.lo, self.hi) if factor > 0 else (self.hi, self.lo)
        return Interval._raw(_scale_bound(lo, factor), _scale_bound(hi, factor))

    def union(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty or self is other:
            return self
        lo = self.lo if self.lo <= other.lo else other.lo
        hi = self.hi if self.hi >= other.hi else other.hi
        if lo is self.lo and hi is self.hi:
            return self
        if lo is other.lo and hi is other.hi:
            return other
        return Interval._raw(lo, hi)

    def intersect(self, other: "Interval") -> "Interval":
        if self is other:
            return self
        if self.empty or other.empty:
            return Interval.empty_interval()
        # finite endpoints compare their exact values, infinite ones
        # their signs (the Bound ordering, without the method calls)
        a, c = self.lo, other.lo
        if a.infinite or c.infinite:
            lo = a if a.infinite >= c.infinite else c
        else:
            lo = a if a.value >= c.value else c
        b, d = self.hi, other.hi
        if b.infinite or d.infinite:
            hi = b if b.infinite <= d.infinite else d
        else:
            hi = b if b.value <= d.value else d
        if lo is a and hi is b:
            return self
        if lo is c and hi is d:
            return other
        if lo.infinite or hi.infinite:
            disjoint = lo.infinite > hi.infinite
        else:
            disjoint = lo.value > hi.value
        if disjoint:
            return Interval.empty_interval()
        return Interval._raw(lo, hi)

    # ------------------------------------------------------------------
    # integer views
    # ------------------------------------------------------------------
    def int_lower(self) -> Optional[int]:
        """Smallest integer in the interval, or None when unbounded/empty."""
        if self.empty:
            return None
        return self.lo.ceil_int()

    def int_upper(self) -> Optional[int]:
        """Largest integer in the interval, or None when unbounded/empty."""
        if self.empty:
            return None
        return self.hi.floor_int()

    # ------------------------------------------------------------------
    # dunder plumbing (value semantics, exactly as the old dataclass had)
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.empty == other.empty
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.empty))

    def __repr__(self) -> str:
        if self.empty:
            return "Interval(empty)"
        return f"[{self.lo!r}, {self.hi!r}]"


#: canonical singletons, shared by every caller when interning is on
TOP = Interval(NEG_INF, POS_INF)
EMPTY = Interval(_ZERO_BOUND, _ZERO_BOUND, empty=True)

#: interned small-int point intervals
_POINT_LIMIT = 64
_POINT_CACHE: Dict[int, Interval] = {
    n: Interval(_INT_BOUNDS[n], _INT_BOUNDS[n])
    for n in range(-_POINT_LIMIT, _POINT_LIMIT + 1)
}


# ----------------------------------------------------------------------
# interning control and statistics (the expr.cache_stats() pattern)
# ----------------------------------------------------------------------
def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counts of the interning memo tables.

    Returns ``{"bound": {"hits", "misses", "size"}, "point": {...}}``.
    Hits and misses accumulate since process start (or the last
    :func:`reset_cache_stats`); ``size`` is the number of interned
    entries.  :func:`repro.ranges.compute_ranges` records per-run deltas
    of these counters as the ``interval.cache.*`` metrics.
    """
    return {
        "bound": {
            "hits": _STATS["bound_hits"],
            "misses": _STATS["bound_misses"],
            "size": len(_INT_BOUNDS),
        },
        "point": {
            "hits": _STATS["point_hits"],
            "misses": _STATS["point_misses"],
            "size": len(_POINT_CACHE),
        },
    }


def reset_cache_stats() -> None:
    """Zero the hit/miss tallies (the interned tables are untouched)."""
    for key in _STATS:
        _STATS[key] = 0


def set_interning(enabled: bool) -> bool:
    """Enable/disable interval interning; returns the previous state.

    Interning never changes results (bounds and intervals are immutable
    values, ``==``/``hash`` are value-based) -- this switch exists so the
    equivalence tests can prove exactly that, and as an escape hatch.
    """
    global _INTERN_ENABLED
    previous = _INTERN_ENABLED
    _INTERN_ENABLED = bool(enabled)
    return previous
