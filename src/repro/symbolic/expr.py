"""Symbolic polynomial expressions.

Initial values and steps of induction variables are "represented symbolically
if [they] cannot be determined" (paper, section 2).  The symbolic domain used
throughout this reproduction is the ring of multivariate polynomials over
named symbols (SSA value names) with exact rational coefficients.  That is
rich enough for everything the paper does -- linear combinations of invariant
names for linear IVs, rational coefficients from matrix inversion for
polynomial IVs, products for triangular trip counts -- while staying exact.

Coefficients are **int-first**: a coefficient is a plain :class:`int`
unless a division made it non-integral, and only then a
:class:`~fractions.Fraction`.  Every division goes through exact
``Fraction`` arithmetic and the result is canonicalized back to an
``int`` when integral, so an integral ``Fraction`` is never stored.
``Fraction(3) == 3`` and ``hash(Fraction(3)) == hash(3)``, so the
representation is invisible to equality, hashing and every memo table;
it only keeps the common case -- integer steps and initial values -- at
int speed.  Accessors that return a coefficient
(:meth:`Expr.constant_value`, :meth:`Expr.iter_terms`, ...) therefore
return ``int | Fraction``: divide one with ``Fraction(value) / divisor``,
never with ``/`` on two ints.

An :class:`Expr` is immutable and hashable; all operators return new values.
Division is only supported when exact (by a rational constant, or by an
expression that divides every term); anything else must be handled by the
caller (the classifier falls back to ``unknown`` in that case, as the paper's
algebra of types does).

Because expressions are immutable, the hot constructors are **hash-consed**
(zero, one, small integer constants, and single symbols are interned) and
the hot queries are **memoized**: ``free_symbols()`` is computed once per
instance, the text of ``str()`` is kept on the instance once rendered, and
``substitute`` results are cached globally keyed on the (expression,
relevant bindings) pair.  Interning and memoization are
semantically invisible -- they can be switched off with
:func:`set_memoization` (the equivalence tests do exactly that).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.resilience import budget as _budget

Rat = Union[int, Fraction]
# A monomial is a sorted tuple of (symbol, exponent) pairs with exponent >= 1.
Monomial = Tuple[Tuple[str, int], ...]

_ONE_MONO: Monomial = ()


class ExprError(Exception):
    """Raised for unsupported symbolic operations (inexact division, ...)."""


def _canonical(value: Rat) -> Rat:
    """An exact coefficient in canonical form: ``int`` unless non-integral."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return _collapse(value)
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise ExprError(f"expected int or Fraction, got {type(value).__name__}")


def _collapse(value: Rat) -> Rat:
    """Canonicalize the result of exact arithmetic on canonical operands.

    The hot loops test ``type(value) is int`` inline before calling this.
    """
    if type(value) is int or value.denominator != 1:
        return value
    return value.numerator


def _scaled(terms: Dict[Monomial, Rat], factor: Rat) -> Dict[Monomial, Rat]:
    """``terms`` times a nonzero constant (never cancels a term)."""
    return {m: _collapse(c * factor) for m, c in terms.items()}


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers: Dict[str, int] = dict(a)
    for sym, exp in b:
        powers[sym] = powers.get(sym, 0) + exp
    return tuple(sorted((s, e) for s, e in powers.items() if e != 0))


def _mono_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


class Expr:
    """An immutable multivariate polynomial with exact int/Fraction coefficients."""

    __slots__ = ("_terms", "_hash", "_free", "_str")

    def __init__(self, terms: Optional[Mapping[Monomial, Rat]] = None):
        clean: Dict[Monomial, Rat] = {}
        if terms:
            for mono, coeff in terms.items():
                value = _canonical(coeff)
                if value:
                    clean[mono] = value
        self._terms = clean
        self._hash: Optional[int] = None
        self._free: Optional[frozenset] = None
        self._str: Optional[str] = None

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Rat]) -> "Expr":
        """Internal fast constructor: ``terms`` must already be a fresh dict
        of nonzero canonical coefficients (no validation, no copy)."""
        expr = cls.__new__(cls)
        expr._terms = terms
        expr._hash = None
        expr._free = None
        expr._str = None
        return expr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def const(value: Rat) -> "Expr":
        """A constant expression."""
        if type(value) is not int:
            value = _canonical(value)
        if _MEMO_ENABLED and type(value) is int:
            cached = _CONST_CACHE.get(value)
            if cached is not None:
                _STATS["const_hits"] += 1
                return cached
            _STATS["const_misses"] += 1
        return Expr({_ONE_MONO: value})

    @staticmethod
    def sym(name: str) -> "Expr":
        """A single symbol (an SSA value name, usually)."""
        if not name:
            raise ExprError("symbol name must be non-empty")
        if _MEMO_ENABLED:
            cached = _SYM_CACHE.get(name)
            if cached is not None:
                _STATS["sym_hits"] += 1
                return cached
            _STATS["sym_misses"] += 1
            if len(_SYM_CACHE) >= _CACHE_LIMIT:
                _SYM_CACHE.clear()
            expr = Expr({((name, 1),): 1})
            _SYM_CACHE[name] = expr
            return expr
        return Expr({((name, 1),): 1})

    @staticmethod
    def zero() -> "Expr":
        if _MEMO_ENABLED:
            return _ZERO
        return Expr()

    @staticmethod
    def one() -> "Expr":
        return Expr.const(1)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and _ONE_MONO in terms)

    def constant_value(self) -> Rat:
        """The value of a constant expression; raises if symbolic."""
        if not self.is_constant:
            raise ExprError(f"{self} is not constant")
        return self._terms.get(_ONE_MONO, 0)

    def constant_term(self) -> Rat:
        """The coefficient of the constant monomial (0 if absent)."""
        return self._terms.get(_ONE_MONO, 0)

    def as_int(self) -> int:
        """The value of an integer constant expression; raises otherwise."""
        value = self.constant_value()
        if value.denominator != 1:
            raise ExprError(f"{self} is not an integer")
        return value.numerator

    def free_symbols(self) -> frozenset:
        if self._free is None:
            syms = set()
            for mono in self._terms:
                for name, _ in mono:
                    syms.add(name)
            self._free = frozenset(syms)
        return self._free

    def degree(self) -> int:
        """Total degree (0 for constants, including zero)."""
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def degree_in(self, name: str) -> int:
        """Degree in one particular symbol."""
        best = 0
        for mono in self._terms:
            for sym, exp in mono:
                if sym == name:
                    best = max(best, exp)
        return best

    def coefficient(self, name: str, power: int) -> "Expr":
        """The coefficient (an Expr in the remaining symbols) of ``name**power``."""
        if power < 0:
            raise ExprError("power must be non-negative")
        out: Dict[Monomial, Rat] = {}
        for mono, coeff in self._terms.items():
            exp_here = 0
            rest = []
            for sym, exp in mono:
                if sym == name:
                    exp_here = exp
                else:
                    rest.append((sym, exp))
            if exp_here == power:
                out[tuple(rest)] = out.get(tuple(rest), 0) + coeff
        return Expr(out)

    def as_affine(self) -> Optional[Tuple[Rat, Dict[str, Rat]]]:
        """Decompose as ``c0 + sum coeff[s]*s`` if total degree <= 1.

        Returns ``None`` for non-affine expressions.  This is what dependence
        testing consumes (subscripts must be linear combinations of IVs).
        """
        const: Rat = 0
        coeffs: Dict[str, Rat] = {}
        for mono, coeff in self._terms.items():
            if mono == _ONE_MONO:
                const = coeff
            elif len(mono) == 1 and mono[0][1] == 1:
                coeffs[mono[0][0]] = coeff
            else:
                return None
        return const, coeffs

    def terms(self) -> Dict[Monomial, Rat]:
        """A copy of the internal monomial -> coefficient map."""
        return dict(self._terms)

    def iter_terms(self):
        """Iterate ``(monomial, coefficient)`` pairs without copying.

        The hot-path companion of :meth:`terms` -- the returned view must
        not be mutated and must not outlive the expression.
        """
        return self._terms.items()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Expr", Rat]) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(other)
        raise ExprError(f"cannot combine Expr with {type(other).__name__}")

    def __add__(self, other: Union["Expr", Rat]) -> "Expr":
        rhs = self._coerce(other)
        if not rhs._terms:
            return self
        if not self._terms:
            return rhs
        out = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            total = out.get(mono, 0) + coeff
            if total:
                out[mono] = total if type(total) is int else _collapse(total)
            elif mono in out:
                del out[mono]
        return Expr._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._raw({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: Union["Expr", Rat]) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["Expr", Rat]) -> "Expr":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Union["Expr", Rat]) -> "Expr":
        rhs = self._coerce(other)
        if not self._terms or not rhs._terms:
            return Expr.zero()
        if rhs._terms == _ONE_TERMS:
            return self
        if self._terms == _ONE_TERMS:
            return rhs
        # scaling by a nonzero constant never cancels terms
        if len(rhs._terms) == 1:
            ((rmono, rcoeff),) = rhs._terms.items()
            if not rmono:
                return Expr._raw(_scaled(self._terms, rcoeff))
        if len(self._terms) == 1:
            ((smono, scoeff),) = self._terms.items()
            if not smono:
                return Expr._raw(_scaled(rhs._terms, scoeff))
        out: Dict[Monomial, Rat] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                mono = _mono_mul(m1, m2)
                total = out.get(mono, 0) + c1 * c2
                if total:
                    out[mono] = total if type(total) is int else _collapse(total)
                elif mono in out:
                    del out[mono]
        if _budget._EXPR_TERM_CAP is not None:
            _budget.charge_expr_terms(len(out))
        return Expr._raw(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Expr":
        if not isinstance(power, int) or power < 0:
            raise ExprError("Expr exponent must be a non-negative int")
        if power == 0:
            return Expr.one()
        if power == 1:
            return self
        result = Expr.one()
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: Union["Expr", Rat]) -> "Expr":
        rhs = self._coerce(other)
        if rhs.is_zero:
            raise ExprError("division by zero")
        if rhs.is_constant:
            value = rhs.constant_value()
            return Expr({mono: Fraction(coeff, value) for mono, coeff in self._terms.items()})
        quotient = self.try_div(rhs)
        if quotient is None:
            raise ExprError(f"inexact symbolic division: ({self}) / ({rhs})")
        return quotient

    def try_div(self, divisor: "Expr") -> Optional["Expr"]:
        """Exact polynomial division; ``None`` if the division is inexact.

        Only single-term (monomial) divisors and trial multiplication are
        attempted -- enough for the classifier's needs (e.g. dividing a step
        expression by a constant or a single invariant symbol).
        """
        if divisor.is_zero:
            return None
        if divisor.is_constant:
            return self / divisor.constant_value()
        if len(divisor._terms) == 1:
            (dmono, dcoeff), = divisor._terms.items()
            out: Dict[Monomial, Rat] = {}
            for mono, coeff in self._terms.items():
                powers = dict(mono)
                for sym, exp in dmono:
                    if powers.get(sym, 0) < exp:
                        return None
                    powers[sym] -= exp
                new_mono = tuple(sorted((s, e) for s, e in powers.items() if e != 0))
                out[new_mono] = out.get(new_mono, 0) + Fraction(coeff, dcoeff)
            return Expr(out)
        return None

    # ------------------------------------------------------------------
    # substitution / evaluation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace symbols by expressions (simultaneous substitution)."""
        if not mapping:
            return self
        relevant = self.free_symbols() & set(mapping)
        if not relevant:
            return self
        key = None
        if _MEMO_ENABLED:
            key = (self, tuple((sym, mapping[sym]) for sym in sorted(relevant)))
            cached = _SUBST_CACHE.get(key)
            if cached is not None:
                _STATS["subst_hits"] += 1
                return cached
            _STATS["subst_misses"] += 1
        result = Expr.zero()
        for mono, coeff in self._terms.items():
            term = Expr.const(coeff)
            for sym, exp in mono:
                base = mapping.get(sym)
                if base is None:
                    base = Expr.sym(sym)
                term = term * (base**exp)
            result = result + term
        if _budget._EXPR_TERM_CAP is not None:
            _budget.charge_expr_terms(len(result._terms))
        if key is not None:
            if len(_SUBST_CACHE) >= _CACHE_LIMIT:
                _SUBST_CACHE.clear()
            _SUBST_CACHE[key] = result
        return result

    def evaluate(self, env: Mapping[str, Rat]) -> Fraction:
        """Numeric evaluation; every free symbol must be bound in ``env``."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for sym, exp in mono:
                if sym not in env:
                    raise ExprError(f"unbound symbol {sym!r} in evaluation")
                value *= _canonical(env[sym]) ** exp
            total += value
        return total

    def rename(self, mapping: Mapping[str, str]) -> "Expr":
        """Rename symbols (a cheap special case of substitute)."""
        out: Dict[Monomial, Rat] = {}
        for mono, coeff in self._terms.items():
            new_mono = tuple(sorted((mapping.get(s, s), e) for s, e in mono))
            out[new_mono] = out.get(new_mono, 0) + coeff
        return Expr(out)

    # ------------------------------------------------------------------
    # sign reasoning (constants only; conservative elsewhere)
    # ------------------------------------------------------------------
    def known_sign(self) -> Optional[int]:
        """-1, 0 or 1 if the sign is provable; ``None`` otherwise.

        Only constants have a provable sign in this conservative kernel;
        monotonic classification uses this and simply gives up on symbolic
        steps, exactly as a production compiler would without range info.
        """
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1:
            value = terms.get(_ONE_MONO)
            if value is not None:
                return -1 if value < 0 else 1
        return None

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant and self.constant_value() == other
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Expr({self})"

    def __str__(self) -> str:
        # the same value is printed by the trace, the record and the
        # report; render it once (fresh every time when memoization is off)
        if not _MEMO_ENABLED:
            return self._render()
        text = self._str
        if text is None:
            text = self._str = self._render()
        return text

    def _render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: (_mono_degree(kv[0]), kv[0])):
            factors = []
            if mono == _ONE_MONO:
                factors.append(str(coeff))
            else:
                if coeff == -1:
                    factors.append("-")
                elif coeff != 1:
                    factors.append(str(coeff) + "*")
                factors.append(
                    "*".join(sym if exp == 1 else f"{sym}^{exp}" for sym, exp in mono)
                )
            parts.append("".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


# ----------------------------------------------------------------------
# hash-consing / memoization state
# ----------------------------------------------------------------------
_ONE_TERMS: Dict[Monomial, Rat] = {_ONE_MONO: 1}

_MEMO_ENABLED = True
_CACHE_LIMIT = 4096

_ZERO = Expr()
_CONST_CACHE: Dict[int, Expr] = {
    n: Expr({_ONE_MONO: n}) for n in range(-64, 65) if n != 0
}
_SYM_CACHE: Dict[str, Expr] = {}
_SUBST_CACHE: Dict[tuple, Expr] = {}

#: hit/miss tallies of the memo tables above, served by :func:`cache_stats`
_STATS: Dict[str, int] = {
    "sym_hits": 0,
    "sym_misses": 0,
    "subst_hits": 0,
    "subst_misses": 0,
    "const_hits": 0,
    "const_misses": 0,
}


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size counts of the hash-consing memo tables.

    Returns ``{"sym": {"hits", "misses", "size"}, "subst": {...},
    "const": {...}}``.  Hits and misses accumulate since process start (or
    the last :func:`reset_cache_stats`); ``size`` is the current number of
    interned entries.  The observability layer records per-``analyze``
    deltas of these counters into the metrics registry.
    """
    return {
        "sym": {
            "hits": _STATS["sym_hits"],
            "misses": _STATS["sym_misses"],
            "size": len(_SYM_CACHE),
        },
        "subst": {
            "hits": _STATS["subst_hits"],
            "misses": _STATS["subst_misses"],
            "size": len(_SUBST_CACHE),
        },
        "const": {
            "hits": _STATS["const_hits"],
            "misses": _STATS["const_misses"],
            "size": len(_CONST_CACHE),
        },
    }


def reset_cache_stats() -> None:
    """Zero the hit/miss tallies (the caches themselves are untouched)."""
    for key in _STATS:
        _STATS[key] = 0


def set_memoization(enabled: bool) -> bool:
    """Enable/disable interning and memoization; returns the previous state.

    Memoization never changes results (``Expr`` is immutable and every
    cached operation is pure) -- this switch exists so equivalence tests can
    prove exactly that, and as an escape hatch.  Disabling also clears the
    mutable caches.
    """
    global _MEMO_ENABLED
    previous = _MEMO_ENABLED
    _MEMO_ENABLED = bool(enabled)
    if not _MEMO_ENABLED:
        clear_caches()
    return previous


def clear_caches() -> None:
    """Drop the global symbol/substitution caches (interned constants stay)."""
    _SYM_CACHE.clear()
    _SUBST_CACHE.clear()
