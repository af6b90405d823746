"""Closed-form sequences: the value domain of generalized induction variables.

The paper represents a polynomial induction variable for loop ``l`` as a
tuple ``(l, s0, s1, ..., sm)`` whose value on iteration ``h`` (0-based basic
loop counter) is ``sum_k s_k * h**k``, and a geometric induction variable by
"the polynomial coefficients followed by the coefficients of each exponential
term": ``sum_k s_k * h**k + sum_b g_b * b**h`` (section 4.3).

:class:`ClosedForm` implements exactly that shape, with symbolic
(:class:`~repro.symbolic.expr.Expr`) coefficients and integer geometric
bases.  The module also implements the paper's coefficient-recovery method --
build the small integer matrix of basis functions evaluated at
``h = 0, 1, ..., n-1``, invert it with exact rational arithmetic, and
multiply by the first ``n`` (symbolically computed) values -- plus the
affine-recurrence solver the classifier uses for SCRs whose cumulative
effect is ``x <- a*x + d(h)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _metrics
from repro.resilience.budget import matrix_dim_allowed
from repro.resilience.faultinject import fault_point
from repro.symbolic.expr import Expr, Rat
from repro.symbolic.rational import Matrix, MatrixError


class ClosedFormError(Exception):
    """Raised when a requested closed form cannot be represented."""


def _as_expr(value: Union[Expr, Rat]) -> Expr:
    if isinstance(value, Expr):
        return value
    return Expr.const(value)


_EXPR_ONE = Expr.const(1)


class ClosedForm:
    """``value(h) = sum_k coeffs[k] * h**k + sum_b geo[b] * b**h``.

    ``coeffs`` is a tuple of :class:`Expr` (index = power of ``h``); ``geo``
    maps an integer base ``b`` (with ``b not in (0, 1)``) to its coefficient.
    Instances are immutable and normalized (no trailing zero coefficients,
    no zero geometric terms), so structural equality is semantic equality.
    """

    __slots__ = ("coeffs", "geo")

    def __init__(
        self,
        coeffs: Sequence[Union[Expr, Rat]] = (),
        geo: Optional[Mapping[int, Union[Expr, Rat]]] = None,
    ):
        poly = [_as_expr(c) for c in coeffs]
        while poly and poly[-1].is_zero:
            poly.pop()
        geo_clean: Dict[int, Expr] = {}
        if geo:
            for base, coeff in geo.items():
                if not isinstance(base, int):
                    raise ClosedFormError("geometric base must be an int")
                if base in (0, 1):
                    raise ClosedFormError("geometric base must not be 0 or 1")
                expr = _as_expr(coeff)
                if not expr.is_zero:
                    geo_clean[base] = expr
        self.coeffs: Tuple[Expr, ...] = tuple(poly)
        self.geo: Dict[int, Expr] = geo_clean

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _raw(cls, coeffs: Tuple[Expr, ...], geo: Dict[int, Expr]) -> "ClosedForm":
        """Internal constructor for operands already validated/normalized."""
        form = cls.__new__(cls)
        form.coeffs = coeffs
        form.geo = geo
        return form

    @staticmethod
    def invariant(value: Union[Expr, Rat]) -> "ClosedForm":
        """A sequence that is the same value on every iteration."""
        expr = _as_expr(value)
        if expr.is_zero:
            return ClosedForm._raw((), {})
        return ClosedForm._raw((expr,), {})

    @staticmethod
    def linear(init: Union[Expr, Rat], step: Union[Expr, Rat]) -> "ClosedForm":
        """``init + step*h``: the classical linear induction variable."""
        return ClosedForm([_as_expr(init), _as_expr(step)])

    @staticmethod
    def counter() -> "ClosedForm":
        """The basic loop counter ``h`` itself (initial value 0, step 1)."""
        return ClosedForm.linear(0, 1)

    @staticmethod
    def zero() -> "ClosedForm":
        return ClosedForm()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def is_invariant(self) -> bool:
        return not self.geo and len(self.coeffs) <= 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and not self.geo

    @property
    def is_polynomial(self) -> bool:
        return not self.geo

    @property
    def is_linear(self) -> bool:
        return not self.geo and len(self.coeffs) <= 2

    @property
    def degree(self) -> int:
        """Polynomial degree (0 for invariants and pure-geometric forms)."""
        return max(0, len(self.coeffs) - 1)

    @property
    def init(self) -> Expr:
        """Value on iteration ``h = 0``."""
        total = self.coeff(0)
        for coeff in self.geo.values():
            total = total + coeff
        return total

    @property
    def step(self) -> Expr:
        """Step of a linear form; raises for non-linear forms."""
        if not self.is_linear:
            raise ClosedFormError(f"{self} is not linear; it has no single step")
        return self.coeff(1)

    def coeff(self, power: int) -> Expr:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Expr.zero()

    def free_symbols(self) -> frozenset:
        syms = set()
        for coeff in self.coeffs:
            syms |= coeff.free_symbols()
        for coeff in self.geo.values():
            syms |= coeff.free_symbols()
        return frozenset(syms)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def value_at(self, h: Union[int, Expr]) -> Expr:
        """The symbolic value on iteration ``h``.

        ``h`` may be an integer or a symbolic Expr; geometric terms require
        an integer ``h`` (``b**h`` is not polynomial in ``h``).
        """
        if isinstance(h, int):
            if h < 0:
                raise ClosedFormError("iteration number must be non-negative")
            total = Expr.zero()
            for k, coeff in enumerate(self.coeffs):
                total = total + coeff * (h**k if k else 1)
            for base, coeff in self.geo.items():
                total = total + coeff * base**h
            return total
        if self.geo:
            raise ClosedFormError("cannot evaluate geometric terms at a symbolic iteration")
        h_expr = _as_expr(h)
        total = Expr.zero()
        for k, coeff in enumerate(self.coeffs):
            total = total + coeff * (h_expr**k)
        return total

    def evaluate(self, h: int, env: Mapping[str, Rat]) -> Fraction:
        """Fully numeric evaluation at iteration ``h`` under ``env``."""
        return self.value_at(h).evaluate(env)

    def substitute(self, mapping: Mapping[str, Expr]) -> "ClosedForm":
        """Substitute into every coefficient.

        The substituted expressions must be invariant in the loop this form
        describes (the caller's responsibility, as in the paper's
        outer-to-inner substitution pass).
        """
        return ClosedForm(
            [c.substitute(mapping) for c in self.coeffs],
            {b: c.substitute(mapping) for b, c in self.geo.items()},
        )

    # ------------------------------------------------------------------
    # arithmetic (closed under +, -, scaling; partially under *)
    # ------------------------------------------------------------------
    def __add__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        if not other.coeffs and not other.geo:
            return self
        if not self.coeffs and not self.geo:
            return other
        if not other.geo and len(other.coeffs) == 1:
            # invariant addend: only coefficient 0 changes
            c0 = self.coeff(0) + other.coeffs[0]
            if len(self.coeffs) > 1:
                return ClosedForm._raw((c0,) + self.coeffs[1:], dict(self.geo))
            return ClosedForm._raw((c0,) if not c0.is_zero else (), dict(self.geo))
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(n)]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        geo = dict(self.geo)
        for base, coeff in other.geo.items():
            merged = coeff if base not in geo else geo[base] + coeff
            if merged.is_zero:
                geo.pop(base, None)
            else:
                geo[base] = merged
        return ClosedForm._raw(tuple(coeffs), geo)

    def __neg__(self) -> "ClosedForm":
        return ClosedForm([-c for c in self.coeffs], {b: -c for b, c in self.geo.items()})

    def __sub__(self, other: "ClosedForm") -> "ClosedForm":
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Union[Expr, Rat]) -> "ClosedForm":
        f = _as_expr(factor)
        if f == _EXPR_ONE or (not self.coeffs and not self.geo):
            return self
        if f.is_zero:
            return ClosedForm()
        # a product of nonzero Exprs is nonzero (polynomials over Q), so
        # scaling normalized coefficients needs no re-normalization
        return ClosedForm._raw(
            tuple(c * f for c in self.coeffs),
            {b: c * f for b, c in self.geo.items()},
        )

    def try_mul(self, other: "ClosedForm") -> Optional["ClosedForm"]:
        """Product, if representable in the ``poly + geo`` form.

        * poly x poly: polynomial (coefficients convolve).
        * geo x geo: bases multiply pairwise (``b**h * c**h = (bc)**h``).
        * poly(degree 0) x geo and vice versa: scaling.
        * poly(degree >= 1) x geo: would need ``h**k * b**h`` terms, which the
          paper's representation cannot express -- returns ``None`` (the
          classifier then tries the monotonic rules, per section 5.1).
        """
        self_has_poly = any(not c.is_zero for c in self.coeffs[1:])
        other_has_poly = any(not c.is_zero for c in other.coeffs[1:])
        if (self_has_poly and other.geo) or (other_has_poly and self.geo):
            return None
        # polynomial part product
        coeffs: List[Expr] = []
        if self.coeffs and other.coeffs:
            coeffs = [Expr.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    coeffs[i + j] = coeffs[i + j] + a * b
        geo: Dict[int, Expr] = {}

        def _accumulate_geo(base: int, coeff: Expr) -> bool:
            if base in (0, 1):
                return False
            geo[base] = geo.get(base, Expr.zero()) + coeff
            return True

        # const-poly x geo cross terms
        for base, coeff in other.geo.items():
            if not _accumulate_geo(base, coeff * self.coeff(0)):
                return None
        for base, coeff in self.geo.items():
            if not _accumulate_geo(base, coeff * other.coeff(0)):
                return None
        # geo x geo
        for b1, c1 in self.geo.items():
            for b2, c2 in other.geo.items():
                if not _accumulate_geo(b1 * b2, c1 * c2):
                    return None
        return ClosedForm(coeffs, geo)

    def shift(self, offset: int) -> "ClosedForm":
        """The sequence ``h -> value(h + offset)``.

        Used for wrap-around variables ("in all but the first iteration, its
        value will be an induction variable", section 4.1): the wrapped inner
        sequence is the carried value delayed by one iteration.
        """
        # polynomial part: binomial expansion of (h + offset)**k
        n = len(self.coeffs)
        coeffs = [Expr.zero()] * n
        for k, coeff in enumerate(self.coeffs):
            # (h + offset)**k = sum_j C(k, j) * offset**(k-j) * h**j
            for j in range(k + 1):
                binom = _binomial(k, j)
                coeffs[j] = coeffs[j] + coeff * (binom * offset ** (k - j))
        # b**offset is a Fraction only for a negative offset (a delay)
        geo = {
            base: coeff * (base**offset if offset >= 0 else Fraction(base) ** offset)
            for base, coeff in self.geo.items()
        }
        return ClosedForm(coeffs, geo)

    def prefix_sum(self) -> Optional["ClosedForm"]:
        """``S(h) = sum_{t=0}^{h-1} value(t)`` with ``S(0) = 0``.

        This solves the pure accumulation recurrence ``x_{h+1} = x_h + d(h)``
        that produces polynomial induction variables of the next higher
        order (section 4.3).  The polynomial part is fitted with the paper's
        matrix-inversion method; geometric terms sum analytically as
        ``g * (b**h - 1) / (b - 1)``.

        Returns ``None`` when the polynomial fit degrades (singular or
        over-budget coefficient system); the classifier then falls back to
        the monotonic/unknown rules.
        """
        poly_part = ClosedForm(self.coeffs)
        degree = poly_part.degree if poly_part.coeffs else 0
        result = ClosedForm.zero()
        if poly_part.coeffs:
            # S is a polynomial of degree (degree + 1); fit from values.
            npoints = degree + 2
            values: List[Expr] = []
            acc = Expr.zero()
            for h in range(npoints):
                values.append(acc)
                acc = acc + poly_part.value_at(h)
            fitted = ClosedForm.fit_polynomial(values)
            if fitted is None:
                return None
            result = result + fitted
        for base, coeff in self.geo.items():
            scale = Fraction(1, base - 1)
            # sum_{t<h} b**t = (b**h - 1)/(b - 1)
            result = result + ClosedForm([coeff * (-scale)], {base: coeff * scale})
        return result

    # ------------------------------------------------------------------
    # coefficient recovery (the paper's section 4.3 machinery)
    # ------------------------------------------------------------------
    @staticmethod
    def fit_polynomial(values: Sequence[Union[Expr, Rat]]) -> Optional["ClosedForm"]:
        """Fit a degree ``len(values)-1`` polynomial through
        ``value(h) = values[h]`` for ``h = 0 .. n-1``.

        This is precisely the paper's method: invert the integer matrix
        ``a[i][j] = i**j`` and multiply by the first values.

        Returns ``None`` (and counts ``closedform.degraded``) instead of
        raising when the system cannot be solved: the matrix is singular
        or larger than the active budget's ``max_matrix_dim``.  Callers
        fall back to monotonic/unknown classification.
        """
        fault_point("closedform.fit")
        vals = [_as_expr(v) for v in values]
        if not vals:
            raise ClosedFormError("cannot fit a polynomial through no values")
        n = len(vals)
        if not matrix_dim_allowed(n):
            _metrics.inc("closedform.degraded")
            return None
        try:
            inverse = Matrix.vandermonde(range(n), n - 1).inverse()
        except MatrixError:
            _metrics.inc("closedform.degraded")
            return None
        _metrics.inc("closedform.matrix_inversions")
        coeffs = _mat_mul_exprs(inverse, vals)
        return ClosedForm(coeffs)

    @staticmethod
    def fit(
        values: Sequence[Union[Expr, Rat]],
        degree: int,
        bases: Sequence[int],
    ) -> Optional["ClosedForm"]:
        """Fit ``sum_{k<=degree} s_k h**k + sum_b g_b b**h`` through values.

        ``len(values)`` must equal ``degree + 1 + len(bases)``.  Returns
        ``None`` if the basis matrix is singular on the sample points or
        exceeds the active budget's ``max_matrix_dim``.
        """
        fault_point("closedform.fit")
        vals = [_as_expr(v) for v in values]
        nbases = list(bases)
        n = degree + 1 + len(nbases)
        if len(vals) != n:
            raise ClosedFormError("wrong number of sample values for fit")
        if any(b in (0, 1) for b in nbases):
            raise ClosedFormError("geometric base must not be 0 or 1")
        if len(set(nbases)) != len(nbases):
            raise ClosedFormError("duplicate geometric bases")
        if not matrix_dim_allowed(n):
            _metrics.inc("closedform.degraded")
            return None
        rows = []
        for h in range(n):
            row: List[Fraction] = [Fraction(h) ** k for k in range(degree + 1)]
            row.extend(Fraction(b) ** h for b in nbases)
            rows.append(row)
        try:
            inverse = Matrix(rows).inverse()
        except MatrixError:
            _metrics.inc("closedform.degraded")
            return None
        _metrics.inc("closedform.matrix_inversions")
        solution = _mat_mul_exprs(inverse, vals)
        coeffs = solution[: degree + 1]
        geo = {base: solution[degree + 1 + i] for i, base in enumerate(nbases)}
        return ClosedForm(coeffs, geo)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        return self.coeffs == other.coeffs and self.geo == other.geo

    def __hash__(self) -> int:
        return hash((self.coeffs, frozenset(self.geo.items())))

    def __repr__(self) -> str:
        return f"ClosedForm({self})"

    def __str__(self) -> str:
        parts = []
        for k, coeff in enumerate(self.coeffs):
            if coeff.is_zero:
                continue
            if k == 0:
                parts.append(str(coeff))
            else:
                h = "h" if k == 1 else f"h^{k}"
                text = str(coeff)
                if coeff == 1:
                    parts.append(h)
                elif coeff == -1:
                    parts.append(f"-{h}")
                elif coeff.is_constant or len(coeff.terms()) == 1:
                    parts.append(f"{text}*{h}")
                else:
                    parts.append(f"({text})*{h}")
        for base in sorted(self.geo):
            coeff = self.geo[base]
            text = str(coeff)
            b = f"{base}^h" if base >= 0 else f"({base})^h"
            if coeff == 1:
                parts.append(b)
            elif coeff == -1:
                parts.append(f"-{b}")
            elif coeff.is_constant or len(coeff.terms()) == 1:
                parts.append(f"{text}*{b}")
            else:
                parts.append(f"({text})*{b}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")


def _binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    result = 1
    for i in range(min(k, n - k)):
        result = result * (n - i) // (i + 1)
    return result


def _mat_mul_exprs(matrix: Matrix, values: Sequence[Expr]) -> List[Expr]:
    """Multiply a rational matrix by a vector of symbolic expressions."""
    out: List[Expr] = []
    for i in range(matrix.rows):
        acc = Expr.zero()
        for j in range(matrix.ncols):
            entry = matrix[i, j]
            if entry != 0:
                acc = acc + values[j] * entry
        out.append(acc)
    return out


def solve_affine_recurrence(
    multiplier: int,
    addend: ClosedForm,
    init: Union[Expr, Rat],
) -> Optional[ClosedForm]:
    """Solve ``x_{h+1} = multiplier * x_h + addend(h)`` with ``x_0 = init``.

    Returns the closed form of ``x_h``, or ``None`` when the solution does
    not fit the ``poly + geo`` representation (e.g. resonance between the
    multiplier and one of the addend's geometric bases, which would need an
    ``h * b**h`` term).

    * ``multiplier == 1``: pure accumulation; the order rises by one
      (section 4.3's polynomial rule).
    * ``multiplier == -1`` with an invariant addend is the paper's flip-flop
      case; the closed form here is geometric with base -1, and the
      classifier reports it as periodic with period two.
    * other integer multipliers: geometric induction variables, solved with
      the paper's matrix method (polynomial terms up to ``deg(addend) + 1``
      plus one exponential term per base -- the paper's L14 ``m`` example
      conservatively includes a quadratic term and discovers its coefficient
      is zero; we reproduce exactly that).
    """
    fault_point("closedform.recurrence")
    x0 = _as_expr(init)
    if multiplier == 1:
        summed = addend.prefix_sum()
        if summed is None:
            return None
        return ClosedForm.invariant(x0) + summed
    if multiplier == 0:
        return None
    bases = set(addend.geo)
    if multiplier in bases or multiplier in (0, 1):
        return None
    bases.add(multiplier)
    degree = (addend.degree if addend.coeffs else 0) + 1
    nbases = sorted(bases)
    n = degree + 1 + len(nbases)
    values: List[Expr] = []
    x = x0
    for h in range(n):
        values.append(x)
        x = x * multiplier + addend.value_at(h)
    fitted = ClosedForm.fit(values, degree, nbases)
    if fitted is None:
        return None
    # Validate the fit against one further iterate; the basis functions are
    # linearly independent on all naturals only if this holds (guards against
    # an accidental fit through the sample points).
    if fitted.value_at(n) != x:
        return None
    return fitted
