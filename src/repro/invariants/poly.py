"""Polynomial loop invariants by linear algebra.

For a loop whose per-path updates are *affine* over the loop-carried
variables (plus loop-invariant symbols, which simply carry over
unchanged), each path ``p`` acts linearly on the degree-<=2 monomial
basis ``{1} u {x_i} u {x_i x_j}``: substituting the updates into a basis
monomial yields a rational combination of basis monomials, i.e. a matrix
``T_p``.  A polynomial ``P = sum c_k mu_k`` is preserved by every path
exactly when ``(T_p^T - I) c = 0`` for all ``p`` -- so the invariant
space is the nullspace of the stacked system (the eigenvector-style
method of de Oliveira, Breck et al., "Polynomial invariants by linear
algebra").  The rows stay int-first -- ``int`` entries unless an update
has a ``Fraction`` coefficient -- and zero and duplicate rows are
dropped; :func:`repro.symbolic.rational.integer_nullspace` solves the
system exactly by fraction-free elimination over integers and returns
the kernel as primitive integer vectors.

Example: ``i += 1; s += i`` on one path and ``i += 2; s += 2*i - 1`` on
the other both preserve ``2*s - i^2 - i``; with ``i = s = 0`` on entry
the emitted equality is ``2*s - i^2 - i == 0``.

Every candidate is a *claim*; the ``INV7xx`` replay checks
(:mod:`repro.invariants.checks`) and the hypothesis soundness oracle
(``tests/property/test_invariant_soundness.py``) hold it against the
reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from repro.invariants.paths import PathSummary
from repro.symbolic.expr import Expr
from repro.symbolic.rational import Rat, integer_nullspace

#: cap on joint variables (phis + carried invariant symbols): the basis
#: has 1 + n + n(n+1)/2 monomials, so 5 variables = 21 columns
MAX_VARIABLES = 5
#: cap on invariants kept per loop (lowest degree first)
MAX_INVARIANTS = 6


@dataclass(frozen=True)
class LoopInvariant:
    """One polynomial equality holding at every evaluation of the header.

    ``poly`` is a polynomial over the loop's header-phi names (and
    loop-invariant symbols); ``value`` is the same polynomial evaluated
    at the loop's entry state, so the invariant is ``poly == value`` --
    true on entry and preserved by every path through the body.
    """

    loop: str
    poly: Expr
    value: Expr
    variables: Tuple[str, ...]
    degree: int

    def residual(self) -> Expr:
        """``poly - value``: zero at every header evaluation."""
        return self.poly - self.value

    def describe(self) -> str:
        return f"{self.poly} == {self.value}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


def generate_invariants(
    summary: PathSummary,
    inits: Dict[str, Expr],
    loop: Optional[str] = None,
) -> List[LoopInvariant]:
    """Degree-<=2 polynomial equalities preserved by every path.

    ``inits`` maps each header-phi name to its loop-entry expression
    (over loop-invariant symbols).  Loops whose path set is incomplete,
    whose updates are not affine, or whose joint variable count exceeds
    :data:`MAX_VARIABLES` yield no invariants (soundly: no claim is ever
    better than a wrong claim).
    """
    if not summary.affine or not summary.phis or not summary.paths:
        return []
    if any(phi not in inits for phi in summary.phis):
        return []

    # joint variables: the header phis plus every loop-invariant symbol
    # the updates mention (those act as extra variables with identity
    # updates, which lets e.g. ``j += 2*n; i += n`` prove ``j - 2*i``)
    carried = set()
    for path in summary.paths:
        for _phi, update in path.updates:
            carried |= set(update.free_symbols())
    invariant_syms = tuple(sorted(carried - set(summary.phis)))
    variables = tuple(summary.phis) + invariant_syms
    if len(variables) > MAX_VARIABLES:
        return []

    basis = _monomial_basis(variables)
    index = {key: position for position, (key, _expr) in enumerate(basis)}
    size = len(basis)

    # int-first rows; zero and duplicate rows are dropped, which leaves
    # the row space, and so the kernel, unchanged
    rows: Dict[Tuple[Rat, ...], None] = {}
    for path in summary.paths:
        mapping = {phi: update for phi, update in path.updates}
        transform: List[List[Rat]] = []
        for _key, mono_expr in basis:
            row: List[Rat] = [0] * size
            substituted = mono_expr.substitute(mapping)
            for mono, coeff in substituted.iter_terms():
                position = index.get(mono)
                if position is None:
                    return []  # degree/symbol escaped the basis: give up
                row[position] += coeff
            transform.append(row)
        # invariance of c: T_p^T c = c, i.e. rows of (T_p^T - I)
        for i in range(size):
            column = [image[i] for image in transform]
            column[i] -= 1
            if any(column):
                rows[tuple(column)] = None

    kernel = integer_nullspace(rows, size)
    out: List[LoopInvariant] = []
    init_map = dict(inits)
    for vector in kernel:
        invariant = _vector_to_invariant(
            vector, basis, variables, summary, init_map, loop or summary.loop
        )
        if invariant is not None:
            out.append(invariant)
    out.sort(key=lambda inv: (inv.degree, str(inv.poly)))
    return out[:MAX_INVARIANTS]


def _monomial_basis(variables: Tuple[str, ...]):
    """``[(key, expr)]`` for ``{1} u {x_i} u {x_i x_j}`` in stable order."""
    basis = [(next(iter(Expr.one().terms())), Expr.one())]
    syms = [Expr.sym(v) for v in variables]
    for expr in syms:
        basis.append((next(iter(expr.terms())), expr))
    for i, a in enumerate(syms):
        for b in syms[i:]:
            product = a * b
            basis.append((next(iter(product.terms())), product))
    return basis


def _vector_to_invariant(
    vector: List[int],
    basis,
    variables: Tuple[str, ...],
    summary: PathSummary,
    inits: Dict[str, Expr],
    loop: str,
) -> Optional[LoopInvariant]:
    # drop the constant-monomial component (P - c0 is invariant iff P is),
    # then normalize to coprime integers with a positive leading coefficient
    coeffs = [0] + vector[1:]
    divisor = gcd(*coeffs)
    if not divisor:
        return None
    if next(c for c in reversed(coeffs) if c) < 0:
        divisor = -divisor
    scaled = [c // divisor for c in coeffs]

    poly = Expr.zero()
    touches_phi = False
    degree = 0
    phi_set = set(summary.phis)
    for coefficient, (_key, mono_expr) in zip(scaled, basis):
        if not coefficient:
            continue
        poly = poly + mono_expr * Expr.const(coefficient)
        degree = max(degree, mono_expr.degree())
        if mono_expr.free_symbols() & phi_set:
            touches_phi = True
    if not touches_phi:
        return None  # a pure combination of loop invariants: trivially true

    value = poly.substitute(inits)
    return LoopInvariant(
        loop=loop,
        poly=poly,
        value=value,
        variables=variables,
        degree=degree,
    )
