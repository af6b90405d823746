"""The algebra of classifications (section 5.1).

"The result of each type of operation depends on how its operands have been
classified. ... In general the compiler needs an algebra of types and
operators."  This module is that algebra: generic combinators
(:func:`cls_add`, :func:`cls_mul`, :func:`cls_scale`) over the
classification lattice, and :func:`classify_operator`, which classifies one
non-cyclic SSA node from its already-classified operands.

Everything here is conservative: any combination without a sound rule
produces :class:`Unknown`.  Notable rules beyond the obvious closed-form
arithmetic:

* wrap-around +/- invariant or IV stays wrap-around (pre-values and inner
  sequence adjusted);
* periodic +/- invariant (and scaled by an invariant) stays periodic;
* monotonic combined with invariants, other monotonics, or direction-
  compatible IVs stays monotonic ("adding a monotonic variable to an
  induction variable to get another monotonic variable");
* integer division / modulo of invariants yields an *opaque* invariant --
  sound even though no polynomial form exists -- and ``mod`` of an integer
  linear IV by a positive constant is recognized as periodic (an extension
  the paper's framework makes natural);
* ``const ** linear-IV`` is recognized as a geometric IV.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from repro.core.classes import (
    BranchDependent,
    Classification,
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    Unknown,
    WrapAround,
    closedform_strict_sign,
)
from repro.ir.instructions import (
    Assign,
    BinOp,
    Compare,
    Load,
    Phi,
    Store,
    UnOp,
)
from repro.ir.opcodes import BinaryOp, exceeds_fold_bound
from repro.ir.values import Const, Ref
from repro.symbolic.closedform import ClosedForm
from repro.symbolic.expr import Expr


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def cf_to_class(loop: str, form: ClosedForm) -> Classification:
    """Wrap a closed form as Invariant (if constant over h) or IV."""
    if form.is_invariant:
        return Invariant(form.init, loop=loop)
    return InductionVariable(loop, form)


def class_closed_form(cls: Classification) -> Optional[ClosedForm]:
    """Closed form of Invariant / IV classes (None otherwise)."""
    if isinstance(cls, (Invariant, InductionVariable)):
        return cls.closed_form()
    return None


def iv_direction(cls: Classification) -> Optional[int]:
    """Provable direction of an Invariant/IV (0 for invariant)."""
    if isinstance(cls, Invariant):
        return 0
    if isinstance(cls, InductionVariable):
        return cls.direction()
    return None


def iv_is_strict(cls: Classification) -> bool:
    if isinstance(cls, InductionVariable):
        difference = cls.form.shift(1) - cls.form
        return closedform_strict_sign(difference) is not None
    return False


# ----------------------------------------------------------------------
# generic combinators
# ----------------------------------------------------------------------
def cls_add(loop: str, a: Classification, b: Classification) -> Classification:
    """Classification of ``a + b`` within loop ``loop``."""
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return Unknown()
    # closed-form pair
    form_a = class_closed_form(a)
    form_b = class_closed_form(b)
    if form_a is not None and form_b is not None:
        return cf_to_class(loop, form_a + form_b)
    # order so the "bigger" class is first
    if isinstance(b, WrapAround) and not isinstance(a, WrapAround):
        a, b = b, a
        form_a, form_b = form_b, form_a
    if isinstance(b, Periodic) and not isinstance(a, (WrapAround, Periodic)):
        a, b = b, a
        form_a, form_b = form_b, form_a
    if isinstance(b, BranchDependent) and not isinstance(
        a, (WrapAround, Periodic, BranchDependent)
    ):
        a, b = b, a
        form_a, form_b = form_b, form_a
    if isinstance(b, Monotonic) and not isinstance(
        a, (WrapAround, Periodic, BranchDependent, Monotonic)
    ):
        a, b = b, a
        form_a, form_b = form_b, form_a

    if isinstance(a, WrapAround):
        if isinstance(b, (Invariant, InductionVariable)):
            inner = cls_add(loop, a.inner, b)
            if isinstance(inner, Unknown):
                return Unknown()
            pre = []
            for h, value in enumerate(a.pre_values):
                other = b.value_at(h)
                if other is None:
                    return Unknown()
                pre.append(value + other)
            return WrapAround(loop, a.order, inner, tuple(pre)).simplify()
        if isinstance(b, WrapAround):
            order = max(a.order, b.order)
            inner = cls_add(loop, a.inner, b.inner)
            if isinstance(inner, Unknown):
                return Unknown()
            pre = []
            for h in range(order):
                left = a.value_at(h)
                right = b.value_at(h)
                if left is None or right is None:
                    return Unknown()
                pre.append(left + right)
            return WrapAround(loop, order, inner, tuple(pre)).simplify()
        return Unknown()

    if isinstance(a, Periodic):
        if isinstance(b, Invariant):
            return Periodic(loop, tuple(v + b.expr for v in a.values))
        if isinstance(b, Periodic):
            period = _lcm(a.period, b.period)
            values = tuple(a.value_at(h) + b.value_at(h) for h in range(period))
            return Periodic(loop, values).simplify()
        return Unknown()

    if isinstance(a, BranchDependent):
        return _branch_dependent_add(loop, a, b)

    if isinstance(a, Monotonic):
        if isinstance(b, Invariant):
            return Monotonic(loop, a.direction, a.strict)
        if isinstance(b, Monotonic):
            if a.direction == b.direction:
                return Monotonic(loop, a.direction, a.strict or b.strict)
            return Unknown()
        if isinstance(b, InductionVariable):
            direction = iv_direction(b)
            if direction is not None and direction in (0, a.direction):
                return Monotonic(loop, a.direction, a.strict or iv_is_strict(b))
            return Unknown()
        return Unknown()

    return Unknown()


#: most distinct per-path steps a combined branch-dependent class may carry
MAX_COMBINED_STEPS = 8


def _dedupe_steps(steps) -> Tuple[Expr, ...]:
    """Distinct steps in first-seen order (Expr is hash-consed)."""
    seen = []
    for step in steps:
        if step not in seen:
            seen.append(step)
    return tuple(seen)


def _branch_dependent_add(
    loop: str, a: BranchDependent, b: Classification
) -> Classification:
    """``branch-dependent + b``: shift the step set when that is exact."""
    if isinstance(b, Invariant):
        init = a.init + b.expr if a.init is not None else None
        return BranchDependent(loop, a.steps, init=init)
    if isinstance(b, InductionVariable) and b.is_linear:
        step = b.form.coeff(1)
        steps = _dedupe_steps(d + step for d in a.steps)
        if len(steps) >= 2:
            init = a.init + b.init if a.init is not None else None
            return BranchDependent(loop, steps, init=init)
    if isinstance(b, BranchDependent):
        # per iteration the sum adds d_a + d_b for *some* pair, whatever
        # the correlation between the two branch choices
        steps = _dedupe_steps(da + db for da in a.steps for db in b.steps)
        if 2 <= len(steps) <= MAX_COMBINED_STEPS:
            init = (
                a.init + b.init
                if a.init is not None and b.init is not None
                else None
            )
            return BranchDependent(loop, steps, init=init)
        if a.direction is not None and a.direction == b.direction:
            return Monotonic(loop, a.direction, a.strict or b.strict)
        return Unknown()
    # direction-only fallbacks (the classic monotonic rules)
    if a.direction is None:
        return Unknown()
    if isinstance(b, Monotonic):
        if a.direction == b.direction:
            return Monotonic(loop, a.direction, a.strict or b.strict)
        return Unknown()
    if isinstance(b, InductionVariable):
        direction = iv_direction(b)
        if direction is not None and direction in (0, a.direction):
            return Monotonic(loop, a.direction, a.strict or iv_is_strict(b))
    return Unknown()


def cls_neg(loop: str, a: Classification) -> Classification:
    return cls_scale(loop, a, Expr.const(-1))


def cls_sub(loop: str, a: Classification, b: Classification) -> Classification:
    return cls_add(loop, a, cls_neg(loop, b))


def cls_scale(loop: str, a: Classification, factor: Expr) -> Classification:
    """Classification of ``a * factor`` with ``factor`` loop invariant."""
    if isinstance(a, Unknown):
        return Unknown()
    if factor.is_zero:
        return Invariant(Expr.zero(), loop=loop)
    form = class_closed_form(a)
    if form is not None:
        return cf_to_class(loop, form.scale(factor))
    if isinstance(a, WrapAround):
        inner = cls_scale(loop, a.inner, factor)
        if isinstance(inner, Unknown):
            return Unknown()
        return WrapAround(
            loop, a.order, inner, tuple(v * factor for v in a.pre_values)
        ).simplify()
    if isinstance(a, Periodic):
        return Periodic(loop, tuple(v * factor for v in a.values))
    if isinstance(a, BranchDependent):
        steps = _dedupe_steps(d * factor for d in a.steps)
        if len(steps) >= 2:
            init = a.init * factor if a.init is not None else None
            return BranchDependent(loop, steps, init=init)
        return Unknown()
    if isinstance(a, Monotonic):
        sign = factor.known_sign()
        if sign is None or sign == 0:
            return Unknown()
        return Monotonic(loop, a.direction * sign, a.strict)
    return Unknown()


def cls_mul(loop: str, a: Classification, b: Classification) -> Classification:
    """Classification of ``a * b``."""
    if isinstance(a, Unknown) or isinstance(b, Unknown):
        return Unknown()
    if isinstance(a, Invariant):
        return cls_scale(loop, b, a.expr)
    if isinstance(b, Invariant):
        return cls_scale(loop, a, b.expr)
    form_a = class_closed_form(a)
    form_b = class_closed_form(b)
    if form_a is not None and form_b is not None:
        product = form_a.try_mul(form_b)
        if product is not None:
            return cf_to_class(loop, product)
        # "it may, however, be classified as monotonic" -- only with sign
        # information we do not track for general products; stay Unknown.
        return Unknown()
    return Unknown()


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


# ----------------------------------------------------------------------
# per-operator classification of non-cyclic nodes
# ----------------------------------------------------------------------
def operator_provenance(node, ctx) -> Tuple[str, Tuple]:
    """(rule, operand summary) of an operator node, for ``--explain``.

    Pure derivation from the finished region context -- the classifier
    itself pays nothing for it.
    """
    return _operator_rule(node.inst), _operand_summary(node, ctx)


_BINOP_RULE = {op: f"algebra.{op.name.lower()}" for op in BinaryOp}


def _operator_rule(inst) -> str:
    """The algebra-rule name for one instruction kind (explain output)."""
    if inst is None:
        return "algebra.exit-value"
    if isinstance(inst, BinOp):
        return _BINOP_RULE[inst.op]
    return _RULE_BY_TYPE.get(type(inst), f"algebra.{type(inst).__name__.lower()}")


_RULE_BY_TYPE = {
    Assign: "algebra.copy",
    UnOp: "algebra.neg",
    Phi: "algebra.phi-merge",
    Load: "algebra.load",
    Compare: "algebra.compare",
    Store: "algebra.store",
}


def _operand_summary(node, ctx):
    """(label, classification) pairs of the node's operands."""
    inst = node.inst
    out = []
    if inst is None:
        if node.exit_expr is not None:
            for sym in sorted(node.exit_expr.free_symbols()):
                out.append((sym, ctx.operand_class(Ref(sym))))
        return tuple(out)
    for value in inst.uses():
        if isinstance(value, Ref):
            out.append((value.name, ctx.operand_class(value)))
        elif isinstance(value, Const):
            out.append((f"const {value.value}", ctx.operand_class(value)))
    return tuple(out)


def classify_operator(node, ctx) -> Classification:
    """Classify one non-cyclic region node from its operand classes.

    ``node`` is a :class:`repro.core.driver.RegionNode`; ``ctx`` a
    :class:`repro.core.driver.RegionContext`.

    This is the per-node hot path, so it records nothing: the derivation
    (rule + operand classes) is reconstructed on demand by
    :func:`operator_provenance` from the region context the loop summary
    retains.
    """
    inst = node.inst
    if inst is None:
        # synthetic exit-value node (inner-loop summary)
        if node.exit_expr is None:
            return Unknown("inner-loop value with unknown exit value")
        return classify_expression(node.exit_expr, ctx)

    loop = ctx.loop_label
    if isinstance(inst, Assign):
        return ctx.operand_class(inst.src)
    if isinstance(inst, UnOp):
        return cls_neg(loop, ctx.operand_class(inst.operand))
    if isinstance(inst, Phi):
        # a merge that is not part of any cycle: all inputs must agree
        values = list(inst.incoming.values())
        classes = [ctx.operand_class(v) for v in values]
        first = classes[0]
        if not all(c == first for c in classes[1:]):
            return Unknown("merge of unequal classifications")
        if not _pins_values(first) and any(v != values[0] for v in values[1:]):
            return Unknown("merge of distinct monotonic values")
        return first
    if isinstance(inst, Load):
        if ctx.array_stored_in_loop(inst.array):
            return Unknown("load from array stored in loop")
        if inst.indices is not None:
            for index in inst.indices:
                index_class = ctx.operand_class(index)
                if not isinstance(index_class, Invariant):
                    return Unknown("load with varying address")
        return Invariant(ctx.opaque(("load", node.name)), loop=loop)
    if isinstance(inst, Compare):
        return Unknown("comparison result")
    if isinstance(inst, Store):
        # stores define nothing; classified for completeness ("a store
        # always takes the classification of the value being stored")
        return ctx.operand_class(inst.value)
    if isinstance(inst, BinOp):
        lhs = ctx.operand_class(inst.lhs)
        rhs = ctx.operand_class(inst.rhs)
        return _classify_binop(node, inst.op, lhs, rhs, ctx)
    return Unknown(f"unhandled instruction {type(inst).__name__}")


def _pins_values(cls: Classification) -> bool:
    """Whether two equal classifications mean equal values on every iteration.

    Invariants, closed forms and periodic sequences compare by value.  Two
    monotonic or branch-dependent classes compare only by loop and
    direction (or step set): ``a`` and ``a + 1`` are both increasing, yet
    a merge that takes ``a + 1`` on one iteration and ``a`` on the next
    moves backwards.
    """
    if isinstance(cls, WrapAround):
        return _pins_values(cls.inner)
    return isinstance(cls, (Invariant, InductionVariable, Periodic))


def _classify_binop(node, op: BinaryOp, lhs, rhs, ctx) -> Classification:
    loop = ctx.loop_label
    if op is BinaryOp.ADD:
        return cls_add(loop, lhs, rhs)
    if op is BinaryOp.SUB:
        return cls_sub(loop, lhs, rhs)
    if op is BinaryOp.MUL:
        if _wide_constant_product(lhs, rhs):
            return Invariant(ctx.opaque(("mul", lhs.expr, rhs.expr)), loop=loop)
        return cls_mul(loop, lhs, rhs)
    if op is BinaryOp.DIV:
        if isinstance(lhs, Invariant) and isinstance(rhs, Invariant):
            # integer division of invariants is invariant, but truncation
            # has no polynomial form: introduce an opaque invariant symbol.
            quotient = _exact_const_div(lhs.expr, rhs.expr)
            if quotient is not None:
                return Invariant(quotient, loop=loop)
            return Invariant(ctx.opaque(("div", lhs.expr, rhs.expr)), loop=loop)
        if isinstance(rhs, Invariant) and rhs.expr.is_constant:
            divisor = rhs.expr.constant_value()
            if divisor in (1, -1):
                return cls_scale(loop, lhs, Expr.const(divisor))
        return Unknown("integer division")
    if op is BinaryOp.MOD:
        if isinstance(lhs, Invariant) and isinstance(rhs, Invariant):
            remainder = _exact_const_mod(lhs.expr, rhs.expr)
            if remainder is not None:
                return Invariant(remainder, loop=loop)
            return Invariant(ctx.opaque(("mod", lhs.expr, rhs.expr)), loop=loop)
        periodic = _linear_mod_periodic(loop, lhs, rhs)
        if periodic is not None:
            return periodic
        return Unknown("modulo")
    if op is BinaryOp.EXP:
        return _classify_exp(loop, lhs, rhs, ctx)
    return Unknown(f"operator {op}")


def _wide_constant_product(lhs, rhs) -> bool:
    """Both operands are integer constants whose product may exceed ``FOLD_BITS``."""
    if not (isinstance(lhs, Invariant) and isinstance(rhs, Invariant)):
        return False
    if not (lhs.expr.is_constant and rhs.expr.is_constant):
        return False
    a, b = lhs.expr.constant_value(), rhs.expr.constant_value()
    if not (isinstance(a, int) and isinstance(b, int)):
        return False
    return exceeds_fold_bound(BinaryOp.MUL, a, b)


def _exact_const_div(lhs: Expr, rhs: Expr) -> Optional[Expr]:
    if not (lhs.is_constant and rhs.is_constant):
        return None
    divisor = rhs.constant_value()
    if divisor == 0:
        return None
    quotient = Fraction(lhs.constant_value()) / divisor
    if quotient.denominator != 1:
        # truncating division: fold exactly for constants
        value = abs(lhs.constant_value().numerator * divisor.denominator) // abs(
            divisor.numerator * lhs.constant_value().denominator
        )
        if (lhs.constant_value() >= 0) != (divisor >= 0):
            value = -value
        return Expr.const(value)
    return Expr.const(quotient)


def _exact_const_mod(lhs: Expr, rhs: Expr) -> Optional[Expr]:
    if not (lhs.is_constant and rhs.is_constant):
        return None
    left = lhs.constant_value()
    right = rhs.constant_value()
    if right == 0 or left.denominator != 1 or right.denominator != 1:
        return None
    a = left.numerator
    b = right.numerator
    quotient = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        quotient = -quotient
    return Expr.const(a - quotient * b)


def _linear_mod_periodic(loop: str, lhs, rhs) -> Optional[Classification]:
    """``(i0 + s*h) mod m`` with integer constants and ``i0, s >= 0, m > 0``
    is periodic with period ``m / gcd(s, m)``."""
    from math import gcd

    if not (isinstance(lhs, InductionVariable) and lhs.is_linear):
        return None
    if not (isinstance(rhs, Invariant) and rhs.expr.is_constant):
        return None
    init = lhs.form.coeff(0)
    step = lhs.form.coeff(1)
    if not (init.is_constant and step.is_constant):
        return None
    try:
        i0 = init.as_int()
        s = step.as_int()
        m = rhs.expr.as_int()
    except Exception:
        return None
    if m <= 0 or i0 < 0 or s < 0:
        return None  # truncating mod differs from math mod on negatives
    period = m // gcd(s % m if s % m else m, m)
    if period < 2:
        period = 1
    values = tuple(Expr.const((i0 + s * h) % m) for h in range(max(period, 1)))
    if len(values) == 1:
        return Invariant(values[0], loop=loop)
    return Periodic(loop, values)


def _classify_exp(loop: str, lhs, rhs, ctx) -> Classification:
    if isinstance(lhs, Invariant) and isinstance(rhs, Invariant):
        if lhs.expr.is_constant and rhs.expr.is_constant:
            try:
                base = lhs.expr.as_int()
                power = rhs.expr.as_int()
                if power >= 0 and not exceeds_fold_bound(BinaryOp.EXP, base, power):
                    return Invariant(Expr.const(base**power), loop=loop)
            except Exception:
                pass
        return Invariant(ctx.opaque(("exp", lhs.expr, rhs.expr)), loop=loop)
    # const ** linear IV  ->  geometric:  b**(i0 + s*h) = b**i0 * (b**s)**h
    if (
        isinstance(lhs, Invariant)
        and lhs.expr.is_constant
        and isinstance(rhs, InductionVariable)
        and rhs.is_linear
    ):
        init = rhs.form.coeff(0)
        step = rhs.form.coeff(1)
        if init.is_constant and step.is_constant:
            try:
                base = lhs.expr.as_int()
                i0 = init.as_int()
                s = step.as_int()
            except Exception:
                return Unknown("exponent")
            if exceeds_fold_bound(BinaryOp.EXP, base, max(i0, s)):
                return Unknown("exponent")
            if i0 >= 0 and s > 0 and base not in (0, 1, -1):
                geo_base = base**s
                coefficient = Expr.const(base**i0)
                return InductionVariable(loop, ClosedForm([], {geo_base: coefficient}))
            if s == 0 and i0 >= 0:
                return Invariant(Expr.const(base**i0), loop=loop)
    # IV ** small constant power
    if (
        isinstance(rhs, Invariant)
        and rhs.expr.is_constant
        and isinstance(lhs, (Invariant, InductionVariable))
    ):
        try:
            power = rhs.expr.as_int()
        except Exception:
            return Unknown("exponent")
        if 0 <= power <= 8:
            result = ClosedForm.invariant(Expr.one())
            base_form = class_closed_form(lhs)
            for _ in range(power):
                product = result.try_mul(base_form)
                if product is None:
                    return Unknown("exponent")
                result = product
            return cf_to_class(loop, result)
    return Unknown("exponent")


# ----------------------------------------------------------------------
# symbolic-expression classification (for exit-value nodes)
# ----------------------------------------------------------------------
def classify_expression(expr: Expr, ctx) -> Classification:
    """Classify a polynomial expression over SSA names.

    Each symbol resolves through ``ctx.operand_class``; the monomials are
    combined with the generic algebra.  Used for synthetic exit-value nodes,
    whose expression mixes outer-region names (possibly IVs of this loop)
    with invariants.
    """
    from repro.ir.values import Ref

    loop = ctx.loop_label
    total: Classification = Invariant(Expr.zero(), loop=loop)
    for mono, coeff in expr.terms().items():
        term: Classification = Invariant(Expr.const(coeff), loop=loop)
        for sym, power in mono:
            sym_class = ctx.operand_class(Ref(sym))
            for _ in range(power):
                term = cls_mul(loop, term, sym_class)
                if isinstance(term, Unknown):
                    return Unknown("exit value expression")
        total = cls_add(loop, total, term)
        if isinstance(total, Unknown):
            return Unknown("exit value expression")
    return total
