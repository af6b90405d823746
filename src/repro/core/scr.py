"""Classification of strongly connected regions (sections 3.1, 4.1-4.4).

Given one SCR of the loop's SSA graph, with every out-of-SCR operand already
classified (Tarjan's visit order guarantees this), we compute the
*cumulative effect* of one trip around the loop on the loop-header phi:
every value feeding back into the phi is expanded as

    ``carried  =  mult * header  +  addend(h)``

per control-flow path, where ``mult`` is an exact rational and ``addend`` a
closed form in the iteration counter ``h`` (built from the classifications
of operands outside the SCR).  The classification then falls out:

* one path effect, ``mult == 1``, invariant addend -> linear IV family;
* one path effect, ``mult == 1``, IV addend -> polynomial/geometric IV of
  the next order (solved with the paper's matrix method);
* one path effect, integer ``mult`` -> geometric IV; ``mult == -1`` with an
  invariant addend is the flip-flop, reported as periodic of period two;
* several header phis, no arithmetic -> a family of periodic variables,
  period = number of header phis;
* several differing path effects with provable sign -> monotonic variables,
  with the per-member strictness analysis of Figure 10 (``k3`` strictly
  increasing, ``k2``/``k4`` merely non-decreasing);
* anything else -> unknown.

Trivial SCRs consisting of a loop-header phi alone are the wrap-around
variables of section 4.1 (handled by :func:`classify_trivial_header_phi`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.classes import (
    BranchDependent,
    Classification,
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    Unknown,
    WrapAround,
    closedform_sign,
    closedform_strict_sign,
)
from repro.core.algebra import cf_to_class, class_closed_form
from repro.ir.instructions import Assign, BinOp, Phi, UnOp
from repro.ir.opcodes import BinaryOp
from repro.ir.values import Const, Ref, Value
from repro.obs.provenance import remember
from repro.symbolic.closedform import ClosedForm, solve_affine_recurrence
from repro.symbolic.expr import Expr, Rat

MAX_PATHS = 32


@dataclass
class PathEffect:
    """Effect of one path: ``value = mult * header + addend(h)``.

    ``visits`` records, for members traversed on this path, their own
    (mult, addend) at the point of their definition -- the pairing needed
    for the per-member strictness rule.  ``through`` additionally lists
    members whose visit info was lost to merging (conservative fallback).
    """

    mult: Rat
    addend: ClosedForm
    visits: Dict[str, Tuple[Rat, ClosedForm]] = field(default_factory=dict)
    through: frozenset = frozenset()

    def key(self) -> Tuple[Rat, ClosedForm]:
        return (self.mult, self.addend)


def _merge_visits(a: PathEffect, b: PathEffect) -> Tuple[Dict, frozenset]:
    visits: Dict[str, Tuple[Rat, ClosedForm]] = dict(a.visits)
    through = set(a.through) | set(b.through)
    for name, info in b.visits.items():
        if name in visits and visits[name] != info:
            del visits[name]  # conflicting pairing: keep only membership
        else:
            visits[name] = info
    through |= set(a.visits) | set(b.visits)
    return visits, frozenset(through)


class _ExpansionFailure(Exception):
    pass


class _Expander:
    """Expands SCR members into path effects relative to the header phi.

    A member's expansion needs its member operands expanded first.  Each
    member in progress is a generator that yields the operand it needs and
    resumes with that operand's expansion, or with its failure thrown in,
    so :meth:`expand` runs on an explicit stack: an SCR of any length
    expands without recursion, in the operand order and with the failures
    of a depth-first walk.
    """

    def __init__(self, ctx, members: List[str], header_phi: str):
        self.ctx = ctx
        self.members = set(members)
        self.header_phi = header_phi
        self.memo: Dict[str, List[PathEffect]] = {}
        self.in_progress: set = set()

    def expand(self, name: str) -> List[PathEffect]:
        effects = self.memo.get(name)
        if effects is not None:
            return effects
        stack = [self._expansion(name)]
        result, failure = None, None
        while stack:
            try:
                if failure is None:
                    operand = stack[-1].send(result)
                else:
                    operand = stack[-1].throw(failure)
            except StopIteration as done:
                stack.pop()
                result, failure = done.value, None
                continue
            except _ExpansionFailure as error:
                stack.pop()
                result, failure = None, error
                continue
            result, failure = None, None
            if isinstance(operand, Ref) and operand.name in self.members:
                result = self.memo.get(operand.name)
                if result is None:
                    stack.append(self._expansion(operand.name))
                continue
            try:
                result = self._operand_form(operand)
            except _ExpansionFailure as error:
                failure = error
        if failure is None:
            return result
        try:
            raise failure
        finally:
            # the traceback holds this frame: drop the frame's reference
            # back to the exception, or the two would form a cycle
            del failure

    # -- one member: a generator over the operands it needs --------------
    def _expansion(self, name: str):
        if name in self.in_progress:
            raise _ExpansionFailure(f"cycle avoiding the header phi at {name}")
        if name == self.header_phi:
            base = [PathEffect(1, ClosedForm.zero(), {name: (1, ClosedForm.zero())}, frozenset({name}))]
            self.memo[name] = base
            return base
        self.in_progress.add(name)
        try:
            effects = yield from self._expand_node(name)
        finally:
            self.in_progress.discard(name)
        if len(effects) > MAX_PATHS:
            raise _ExpansionFailure("too many control-flow paths")
        # record this member's own effect in each path's visits
        stamped = []
        for pe in effects:
            visits = dict(pe.visits)
            visits[name] = (pe.mult, pe.addend)
            stamped.append(
                PathEffect(pe.mult, pe.addend, visits, pe.through | {name})
            )
        self.memo[name] = stamped
        return stamped

    def _expand_node(self, name: str):
        node = self.ctx.node(name)
        inst = node.inst
        if inst is None:
            if node.exit_expr is None:
                raise _ExpansionFailure("inner-loop value with unknown exit value")
            return (yield from self._expand_expression(node.exit_expr))
        if isinstance(inst, Assign):
            return self._as_effects((yield inst.src))
        if isinstance(inst, UnOp):
            return self._scale(self._as_effects((yield inst.operand)), -1)
        if isinstance(inst, Phi):
            out: List[PathEffect] = []
            for value in inst.uses():
                expanded = yield value
                if isinstance(expanded, ClosedForm):
                    raise _ExpansionFailure(
                        f"phi {name} merges a value independent of the header"
                    )
                out.extend(expanded)
            return out
        if isinstance(inst, BinOp):
            if inst.op is BinaryOp.ADD:
                return self._add((yield inst.lhs), (yield inst.rhs))
            if inst.op is BinaryOp.SUB:
                return self._add((yield inst.lhs), self._negate((yield inst.rhs)))
            if inst.op is BinaryOp.MUL:
                return self._mul((yield inst.lhs), (yield inst.rhs))
            raise _ExpansionFailure(f"operator {inst.op} in cycle")
        raise _ExpansionFailure(f"{type(inst).__name__} in cycle")

    def _expand_expression(self, expr: Expr):
        """Expand a synthetic exit-value expression (inner-loop summary)."""
        total = None
        for mono, coeff in expr.terms().items():
            member_syms = [(s, p) for s, p in mono if s in self.members]
            other_syms = [(s, p) for s, p in mono if s not in self.members]
            if sum(p for _, p in member_syms) > 1:
                raise _ExpansionFailure("exit value nonlinear in the cycle")
            # closed form of the non-member part
            part = ClosedForm.invariant(Expr.const(coeff))
            for sym, power in other_syms:
                factor = yield Ref(sym)
                for _ in range(power):
                    product = part.try_mul(factor)
                    if product is None:
                        raise _ExpansionFailure("exit value product not representable")
                    part = product
            if member_syms:
                member_effects = yield Ref(member_syms[0][0])
                term = self._mul(member_effects, part)
            else:
                term = part
            total = term if total is None else self._add(total, term)
        if total is None:
            total = ClosedForm.zero()
        return self._as_effects(total)

    # -- operands outside the SCR ------------------------------------------
    def _operand_form(self, value: Value) -> ClosedForm:
        if isinstance(value, Const):
            return ClosedForm.invariant(Expr.const(value.value))
        if isinstance(value, Ref):
            node = self.ctx.node(value.name)
            if node is not None:
                form = class_closed_form(self.ctx.classification(value.name))
                if form is None:
                    raise _ExpansionFailure(f"operand {value.name} has no closed form")
                return form
            return ClosedForm.invariant(self.ctx.invariant_symbol(value.name))
        raise _ExpansionFailure(f"bad operand {value!r}")

    # -- combination helpers ---------------------------------------------
    def _as_effects(self, value) -> List[PathEffect]:
        if isinstance(value, ClosedForm):
            return [PathEffect(0, value)]
        return value

    def _negate(self, value):
        if isinstance(value, ClosedForm):
            return -value
        return self._scale(value, -1)

    def _scale(self, effects: List[PathEffect], factor: Rat) -> List[PathEffect]:
        # visits dicts are shared, never mutated in place (copied on stamp)
        return [
            PathEffect(pe.mult * factor, pe.addend.scale(factor), pe.visits, pe.through)
            for pe in effects
        ]

    def _scale_cf(self, effects: List[PathEffect], form: ClosedForm) -> List[PathEffect]:
        """Multiply effects by a header-independent closed form."""
        if form.is_invariant and form.init.is_constant:
            return self._scale(effects, form.init.constant_value())
        out = []
        for pe in effects:
            if pe.mult != 0:
                raise _ExpansionFailure("symbolic multiplier on the header value")
            product = pe.addend.try_mul(form)
            if product is None:
                raise _ExpansionFailure("product not representable")
            out.append(PathEffect(0, product, pe.visits, pe.through))
        return out

    def _add(self, left, right):
        if isinstance(left, ClosedForm) and isinstance(right, ClosedForm):
            return left + right
        if isinstance(left, ClosedForm):
            left, right = right, left
        if isinstance(right, ClosedForm):
            return [
                PathEffect(pe.mult, pe.addend + right, pe.visits, pe.through)
                for pe in left
            ]
        out = []
        for a in left:
            for b in right:
                visits, through = _merge_visits(a, b)
                out.append(PathEffect(a.mult + b.mult, a.addend + b.addend, visits, through))
        if len(out) > MAX_PATHS:
            raise _ExpansionFailure("too many control-flow paths")
        return out

    def _mul(self, left, right):
        if isinstance(left, ClosedForm) and isinstance(right, ClosedForm):
            product = left.try_mul(right)
            if product is None:
                raise _ExpansionFailure("product not representable")
            return product
        if isinstance(left, ClosedForm):
            left, right = right, left
        if isinstance(right, ClosedForm):
            return self._scale_cf(left, right)
        # both sides depend on the header: only degenerate cases are affine
        out = []
        for a in left:
            for b in right:
                if a.mult == 0 and a.addend.is_invariant and a.addend.init.is_constant:
                    factor = a.addend.init.constant_value()
                    visits, through = _merge_visits(a, b)
                    out.append(
                        PathEffect(b.mult * factor, b.addend.scale(factor), visits, through)
                    )
                elif b.mult == 0 and b.addend.is_invariant and b.addend.init.is_constant:
                    factor = b.addend.init.constant_value()
                    visits, through = _merge_visits(a, b)
                    out.append(
                        PathEffect(a.mult * factor, a.addend.scale(factor), visits, through)
                    )
                else:
                    raise _ExpansionFailure("nonlinear cycle (header * header)")
        if len(out) > MAX_PATHS:
            raise _ExpansionFailure("too many control-flow paths")
        return out


# ----------------------------------------------------------------------
# provenance helpers (repro.obs explain layer)
# ----------------------------------------------------------------------
def _value_label(value: Value) -> str:
    if isinstance(value, Ref):
        return value.name
    if isinstance(value, Const):
        return f"const {value.value}"
    return repr(value)


def _recurrence_rule(mult: Rat, addend: ClosedForm) -> str:
    """Which solver rule produced a unique-effect cycle's header class."""
    if mult == 1:
        if addend.is_zero:
            return "scr.invariant-cycle"
        if addend.is_invariant:
            return "scr.linear-recurrence"
        return "scr.polynomial-recurrence"
    if mult == -1 and addend.is_invariant:
        return "scr.flip-flop"
    if mult == 0:
        return "scr.wrap-around"
    return "scr.geometric-recurrence"


# ----------------------------------------------------------------------
# trivial SCR: wrap-around variables (section 4.1)
# ----------------------------------------------------------------------
def classify_trivial_header_phi(node, ctx) -> Classification:
    """A loop-header phi in an SCR by itself: (n+1)-order wrap-around."""
    cls = _classify_trivial_header_phi(node, ctx)
    init_value, carried_value = ctx.phi_split(node.inst)
    return remember(
        cls,
        "scr.wrap-around",
        (
            (_value_label(init_value), ctx.operand_class_of_value(init_value)),
            (_value_label(carried_value), ctx.operand_class_of_value(carried_value)),
        ),
        note="loop-header phi alone in its SCR (section 4.1); "
        "value(h) = carried(h-1) after the first iteration",
    )


def _classify_trivial_header_phi(node, ctx) -> Classification:
    loop = ctx.loop_label
    init_value, carried_value = ctx.phi_split(node.inst)
    init = ctx.value_expr(init_value)
    if init is None:
        return Unknown("wrap-around with unrepresentable initial value")
    carried = ctx.operand_class_of_value(carried_value)

    if isinstance(carried, Unknown):
        return Unknown("wrap-around of unknown")
    if isinstance(carried, Invariant):
        return WrapAround(loop, 1, Invariant(carried.expr, loop=loop), (init,)).simplify()
    if isinstance(carried, (InductionVariable, Periodic)):
        delayed = carried.delayed()
        return WrapAround(loop, 1, delayed, (init,)).simplify()
    if isinstance(carried, WrapAround):
        inner_delayed = carried.inner.delayed()
        if inner_delayed is None:
            return Unknown("wrap-around of unshiftable class")
        pre = (init,) + carried.pre_values
        return WrapAround(loop, carried.order + 1, inner_delayed, pre).simplify()
    if isinstance(carried, Monotonic):
        # the value is monotonic from the second iteration on
        inner = Monotonic(loop, carried.direction, carried.strict, init=None)
        return WrapAround(loop, 1, inner, (init,))
    if isinstance(carried, BranchDependent):
        # same step set, one iteration later
        return WrapAround(loop, 1, carried.delayed(), (init,))
    return Unknown("wrap-around of unhandled class")


# ----------------------------------------------------------------------
# non-trivial SCRs
# ----------------------------------------------------------------------
def classify_cycle_scr(members: List[str], ctx) -> Dict[str, Classification]:
    """Classify every member of one non-trivial SCR."""
    loop = ctx.loop_label
    header_phis = [m for m in members if ctx.is_header_phi(m)]
    if not header_phis:
        return {m: Unknown("cycle without a loop-header phi") for m in members}
    if len(header_phis) > 1:
        return _classify_periodic_family(members, header_phis, ctx)

    header = header_phis[0]
    init_value, carried_value = ctx.phi_split(ctx.node(header).inst)
    init = ctx.value_expr(init_value)
    if init is None:
        return {m: Unknown("unrepresentable initial value") for m in members}

    expander = _Expander(ctx, members, header)
    try:
        if not (isinstance(carried_value, Ref) and carried_value.name in expander.members):
            raise _ExpansionFailure("carried value outside the SCR")
        carried_effects = expander.expand(carried_value.name)
    except _ExpansionFailure as failure:
        return {m: Unknown(str(failure)) for m in members}

    unique = {(pe.mult, pe.addend) for pe in carried_effects}
    if len(unique) == 1:
        mult, addend = next(iter(unique))
        header_class = _solve_unique(loop, mult, addend, init)
        if header_class is not None:
            remember(
                header_class,
                _recurrence_rule(mult, addend),
                ((_value_label(init_value), ctx.operand_class_of_value(init_value)),),
                note=lambda mult=mult, addend=addend, init=init: (
                    f"solved x' = {mult}*x + ({addend}); x(0) = {init}"
                ),
            )
            return _classify_members(loop, members, header, header_class, expander, init)
    branch_class = _branch_dependent_header(loop, header, unique, init)
    if branch_class is not None:
        return _classify_branch_dependent(
            loop, members, header, branch_class, carried_effects, expander,
            init, ctx, init_value,
        )
    return _classify_monotonic(loop, members, header, carried_effects, expander, init, ctx)


def _solve_unique(
    loop: str, mult: Rat, addend: ClosedForm, init: Expr
) -> Optional[Classification]:
    """Solve ``x' = mult*x + addend(h)``, ``x(0) = init``; None -> fall back."""
    if mult == 1:
        if addend.is_zero:
            return Invariant(init, loop=loop)
        if addend.is_invariant:
            return InductionVariable(loop, ClosedForm.linear(init, addend.init))
        form = solve_affine_recurrence(1, addend, init)
        if form is None:
            return None
        return cf_to_class(loop, form)
    if mult == -1 and addend.is_invariant:
        # flip-flop: "equivalent to a periodic variable of period two"
        return Periodic(loop, (init, addend.init - init)).simplify()
    if mult == 0:
        # the carried value ignores the header: first-order wrap-around
        inner = cf_to_class(loop, addend.shift(-1))
        return WrapAround(loop, 1, inner, (init,)).simplify()
    if mult.denominator == 1:
        form = solve_affine_recurrence(int(mult), addend, init)
        if form is None:
            return None
        return cf_to_class(loop, form)
    return None


def _classify_members(
    loop: str,
    members: List[str],
    header: str,
    header_class: Classification,
    expander: _Expander,
    init: Expr,
) -> Dict[str, Classification]:
    """Each member is ``mult*header + addend`` applied to the header class."""
    out: Dict[str, Classification] = {header: header_class}
    header_form = class_closed_form(header_class)
    for member in members:
        if member == header:
            continue
        try:
            effects = expander.expand(member)
        except _ExpansionFailure as failure:
            out[member] = Unknown(str(failure))
            continue
        unique = {(pe.mult, pe.addend) for pe in effects}
        if len(unique) != 1:
            out[member] = Unknown("member value differs between paths")
            continue
        mult, addend = next(iter(unique))
        if header_form is not None:
            out[member] = cf_to_class(loop, header_form.scale(mult) + addend)
        elif isinstance(header_class, Periodic) and addend.is_invariant:
            values = tuple(v * mult + addend.init for v in header_class.values)
            out[member] = Periodic(loop, values).simplify()
        elif isinstance(header_class, WrapAround):
            from repro.core.algebra import cls_add, cls_scale

            scaled = cls_scale(loop, header_class, Expr.const(mult))
            out[member] = cls_add(loop, scaled, cf_to_class(loop, addend))
        else:
            out[member] = Unknown("member of unrepresentable family")
        remember(
            out[member],
            "scr.member",
            ((header, header_class),),
            # lazy: str(ClosedForm) per member is too hot for attach time
            note=lambda member=member, mult=mult, header=header, addend=addend: (
                f"{member} = {mult}*{header} + ({addend}) each iteration"
            ),
        )
    return out


# ----------------------------------------------------------------------
# periodic families (section 4.2)
# ----------------------------------------------------------------------
def _classify_periodic_family(
    members: List[str], header_phis: List[str], ctx
) -> Dict[str, Classification]:
    """Several header phis, values rotated through copies: period = #phis."""
    loop = ctx.loop_label
    failure = {m: Unknown("not a periodic rotation") for m in members}

    # only header phis and copies allowed ("no arithmetic and no other
    # phi-functions")
    copies: Dict[str, str] = {}
    for member in members:
        inst = ctx.node(member).inst
        if ctx.is_header_phi(member):
            continue
        if isinstance(inst, Assign) and isinstance(inst.src, Ref) and inst.src.name in members:
            copies[member] = inst.src.name
        else:
            return failure

    # successor function sigma: header phi -> header phi reached by its
    # carried value through copies
    sigma: Dict[str, str] = {}
    inits: Dict[str, Expr] = {}
    for phi_name in header_phis:
        init_value, carried = ctx.phi_split(ctx.node(phi_name).inst)
        init = ctx.value_expr(init_value)
        if init is None:
            return failure
        inits[phi_name] = init
        if not isinstance(carried, Ref):
            return failure
        target = carried.name
        seen = set()
        while target in copies:
            if target in seen:
                return failure
            seen.add(target)
            target = copies[target]
        if target not in header_phis:
            return failure
        sigma[phi_name] = target

    period = len(header_phis)
    out: Dict[str, Classification] = {}
    for phi_name in header_phis:
        values = []
        current = phi_name
        for _ in range(period):
            values.append(inits[current])
            current = sigma[current]
        if current != phi_name:
            return failure  # not a single rotation cycle
        out[phi_name] = remember(
            Periodic(loop, tuple(values)).simplify(),
            "scr.periodic-family",
            tuple(
                (p, Invariant(inits[p], loop=loop)) for p in header_phis
            ),
            note=f"{period} header phis rotating through copies (section 4.2)",
        )

    # copies take the classification of their source
    remaining = dict(copies)
    while remaining:
        progressed = False
        for member, source in list(remaining.items()):
            if source in out:
                out[member] = out[source]
                del remaining[member]
                progressed = True
        if not progressed:
            for member in remaining:
                out[member] = Unknown("unresolvable copy chain")
            break
    return out


# ----------------------------------------------------------------------
# branch-dependent cycles (path-sensitive refinement of section 4.4)
# ----------------------------------------------------------------------
def _step_sort_key(expr: Expr):
    """Deterministic step order: numeric steps first, then by rendering."""
    if expr.is_constant:
        return (0, expr.constant_value(), "")
    return (1, 0, str(expr))


def _branch_dependent_header(
    loop: str, header: str, unique, init: Expr
) -> Optional[BranchDependent]:
    """Several differing path effects, each ``x' = x + d_p`` with an
    invariant step ``d_p``: the header is branch dependent -- per
    iteration it adds one value from the finite step set."""
    if len(unique) < 2:
        return None
    if not all(mult == 1 and addend.is_invariant for mult, addend in unique):
        return None
    steps = tuple(
        sorted((addend.init for _mult, addend in unique), key=_step_sort_key)
    )
    return BranchDependent(loop, steps, init=init, family=header)


def _classify_branch_dependent(
    loop: str,
    members: List[str],
    header: str,
    header_class: BranchDependent,
    carried_effects: List[PathEffect],
    expander: _Expander,
    init: Expr,
    ctx,
    init_value: Value,
) -> Dict[str, Classification]:
    """Header = branch dependent; members via Figure 10 where possible."""
    remember(
        header_class,
        "scr.branch-dependent",
        ((_value_label(init_value), ctx.operand_class_of_value(init_value)),),
        note=lambda steps=header_class.steps: (
            f"{len(steps)} distinct per-path updates "
            f"{{{', '.join(str(s) for s in steps)}}}; "
            "every carried path is x' = x + step (path-sensitive section 4.4)"
        ),
    )
    if header_class.direction is not None:
        # all steps move one way: members keep the per-member strictness
        # analysis of Figure 10; only the header carries the step set
        out = _classify_monotonic(
            loop, members, header, carried_effects, expander, init, ctx
        )
        out[header] = header_class
        return out

    # mixed-sign steps: the classic rules have nothing; a member still
    # follows the header exactly when its offset is path independent
    out: Dict[str, Classification] = {header: header_class}
    for member in members:
        if member == header:
            continue
        try:
            effects = expander.expand(member)
        except _ExpansionFailure as failure:
            out[member] = Unknown(str(failure))
            continue
        unique_m = {(pe.mult, pe.addend) for pe in effects}
        if len(unique_m) == 1:
            mult, addend = next(iter(unique_m))
            if mult == 1 and addend.is_invariant:
                out[member] = BranchDependent(
                    loop,
                    header_class.steps,
                    init=init + addend.init,
                    family=header,
                )
            else:
                out[member] = Unknown(
                    "member with multiplier in branch-dependent cycle"
                )
        else:
            out[member] = Unknown("branch-dependent member differs between paths")
        remember(
            out[member],
            "scr.branch-member",
            ((header, header_class),),
            note="path-independent offset from a branch-dependent header",
        )
    return out


# ----------------------------------------------------------------------
# monotonic fallback (section 4.4)
# ----------------------------------------------------------------------
def _unconditional_in_loop(ctx, member: str) -> bool:
    """True when ``member``'s definition executes on *every* iteration
    (its block dominates every latch).  Such a member is observed each
    iteration even on carried paths that bypass it in the phi web -- e.g.
    when GVN reuses an unconditional computation as a conditional phi
    input -- so every carried path is relevant to its monotonicity."""
    if ctx is None:
        return False
    node = ctx.node(member)
    if node is None or node.block is None:
        return False
    domtree = ctx.domtree
    latches = ctx.loop.latches
    return bool(latches) and all(
        domtree.dominates(node.block, latch) for latch in latches
    )


def _classify_monotonic(
    loop: str,
    members: List[str],
    header: str,
    carried_effects: List[PathEffect],
    expander: _Expander,
    init: Expr,
    ctx=None,
) -> Dict[str, Classification]:
    direction = _family_direction(carried_effects, init)
    if direction is None:
        return {m: Unknown("cycle is neither induction nor monotonic") for m in members}

    sign_of = closedform_sign if direction > 0 else (lambda cf: -_sign_or_none(cf))
    strict_of = (
        closedform_strict_sign if direction > 0 else (lambda cf: -_strict_or_none(cf))
    )

    out: Dict[str, Classification] = {}
    additive = all(pe.mult == 1 for pe in carried_effects)
    header_strict = additive and all(strict_of(pe.addend) == 1 for pe in carried_effects)
    out[header] = remember(
        Monotonic(loop, direction, header_strict, init=init, family=header),
        "scr.monotonic-family",
        ((f"x(0) = {init}", Invariant(init, loop=loop)),),
        note=(
            f"{len(carried_effects)} carried path(s), every one moves the "
            f"value {'up' if direction > 0 else 'down'} (section 4.4)"
        ),
    )

    for member in members:
        if member == header:
            continue
        if not additive:
            out[member] = _multiplicative_member(loop, member, direction, expander, header)
        else:
            try:
                effects = expander.expand(member)
            except _ExpansionFailure as failure:
                out[member] = Unknown(str(failure))
                continue
            out[member] = _additive_member(
                loop, member, direction, effects, carried_effects, sign_of, strict_of, header,
                all_paths_relevant=_unconditional_in_loop(ctx, member),
            )
        remember(
            out[member],
            "scr.monotonic-member",
            ((header, out[header]),),
            note="per-member strictness rule of Figure 10",
        )
    return out


def _sign_or_none(form: ClosedForm):
    sign = closedform_sign(form)
    return sign if sign is not None else 99


def _strict_or_none(form: ClosedForm):
    sign = closedform_strict_sign(form)
    return sign if sign is not None else 99


def _family_direction(effects: List[PathEffect], init: Expr) -> Optional[int]:
    """+1 / -1 when every path provably moves one way; None otherwise."""
    for direction in (1, -1):
        ok = True
        for pe in effects:
            sign = closedform_sign(pe.addend)
            if sign is None or (sign != 0 and sign != direction):
                ok = False
                break
            if pe.mult == 1:
                continue
            # multiplicative path: a*x + d keeps direction when a >= 1,
            # d has the right sign, and x never crosses zero -- guaranteed
            # when the initial value already lies on the right side.
            if pe.mult.denominator != 1 or pe.mult < 1:
                ok = False
                break
            init_sign = init.known_sign()
            if init_sign is None or (init_sign != 0 and init_sign != direction):
                ok = False
                break
        if ok and any(
            closedform_sign(pe.addend) == direction or pe.mult > 1 for pe in effects
        ):
            return direction
    return None


def _additive_member(
    loop: str,
    member: str,
    direction: int,
    effects: List[PathEffect],
    carried_effects: List[PathEffect],
    sign_of,
    strict_of,
    family: str,
    all_paths_relevant: bool = False,
) -> Classification:
    """Per-member monotonicity with the pairing rule (see module docstring).

    For occurrences at iterations h1 < h2 of member ``m = x + d_m``:
    ``m(h2) - m(h1) >= (f(p1) - d_m(p1)) + d_m(h2)`` where ``f(p1)`` is the
    full-cycle addend of the path taken at h1 (which went through ``m``).
    Non-decreasing needs ``f(p) - d_m(p) + d_m >= 0`` per path and next
    offset; strictness needs ``f(p) - d_m(p) + min(d_m) > 0``.

    Both verdicts are conjunctions over (path addend, paired offset, next
    offset) triples, so each distinct ``(addend, offset)`` pair is checked
    against each distinct next offset once: repeated paths and repeated
    offsets cannot change a conjunction.  The cost is distinct pairs
    times distinct offsets, not paths times offsets squared.

    A path that bypasses ``m`` in the phi web is normally irrelevant (``m``
    is only observed when a path through it runs) -- but a member that
    executes unconditionally (``all_paths_relevant``) is observed on every
    iteration, so all carried paths count for it.
    """
    if any(pe.mult != 1 for pe in effects):
        return Unknown("member with multiplier in monotonic cycle")
    offsets = [pe.addend for pe in effects]
    if any(sign_of(d) not in (0, 1) for d in offsets):
        return Unknown("member offset with wrong sign")

    relevant = [pe for pe in carried_effects if member in pe.through]
    if not relevant:
        return Unknown("member not on any carried path")
    if all_paths_relevant:
        relevant = carried_effects

    next_offsets = list(dict.fromkeys(offsets))
    pairs: Dict[Tuple[ClosedForm, ClosedForm], None] = {}
    for pe in relevant:
        if member in pe.visits:
            pairs[(pe.addend, pe.visits[member][1])] = None
        else:
            for offset in next_offsets:  # pairing lost: check all offsets
                pairs[(pe.addend, offset)] = None

    strict = True
    for addend, offset in pairs:
        slack = addend - offset
        # the next execution contributes its own offset: the difference
        # is slack + d(h2), so a negative slack can be compensated by
        # every possible next offset
        if sign_of(slack) not in (0, 1) and not all(
            sign_of(slack + other) in (0, 1) for other in next_offsets
        ):
            return Unknown("member not provably monotonic")
        # strict needs slack + min(d_m) > 0; without a provable minimum
        # we conservatively require slack + d > 0 for every offset d
        if strict and not all(strict_of(slack + other) == 1 for other in next_offsets):
            strict = False
    return Monotonic(loop, direction, strict, family=family)


def _multiplicative_member(
    loop: str, member: str, direction: int, expander, family: str
) -> Classification:
    try:
        effects = expander.expand(member)
    except _ExpansionFailure as failure:
        return Unknown(str(failure))
    for pe in effects:
        if pe.mult.denominator != 1 or pe.mult < 1:
            return Unknown("member with non-positive multiplier")
        sign = closedform_sign(pe.addend)
        if sign is None or (sign != 0 and sign != direction):
            return Unknown("member offset with wrong sign")
    return Monotonic(loop, direction, False, family=family)
