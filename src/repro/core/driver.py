"""The classification driver (section 5.3).

Processes loops **inner-first**.  For each loop it builds the SSA graph of
the loop's *own* region -- the loop body minus the bodies of nested loops --
and runs the modified Tarjan pass over it (:mod:`repro.core.tarjan`),
classifying each SCR as it is identified.

References from a loop's region into a nested loop are replaced by
synthetic **exit-value nodes**: "when an inner loop is classified as a
countable loop, the cumulative effect of the execution of the loop on all
induction variables in the loop can be expressed in closed form ... this
value can be assigned to a new variable, and all references outside this
inner loop to the exit value are changed to refer to the new variable"
(Figure 8's ``k6 = k2 + 101*2``).  Here the new variable is an analysis-side
node carrying the symbolic exit expression; the IR is untouched (the
:mod:`repro.transforms` package can materialize them).

References to values defined *outside* the loop are loop invariant
(section 5.3) and enter the algebra as plain symbols; references into inner
loops that are not countable (or not classifiable) become Unknown, "treated
as an unknown without tracing further".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dominators import DominatorTree, dominator_tree
from repro.analysis.loops import Loop, LoopNest, find_loops
from repro.core.algebra import class_closed_form, classify_operator
from repro.core.classes import (
    Classification,
    InductionVariable,
    Invariant,
    Monotonic,
    Periodic,
    Unknown,
    WrapAround,
)
from repro.core.scr import classify_cycle_scr, classify_trivial_header_phi
from repro.core.tarjan import tarjan_scrs
from repro.core.tripcount import TripCount, TripCountKind, compute_trip_count
from repro.ir.function import Function, IRError
from repro.ir.instructions import Phi, Store
from repro.ir.values import Const, Ref, Value
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.provenance import remember
from repro.resilience import budget as _budget
from repro.resilience import isolation as _isolation
from repro.resilience.errors import ReproError
from repro.resilience.faultinject import fault_point
from repro.symbolic.closedform import ClosedFormError
from repro.symbolic.expr import Expr


class IrreducibleError(ReproError, IRError):
    """Irreducible control flow: classification would be unsound.

    Subclasses :class:`~repro.ir.function.IRError` so pre-taxonomy callers
    (and tests) that catch the historical type keep working; inside a
    resilient pipeline its DEGRADE policy turns the whole function's
    classification into an empty (all-Unknown) result instead.
    """

    default_code = "irreducible-cfg"


class RegionNode:
    """One vertex of a loop-region SSA graph.

    Either a real instruction (``inst``) or a synthetic exit-value node
    (``inst is None``) whose value is ``exit_expr`` -- an expression over
    names visible in this region (or ``None`` when the inner loop's exit
    value is unknown).
    """

    __slots__ = ("name", "block", "inst", "exit_expr", "_operands")

    def __init__(self, name: str, block: Optional[str], inst, exit_expr: Optional[Expr] = None):
        self.name = name
        self.block = block
        self.inst = inst
        self.exit_expr = exit_expr
        self._operands: Optional[List[str]] = None

    def operand_names(self) -> List[str]:
        """Operand (source) names; computed once and cached -- region nodes
        are immutable for the lifetime of the analysis."""
        operands = self._operands
        if operands is None:
            if self.inst is not None:
                operands = [v.name for v in self.inst.uses() if isinstance(v, Ref)]
            elif self.exit_expr is not None:
                operands = sorted(self.exit_expr.free_symbols())
            else:
                operands = []
            self._operands = operands
        return operands


class RegionContext:
    """Everything :mod:`repro.core.scr` / :mod:`repro.core.algebra` need."""

    def __init__(self, function: Function, loop: Loop, nodes: Dict[str, RegionNode], result: "AnalysisResult"):
        self.function = function
        self.loop = loop
        self.loop_label = loop.header
        self.header = loop.header
        self.nodes = nodes
        # the three things read from the result, held directly: holding
        # the result would close a cycle through ``LoopSummary.region_ctx``
        # and leave every analyzed program to the cyclic garbage collector
        self._def_block = result._def_block
        self.domtree = result.domtree
        self.opaque = result.opaque
        self.classifications: Dict[str, Classification] = {}
        self._stored_arrays: Optional[Set[str]] = None
        # memo for constant / loop-external operand classes: those are
        # rebuilt for every use site otherwise (str names and const
        # values never collide as dict keys)
        self._operand_memo: Dict[object, Classification] = {}
        # names classified by the SCR rules (cycles, wrap-around phis):
        # their derivation lives on the classification object itself;
        # everything else is an operator node whose provenance is derived
        # on demand from this context (see repro.obs.explain)
        self.scr_classified: Set[str] = set()

    # -- graph access ----------------------------------------------------
    def node(self, name: str) -> Optional[RegionNode]:
        return self.nodes.get(name)

    def classification(self, name: str) -> Classification:
        return self.classifications.get(name, Unknown("unclassified"))

    def is_header_phi(self, name: str) -> bool:
        node = self.nodes.get(name)
        return (
            node is not None
            and isinstance(node.inst, Phi)
            and node.block == self.header
        )

    def phi_split(self, phi: Phi) -> Tuple[Value, Value]:
        """Split a loop-header phi into (initial, loop-carried) values.

        More than one of either raises: keeping one would be unsound.
        """
        body = self.loop.body
        inits = [value for pred, value in phi.incoming.items() if pred not in body]
        carried = [value for pred, value in phi.incoming.items() if pred in body]
        if len(inits) != 1 or len(carried) != 1:
            raise ValueError(
                f"header phi %{phi.result} of {self.header} is not in "
                "canonical preheader/latch form (run simplify_loops)"
            )
        return inits[0], carried[0]

    # -- operand classification -------------------------------------------
    def operand_class(self, value: Value) -> Classification:
        if isinstance(value, Const):
            cached = self._operand_memo.get(value.value)
            if cached is None:
                cached = remember(
                    Invariant(Expr.const(value.value), loop=self.loop_label),
                    "algebra.const",
                )
                self._operand_memo[value.value] = cached
            return cached
        if isinstance(value, Ref):
            if value.name in self.nodes:
                return self.classification(value.name)
            cached = self._operand_memo.get(value.name)
            if cached is not None:
                return cached
            block = self._def_block.get(value.name)
            if block is not None and block in self.loop.body:
                # defined inside the loop (in a nested loop) but never
                # summarized into this region: not invariant here
                cached = Unknown("unsummarized inner-loop value")
            else:
                cached = remember(
                    Invariant(Expr.sym(value.name), loop=self.loop_label),
                    "algebra.loop-invariant",
                    note=f"defined outside loop {self.loop_label}",
                )
            self._operand_memo[value.name] = cached
            return cached
        return Unknown("bad operand")

    # scr.py uses this alias
    operand_class_of_value = operand_class

    def value_expr(self, value: Value) -> Optional[Expr]:
        """Symbolic expression of an operand that must be loop invariant."""
        cls = self.operand_class(value)
        if isinstance(cls, Invariant):
            return cls.expr
        return None

    def invariant_symbol(self, name: str) -> Expr:
        return Expr.sym(name)

    def array_stored_in_loop(self, array: str) -> bool:
        if self._stored_arrays is None:
            stored: Set[str] = set()
            for label in self.loop.body:
                for inst in self.function.block(label):
                    if isinstance(inst, Store):
                        stored.add(inst.array)
            self._stored_arrays = stored
        return array in self._stored_arrays


@dataclass
class LoopSummary:
    """Classification results for one loop."""

    loop: Loop
    label: str
    classifications: Dict[str, Classification]
    trip: TripCount
    graph_size: int = 0
    scr_count: int = 0
    #: the classification-time region context, kept for provenance
    #: resolution (``--explain``); not part of the summary's value
    region_ctx: Optional[RegionContext] = field(
        default=None, repr=False, compare=False
    )

    def classification_of(self, name: str) -> Optional[Classification]:
        return self.classifications.get(name)

    @property
    def degraded(self) -> bool:
        return False


@dataclass
class DegradedLoopSummary(LoopSummary):
    """A loop whose classification failed and was contained.

    Quacks like a :class:`LoopSummary` -- empty classifications (every
    name in the loop reads as ``Unknown``) and an unknown trip count --
    but carries the reason, so reports can say *why* the loop degraded.
    """

    reason: str = ""

    @property
    def degraded(self) -> bool:
        return True


def _degraded_summary(
    loop: Loop,
    reason: str,
    classifications: Optional[Dict[str, Classification]] = None,
) -> DegradedLoopSummary:
    return DegradedLoopSummary(
        loop=loop,
        label=loop.header,
        classifications=dict(classifications) if classifications else {},
        trip=TripCount(TripCountKind.UNKNOWN),
        reason=reason,
    )


class OpaqueSymbols:
    """The opaque invariant symbols ``$k1``, ``$k2``, ... of one function.

    Calling the table with a key returns that key's symbol, minting it on
    first use, so the same key gets the same symbol in every loop.
    """

    __slots__ = ("_symbols", "definitions")

    def __init__(self):
        self._symbols: Dict[tuple, Expr] = {}
        #: symbol name -> the key it stands for
        self.definitions: Dict[str, tuple] = {}

    def __call__(self, key: tuple) -> Expr:
        symbol = self._symbols.get(key)
        if symbol is None:
            name = f"$k{len(self._symbols) + 1}"
            symbol = self._symbols[key] = Expr.sym(name)
            self.definitions[name] = key
        return symbol


class AnalysisResult:
    """Results of :func:`classify_function` for a whole function."""

    def __init__(self, function: Function, nest: LoopNest, domtree: DominatorTree):
        self.function = function
        self.nest = nest
        self.domtree = domtree
        self.loops: Dict[str, LoopSummary] = {}
        #: optional RangeInfo attached by the pipeline's ranges phase;
        #: dependence testing consults it for symbolic trip-count bounds
        self.ranges = None
        #: optional InvariantInfo attached by the pipeline's invariants phase
        self.invariants = None
        self.opaque = OpaqueSymbols()
        self.opaque_definitions = self.opaque.definitions
        self._def_block: Dict[str, str] = {
            name: block for name, (block, _inst) in function.definitions().items()
        }

    # -- postdominators (section 5.4 refinements) --------------------------
    _postdom = None

    def postdominators(self):
        """Cached postdominator tree (used by the section 5.4 refinement:
        a use postdominated by a strictly monotonic assignment is itself
        at a strictly monotonic point)."""
        if self._postdom is None:
            from repro.analysis.postdom import postdominator_tree

            self._postdom = postdominator_tree(self.function)
        return self._postdom

    def definition_site(self, name: str):
        """(block, position) of a definition, or None.

        Delegates to the function's precomputed ``def_site`` index (one
        whole-function walk, cached) instead of scanning the block.
        """
        return self.function.def_site(name)

    # -- lookups -----------------------------------------------------------
    def defining_loop(self, name: str) -> Optional[Loop]:
        block = self._def_block.get(name)
        if block is None:
            return None
        return self.nest.innermost(block)

    def classification_of(self, name: str) -> Classification:
        """Classification of ``name`` in its innermost enclosing loop.

        Names defined outside every loop (and parameters) are Invariant.
        """
        loop = self.defining_loop(name)
        if loop is None:
            return remember(
                Invariant(Expr.sym(name)),
                "algebra.top-level-invariant",
                note="defined outside every loop",
            )
        summary = self.loops.get(loop.header)
        if summary is None:
            return Unknown("loop not analyzed")
        cls = summary.classifications.get(name)
        if cls is None:
            return Unknown("not classified")
        return cls

    def summary(self, header: str) -> LoopSummary:
        return self.loops[header]

    def trip_count(self, header: str) -> TripCount:
        return self.loops[header].trip

    # -- exit values (section 5.3) -----------------------------------------
    def exit_value(self, header: str, name: str) -> Optional[Expr]:
        """Symbolic value of ``name`` after loop ``header`` exits.

        The expression only mentions names invariant in that loop (i.e.
        visible to the enclosing region), like Figure 8's
        ``k6 = k2 + 101*2``.  ``None`` when unknown (uncountable loop,
        non-IV variable, several exits...).
        """
        summary = self.loops.get(header)
        if summary is None:
            return None
        trip = summary.trip
        if trip.kind is TripCountKind.ZERO:
            # zero trips: every name holds its h=0 value at the (first) exit
            count: object = 0
        elif trip.exit_block is None or not trip.exact:
            return None
        elif trip.kind is TripCountKind.FINITE:
            constant = trip.constant()
            count = constant if constant is not None else trip.count
        else:
            return None

        cls = summary.classifications.get(name)
        if cls is None:
            # defined in a nested loop: its exit expression, with this
            # loop's region names substituted by *their* exit values
            inner_loop = self.defining_loop(name)
            if inner_loop is None:
                return None
            # find the child of `header` on the path to inner_loop
            child = inner_loop
            while child is not None and (child.parent is None or child.parent.header != header):
                child = child.parent
            if child is None:
                return None
            inner_expr = self.exit_value(child.header, name)
            if inner_expr is None:
                return None
            return self._resolve_at_exit(header, inner_expr)

        form = class_closed_form(cls)
        if form is None:
            value = None
            if isinstance(cls, (Periodic, WrapAround)) and isinstance(count, int):
                value = cls.value_at(count)
            return value
        try:
            return form.value_at(count)
        except (ClosedFormError, TypeError):
            return None

    def _resolve_at_exit(self, header: str, expr: Expr) -> Optional[Expr]:
        """Substitute region-defined symbols in ``expr`` by their exit values."""
        summary = self.loops[header]
        mapping: Dict[str, Expr] = {}
        for symbol in expr.free_symbols():
            if symbol in summary.classifications:
                exit_expr = self.exit_value(header, symbol)
                if exit_expr is None:
                    return None
                mapping[symbol] = exit_expr
        return expr.substitute(mapping)

    # -- display -----------------------------------------------------------
    def describe(self, name: str) -> str:
        return self.classification_of(name).describe()

    def nested_describe(self, name: str) -> str:
        """The paper's nested-tuple view: outer-loop IVs substituted into
        inner initial values, e.g. ``(L18, (L17, 0, 204), 2)``."""
        cls = self.classification_of(name)
        text = cls.describe()
        form = class_closed_form(cls)
        if form is None:
            return text
        for symbol in sorted(form.free_symbols(), key=len, reverse=True):
            outer = self.classification_of(symbol)
            if isinstance(outer, (InductionVariable, WrapAround, Periodic, Monotonic)):
                text = text.replace(symbol, self.nested_describe(symbol))
        return text

    def all_assumptions(self) -> Dict[str, Tuple[str, ...]]:
        """Per-loop assumptions under which symbolic results hold.

        Following the paper (which substitutes symbolic trip counts like
        Figure 9's ``i`` without the ``max(0, .)`` guard), symbolic exit
        values and the outer-loop classifications built on them are valid
        only when each inner loop's trip-count expression is non-negative
        at run time -- e.g. ``n >= 1`` for ``for i = 1 to n``.  Clients that
        need unconditional facts should check these (or version the loop).
        """
        out: Dict[str, Tuple[str, ...]] = {}
        for header, summary in self.loops.items():
            if summary.trip.assumptions:
                out[header] = summary.trip.assumptions
        return out

    def all_classifications(self) -> Dict[str, Classification]:
        out: Dict[str, Classification] = {}
        for summary in self.loops.values():
            out.update(summary.classifications)
        return out


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def classify_function(
    function: Function,
    nest: Optional[LoopNest] = None,
    domtree: Optional[DominatorTree] = None,
) -> AnalysisResult:
    """Classify every scalar in every loop of an SSA-form function."""
    fault_point("classify.function")
    if domtree is None:
        domtree = dominator_tree(function)
    from repro.analysis.reducibility import irreducible_edges

    offending = irreducible_edges(function, domtree)
    if offending:
        raise IrreducibleError(
            "irreducible control flow (retreating non-back edges "
            f"{offending}): natural-loop classification would be unsound"
        )
    if nest is None:
        nest = find_loops(function, domtree)
    result = AnalysisResult(function, nest, domtree)
    with _trace.span("classify", function=function.name):
        for loop in nest.inner_to_outer():
            with _trace.span("classify.loop", loop=loop.header):
                result.loops[loop.header] = _classify_loop_contained(
                    function, loop, result
                )
    registry = _metrics.active()
    if registry is not None:
        registry.inc("classify.loops", len(result.loops))
        for summary in result.loops.values():
            registry.inc("classify.names", len(summary.classifications))
            for cls in summary.classifications.values():
                registry.inc(f"classify.class.{type(cls).__name__}")
    return result


def _classify_loop_contained(
    function: Function, loop: Loop, result: AnalysisResult
) -> LoopSummary:
    """Classify one loop, containing any failure to that loop.

    Outside a resilient context (or under ``--strict-errors``) failures
    propagate unchanged.  Inside one, a failure degrades the loop:
    its summary is a :class:`DegradedLoopSummary`, so every name it
    defines reads as ``Unknown`` and -- because loops are processed
    inner-first -- enclosing regions see its exit values as unknown,
    which contains the damage without further special-casing.  The
    classification is deterministic, so re-running it could not help.
    """
    partial: Dict[str, Classification] = {}
    try:
        fault_point("classify.loop")
        _budget.check_request_deadline("classify")
        return _analyze_loop(function, loop, result, partial=partial)
    except Exception as error:  # noqa: BLE001 - the isolation boundary
        _isolation.absorb(
            error, "classify.loop", scope=loop.header, diag_code="RES501"
        )
        # keep whatever per-SCR classifications were computed before the
        # failure: each one was sound when made (SCRs classify in
        # dependence order), so partial beats bare Unknown
        return _degraded_summary(
            loop, str(error) or type(error).__name__, classifications=partial
        )


def _analyze_loop(
    function: Function,
    loop: Loop,
    result: AnalysisResult,
    partial: Optional[Dict[str, Classification]] = None,
) -> LoopSummary:
    own_blocks = set(loop.body)
    for child in loop.children:
        own_blocks -= child.body

    # blocks in function order and symbols sorted: the region's node
    # order fixes the Tarjan walk and the order of the ``classify.scr``
    # events, which must not follow string hashing
    nodes: Dict[str, RegionNode] = {}
    for label in [label for label in function.blocks if label in own_blocks]:
        for inst in function.block(label):
            if inst.result is not None:
                nodes[inst.result] = RegionNode(inst.result, label, inst)

    # synthetic exit-value nodes for inner-loop definitions referenced here
    referenced: List[str] = []
    for node in list(nodes.values()):
        referenced.extend(node.operand_names())
    seen: Set[str] = set()
    queue = [n for n in referenced if n not in nodes]
    while queue:
        name = queue.pop()
        if name in seen or name in nodes:
            continue
        seen.add(name)
        defining = result.defining_loop(name)
        if defining is None or name not in result._def_block:
            continue  # external or parameter: plain invariant symbol
        block = result._def_block[name]
        if block in loop.body:
            # defined in a nested loop: summarize via its exit value
            child = _child_containing(loop, defining)
            exit_expr = result.exit_value(child.header, name) if child else None
            nodes[name] = RegionNode(name, None, None, exit_expr)
            if exit_expr is not None:
                for symbol in sorted(exit_expr.free_symbols()):
                    if symbol not in nodes:
                        queue.append(symbol)
        # names defined outside loop.body stay external (invariant)

    ctx = RegionContext(function, loop, nodes, result)
    if partial is not None:
        # alias the context's classification map so the containment
        # boundary can salvage whatever was classified before a failure
        ctx.classifications = partial

    # the region's adjacency, built exactly once: operand edges restricted
    # to region members.  Tarjan consumes it directly (prefiltered) and the
    # graph size falls out of that same single traversal.
    adjacency: Dict[str, List[str]] = {
        name: [n for n in node.operand_names() if n in nodes]
        for name, node in nodes.items()
    }

    # one lookup per loop, not per SCR: the tracer cannot appear or
    # vanish mid-analysis (``observing`` wraps whole pipeline calls)
    tracer = _trace.active()

    def on_scr(members: List[str], is_cycle: bool) -> None:
        try:
            if is_cycle:
                ctx.scr_classified.update(members)
                ctx.classifications.update(classify_cycle_scr(members, ctx))
            else:
                name = members[0]
                node = nodes[name]
                if ctx.is_header_phi(name):
                    ctx.scr_classified.add(name)
                    ctx.classifications[name] = classify_trivial_header_phi(node, ctx)
                else:
                    ctx.classifications[name] = classify_operator(node, ctx)
        except Exception as error:  # noqa: BLE001 - per-SCR containment
            _isolation.absorb(
                error,
                "classify.scr",
                scope=f"{loop.header}:{members[0]}",
                diag_code="RES501",
            )
            for member in members:
                ctx.classifications[member] = Unknown(
                    "classification degraded: " + (str(error) or type(error).__name__),
                    loop=loop.header,
                )
        if tracer is not None:
            _trace.event(
                "classify.scr",
                loop=loop.header,
                members=list(members),
                cycle=is_cycle,
                # the objects, not their text: exporters render them with
                # str() (= describe()), and an unexported trace never does
                classes={m: ctx.classifications[m] for m in members},
            )

    stats = tarjan_scrs(nodes, adjacency.__getitem__, on_scr, prefiltered=True)
    registry = _metrics.active()
    if registry is not None:
        registry.inc("tarjan.nodes", stats.node_count)
        registry.inc("tarjan.edges", stats.edge_count)
        registry.inc("tarjan.scrs", stats.scr_count)

    try:
        fault_point("classify.tripcount")
        trip = compute_trip_count(function, loop, ctx.operand_class, ctx.opaque)
    except Exception as error:  # noqa: BLE001 - keep the classifications
        _isolation.absorb(
            error, "classify.tripcount", scope=loop.header, diag_code="RES501"
        )
        trip = TripCount(TripCountKind.UNKNOWN)

    return LoopSummary(
        loop=loop,
        label=loop.header,
        classifications=ctx.classifications,
        trip=trip,
        graph_size=stats.node_count + stats.edge_count,
        scr_count=stats.scr_count,
        region_ctx=ctx,
    )


def _child_containing(loop: Loop, descendant: Optional[Loop]) -> Optional[Loop]:
    """The immediate child of ``loop`` on the path down to ``descendant``."""
    node = descendant
    while node is not None and node.parent is not loop:
        node = node.parent
    return node
