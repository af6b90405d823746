"""The check registry: every diagnostic code, declared once.

A :class:`CheckInfo` gives each code its default severity, a category and
a one-line description.  The registry is the single source of truth the
collector (default severities), the renderers (titles) and the docs test
(``docs/DIAGNOSTICS.md`` must catalogue every code) all consult.

Code ranges:

* ``IR0xx``  -- structural well-formedness of any IR (named or SSA)
* ``IR1xx``  -- SSA-form invariants
* ``SAN2xx`` -- pipeline sanitizer (stale caches, pass broke the IR)
* ``CLS3xx`` -- classification soundness (closed forms vs. execution,
  algebra-lattice laws, wrap-around/periodic bookkeeping)
* ``SRC4xx`` -- source-level findings (hoistable code, dead stores,
  non-affine subscripts)
* ``LNT0xx`` -- lint-driver level problems (a program failed to analyze)
* ``RES5xx`` -- resilience degradations (a failure was contained by the
  fault-tolerant pipeline; see :mod:`repro.resilience`)
* ``RNG6xx`` -- value-range findings (subscript bounds, division by
  zero, empty loops, constant branches; see :mod:`repro.ranges`)
* ``INV7xx`` -- polynomial-invariant replay (emitted equalities and
  branch-dependent step bounds vs. the interpreter; see
  :mod:`repro.invariants`)
* ``PYF4xx`` -- real-Python frontend degradations (an unsupported
  CPython construct kept a function, statement, or expression from
  lowering to IR; see :mod:`repro.pyfront` and ``docs/PYTHON.md``)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.diagnostics.diagnostic import Severity


@dataclass(frozen=True)
class CheckInfo:
    code: str
    title: str
    severity: Severity
    category: str
    description: str


_REGISTRY: Dict[str, CheckInfo] = {}


def register(code: str, title: str, severity: Severity, category: str, description: str) -> None:
    if code in _REGISTRY:
        raise ValueError(f"diagnostic code {code!r} registered twice")
    _REGISTRY[code] = CheckInfo(code, title, severity, category, description)


def check_info(code: str) -> CheckInfo:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown diagnostic code {code!r}") from None


def all_checks() -> List[CheckInfo]:
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_codes() -> List[str]:
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# structural checks (any IR)
# ----------------------------------------------------------------------
register(
    "IR001", "no-blocks", Severity.ERROR, "structural",
    "The function has no basic blocks at all.",
)
register(
    "IR002", "missing-entry", Severity.ERROR, "structural",
    "The function's entry label does not name one of its blocks.",
)
register(
    "IR003", "unknown-branch-target", Severity.ERROR, "structural",
    "A terminator targets a label that is not a block of the function.",
)
register(
    "IR004", "missing-terminator", Severity.ERROR, "structural",
    "A basic block has no terminator (jump / branch / return).",
)
register(
    "IR005", "phi-after-non-phi", Severity.ERROR, "structural",
    "A phi instruction appears after a non-phi; phis must form a block prefix.",
)
register(
    "IR006", "unreachable-block", Severity.WARNING, "structural",
    "A block is unreachable from the entry block.",
)
register(
    "IR007", "phi-in-entry", Severity.ERROR, "structural",
    "The entry block contains a phi; the entry has no predecessors to merge.",
)

# ----------------------------------------------------------------------
# SSA-form checks
# ----------------------------------------------------------------------
register(
    "IR101", "duplicate-definition", Severity.ERROR, "ssa",
    "The same SSA name is defined by more than one instruction.",
)
register(
    "IR102", "parameter-shadowed", Severity.ERROR, "ssa",
    "An instruction defines a name that is already a function parameter.",
)
register(
    "IR103", "phi-predecessor-mismatch", Severity.ERROR, "ssa",
    "A phi's incoming labels do not match the block's predecessors.",
)
register(
    "IR104", "undominated-use", Severity.ERROR, "ssa",
    "An instruction uses a value whose definition does not dominate the use.",
)
register(
    "IR105", "phi-edge-value-unavailable", Severity.ERROR, "ssa",
    "A phi's incoming value is not available at the end of that incoming edge's "
    "predecessor.",
)
register(
    "IR106", "undominated-terminator-use", Severity.ERROR, "ssa",
    "A terminator uses a value whose definition does not dominate the block end.",
)
register(
    "IR107", "undefined-use", Severity.ERROR, "ssa",
    "An instruction references a name with no definition anywhere in the "
    "function (and it is not a parameter).",
)
register(
    "IR108", "self-referential-def", Severity.ERROR, "ssa",
    "A non-phi instruction uses its own result; in SSA only phis may close "
    "cycles.",
)

# ----------------------------------------------------------------------
# pipeline sanitizer
# ----------------------------------------------------------------------
register(
    "SAN201", "stale-definitions-cache", Severity.ERROR, "sanitizer",
    "Function.definitions() disagrees with a fresh recomputation: a mutating "
    "pass changed instructions without calling Function.dirty().",
)
register(
    "SAN202", "stale-defsite-cache", Severity.ERROR, "sanitizer",
    "Function.def_site() disagrees with a fresh recomputation: an in-place "
    "move or rename skipped Function.dirty().",
)
register(
    "SAN203", "pass-broke-ir", Severity.ERROR, "sanitizer",
    "The IR failed verification directly after a pipeline pass ran.",
)

# ----------------------------------------------------------------------
# classification-soundness lints
# ----------------------------------------------------------------------
register(
    "CLS301", "closed-form-mismatch", Severity.ERROR, "classification",
    "A reported closed form, evaluated at iteration h, disagrees with the "
    "value the reference interpreter observed.",
)
register(
    "CLS302", "monotonic-contradicted", Severity.ERROR, "classification",
    "A monotonic verdict (direction or strictness) is contradicted by the "
    "observed value sequence.",
)
register(
    "CLS303", "algebra-law-violation", Severity.WARNING, "classification",
    "An algebra-lattice law failed: e.g. IV + invariant did not classify as "
    "an IV with the summed closed form.",
)
register(
    "CLS304", "wraparound-simplifiable", Severity.NOTE, "classification",
    "A wrap-around's pre-values all fit its steady-state sequence; it should "
    "have simplified to the inner class.",
)
register(
    "CLS305", "periodic-constant", Severity.NOTE, "classification",
    "A periodic classification cycles through identical values; it should "
    "have simplified to an invariant.",
)
register(
    "CLS306", "wraparound-order-mismatch", Severity.ERROR, "classification",
    "A wrap-around's order does not match its number of recorded pre-values.",
)

# ----------------------------------------------------------------------
# source-level lints
# ----------------------------------------------------------------------
register(
    "SRC401", "hoistable-invariant", Severity.NOTE, "source",
    "A loop-invariant computation executes inside the loop; it could be "
    "hoisted to the preheader (LICM).",
)
register(
    "SRC402", "dead-store", Severity.WARNING, "source",
    "A store is overwritten by a later store to the same cell in the same "
    "block with no intervening load of the array.",
)
register(
    "SRC403", "non-affine-subscript", Severity.WARNING, "source",
    "An array subscript is neither affine in the loop counters nor one of the "
    "extended classes; dependence tests fall back to assuming a dependence.",
)
register(
    "SRC404", "unused-definition", Severity.NOTE, "source",
    "A pure definition is never used by any instruction, terminator or store "
    "(dead-code-elimination candidate).",
)
register(
    "SRC405", "imprecise-dependence", Severity.WARNING, "source",
    "A dependence test between two references fell back to the conservative "
    "answer because a subscript classified as Unknown; the descriptor's "
    "reason says why precision was lost.",
)

# ----------------------------------------------------------------------
# lint driver
# ----------------------------------------------------------------------
register(
    "LNT001", "analysis-failed", Severity.ERROR, "driver",
    "The program failed to parse or analyze, so no checks could run.",
)

# ----------------------------------------------------------------------
# resilience degradations (see repro.resilience / docs/ROBUSTNESS.md)
# ----------------------------------------------------------------------
register(
    "RES501", "degraded-loop", Severity.WARNING, "resilience",
    "A loop, SCR, or trip count failed to classify; the failure was "
    "contained and the affected names read as Unknown.",
)
register(
    "RES502", "skipped-phase", Severity.WARNING, "resilience",
    "An optional pipeline phase (scalar pass, transform, dependence "
    "graph, lint) failed and was skipped; analysis continued without it.",
)
register(
    "RES503", "budget-exhausted", Severity.WARNING, "resilience",
    "An AnalysisBudget limit (expression terms, matrix dimension, unroll "
    "factor, phase deadline) was reached; the affected scope degraded.",
)
register(
    "RES505", "degraded-function", Severity.ERROR, "resilience",
    "A required phase (frontend under fault injection, SSA construction, "
    "whole-function classification) failed; the entire function degraded "
    "to an empty classification.",
)
register(
    "RES506", "worker-crashed", Severity.WARNING, "resilience",
    "An analysis worker process died while running this request; the "
    "serving layer respawned it and, after bounded retries, returned a "
    "degraded partial response instead of failing the server.",
)
register(
    "RES507", "request-timed-out", Severity.WARNING, "resilience",
    "A dispatched job outlived the serving layer's request timeout; the "
    "hung worker was killed and respawned and the request degraded.",
)
register(
    "RES509", "response-truncated", Severity.WARNING, "resilience",
    "A service response serialized past the protocol's maximum message "
    "size; the serving layer dropped the report/record payloads so the "
    "client still receives a (degraded) response it can decode.",
)

# ----------------------------------------------------------------------
# value-range checks (see repro.ranges / docs/RANGES.md)
# ----------------------------------------------------------------------
register(
    "RNG601", "subscript-out-of-bounds", Severity.ERROR, "ranges",
    "A subscript's value range never intersects the valid index range "
    "[0, extent - 1] of the array's declared extent: every execution that "
    "reaches it is out of bounds.",
)
register(
    "RNG602", "subscript-in-bounds", Severity.NOTE, "ranges",
    "Every subscript of a reference is provably inside [0, extent - 1] for "
    "every possible extent value (a bounds-check-elimination receipt).",
)
register(
    "RNG603", "possible-division-by-zero", Severity.WARNING, "ranges",
    "A division or modulo has a divisor whose (non-trivial) value range "
    "contains zero.",
)
register(
    "RNG604", "zero-step-self-update", Severity.WARNING, "ranges",
    "A loop-carried self-update adds or subtracts a provably zero step; the "
    "variable never changes across iterations.",
)
register(
    "RNG605", "provably-empty-loop", Severity.WARNING, "ranges",
    "A loop's trip-count range excludes every positive count; its body never "
    "executes.",
)
register(
    "RNG606", "constant-branch-condition", Severity.WARNING, "ranges",
    "A conditional branch's condition has a single-constant value range, so "
    "one successor edge is never taken.",
)

# ----------------------------------------------------------------------
# real-Python frontend degradations (see repro.pyfront / docs/PYTHON.md)
# ----------------------------------------------------------------------
register(
    "PYF401", "unsupported-statement", Severity.WARNING, "pyfront",
    "A Python function contains a statement outside the supported subset "
    "(class/try/with/del/raise, tuple targets, loop else-clauses, "
    "non-constant range steps, ...); the function degraded instead of "
    "lowering to IR.",
)
register(
    "PYF402", "unsupported-expression", Severity.WARNING, "pyfront",
    "A Python function uses an expression outside the supported integer "
    "subset (float/str literals, attribute access, calls other than "
    "range/len, slices, comprehensions, free variables, ...); the "
    "function degraded instead of lowering to IR.",
)
register(
    "PYF403", "unsupported-parameter", Severity.WARNING, "pyfront",
    "A Python function's signature is outside the supported subset "
    "(*args, **kwargs, or keyword-only parameters); the function "
    "degraded instead of lowering to IR.",
)
register(
    "PYF404", "type-confusion", Severity.WARNING, "pyfront",
    "Usage-based type inference saw a name used both as an integer and "
    "as a list (or a list created locally); only int scalars and "
    "list-of-int parameters are modeled, so the function degraded.",
)
register(
    "PYF405", "loop-variable-escape", Severity.WARNING, "pyfront",
    "A for-loop's target is read after the loop or reassigned inside it; "
    "the IR's counted-loop shape would diverge from CPython's post-loop "
    "binding, so the function degraded instead of miscompiling.",
)
register(
    "PYF406", "python-syntax-error", Severity.ERROR, "pyfront",
    "A Python file failed to parse with the running interpreter's "
    "``ast`` grammar; none of its functions could be considered.",
)
register(
    "PYF407", "assert-dropped", Severity.NOTE, "pyfront",
    "An assert statement was not of the ``assert name <op> literal`` / "
    "``assert len(a) <op> literal`` bound-introducing shapes, so it was "
    "dropped (the function still lowered, without that assumption).",
)

# ----------------------------------------------------------------------
# invariant replay checks (see repro.invariants / docs/INVARIANTS.md)
# ----------------------------------------------------------------------
register(
    "INV701", "invariant-violated", Severity.ERROR, "invariants",
    "An emitted polynomial loop invariant is violated by a concrete header "
    "state observed during interpreter replay: the generator (or a "
    "transform it trusted) is unsound for this loop.",
)
register(
    "INV702", "invariant-verified", Severity.NOTE, "invariants",
    "An emitted polynomial loop invariant held on every interpreter-observed "
    "header state (and was checked on at least one).",
)
register(
    "INV703", "branch-step-out-of-bounds", Severity.ERROR, "invariants",
    "A branch-dependent variable's observed per-iteration delta falls "
    "outside the [min step, max step] bound claimed by its per-path "
    "summary.",
)
