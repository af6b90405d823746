"""The in-process workloads: ``dsl_chain``, ``dsl_mixed`` and ``py_corpus``.

Each unit of work runs in one of three modes:

* **e2e** -- the public entry point (``analyze()`` or
  ``pylint_paths([file])``) with tracing off;
* **staged** -- the same work composed from the layers' public
  functions, each call wrapped in a benchmark span, so per-layer means
  add up to the e2e mean up to ``bench.unattributed_s``;
* **observed** -- the e2e call under ``repro.obs.observing()``, which
  prices the program's own always-on tracing.

Every staged unit is checked against the e2e result of the same input.
"""

from __future__ import annotations

import ast
import statistics
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.dominators import dominator_tree
from repro.analysis.loops import find_loops
from repro.analysis.loopsimplify import simplify_loops
from repro.core.classes import Unknown
from repro.core.driver import classify_function
from repro.dependence.graph import build_dependence_graph
from repro.dependence.loopinfo import analyze_parallelism
from repro.diagnostics.diagnostic import DiagnosticCollector
from repro.diagnostics.lints import lint_execution, lint_lattice, lint_source
from repro.diagnostics.verifier import verify_collect
from repro.frontend.lower import lower_program
from repro.frontend.parser import parse_program
from repro.invariants.analysis import compute_invariants
from repro.ir.clone import clone_function
from repro.ir.printer import print_function
from repro.ir.verify import verify_function
from repro.obs import observing
from repro.pipeline import AnalyzedProgram, analyze
from repro.pyfront.driver import pylint_paths
from repro.pyfront.lower import CompiledFunction, compile_function
from repro.ranges import check_ranges
from repro.ranges.analysis import compute_ranges
from repro.resilience import isolation
from repro.scalar.copyprop import propagate_copies
from repro.scalar.gvn import run_gvn
from repro.scalar.sccp import run_sccp
from repro.scalar.simplify import simplify_instructions
from repro.ssa.construct import construct_ssa

from perfbench import inputs
from perfbench.measure import Speed, Spans, mean, percentile

#: the one configuration every analysis workload uses
OPTIONS = {"ranges": True, "invariants": True}

#: hint the corpus driver attaches to PYF4xx findings
PY_HINT = "see docs/PYTHON.md for the supported Python subset"

#: the after-run DSL checks take every this-many-th rung, smallest and
#: largest included, to keep a run's set-up and teardown short
CHECK_STRIDE = 3


class Counts(dict):
    """Work counters summed over the staged units."""

    def add(self, key: str, amount: float = 1) -> None:
        self[key] = self.get(key, 0) + amount


class UnitOutcome(NamedTuple):
    """What one e2e unit produced."""

    failed: bool = False
    loops: int = 0
    functions: int = 1
    lowered: int = 1
    #: why the unit failed, for the run record
    detail: Any = None


def staged_core(named, source: Optional[str], spans: Spans, counts: Counts) -> AnalyzedProgram:
    """``analyze_function`` with ranges and invariants, as layer calls.

    Mirrors ``repro.pipeline._analyze_function``: a contained failure
    shows up in the returned program's ``degradations``.
    """
    with isolation.resilient() as log:
        with spans.span("ir.clone"):
            ssa = clone_function(named)
        with spans.span("ssa.construct"):
            ssa_info = construct_ssa(ssa)
        for _ in range(3):
            counts.add("scalar.rounds")
            with spans.span("scalar.sccp"):
                run_sccp(ssa)
            with spans.span("scalar.simplify"):
                changed = simplify_instructions(ssa)
            with spans.span("scalar.gvn"):
                changed += run_gvn(ssa)
            with spans.span("scalar.copyprop"):
                changed += propagate_copies(ssa)
            if not changed:
                break
        with spans.span("ir.verify"):
            verify_function(ssa, ssa=True)
        with spans.span("analysis.loops"):
            domtree = dominator_tree(ssa)
            nest = find_loops(ssa, domtree)
        with spans.span("core.classify"):
            result = classify_function(ssa, nest, domtree)
        with spans.span("ranges.compute"):
            result.ranges = compute_ranges(result)
        with spans.span("invariants.compute"):
            result.invariants = compute_invariants(result)
    classified = unknown = 0
    for summary in result.loops.values():
        for cls in summary.classifications.values():
            classified += 1
            unknown += isinstance(cls, Unknown)
    counts.add("core.ssa_nodes", len(ssa.definitions()))
    counts.add("core.scrs", sum(s.scr_count for s in result.loops.values()))
    counts.add("core.classified", classified)
    counts.add("core.unknown", unknown)
    counts.add("ranges.nontrivial", result.ranges.nontrivial())
    counts.add(
        "invariants.paths",
        sum(len(s.paths) for s in result.invariants.path_summaries.values()),
    )
    counts.add("invariants.equalities", result.invariants.total())
    return AnalyzedProgram(
        source=source,
        named_ir=named,
        ssa=ssa,
        ssa_info=ssa_info,
        domtree=domtree,
        nest=nest,
        result=result,
        degradations=list(log.records),
    )


def fingerprint(program: AnalyzedProgram) -> Tuple[str, Dict[str, str]]:
    """What staged and e2e must agree on: printed SSA and every class."""
    return print_function(program.ssa), program.describe_all()


# ----------------------------------------------------------------------
# DSL workloads: one program through analyze()
# ----------------------------------------------------------------------
class DslWorkload:
    """``dsl_chain`` or ``dsl_mixed``: a seeded size ladder per pass."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self._generate = inputs.chain_pass if name == "dsl_chain" else inputs.mixed_pass
        self.first_pass = self._generate(seed, 0)
        # lazy imports and first-call set-up happen here, not in a timed unit
        warm = self._generate(seed, -1)[0]
        self.e2e(warm)
        self.observed(warm)
        self.staged(warm, Spans(), Counts())

    def units(self, index: int) -> List[inputs.Program]:
        return self.first_pass if index == 0 else self._generate(self.seed, index)

    @staticmethod
    def uid(unit: inputs.Program) -> str:
        return unit.uid

    @staticmethod
    def e2e(unit: inputs.Program) -> UnitOutcome:
        program = analyze(unit.source, **OPTIONS)
        return UnitOutcome(
            failed=program.degraded,
            loops=sum(1 for s in program.result.loops.values() if not s.degraded),
            detail=program.degradations[:1],
        )

    @staticmethod
    def observed(unit: inputs.Program) -> None:
        with observing():
            analyze(unit.source, **OPTIONS)

    @staticmethod
    def staged(unit: inputs.Program, spans: Spans, counts: Counts) -> AnalyzedProgram:
        with spans.span("frontend.parse"):
            tree = parse_program(unit.source)
        with spans.span("frontend.lower"):
            named = lower_program(tree, name="main")
        with spans.span("analysis.loopsimplify"):
            simplify_loops(named)
        return staged_core(named, unit.source, spans, counts)

    @staticmethod
    def check_staged(unit: inputs.Program, program: AnalyzedProgram) -> Optional[str]:
        if program.degradations:
            return f"{unit.uid}: staged run degraded: {program.degradations[0]}"
        if fingerprint(program) != fingerprint(analyze(unit.source, **OPTIONS)):
            return f"{unit.uid}: staged SSA or classes differ from analyze()"
        return None

    def final_checks(self, staged_checked: bool) -> List[str]:
        """Interpreter replay finds nothing on every third rung of the first pass.

        Also checks staged against e2e there when no staged unit ran.
        """
        problems = []
        for unit in self.first_pass[::CHECK_STRIDE]:
            out = DiagnosticCollector()
            lint_execution(analyze(unit.source, **OPTIONS), out)
            problems += [
                f"{unit.uid}: interpreter replay found {d.code}: {d.message}"
                for d in out.diagnostics[:1]
            ]
            if not staged_checked:
                problem = self.check_staged(unit, self.staged(unit, Spans(), Counts()))
                if problem:
                    problems.append(problem)
        return problems


# ----------------------------------------------------------------------
# py_corpus: one file through pylint_paths()
# ----------------------------------------------------------------------
def _function_defs(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Every (qualname, def) in source order, as ``compile_module`` walks them."""
    found: List[Tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    found.sort(key=lambda item: item[1].lineno)
    return found


def _compile(node: ast.AST, qualname: str, origin: str) -> CompiledFunction:
    """``compile_module``'s per-def step: async defs degrade unlowered."""
    if not isinstance(node, ast.AsyncFunctionDef):
        return compile_function(node, qualname, origin)
    return CompiledFunction(
        qualname=qualname,
        origin=f"{origin}:{node.lineno}",
        lineno=node.lineno,
        degradations=[
            isolation.DegradationRecord(
                phase="pyfront.lower",
                code="async-function",
                message=f"async function {qualname!r} is not lowered",
                diag_code="PYF401",
                scope=qualname,
                action="skipped",
            )
        ],
    )


def _first_blocker(compiled: CompiledFunction) -> str:
    """The code of the first construct that kept a function from lowering."""
    for record in compiled.degradations:
        if record.diag_code != "PYF407":
            return record.diag_code
    return "none"


def _loop_rows(program: AnalyzedProgram, verdicts) -> List[Dict[str, Any]]:
    """The corpus report's per-loop rows, as ``pylint_paths`` builds them."""
    rows = []
    for summary in sorted(
        program.result.loops.values(), key=lambda s: (s.loop.depth, s.label)
    ):
        verdict = verdicts.get(summary.label)
        rows.append(
            {
                "header": summary.label,
                "parallel": None if verdict is None else bool(verdict.parallelizable),
                "blocked_by": []
                if verdict is None
                else [b.to_json()["reason"] for b in verdict.blockers],
                "classes": {
                    name: cls.describe()
                    for name, cls in sorted(summary.classifications.items())
                    if not name.startswith("$")
                },
            }
        )
    return rows


class PyCorpusWorkload:
    """``py_corpus``: every pinned Python file, one file a unit."""

    name = "py_corpus"

    def __init__(self, seed: int):
        self.seed = seed
        self.files = inputs.load_pinned()
        self.paths = sorted(self.files)
        #: path -> (loop rows, sorted finding codes) of its first e2e run
        self.reference: Dict[str, Tuple[List[Dict[str, Any]], List[str]]] = {}
        warm = self.paths[0]
        self.e2e(warm)
        self.observed(warm)
        self.staged(warm, Spans(), Counts())

    def units(self, index: int) -> List[str]:
        return self.paths

    @staticmethod
    def uid(unit: str) -> str:
        return unit

    def e2e(self, path: str) -> UnitOutcome:
        result = pylint_paths([path])
        rows = [row for outcome in result.outcomes for row in outcome.loops]
        codes = sorted(d.code for d in result.findings)
        self.reference.setdefault(path, (rows, codes))
        # RES5xx and LNT001 mean the analysis failed; PYF4xx only mean
        # the input is outside the supported subset
        failures = [c for c in codes if c.startswith("RES") or c == "LNT001"]
        return UnitOutcome(
            failed=bool(failures),
            loops=len(rows),
            functions=result.functions,
            lowered=result.lowered,
            detail=failures,
        )

    @staticmethod
    def observed(path: str) -> None:
        with observing():
            pylint_paths([path])

    def staged(self, path: str, spans: Spans, counts: Counts):
        """``pylint_paths([path])`` as layer calls; returns (rows, codes, problems)."""
        collector = DiagnosticCollector()
        rows: List[Dict[str, Any]] = []
        problems: List[str] = []
        with spans.span("pyfront.parse"):
            tree = ast.parse(self.files[path])
        with spans.span("pyfront.compile"):
            compiled = [
                _compile(node, qualname, path) for qualname, node in _function_defs(tree)
            ]
        for cf in compiled:
            counts.add("pyfront.functions")
            if not cf.ok:
                counts.add(f"pyfront.blocked.{_first_blocker(cf)}")
                with spans.span("diagnostics.lint"):
                    isolation.diagnostics_of(
                        cf.degradations, collector, origin=cf.origin, hint=PY_HINT
                    )
                continue
            counts.add("pyfront.lowered")
            local = DiagnosticCollector()
            with spans.span("diagnostics.lint"):
                if cf.degradations:
                    isolation.diagnostics_of(
                        cf.degradations, local, origin=cf.origin, hint=PY_HINT
                    )
            with spans.span("ir.clone"):
                named = clone_function(cf.function)
            with spans.span("analysis.loopsimplify"):
                simplify_loops(named)
            program = staged_core(named, cf.source, spans, counts)
            if program.degradations:
                problems.append(f"{cf.origin}: staged run degraded")
            with spans.span("diagnostics.lint"):
                seen = {(d.code, d.message) for d in local}
                for diagnostic in verify_collect(program.ssa, ssa=True):
                    if (diagnostic.code, diagnostic.message) not in seen:
                        local.diagnostics.append(diagnostic)
                if program.degradations:
                    isolation.diagnostics_of(program.degradations, local)
                lint_lattice(program, local)
                lint_source(program, local)
                check_ranges(program.result, program.result.ranges, local)
                collector.extend(
                    d.with_origin(cf.origin) if d.origin is None else d for d in local
                )
            verdicts = {}
            if program.result.loops:
                with spans.span("dependence.graph"):
                    graph = build_dependence_graph(program.result)
                with spans.span("dependence.parallelism"):
                    verdicts = analyze_parallelism(program.result, graph)
                counts.add("dependence.edges", len(graph.edges))
                counts.add(
                    "dependence.doall_loops",
                    sum(1 for v in verdicts.values() if v.parallelizable),
                )
            rows += _loop_rows(program, verdicts)
        counts.add("diagnostics.findings", len(collector.diagnostics))
        return rows, sorted(d.code for d in collector.diagnostics), problems

    def check_staged(self, path: str, staged) -> Optional[str]:
        rows, codes, problems = staged
        if problems:
            return problems[0]
        if path not in self.reference:
            self.e2e(path)
        if (rows, codes) != self.reference[path]:
            return f"{path}: staged loop rows or finding codes differ from pylint_paths"
        return None

    def final_checks(self, staged_checked: bool) -> List[str]:
        if staged_checked:
            return []
        checked = (self.check_staged(p, self.staged(p, Spans(), Counts())) for p in self.paths)
        return [problem for problem in checked if problem]


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------
#: modes of a traced run: a unit's mode rotates through this cycle from
#: pass to pass, so after len(TRACED_CYCLE) passes every input has run
#: in every mode; observed takes one unit in four
TRACED_CYCLE = ("e2e", "staged", "e2e", "observed")

#: every span a staged unit opens below its ``unit`` root
LAYERS = (
    "frontend.parse",
    "frontend.lower",
    "pyfront.parse",
    "pyfront.compile",
    "analysis.loopsimplify",
    "ir.clone",
    "ssa.construct",
    "scalar.sccp",
    "scalar.simplify",
    "scalar.gvn",
    "scalar.copyprop",
    "ir.verify",
    "analysis.loops",
    "core.classify",
    "ranges.compute",
    "invariants.compute",
    "dependence.graph",
    "dependence.parallelism",
    "diagnostics.lint",
)

#: staged work counters, reported as means per staged unit
COUNTS = (
    "scalar.rounds",
    "core.ssa_nodes",
    "core.scrs",
    "ranges.nontrivial",
    "invariants.paths",
    "invariants.equalities",
    "pyfront.functions",
    "pyfront.lowered",
    *(f"pyfront.blocked.PYF40{k}" for k in range(1, 8)),
    "dependence.edges",
    "dependence.doall_loops",
    "diagnostics.findings",
)

#: the paper's claim as a gate: classify s/node at the largest sizes may
#: not exceed this multiple of s/node at the smallest
LINEARITY_LIMIT = 1.5
#: size buckets of the linearity gate, each a run of ladder rungs
BUCKETS = 5


class Outcome:
    """Metrics, failures and correctness problems of one workload run."""

    def __init__(self) -> None:
        #: name -> {"value", "unit", "n"} (+ "beyond" for tail percentiles)
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        #: failed units, described
        self.failures: List[str] = []
        #: correctness problems: any one fails the run
        self.problems: List[str] = []
        self.spans = Spans()

    def put(self, name: str, value: float, unit: str, n: int, **extra: Any) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n, **extra}


def reconcile(
    e2e_mean: float, layer_means: List[float], staged_mean: float, observed_mean: float
) -> Tuple[float, float, float]:
    """(bench.unattributed_s, bench.staged_overhead, obs.tracing_overhead).

    Means per unit add up where medians do not: the layer means plus the
    unattributed remainder are the e2e mean, ``1 / throughput_per_s``.
    """
    return (
        e2e_mean - sum(layer_means),
        staged_mean / e2e_mean,
        observed_mean / e2e_mean,
    )


def linearity(scaling: List[Tuple[int, float, float]]) -> Tuple[List[float], float]:
    """Classify s per SSA node per size bucket, and largest over smallest."""
    per_bucket = inputs.LADDER_STEPS // BUCKETS
    seconds = [0.0] * BUCKETS
    nodes = [0.0] * BUCKETS
    for rung, classify_s, count in scaling:
        bucket = min(rung // per_bucket, BUCKETS - 1)
        seconds[bucket] += classify_s
        nodes[bucket] += count
    per_node = [s / n if n else 0.0 for s, n in zip(seconds, nodes)]
    return per_node, (per_node[-1] / per_node[0] if per_node[0] else 0.0)


def drive(workload, seconds: float, traced: bool) -> Outcome:
    """Run whole passes until ``seconds`` have passed and the cycle is complete.

    A reference-kernel sample follows every unit, and each unit's
    seconds are scaled to reference seconds by the samples around it.
    """
    cycle = TRACED_CYCLE if traced else ("e2e",)
    out = Outcome()
    spans = out.spans
    counts = Counts()
    speed = Speed()
    speed.sample()
    #: (wall seconds, index of the kernel sample that follows) per unit
    latencies: List[Tuple[float, int]] = []
    observed: List[Tuple[float, int]] = []
    #: (sample index, wall seconds per span name, ladder rung, SSA nodes)
    #: per staged unit; the rung is None for units off the size ladder
    staged_units: List[Tuple[int, Dict[str, float], Optional[int], float]] = []
    loops = functions = lowered = 0
    pass_size = 0
    started = time.perf_counter()
    index = 0
    while index == 0 or index % len(cycle) or time.perf_counter() - started < seconds:
        # the passes of one cycle share their inputs, so every mode times
        # the same programs; only the first run of each is cold, and the
        # rotation gives every mode the same share of those
        units = workload.units(index // len(cycle))
        pass_size = len(units)
        plan = [(unit, cycle[(index + k) % len(cycle)]) for k, unit in enumerate(units)]
        inputs.pass_rng(f"{workload.name}.order", workload.seed, index).shuffle(plan)
        for unit, mode in plan:
            out.attempted += 1
            at = len(speed.samples)
            try:
                if mode == "e2e":
                    begin = time.perf_counter()
                    outcome = workload.e2e(unit)
                    latencies.append((time.perf_counter() - begin, at))
                    loops += outcome.loops
                    functions += outcome.functions
                    lowered += outcome.lowered
                    if outcome.failed:
                        out.failed += 1
                        out.failures.append(f"{workload.uid(unit)}: {outcome.detail}")
                elif mode == "staged":
                    before = dict(spans.totals)
                    nodes_before = counts.get("core.ssa_nodes", 0)
                    with spans.unit(workload.uid(unit)):
                        staged = workload.staged(unit, spans, counts)
                    deltas = {
                        name: total - before.get(name, 0.0)
                        for name, total in spans.totals.items()
                    }
                    nodes = counts.get("core.ssa_nodes", 0) - nodes_before
                    staged_units.append((at, deltas, getattr(unit, "rung", None), nodes))
                    problem = workload.check_staged(unit, staged)
                    if problem:
                        out.problems.append(problem)
                else:
                    begin = time.perf_counter()
                    workload.observed(unit)
                    observed.append((time.perf_counter() - begin, at))
            except Exception as error:  # noqa: BLE001 - a failed unit, counted
                out.failed += 1
                out.failures.append(
                    f"{workload.uid(unit)} ({mode}): {type(error).__name__}: {error}"
                )
            speed.sample()
        index += 1
    out.problems += workload.final_checks(staged_checked=bool(staged_units))

    e2e = [wall * speed.scale(at) for wall, at in latencies]
    n = len(e2e)
    e2e_mean = mean(e2e)
    p50, _ = percentile(e2e, 50)
    p95, beyond = percentile(e2e, 95)
    out.put("latency_p50_s", p50, "s", n)
    out.put("latency_p95_s", p95, "s", n, beyond=beyond)
    out.put("throughput_per_s", 1.0 / e2e_mean, "1/s", n)
    out.put("wall.latency_p50_s", percentile([wall for wall, _ in latencies], 50)[0], "s", n)
    out.put("host.reference_ms", statistics.median(speed.samples) * 1e3, "ms", len(speed.samples))
    out.put("failed_fraction", out.failed / out.attempted, "ratio", out.attempted)
    # per pass: with every unit e2e this is exactly one pass's count
    out.put("loops_analyzed", loops / n * pass_size, "count", n)
    out.put("lowered_fraction", lowered / functions, "ratio", functions)
    if not staged_units:
        return out

    totals: Dict[str, float] = {}
    #: (ladder rung, classify seconds, SSA nodes) per staged DSL unit
    scaling: List[Tuple[int, float, float]] = []
    for at, deltas, rung, nodes in staged_units:
        factor = speed.scale(at)
        for name, wall in deltas.items():
            totals[name] = totals.get(name, 0.0) + wall * factor
        if rung is not None:
            scaling.append((rung, deltas.get("core.classify", 0.0) * factor, nodes))
    staged_n = len(staged_units)
    layer_means = [totals.get(layer, 0.0) / staged_n for layer in LAYERS]
    for layer, value in zip(LAYERS, layer_means):
        out.put(f"{layer}_s", value, "s", staged_n)
    for key in COUNTS:
        out.put(key, counts.get(key, 0) / staged_n, "count", staged_n)
    classified = counts.get("core.classified", 0)
    out.put(
        "core.unknown_fraction",
        counts.get("core.unknown", 0) / classified if classified else 0.0,
        "ratio",
        staged_n,
    )
    nodes = counts.get("core.ssa_nodes", 0)
    out.put(
        "core.classify_s_per_node",
        totals.get("core.classify", 0.0) / nodes if nodes else 0.0,
        "s",
        staged_n,
    )
    if scaling:
        per_node, ratio = linearity(scaling)
        for bucket, value in enumerate(per_node):
            out.put(f"core.classify_s_per_node.b{bucket}", value, "s", len(scaling))
        out.put("core.linearity", ratio, "ratio", len(scaling))
        if ratio > LINEARITY_LIMIT:
            out.problems.append(
                f"core.linearity {ratio:.3f} exceeds {LINEARITY_LIMIT}: classify "
                "seconds per SSA node grow with program size"
            )
    unattributed, staged_overhead, tracing_overhead = reconcile(
        e2e_mean,
        layer_means,
        totals["unit"] / staged_n,
        mean(wall * speed.scale(at) for wall, at in observed),
    )
    out.put("bench.unattributed_s", unattributed, "s", staged_n)
    out.put("bench.staged_overhead", staged_overhead, "ratio", staged_n)
    out.put("obs.tracing_overhead", tracing_overhead, "ratio", len(observed))
    return out
