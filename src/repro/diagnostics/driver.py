"""The lint driver: run every check over whole programs (``repro lint``).

:func:`lint_source` takes one loop-language program through the full
pipeline with the sanitizer active, verifies the resulting SSA, and runs
the semantic lints; :func:`lint_analyzed` is that findings step alone,
which ``repro pylint`` also runs on each lowered Python function.
:func:`lint_paths` extends that to files and directories: ``*.loop``
files are linted directly, and ``*.py`` files are *harvested* -- every
string constant that parses as a loop-language program containing a loop
(the repo's ``examples/`` embed their programs that way) becomes a lint
target labelled ``file.py:LINE``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.diagnostics.diagnostic import Diagnostic, DiagnosticCollector
from repro.diagnostics.lints import DEFAULT_SAMPLES, lint_lattice, lint_program
from repro.diagnostics.lints import lint_source as lint_src
from repro.diagnostics.sanitizer import sanitizing
from repro.diagnostics.verifier import verify_collect
from repro.resilience.isolation import diagnostics_of


@dataclass(frozen=True)
class LintTarget:
    """One program to lint: its origin label and source text."""

    origin: str
    source: str


def lint_source(
    source: str,
    origin: Optional[str] = None,
    collector: Optional[DiagnosticCollector] = None,
    execution: bool = True,
    samples: Sequence[int] = DEFAULT_SAMPLES,
    ranges: bool = False,
    invariants: bool = False,
    budget=None,
) -> List[Diagnostic]:
    """Lint one program; returns (and optionally collects) all findings.

    ``budget`` (an :class:`~repro.resilience.AnalysisBudget`) caps the
    underlying analysis; exhaustion degrades the affected scope and
    surfaces as RES5xx diagnostics rather than failing the lint run.

    ``ranges`` additionally runs the value-range analysis and its RNG6xx
    checker suite (out-of-bounds subscripts, possible division by zero,
    provably empty loops, ...; see ``docs/RANGES.md``).

    ``invariants`` additionally runs the polynomial-invariant phase and
    its INV7xx replay suite (every emitted equality and branch-dependent
    step bound is held against the interpreter; see
    ``docs/INVARIANTS.md``).
    """
    from repro.pipeline import analyze

    out = collector if collector is not None else DiagnosticCollector()
    local = DiagnosticCollector()
    try:
        with sanitizing(strict=False, collector=local):
            program = analyze(
                source, ranges=ranges, invariants=invariants, budget=budget
            )
    except Exception as error:
        local.emit("LNT001", f"analysis failed: {error}")
    else:
        lint_analyzed(program, local, execution, samples, ranges, invariants)
    return _publish(local, out, origin)


def lint_analyzed(
    program,
    collector: DiagnosticCollector,
    execution: bool = True,
    samples: Sequence[int] = DEFAULT_SAMPLES,
    ranges: bool = False,
    invariants: bool = False,
) -> None:
    """:func:`lint_source`'s findings step, on an analyzed program.

    Verifier findings ``collector`` already holds are not added twice;
    ``execution=False`` keeps to the static lints.
    """
    seen = {(d.code, d.message) for d in collector}
    for diagnostic in verify_collect(program.ssa, ssa=True):
        if (diagnostic.code, diagnostic.message) not in seen:
            collector.diagnostics.append(diagnostic)

    diagnostics_of(program.degradations, collector)

    if execution:
        lint_program(program, collector=collector, samples=samples)
    else:
        lint_lattice(program, collector)
        lint_src(program, collector)

    if ranges and program.result.ranges is not None:
        from repro.ranges import check_ranges

        check_ranges(program.result, program.result.ranges, collector)

    if invariants and program.result.invariants is not None:
        from repro.invariants import check_invariants

        check_invariants(program, collector, samples=samples)


def _publish(
    local: DiagnosticCollector, out: DiagnosticCollector, origin: Optional[str]
) -> List[Diagnostic]:
    published = [
        d.with_origin(origin) if origin and d.origin is None else d for d in local
    ]
    out.extend(published)
    return published


# ----------------------------------------------------------------------
# target discovery
# ----------------------------------------------------------------------
def harvest_python(path: str) -> List[LintTarget]:
    """Extract embedded loop-language programs from a Python file.

    Any string constant (module level or nested) that the loop-language
    parser accepts and that contains a loop (``do``) is a target; this is
    how ``examples/*.py`` carry their programs.
    """
    from repro.frontend.parser import parse_program

    with open(path) as handle:
        text = handle.read()
    targets: List[LintTarget] = []
    try:
        tree = ast.parse(text)
    except (SyntaxError, RecursionError):  # too deep to parse is unparseable
        return targets
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
            continue
        source = node.value
        if "\n" not in source or " do" not in source:
            continue
        try:
            parse_program(source)
        except Exception:
            continue
        targets.append(LintTarget(f"{path}:{node.lineno}", source))
    return targets


def discover_files(paths: Sequence[str], suffixes: Sequence[str]) -> List[str]:
    """Expand files and directories into a deterministic file list.

    The one corpus walker behind ``repro report``, ``repro lint``, and
    ``repro pylint``: directories are walked recursively in sorted order
    and contribute every file matching ``suffixes``; explicit file paths
    are passed through untouched (whatever their suffix), so a user can
    always point a mode at one specific file.  Missing paths raise
    ``OSError`` like ``open`` would, so every caller reports absent
    inputs the same way.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(tuple(suffixes)):
                        out.append(os.path.join(dirpath, filename))
        elif os.path.exists(path):
            out.append(path)
        else:
            raise OSError(f"no such file or directory: {path!r}")
    return out


def collect_targets(paths: Sequence[str]) -> List[LintTarget]:
    """Expand files and directories into lint targets.

    Directories contribute every ``*.loop`` file plus the programs
    harvested from every ``*.py`` file (via :func:`discover_files`, the
    shared corpus walker).  A ``.py`` path is harvested; any other file
    is read as loop-language source.
    """
    targets: List[LintTarget] = []
    for full in discover_files(paths, (".py", ".loop")):
        if full.endswith(".py"):
            targets.extend(harvest_python(full))
        else:
            targets.append(_file_target(full))
    return targets


def _file_target(path: str) -> LintTarget:
    with open(path) as handle:
        return LintTarget(path, handle.read())


def lint_paths(
    paths: Sequence[str],
    collector: Optional[DiagnosticCollector] = None,
    execution: bool = True,
    ranges: bool = False,
    invariants: bool = False,
) -> DiagnosticCollector:
    """Lint every program found under ``paths``; returns the collector."""
    out = collector if collector is not None else DiagnosticCollector()
    for target in collect_targets(paths):
        lint_source(
            target.source,
            origin=target.origin,
            collector=out,
            execution=execution,
            ranges=ranges,
            invariants=invariants,
        )
    return out
