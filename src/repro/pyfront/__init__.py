"""The real-Python frontend: CPython ``ast`` to repro IR.

The paper's recognizer only matters if it can face real programs; this
package is the bridge.  :func:`repro.pyfront.lower.compile_module`
walks each function of an ordinary Python file once: the first
construct outside the supported subset (catalogued in ``SUPPORTED`` and
``docs/PYTHON.md``) ends the walk and degrades that function with one
record of the ``PYF4xx`` diagnostic family instead of ever raising, and
a function the walk finishes comes out of it desugared into the
loop-language AST, from which :mod:`repro.frontend.lower` builds the
IR.  :func:`repro.pyfront.driver.pylint_paths` is
the corpus driver behind ``repro pylint``: it walks packages and runs
every lowered function through classification, value ranges, invariants,
and dependence testing.
"""

from __future__ import annotations

from repro.pyfront.driver import (
    CorpusResult,
    FunctionOutcome,
    pylint_paths,
    render_corpus_json,
    render_corpus_text,
)
from repro.pyfront.lower import (
    LEN_SUFFIX,
    CompiledFunction,
    ModuleCompilation,
    compile_function,
    compile_module,
)

__all__ = [
    "LEN_SUFFIX",
    "SUPPORTED",
    "CompiledFunction",
    "CorpusResult",
    "FunctionOutcome",
    "ModuleCompilation",
    "compile_function",
    "compile_module",
    "pylint_paths",
    "render_corpus_json",
    "render_corpus_text",
]

#: the supported subset, construct -> how it lowers.  ``docs/PYTHON.md``
#: documents every key (the doc-sync test holds the two in lockstep).
SUPPORTED = {
    "def": "positional int / list-of-int parameters; a list parameter "
    "becomes an IR array plus a synthetic `name$len` length parameter",
    "return": "bare, `return None`, or an int expression",
    "for-range": "`for i in range(stop|start,stop[,step])` with a "
    "non-zero literal step; lowers to the counted header/latch shape",
    "for-list": "`for x in xs` over a list parameter; a hidden counter "
    "indexes `xs` and loads into `x` at the top of the body",
    "while": "any supported condition (no `else` clause)",
    "if": "`if`/`elif`/`else` with short-circuit `and`/`or`/`not`",
    "break-continue": "inside any loop",
    "arithmetic": "int `+ - * // %`, unary `-`; `//` and `%` expand "
    "branch-free to CPython floor semantics over the IR's truncating "
    "division",
    "augmented-assign": "`+= -= *= //= %=` on names and subscripts",
    "comparisons": "`< <= > >= == !=`, chained in conditions",
    "subscript": "`a[i]` load/store on list parameters; constant "
    "negative indices rewrite to `a[a$len - k]`",
    "len": "`len(a)` of a list parameter reads `a$len`",
    "assert": "`assert n <op> literal` and `assert len(a) <op> literal` "
    "become range assumptions (other asserts drop with a PYF407 note)",
}
