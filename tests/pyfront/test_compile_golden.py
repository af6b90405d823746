"""Pinned ``compile_module`` output and the single-walk compile contract.

The golden hashes cover everything a compiled function carries: params,
re-rendered source, every degradation record in order, and the printed
IR, so a change to how ``compile_function`` walks a def cannot move its
output unnoticed.
"""

import ast
import hashlib
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.ir.printer import print_function
from repro.obs.runlog import source_fingerprint
from repro.pyfront.driver import _skip_record
from repro.pyfront.lower import compile_function, compile_module

CORPUS = Path(__file__).parent / "corpus"

#: sha256 of ``render(compile_module(text, origin=name))`` per corpus file
GOLDEN = {
    "degrade.py": "ab885d9e7e1c29be544923a7afbd592ff0795bab9ba816f3a821fe0f6c912782",
    "kernels.py": "117efcaf65c8cb4301d7ab87105dc9293ec83ae1cc522e3f66d64cb1c8be8103",
    "numeric.py": "bc95c0b434e716998ad40bdaafaf81feaf983fc2053c516c9ed03a130394503d",
    "search.py": "104ea6031376bbd98675869a5c58ed5c7eba194513b6ad017802e8c3635c5a40",
}


def render(module) -> str:
    lines = []
    for cf in module.functions:
        lines.append(f"def {cf.qualname} {cf.origin} {cf.lineno}")
        lines.append("params " + json.dumps(cf.params))
        lines.append("source " + json.dumps(cf.source))
        for d in cf.degradations:
            lines.append(
                "record "
                + json.dumps([d.phase, d.code, d.diag_code, d.scope, d.action, d.message])
            )
        ir = None if cf.function is None else print_function(cf.function)
        lines.append("ir " + json.dumps(ir))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_output_is_pinned(name):
    text = (CORPUS / name).read_text(encoding="utf-8")
    rendered = render(compile_module(text, origin=name))
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == GOLDEN[name]


def test_golden_covers_the_whole_corpus():
    assert sorted(p.name for p in CORPUS.glob("*.py")) == sorted(GOLDEN)


LOOP_REUSE = textwrap.dedent(
    """
    def reuse(n, m):
        total = 0
        for i in range(n):
            total += i
        for i in range(m):
            i = i + 1
            for j in range(i):
                total += j
        for j in range(3):
            for j in range(2):
                total += j
        k = i + j
        for i in range(2):
            total += i
        while total > k:
            total -= i
        return total + j
    """
)


def test_loop_variable_records_are_pinned_in_order():
    (cf,) = compile_module(LOOP_REUSE, origin="reuse.py").functions
    assert not cf.ok
    assert {d.diag_code for d in cf.degradations} == {"PYF405"}
    got = []
    for d in cf.degradations:
        var, line = re.search(r"'(\w+)' .*\(line (\d+)\)", d.message).groups()
        got.append((d.code.replace("loop-variable-", ""), var, int(line)))
    # loops in walk order: the four top-level loops (lines 4, 6, 10, 14),
    # then the nested ones (8, 11); the read of i at line 15 is shielded
    # by the body of the later same-named loop, the one at 17 is not
    assert got == [
        ("read-after-loop", "i", 13),
        ("read-after-loop", "i", 17),
        ("reassigned", "i", 7),
        ("read-after-loop", "i", 13),
        ("read-after-loop", "i", 17),
        ("reassigned", "j", 11),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
        ("read-after-loop", "i", 17),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
        ("read-after-loop", "j", 13),
        ("read-after-loop", "j", 18),
    ]


def _def_node(source: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(source)).body[0]


def test_source_is_exactly_unparse():
    node = _def_node(LOOP_REUSE)
    expected = ast.unparse(node)
    compiled = compile_function(node, "reuse", "reuse.py")
    assert compiled.source == expected
    assert compiled.source == expected  # a second read gives the same text


def test_skip_record_fingerprint_is_unchanged():
    text = (CORPUS / "degrade.py").read_text(encoding="utf-8")
    table = {cf.qualname: cf for cf in compile_module(text, origin="degrade.py").functions}
    cf = table["reads_loop_var"]
    assert not cf.ok
    record = _skip_record(cf)
    assert record["fingerprint"] == source_fingerprint(cf.source) == "71c6f20505c19034"


def test_compile_walks_the_def_once(monkeypatch):
    node = _def_node(LOOP_REUSE)
    roots = []
    real_walk = ast.walk

    def counting_walk(root):
        roots.append(root)
        return real_walk(root)

    monkeypatch.setattr(ast, "walk", counting_walk)
    compile_function(node, "reuse", "reuse.py")
    assert sum(1 for root in roots if root is node) == 1


def test_annotations_are_not_kind_evidence():
    module = compile_module(
        textwrap.dedent(
            """
            from typing import List, Optional

            def f(xs: List[int], n: Optional[int]) -> int:
                total: int = 0
                for i in range(n):
                    total += xs[i]
                return total
            """
        ),
        origin="annotated.py",
    )
    (cf,) = module.functions
    assert not [d for d in cf.degradations if d.diag_code == "PYF404"]
    assert cf.ok
    assert cf.params == [("xs", "list"), ("n", "int")]
