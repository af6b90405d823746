"""Deeply nested code never crashes the Python front end.

``x = 1+1+...`` with a few thousand terms is a left-leaning ``BinOp``
chain thousands of nodes deep, and an ``elif`` chain nests as deep as it
is long.  Def discovery must not recurse through either, and a file too
deep for ``ast.parse`` itself is unparseable (PYF406), not a crash, in
``compile_module``, ``repro pylint``, ``repro lint`` and the service's
``language: "python"`` path.

Where ``ast.parse`` gives up depends on the interpreter: 3.11 and 3.12
raise ``RecursionError`` between 2,000 and 3,000 levels, 3.13 between
5,000 and 10,000, and 3.9 has no such guard.  So every test asks
``ast.parse`` itself (:func:`parses`) which files are too deep, instead
of assuming a cut-off.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pyfront import pylint_paths
from repro.pyfront.lower import compile_module
from repro.service.worker import run_job

SRC = Path(__file__).resolve().parents[2] / "src"

SIZES = (500, 1000, 2000, 5000)


def parses(source: str) -> bool:
    """Whether this interpreter's ``ast.parse`` builds ``source``."""
    try:
        ast.parse(source)
    except (SyntaxError, RecursionError):
        return False
    return True


def module_level(terms: int) -> str:
    """A deep module-level expression next to a def that lowers."""
    return "x = " + "+".join(["1"] * terms) + "\n\ndef f(n):\n    return n + 1\n"


def deep_return(terms: int) -> str:
    """A deep expression inside the def itself."""
    return "def g(n):\n    return " + "+".join(["n"] * terms) + "\n"


CARRIER = '''\
PROGRAM = """
k = 0
L1: for i = 1 to n do
  k = k + i
endfor
"""
'''


@pytest.mark.parametrize("terms", SIZES)
@pytest.mark.parametrize("make", [module_level, deep_return])
def test_compile_module_never_raises(make, terms):
    source = make(terms)
    module = compile_module(source, origin="deep.py")
    if not parses(source):
        assert module.error is not None
        assert module.error.diag_code == "PYF406"
        assert not module.functions
        return
    assert module.error is None
    (compiled,) = module.functions
    if make is module_level:
        assert compiled.qualname == "f" and compiled.ok
        return
    # the walk recurses once per expression level, so a return too
    # deep for the recursion limit degrades as an unsupported expression;
    # the sizes stay clear of the limit itself
    assert compiled.qualname == "g"
    limit = sys.getrecursionlimit()
    if terms >= limit:
        assert compiled.function is None
        assert [
            (d.diag_code, d.code, d.message) for d in compiled.degradations
        ] == [("PYF402", "expression-too-deep", "expression nested too deeply")]
    else:
        assert terms <= limit // 2
        assert compiled.ok and not compiled.degradations


def test_a_long_elif_chain_keeps_every_def():
    # each elif nests in the previous one's orelse: 2,000 statements deep
    arms = 2000
    source = "if x == 0:\n    pass\n" + "".join(
        f"elif x == {i}:\n    def f{i}(n):\n        return n + {i}\n"
        for i in range(1, arms)
    )
    module = compile_module(source, origin="elif.py")
    assert module.error is None
    assert [cf.qualname for cf in module.functions] == [f"f{i}" for i in range(1, arms)]
    assert all(cf.ok for cf in module.functions)


def deep_files():
    """File name -> text of every deep file the directory tests lint."""
    files = {}
    for terms in SIZES:
        files[f"module_{terms}.py"] = module_level(terms)
        files[f"return_{terms}.py"] = deep_return(terms)
    return files


@pytest.fixture(scope="module")
def deep_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    for name, text in deep_files().items():
        (root / name).write_text(text)
    (root / "carrier.py").write_text(CARRIER)
    return root


def unparseable() -> list:
    return sorted(name for name, text in deep_files().items() if not parses(text))


def test_pylint_paths_never_raises(deep_dir):
    result = pylint_paths([str(deep_dir)])
    assert result.files == 2 * len(SIZES) + 1
    reported = sorted(
        Path(d.origin).name
        for d in result.collector
        if d.code == "PYF406"
    )
    assert reported == unparseable()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_pylint_cli_reports_instead_of_crashing(deep_dir):
    done = _cli("pylint", str(deep_dir))
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stderr
    assert ("PYF406" in done.stdout) == bool(unparseable())


def test_lint_cli_skips_files_too_deep_to_parse(deep_dir):
    done = _cli("lint", str(deep_dir))
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("terms", [2000, 5000])
def test_run_job_answers_python_modules_of_any_depth(terms):
    source = module_level(terms)
    response = run_job(
        {"id": 1, "source": source, "options": {"language": "python"}}
    )
    if not parses(source):
        assert not response["ok"]
        assert response["error"]["code"] == "python-syntax-error"
    else:
        assert response["ok"], response
        assert response["record"]["functions"] == {
            "total": 1, "lowered": 1, "degraded": 0,
        }
