"""Pinned ``repro pylint`` report over the corpus and the benchmark inputs.

One sha256 over ``render_corpus_json`` of the committed mini-corpus and
the pinned ``perfbench/data`` files (real stdlib modules): loop rows,
closed forms, verdicts and every finding in order.  A change to how
Python functions are validated, lowered or analyzed moves the digest.
``python -m tests.pyfront.test_pylint_golden`` prints it.
"""

import hashlib
import os
from pathlib import Path

from repro.pyfront.driver import pylint_paths, render_corpus_json

ROOT = Path(__file__).resolve().parents[2]

#: the report's origins are these paths as given, relative to the root
PATHS = ["tests/pyfront/corpus", "perfbench/data"]

GOLDEN = "eff8521e803f236a12cc5917cf127ab07bf12dcb13dbb404af2cffec6210c975"


def digest() -> str:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        report = render_corpus_json(pylint_paths(PATHS))
    finally:
        os.chdir(cwd)
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def test_pylint_report_is_pinned():
    assert digest() == GOLDEN


if __name__ == "__main__":
    print(f'GOLDEN = "{digest()}"')
