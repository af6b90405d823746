"""One version number: ``repro.__version__``.

``pyproject.toml`` reads it through ``[tool.setuptools.dynamic]`` and
``CITATION.cff`` repeats it.  The files are compared as text, so the
check needs no TOML or YAML parser on any supported interpreter.
"""

import os
import re

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


def test_pyproject_reads_the_package_version():
    text = read("pyproject.toml")
    assert 'dynamic = ["version"]' in text
    assert re.search(
        r'^version = \{ ?attr = "repro\.__version__" ?\}$', text, re.MULTILINE
    )
    # no static version of its own in the [project] table
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^version\s*=", project, re.MULTILINE)


def test_citation_matches_the_package_version():
    source = read("src", "repro", "__init__.py")
    (declared,) = re.findall(
        r'^__version__ = "([^"]+)"$', source, re.MULTILINE
    )
    assert declared == repro.__version__
    (cited,) = re.findall(r"^version: (\S+)$", read("CITATION.cff"), re.MULTILINE)
    assert cited == declared
