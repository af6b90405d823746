"""Corpus driver: pylint_paths end-to-end over the committed mini-corpus."""

import ast
import json
import os
from collections import Counter

import pytest

from perfbench.analysis import _compile, _first_blocker, _function_defs
from repro.diagnostics import DiagnosticCollector, Severity
from repro.obs import runlog
from repro.obs.aggregate import aggregate, load_records, validate_record
from repro.pyfront import pylint_paths, render_corpus_json, render_corpus_text
from repro.pyfront.driver import blocked_rollup

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.fixture(scope="module")
def corpus_result():
    return pylint_paths([CORPUS])


def test_corpus_counts(corpus_result):
    assert corpus_result.files == 4
    assert corpus_result.functions == corpus_result.lowered + corpus_result.degraded
    assert corpus_result.lowered >= 20
    # degrade.py exists to fail -- every function in it must degrade
    assert corpus_result.degraded >= 9


def test_every_outcome_has_origin_and_qualname(corpus_result):
    for outcome in corpus_result.outcomes:
        assert outcome.origin.startswith(CORPUS)
        assert outcome.qualname


def test_no_errors_from_committed_corpus(corpus_result):
    errors = [
        d
        for d in corpus_result.findings
        if d.severity >= Severity.ERROR
    ]
    assert errors == []


def test_degradations_surface_as_pyf_warnings(corpus_result):
    pyf = [d for d in corpus_result.findings if d.code.startswith("PYF")]
    assert pyf
    for diag in pyf:
        assert diag.origin and ".py:" in diag.origin


def test_divisor_hazard_found_in_numeric_corpus(corpus_result):
    rng603 = [d for d in corpus_result.findings if d.code == "RNG603"]
    assert any("average_step" in (d.function or "") for d in rng603)


def test_parallel_and_serial_loops_both_present(corpus_result):
    verdicts = {
        (outcome.qualname, row["parallel"])
        for outcome in corpus_result.outcomes
        for row in outcome.loops
    }
    parallel = {name for name, ok in verdicts if ok}
    serial = {name for name, ok in verdicts if not ok}
    assert "scale" in parallel
    assert "prefix_sum" in serial


def test_serial_loops_carry_blocker_reasons(corpus_result):
    for outcome in corpus_result.outcomes:
        if outcome.qualname != "prefix_sum":
            continue
        for row in outcome.loops:
            if not row["parallel"]:
                assert row["blocked_by"], row
                return
    pytest.fail("prefix_sum serial loop not found")


def test_render_text_mentions_counts_and_verdicts(corpus_result):
    text = render_corpus_text(corpus_result)
    assert "== corpus ==" in text
    assert "DOALL" in text
    assert "serial[" in text


def test_render_json_round_trips(corpus_result):
    payload = json.loads(render_corpus_json(corpus_result))
    assert payload["functions"] == corpus_result.functions
    assert payload["lowered"] == corpus_result.lowered
    assert payload["degraded"] == corpus_result.degraded
    assert isinstance(payload["findings"], list)


def test_missing_path_raises_oserror():
    with pytest.raises(OSError):
        pylint_paths([os.path.join(CORPUS, "no_such_file.py")])


def test_shared_collector_is_used():
    out = DiagnosticCollector()
    result = pylint_paths([CORPUS], collector=out)
    assert result.collector is out
    assert out.sorted()


def test_runlog_records_tag_python_and_validate(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([CORPUS])
    records = list(load_records(str(store)))
    assert records
    for record in records:
        assert validate_record(record) is None, validate_record(record)
        assert record["source_lang"] == "python"


def test_aggregate_reports_python_language(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([CORPUS])
    stats = aggregate(load_records(str(store)))
    assert stats["languages"].get("python", 0) > 0


def test_degraded_functions_get_skip_records(tmp_path):
    store = tmp_path / "runs"
    with runlog.recording(str(store)):
        pylint_paths([os.path.join(CORPUS, "degrade.py")])
    records = list(load_records(str(store)))
    # every degraded function still leaves a schema-valid trace
    assert len(records) >= 9
    for record in records:
        assert validate_record(record) is None
        assert record["degradations"]


def test_blocked_rollup_is_pinned(corpus_result):
    # one line per first-blocking code: most functions first, then by code
    rollup = render_corpus_text(corpus_result).split("== blocked ==\n")[1]
    assert rollup.replace(CORPUS + os.sep, "").splitlines() == [
        "      2  PYF402 non-int-literal  e.g. degrade.py:10 uses_strings",
        "      2  PYF402 unsupported-call  e.g. degrade.py:15 uses_dict",
        "      1  PYF404 kind-conflict  e.g. degrade.py:26 list_builder",
        "      1  PYF405 loop-variable-read-after-loop  e.g. degrade.py:34 reads_loop_var",
        "      1  PYF403 unsupported-signature  e.g. degrade.py:43 keyword_only",
        "      1  PYF401 unsupported-statement:Try  e.g. degrade.py:48 with_docstring_and_try",
        "      1  PYF401 unsupported-target  e.g. degrade.py:20 tuple_swap",
    ]
    assert json.loads(render_corpus_json(corpus_result))["blocked"] == {
        "kind-conflict": 1,
        "loop-variable-read-after-loop": 1,
        "non-int-literal": 2,
        "unsupported-call": 2,
        "unsupported-signature": 1,
        "unsupported-statement:Try": 1,
        "unsupported-target": 1,
    }


def test_blocked_rollup_matches_the_benchmark_view(corpus_result):
    # summed by diag_code, the rollup is perfbench's pyfront.blocked.*
    expected = Counter()
    for name in sorted(os.listdir(CORPUS)):
        if name.endswith(".py"):
            with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for qualname, node in _function_defs(tree):
                compiled = _compile(node, qualname, name)
                if not compiled.ok:
                    expected[_first_blocker(compiled)] += 1
    by_diag = Counter()
    for count, example in blocked_rollup(corpus_result).values():
        by_diag[example.blocker.diag_code] += count
    assert by_diag == expected
    assert sum(by_diag.values()) == corpus_result.degraded
