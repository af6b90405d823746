"""Fast checks of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import analysis, inputs, serve  # noqa: E402
from perfbench.measure import REFERENCE_S, Speed, Spans, percentile  # noqa: E402


def _staged_dsl(source):
    unit = inputs.Program("t", source, 0)
    program = analysis.DslWorkload.staged(unit, Spans(), analysis.Counts())
    return unit, program


@pytest.mark.parametrize(
    "source",
    [
        inputs.straightline_iv_loop(12, seed=5),
        inputs.deep_chain_loop(12, seed=5),
        inputs.mixed_class_loop(5, 30),
    ],
    ids=["dsl_chain-straightline", "dsl_chain-deep", "dsl_mixed"],
)
def test_staged_equals_e2e_on_dsl(source):
    unit, program = _staged_dsl(source)
    assert analysis.DslWorkload.check_staged(unit, program) is None
    assert analysis.fingerprint(program) == analysis.fingerprint(
        analysis.analyze(source, **analysis.OPTIONS)
    )


@pytest.fixture(scope="module")
def py_corpus():
    return analysis.PyCorpusWorkload(seed=0)


@pytest.mark.parametrize("relative", ["corpus/kernels.py", "stdlib/contextlib.py"])
def test_staged_equals_e2e_on_python_file(py_corpus, relative):
    path = os.path.join(inputs.DATA_DIR, relative)
    counts = analysis.Counts()
    staged = py_corpus.staged(path, Spans(), counts)
    assert py_corpus.check_staged(path, staged) is None
    assert counts["pyfront.functions"] > 0


def test_default_generators_match_the_regression_workloads():
    from benchmarks import workloads

    assert inputs.straightline_iv_loop(20) == workloads.straightline_iv_loop(20)
    assert inputs.deep_chain_loop(20) == workloads.deep_chain_loop(20)
    assert inputs.mixed_class_loop(3, 40) == workloads.mixed_class_loop(3, 40)
    assert inputs.deep_chain_loop(20, seed=1) != inputs.deep_chain_loop(20, seed=2)


class _FakeWorkload:
    """Three quick units; staged spans one layer so the sums are checkable."""

    name = "fake"
    seed = 0

    def units(self, index):
        return ["a", "b", "c", "d"]

    uid = staticmethod(str)

    def e2e(self, unit):
        return analysis.UnitOutcome(loops=1)

    def observed(self, unit):
        pass

    def staged(self, unit, spans, counts):
        with spans.span("core.classify"):
            sum(range(1000))
        return unit

    def check_staged(self, unit, staged):
        return None

    def final_checks(self, staged_checked):
        return []


def test_layers_and_unattributed_add_up_to_the_e2e_mean():
    out = analysis.drive(_FakeWorkload(), seconds=0.0, traced=True)
    metrics = {name: entry["value"] for name, entry in out.metrics.items()}
    layers = sum(metrics[f"{layer}_s"] for layer in analysis.LAYERS)
    assert layers + metrics["bench.unattributed_s"] == pytest.approx(
        1.0 / metrics["throughput_per_s"]
    )
    assert metrics["loops_analyzed"] == 4
    assert out.attempted == 16 and not out.problems


def test_reconcile_arithmetic():
    unattributed, staged, traced = analysis.reconcile(0.010, [0.004, 0.005], 0.0105, 0.012)
    assert unattributed == pytest.approx(0.001)
    assert staged == pytest.approx(1.05)
    assert traced == pytest.approx(1.2)


def test_digest_mismatch_names_the_file(tmp_path, monkeypatch):
    (tmp_path / "corpus").mkdir()
    pinned = tmp_path / "corpus" / "a.py"
    pinned.write_text("x = 1\n")
    digest = hashlib.sha256(b"x = 1\n").hexdigest()
    (tmp_path / "MANIFEST.json").write_text(json.dumps({"files": {"corpus/a.py": digest}}))
    monkeypatch.setattr(inputs, "DATA_DIR", str(tmp_path))
    assert inputs.load_pinned() == {str(pinned): "x = 1\n"}
    pinned.write_text("x = 2\n")
    with pytest.raises(inputs.InputError, match="corpus/a.py"):
        inputs.load_pinned()


def test_committed_inputs_match_their_digests():
    assert len(inputs.load_pinned()) == 62


def _exchange(result=None, status="ok", error=None):
    response = None if error else {"status": status, "results": [result] if result else []}
    request = serve.Request("py", {})
    return serve.Exchange(request, 0.01, response, error)


_RECORD = {
    "schema": 2, "ts": 0.0, "origin": None, "source_lang": "python",
    "function": "module", "fingerprint": "f", "loops": [], "classes": {},
    "parallel": {"doall": 0, "serial": 0, "undecided": 0}, "blocked": {},
    "degradations": [], "ranges": None, "invariants": None,
}


def test_serve_failure_classification():
    pyf = dict(
        _RECORD,
        degradations=[{"phase": "pyfront.lower", "code": "unsupported-statement",
                       "action": "skipped", "scope": "f", "diag_code": "PYF401",
                       "message": "m"}],
    )
    input_degraded = {"status": "degraded", "record": pyf}
    assert serve.classify_answer(_exchange(input_degraded, status="degraded")) == (False, None)
    crashed = {
        "status": "degraded",
        "error": {"code": "worker-crash"},
        "diagnostics": [{"code": "RES506"}],
    }
    assert serve.classify_answer(_exchange(crashed, status="degraded"))[0]
    truncated = {"status": "degraded", "record": _RECORD, "diagnostics": [{"code": "RES509"}]}
    assert serve.classify_answer(_exchange(truncated, status="degraded"))[0]
    assert serve.classify_answer(_exchange(status="error"))[0]
    assert serve.classify_answer(_exchange(error="ConnectionResetError"))[0]


def test_serve_sequence_is_a_fixed_seeded_mix():
    modules = {name: "def f(n):\n    return n\n" for name in serve.PY_MODULES}
    plan = serve.sequence(7, 3, modules)
    assert plan == serve.sequence(7, 3, modules)
    kinds = [request.kind for request in plan]
    assert (kinds.count("dsl"), kinds.count("py"), kinds.count("repeat")) == (
        serve.FRESH_DSL, serve.FRESH_PY, serve.REPEATS,
    )
    for position, request in enumerate(plan):
        if request.kind == "repeat":
            assert plan[request.original].kind == "dsl"
            assert request.original < position
    sources = [r.payload["source"] for r in plan if r.kind != "repeat"]
    assert len(set(sources)) == len(sources)


def test_compare_verdicts():
    from perfbench.run import verdict

    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(steady, [v * 1.05 for v in steady], "lower", 0.1) == "within bound"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1) == "worse"
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]
    assert verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [0.3, 0.4, 0.5, 0.45, 0.35], "lower", 0.1) == "within bound"


def test_speed_scales_by_the_median_of_nearby_kernel_samples():
    speed = Speed()
    speed.samples = [0.003] * 5 + [0.006] * 20
    assert speed.scale(0) == pytest.approx(REFERENCE_S / 0.003)
    # a lone outlier among its neighbours does not move the scale
    speed.samples[20] = 0.1
    assert speed.scale(20) == pytest.approx(REFERENCE_S / 0.006)
    assert speed.sample() > 0 and len(speed.samples) == 26


def test_percentile_reports_the_samples_beyond_it():
    values = list(range(1, 21))
    assert percentile(values, 50) == (10, 10)
    assert percentile(values, 95) == (19, 1)
    assert percentile([3.0], 95) == (3.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)
