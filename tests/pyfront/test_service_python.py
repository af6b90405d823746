"""``language: "python"`` through the analysis service.

In-process ``run_job`` coverage for the python branch, plus a socket-level
check that the server validates the language option like any other
request field.
"""

import pytest

from repro.obs.aggregate import validate_record
from repro.obs.runlog import build_record
from repro.pipeline import analyze_function
from repro.pyfront.lower import compile_module
from repro.service import AnalysisServer, ServiceClient
from repro.service.worker import run_job

PY_GOOD = """\
def triangular(n):
    total = 0
    for i in range(n):
        total += i
    return total

def scale(xs, factor):
    for i in range(len(xs)):
        xs[i] = xs[i] * factor
    return 0
"""

PY_MIXED = PY_GOOD + """\

def stringy(s):
    return s + "!"
"""

PY_SERIAL = """\

def prefix(xs):
    for i in range(1, len(xs)):
        xs[i] = xs[i - 1] + 1
    return 0
"""

PY_BROKEN = "def broken(:\n"


class TestRunJobPython:
    def test_python_module_builds_a_merged_record(self):
        response = run_job(
            {"id": 1, "source": PY_GOOD, "options": {"language": "python"}}
        )
        assert response["ok"], response
        record = response["record"]
        assert validate_record(record) is None
        assert record["source_lang"] == "python"
        assert record["functions"] == {"total": 2, "lowered": 2, "degraded": 0}
        assert record["loops"]
        assert response["degraded"] is False

    def test_merged_record_sums_its_functions(self):
        source = PY_MIXED + PY_SERIAL
        response = run_job(
            {"id": 6, "source": source, "options": {"language": "python"}}
        )
        record = response["record"]
        loops, classes, blocked = [], {}, {}
        parallel = {"doall": 0, "serial": 0, "undecided": 0}
        for compiled in compile_module(source, origin="<python>").functions:
            if not compiled.ok:
                continue
            part = build_record(
                analyze_function(compiled.function, source=compiled.source)
            )
            loops += part["loops"]
            for total, key in ((classes, "classes"), (blocked, "blocked")):
                for name, count in part[key].items():
                    total[name] = total.get(name, 0) + count
            for key in parallel:
                parallel[key] += part["parallel"][key]
        assert record["functions"] == {"total": 4, "lowered": 3, "degraded": 1}
        assert record["loops"] == loops
        assert record["classes"] == classes
        assert record["parallel"] == parallel
        assert record["blocked"] == blocked
        assert parallel["doall"] and parallel["serial"] and blocked

    def test_degraded_functions_are_reported_not_fatal(self):
        response = run_job(
            {"id": 2, "source": PY_MIXED, "options": {"language": "python"}}
        )
        assert response["ok"]
        record = response["record"]
        assert record["functions"]["degraded"] == 1
        assert record["functions"]["lowered"] == 2
        assert any(
            d["diag_code"].startswith("PYF") for d in record["degradations"]
        )

    def test_syntax_error_is_a_python_syntax_error_failure(self):
        response = run_job(
            {"id": 3, "source": PY_BROKEN, "options": {"language": "python"}}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "python-syntax-error"

    def test_report_option_names_each_function(self):
        response = run_job(
            {
                "id": 4,
                "source": PY_GOOD,
                "options": {"language": "python", "report": True},
            }
        )
        assert "triangular" in response["report"]
        assert "scale" in response["report"]

    def test_default_language_still_parses_the_dsl(self):
        dsl = "i = 0\nL1: for i = 1 to n do\n  i = i + 0\nendfor\n"
        response = run_job({"id": 5, "source": dsl, "options": {}})
        assert response["ok"]
        assert response["record"]["source_lang"] == "loop"


@pytest.fixture(scope="class")
def served():
    server = AnalysisServer(pool_size=1)
    host, port = server.start()
    try:
        yield host, port
    finally:
        server.stop(grace_s=5.0)


class TestServerLanguageOption:
    def test_python_analyze_over_the_wire(self, served):
        host, port = served
        with ServiceClient(host, port, timeout_s=30.0) as client:
            response = client.analyze(PY_GOOD, options={"language": "python"})
        assert response["status"] == "ok"
        (result,) = response["results"]
        assert result["record"]["source_lang"] == "python"

    def test_unknown_language_is_malformed(self, served):
        host, port = served
        with ServiceClient(host, port, timeout_s=30.0) as client:
            response = client.analyze(PY_GOOD, options={"language": "fortran"})
        assert response["status"] == "error"
        assert response["error"]["code"] == "malformed-request"
        assert "language" in response["error"]["message"]
