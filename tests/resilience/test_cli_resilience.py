"""The report-mode resilience flags: ``--inject`` and ``--strict-errors``."""

from repro.cli import main
from repro.resilience.errors import InjectedFault
from repro.resilience.faultinject import all_fault_points

SOURCE = """\
i = 0
x = 0
L1: while i < 10 do
  x = x + i
  i = i + 1
endwhile
"""


def write_program(tmp_path, name="prog.loop", source=SOURCE):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestInjectFlag:
    def test_inject_list_prints_the_catalogue(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--inject", "list"]) == 0
        out = capsys.readouterr().out
        for point in all_fault_points():
            assert point in out

    def test_unknown_point_is_a_usage_error(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--inject", "no.such"]) == 2
        assert "unknown fault point" in capsys.readouterr().err

    def test_serve_rate_without_seed_is_a_usage_error(self, capsys):
        # rejected before any server or worker starts
        argv = ["serve", "--inject", "serve.worker", "--inject-rate", "0.5"]
        assert main(argv) == 2
        assert "needs a seed" in capsys.readouterr().err

    def test_injection_degrades_and_reports(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--inject", "classify.loop"]) == 0
        out = capsys.readouterr().out
        assert "== resilience ==" in out
        assert "[RES501]" in out
        assert "[degraded]" in out

    def test_injection_surfaces_in_lint_diagnostics(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--inject", "classify.loop", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "RES501" in out

    def test_clean_run_has_no_resilience_section(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program]) == 0
        assert "== resilience ==" not in capsys.readouterr().out


class TestBudgetFlags:
    """``--deadline-s`` / ``--max-expr-terms`` degrade, never crash."""

    def test_impossible_deadline_degrades_the_report(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--deadline-s", "0.0000001"]) == 0
        out = capsys.readouterr().out
        assert "== resilience ==" in out
        assert "budget-request-deadline" in out
        assert "[RES503]" in out

    def test_impossible_deadline_degrades_lint_mode(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main(["lint", program, "--deadline-s", "0.0000001"]) == 0
        out = capsys.readouterr().out
        assert "budget-request-deadline" in out
        assert "RES503" in out

    def test_generous_budget_leaves_the_run_clean(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main(
            [program, "--deadline-s", "600", "--max-expr-terms", "100000"]
        ) == 0
        out = capsys.readouterr().out
        assert "loop L1" in out
        assert "== resilience ==" not in out

    def test_strict_errors_propagates_the_deadline(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main(
            [program, "--deadline-s", "0.0000001", "--strict-errors"]
        ) == 1
        assert "deadline" in capsys.readouterr().err


class TestStrictErrorsFlag:
    def test_strict_propagates_the_injected_fault(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main(
            [program, "--inject", "classify.loop", "--strict-errors"]
        ) == 1
        assert "injected fault" in capsys.readouterr().err

    def test_strict_clean_run_succeeds(self, tmp_path, capsys):
        program = write_program(tmp_path)
        assert main([program, "--strict-errors"]) == 0
        assert "loop L1" in capsys.readouterr().out
