"""Tests for suite running, report emission, and the CLI."""

import csv
import json

import pytest

from slcl.bench import (CSV_COLUMNS, EVAL_KINDS, SuiteReport, emit_report, main,
                        run_suite)
from slcl.catalog import catalog_get
from slcl.driver import OuterOptions, solve


class TestRunSuite:
    def test_mixed_statuses(self):
        report = run_suite(["circle-proj", "linear-as-nl", "infeas-affine"])
        assert [e.status for e in report.entries] == [
            "Optimal", "Optimal", "Infeasible"]
        assert all(e.matched for e in report.entries)
        assert report.all_matched

    def test_empty_request(self):
        report = run_suite([])
        assert report.entries == []
        assert report.totals == {"majors": 0, "minors": 0, "f_evals": 0,
                                 "g_evals": 0, "c_evals": 0, "J_evals": 0,
                                 "wall_time_s": 0.0}

    def test_totals_are_sums(self):
        report = run_suite(["circle-proj", "linear-as-nl"])
        assert report.totals["majors"] == sum(e.majors for e in report.entries)
        assert report.totals["minors"] == sum(e.minors for e in report.entries)
        for key in EVAL_KINDS:
            assert report.totals[key] == sum(getattr(e, key) for e in report.entries)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_suite(["no-such-problem"])

    def test_determinism_modulo_wall_time(self):
        a = run_suite(["circle-proj", "two-circles"])
        b = run_suite(["circle-proj", "two-circles"])
        for ea, eb in zip(a.entries, b.entries):
            assert ea.status == eb.status
            assert ea.majors == eb.majors
            assert ea.minors == eb.minors
            for key in EVAL_KINDS:
                assert getattr(ea, key) == getattr(eb, key)
            assert ea.final_objective == eb.final_objective

    def test_feval_accounting_matches_model_counters(self):
        entry = catalog_get("circle-proj")
        p = entry.problem
        rep = solve(p)
        assert (rep.f_evals, rep.g_evals, rep.c_evals, rep.J_evals) == (
            p.n_feval, p.n_geval, p.n_ceval, p.n_jeval)


class TestEmitReport:
    def _one_entry_report(self):
        return run_suite(["linear-as-nl"])

    def test_csv_single_entry(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report(self._one_entry_report(), "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = next(csv.DictReader(lines))
        assert row["name"] == "linear-as-nl"
        assert row["status"] == "Optimal"
        assert abs(float(row["final_objective"]) - 2.0) <= 1e-5

    def test_csv_empty_report(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(SuiteReport(), "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_json_structure(self, tmp_path):
        path = tmp_path / "out.json"
        emit_report(self._one_entry_report(), "json", path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert len(payload["entries"]) == 1
        assert payload["entries"][0]["name"] == "linear-as-nl"
        assert "totals" in payload and "options" in payload
        assert payload["options"]["omega_star"] == 1e-6
        # linear-as-nl starts where g and J are zero and one: nothing to scale
        assert payload["entries"][0]["f_scale"] == 1.0
        assert payload["entries"][0]["row_scale"] == [1.0]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(SuiteReport(), "xml", tmp_path / "no.xml")


class TestCli:
    def test_list_names_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "circle-proj" in out and "infeas-affine" in out

    def test_solve_matching_classification_exits_zero(self, capsys):
        assert main(["solve", "circle-proj"]) == 0
        out = capsys.readouterr().out
        assert "Optimal" in out

    def test_solve_expected_infeasible_exits_zero(self, capsys):
        assert main(["solve", "infeas-affine"]) == 0
        assert "Infeasible" in capsys.readouterr().out

    def test_solve_unknown_name_exits_two(self, capsys):
        assert main(["solve", "no-such-problem"]) == 2
        assert "no-such-problem" in capsys.readouterr().err

    def test_invalid_options_exit_two(self, capsys):
        """Options OuterOptions rejects are reported like unknown names."""
        assert main(["solve", "circle-proj", "--omega-star", "0"]) == 2
        assert capsys.readouterr().err.startswith("slcl: target tolerances")
        assert main(["suite", "circle-proj", "--max-major", "-1"]) == 2
        assert capsys.readouterr().err.startswith("slcl: max_major")

    def test_infinite_targets_exit_two(self, capsys):
        """An infinite target would pass every residual and report Optimal."""
        assert main(["solve", "infeas-affine", "--eta-star", "inf"]) == 2
        assert capsys.readouterr().err.startswith("slcl: target tolerances")
        assert main(["solve", "circle-proj", "--omega-star", "inf"]) == 2
        assert capsys.readouterr().err.startswith("slcl: target tolerances")

    def test_trace_flag_streams_schedule_columns(self, capsys):
        assert main(["solve", "circle-proj", "--trace"]) == 0
        out = capsys.readouterr().out
        head = out.splitlines()[0].split()
        assert head == ["k", "acc", "rho", "sigma", "eta", "eta_target",
                        "omega", "||c||", "f_norm", "inner"]
        # circle-proj's start (0.5, 0.5) has g = (-3, -1) and J = (1, 1)
        assert "scaling: f_scale 0.25  row_scale [1]" in out.splitlines()

    def test_trace_of_a_linear_only_problem_has_its_major(self, capsys):
        """A problem with no nonlinear rows runs the same loop: its one
        subproblem is one schedule row, solved at omega_star."""
        assert main(["solve", "scaled-quads", "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["k", "acc"]
        row = lines[1].split()
        assert row[:2] == ["0", "S"] and float(row[6]) == 1e-6
        assert lines[2] == "scaling: f_scale 0.25  row_scale []"

    def test_suite_trace_prints_each_problem_s_schedule(self, capsys):
        """Each problem's schedule table comes before its result and
        residuals lines, and the totals end the run."""
        assert main(["suite", "circle-proj", "linear-as-nl", "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        heads = [i for i, line in enumerate(lines) if line.split()[:2] == ["k", "acc"]]
        assert len(heads) == 2
        for head, name in zip(heads, ("circle-proj", "linear-as-nl")):
            result = next(i for i, line in enumerate(lines) if line.startswith(name))
            assert head < result and lines[result + 1].startswith("residuals:")
        assert lines[-1].startswith("total:")

    def test_unwritable_report_path_exits_two(self, tmp_path, capsys):
        """A report path that cannot be written is one error line, not a
        traceback ending in exit 1, the code of a mismatched status."""
        path = tmp_path / "missing" / "x.json"
        assert main(["solve", "circle-proj", "--json", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("slcl: ") and "x.json" in err[0]

    def test_mode_flag(self, capsys):
        assert main(["solve", "linear-as-nl", "--mode", "bcl"]) == 0
        assert main(["solve", "linear-as-nl", "--mode", "canonical"]) == 0
        capsys.readouterr()

    def test_suite_with_reports(self, tmp_path, capsys):
        csv_path = tmp_path / "suite.csv"
        json_path = tmp_path / "suite.json"
        code = main(["suite", "circle-proj", "linear-as-nl",
                     "--csv", str(csv_path), "--json", str(json_path)])
        assert code == 0
        capsys.readouterr()
        assert len(csv_path.read_text().splitlines()) == 3
        payload = json.loads(json_path.read_text())
        assert [e["name"] for e in payload["entries"]] == [
            "circle-proj", "linear-as-nl"]

    def test_suite_without_names_exits_two(self, capsys):
        assert main(["suite"]) == 2
        assert "names" in capsys.readouterr().err

    def test_tolerance_flags_reach_the_solver(self, capsys):
        assert main(["solve", "circle-proj", "--omega-star", "1e-4",
                     "--eta-star", "1e-4"]) == 0
        capsys.readouterr()

    def test_options_round_trip_into_json(self, tmp_path, capsys):
        json_path = tmp_path / "opts.json"
        assert main(["suite", "linear-as-nl", "--mode", "bcl",
                     "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["options"]["mode"] == "bcl"
