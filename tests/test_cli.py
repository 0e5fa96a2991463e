"""End-to-end tests for the command line interface."""

from __future__ import annotations

import numpy as np
import pytest

from paneljump.cli import cli_main


def _panel_csv(tmp_path, name="panel.csv", n_units=2, t_obs=120, jump=3.0,
               seed=0, x_shift=0.0, delimiter=",", header="unit,time,y,x"):
    """Write a noisy panel with a jump at x = 0 and return its path."""
    rng = np.random.default_rng(seed)
    lines = [header]
    cols = header.split(delimiter if delimiter in header else ",")
    assert len(cols) == 4
    for j in range(n_units):
        x = rng.uniform(-1.0, 1.0, size=t_obs) + x_shift
        y = jump * (x >= 0.0) + 0.3 * rng.standard_normal(t_obs)
        for t in range(t_obs):
            lines.append(delimiter.join(
                [f"u{j}", str(t), format(y[t], ".17g"), format(x[t], ".17g")]
            ))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCriticalValueCommand:
    def test_one_sided_value(self, capsys):
        code = cli_main(["critical-value", "--n", "13", "--alpha", "0.05",
                         "--sided", "upper"])
        assert code == 0
        assert capsys.readouterr().out == "2.657\n"

    def test_default_alphas_print_three_lines(self, capsys):
        assert cli_main(["critical-value", "--n", "29", "--sided", "upper"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["2.685", "2.917", "3.392"]

    def test_invalid_alpha_is_usage_error(self, capsys):
        assert cli_main(["critical-value", "--n", "10", "--alpha", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["jump-test"]) == 2

    def test_bad_bandwidth(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data, "--bandwidth", "fixed:zero"])
        assert code == 2
        assert "bandwidth" in capsys.readouterr().err

    def test_grid_rejected_by_jump_test(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data,
                         "--threshold", "grid:-0.2,0.2"])
        assert code == 2

    def test_scalar_rejected_by_search(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["threshold-search", "--data", data,
                         "--threshold", "0.0"])
        assert code == 2

    def test_bad_schema_spec(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data, "--schema", "unit,time"])
        assert code == 2

    def test_bad_workers_env_is_usage_error_on_simulate(self, monkeypatch, capsys):
        monkeypatch.setenv("PANELJUMP_THREADS", "two")
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80",
                         "--reps", "1", "--bandwidth", "fixed:0.3"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_bad_workers_env_ignored_elsewhere(self, monkeypatch, capsys):
        monkeypatch.setenv("PANELJUMP_THREADS", "two")
        assert cli_main(["critical-value", "--n", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


class TestDataErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = cli_main(["jump-test", "--data", str(tmp_path / "nope.csv")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_malformed_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,y,x\na,1,oops,0.2\n")
        assert cli_main(["jump-test", "--data", str(path)]) == 3


class TestNumericalFailures:
    def test_no_support_on_one_side(self, tmp_path, capsys):
        """All covariates above the threshold leaves nothing to fit."""
        data = _panel_csv(tmp_path, n_units=1, x_shift=2.0)
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4", "--threshold", "0.0"])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err


class TestJumpTestCommand:
    def test_detects_clean_jump(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("unit,threshold,gamma_hat")
        assert "# test,existence" in out
        assert "# reject,0.01,True" in out

    def test_out_file_silences_stdout(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        out_path = tmp_path / "report.csv"
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4", "--out", str(out_path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "# test,existence" in out_path.read_text()

    def test_markdown_format(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4", "--format", "markdown"])
        assert code == 0
        assert capsys.readouterr().out.startswith("| unit |")

    def test_threshold_file(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        cfile = tmp_path / "c.csv"
        cfile.write_text("u0,0.0\nu1,0.0\n")
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4",
                         "--threshold", f"file:{cfile}"])
        assert code == 0

    def test_custom_schema_and_delimiter(self, tmp_path, capsys):
        data = _panel_csv(tmp_path, delimiter=";", header="id;tt;ret;run")
        code = cli_main(["jump-test", "--data", data, "--delimiter", ";",
                         "--schema", "id,tt,ret,run",
                         "--bandwidth", "fixed:0.4"])
        assert code == 0

    def test_plugin_bandwidth_end_to_end(self, tmp_path, capsys):
        data = _panel_csv(tmp_path, t_obs=300)
        code = cli_main(["jump-test", "--data", data])
        assert code == 0
        assert "# reject,0.01,True" in capsys.readouterr().out

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        paths = [str(tmp_path / f"r{i}.csv") for i in (1, 2)]
        for p in paths:
            code = cli_main(["jump-test", "--data", data,
                             "--bandwidth", "fixed:0.4",
                             "--method", "simulated", "--cv-reps", "2000",
                             "--seed", "7", "--out", p])
            assert code == 0
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b


class TestHomogeneityCommand:
    def test_runs_with_median_center(self, tmp_path, capsys):
        data = _panel_csv(tmp_path, n_units=3)
        code = cli_main(["homogeneity-test", "--data", data,
                         "--bandwidth", "fixed:0.4", "--center", "median"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# test,homogeneity" in out
        assert out.splitlines()[0].split(",")[3] == "centered"
        assert "# center,median" in out


class TestSearchCommand:
    def test_locates_threshold(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["threshold-search", "--data", data,
                         "--bandwidth", "fixed:0.2",
                         "--threshold", "grid:-0.5,0.0,0.5"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.splitlines()[1:3]]
        assert all(row[1] == "0" for row in rows)  # c_hat column
        assert "# test,threshold_search" in out

    def test_truncation_flag_accepted(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["threshold-search", "--data", data,
                         "--bandwidth", "fixed:0.2", "--truncation", "inf",
                         "--threshold", "grid:-0.5,0.0,0.5"])
        assert code == 0
        assert "# truncation,inf" in capsys.readouterr().out


class TestSimulateCommand:
    def test_size_table(self, tmp_path, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80",
                         "--reps", "2", "--bandwidth", "fixed:0.3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("dgp,n_units,t_obs,test,alpha")
        assert len(lines) == 4  # three alphas

    def test_search_table(self, tmp_path, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80",
                         "--reps", "2", "--bandwidth", "fixed:0.3",
                         "--threshold", "grid:-0.3,0.3"])
        assert code == 0
        assert ",search," in capsys.readouterr().out

    def test_power_run_rejects(self, tmp_path, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "4", "--t", "200",
                         "--reps", "2", "--bandwidth", "fixed:0.3",
                         "--fraction", "1.0", "--scale", "20.0",
                         "--alpha", "0.05"])
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[5] == "1"  # rate column
