"""End-to-end tests for the command line interface."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import paneljump
import paneljump.cli
import paneljump.dgp
import paneljump.errors
import paneljump.inference
from paneljump.cli import cli_main
from paneljump.errors import ConfigError, PanelJumpError
from paneljump.inference import simulate_max_gaussian
from paneljump.inference import test_existence as run_existence

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_PANEL = Path(__file__).parent / "data" / "golden_panel.csv"


def _run_python(*args):
    """Run a fresh interpreter that imports the package from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _scaled_golden_panel(tmp_path, scale):
    """The golden panel with every covariate multiplied by ``scale``."""
    header, *rows = GOLDEN_PANEL.read_text().splitlines()
    lines = [header]
    for row in rows:
        unit, time, y, x = row.split(",")
        lines.append(f"{unit},{time},{y},{float(x) * scale!r}")
    path = tmp_path / "scaled.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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

    def test_zero_cv_reps_is_usage_error(self, capsys):
        assert cli_main(["critical-value", "--n", "10", "--cv-reps", "0"]) == 2
        assert "cv_reps" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["jump-test"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fixed_bandwidth(self, tmp_path, capsys, value):
        # Rejected before the panel is read: the file does not exist.
        code = cli_main(["jump-test", "--data", str(tmp_path / "absent.csv"),
                         "--bandwidth", f"fixed:{value}"])
        assert code == 2
        assert "positive value" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_jump_scale(self, capsys, scale):
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80", "--reps", "1",
                         "--bandwidth", "fixed:0.3", "--fraction", "0.5", "--scale", scale])
        assert code == 2
        assert "scale" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["threshold-search", "simulate"])
    def test_threshold_file_rejected_before_reading(self, tmp_path, capsys, command):
        # Neither the panel nor the threshold file exists: nothing is read.
        args = (["--data", str(tmp_path / "panel.csv")] if command == "threshold-search"
                else ["--dgp", "1", "--n", "3", "--t", "80", "--reps", "1"])
        code = cli_main([command, *args, "--threshold", f"file:{tmp_path / 'absent.csv'}"])
        assert code == 2
        assert "takes --threshold" in capsys.readouterr().err

    def test_grid_rejected_by_simulate_homogeneity(self, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80",
                         "--reps", "1", "--test", "homogeneity",
                         "--threshold", "grid:-0.3,0.3"])
        assert code == 2
        assert "test='homogeneity'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,threshold", [
        ("jump-test", "nan"), ("jump-test", "-inf"), ("homogeneity-test", "inf"),
        ("threshold-search", "grid:nan"), ("threshold-search", "grid:-0.2,inf"),
        ("simulate", "nan"), ("simulate", "grid:-0.2,inf"),
    ])
    def test_non_finite_threshold_rejected(self, tmp_path, capsys, command, threshold):
        # Rejected before the panel is read: the file does not exist.
        args = (["--data", str(tmp_path / "absent.csv")] if command != "simulate"
                else ["--dgp", "1", "--n", "3", "--t", "80", "--reps", "1"])
        code = cli_main([command, *args, f"--threshold={threshold}"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_one_sided_homogeneity_simulation_rejected(self, monkeypatch, capsys):
        def no_reps(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(paneljump.dgp, "_run_reps", no_reps)
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80", "--reps", "2",
                         "--test", "homogeneity", "--sided", "upper"])
        assert code == 2
        assert "sidedness" in capsys.readouterr().err

    def test_one_unit_homogeneity_simulation_rejected(self, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "1", "--t", "80", "--reps", "2",
                         "--test", "homogeneity", "--bandwidth", "fixed:0.3"])
        assert code == 2
        assert "at least 2 units" in capsys.readouterr().err

    def test_bad_schema_spec(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data, "--schema", "unit,time"])
        assert code == 2

    def test_multi_character_delimiter(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        code = cli_main(["jump-test", "--data", data, "--delimiter", ";;"])
        assert code == 2
        assert "single character" in capsys.readouterr().err

    def test_multi_character_delimiter_with_threshold_file(self, tmp_path, capsys):
        data = _panel_csv(tmp_path)
        cfile = tmp_path / "c.csv"
        cfile.write_text("unit;c\nu0;0.0\nu1;0.0\n")
        code = cli_main(["jump-test", "--data", data, "--delimiter", ";;",
                         "--threshold", f"file:{cfile}"])
        assert code == 2
        assert "single character" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["nan", "-1", "0"])
    def test_invalid_truncation(self, tmp_path, capsys, level):
        # Rejected before the panel is read: the file does not exist.
        code = cli_main(["threshold-search", "--data", str(tmp_path / "absent.csv"),
                         "--truncation", level, "--threshold", "grid:-0.5,0.0,0.5"])
        assert code == 2
        assert "truncation must be positive" in capsys.readouterr().err

    def test_bad_workers_env_is_usage_error_on_simulate(self, monkeypatch, capsys):
        monkeypatch.setenv("PANELJUMP_THREADS", "two")
        code = cli_main(["simulate", "--dgp", "1", "--n", "3", "--t", "80",
                         "--reps", "1", "--bandwidth", "fixed:0.3"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, env", [(["--workers", "0"], "1"), (["--workers", "-1"], "1"),
                                            ([], "0")], ids=["zero", "negative", "env-zero"])
    def test_nonpositive_workers_is_usage_error(self, monkeypatch, capsys, flags, env):
        monkeypatch.setenv("PANELJUMP_THREADS", env)
        code = cli_main(["simulate", "--dgp", "1", "--n", "2", "--t", "30", "--reps", "1",
                         "--bandwidth", "fixed:0.3", *flags])
        assert code == 2
        assert "workers must be positive" in capsys.readouterr().err

    def test_truncation_below_every_residual(self, capsys):
        code = cli_main(["threshold-search", "--data", str(GOLDEN_PANEL),
                         "--threshold", "grid:0", "--truncation", "1e-320"])
        assert code == 2
        assert "truncation 1e-320 is at or below every squared pilot residual" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["critical-value", "--n", "5", "--method", "simulated"],
        ["jump-test", "--data", str(GOLDEN_PANEL), "--method", "simulated"],
        ["simulate", "--dgp", "1", "--n", "3", "--t", "50", "--reps", "2"],
    ], ids=["critical-value", "jump-test", "simulate"])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        assert cli_main([*argv, "--seed", "-1"]) == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err

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

    def test_undecodable_panel_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"unit,time,y,x\na,1,0.5,0.2\na,2,0.\xff5,0.3\n")
        assert cli_main(["jump-test", "--data", str(path)]) == 3
        assert "bad.csv line 3: cannot decode" in capsys.readouterr().err

    def test_undecodable_threshold_file(self, tmp_path, capsys):
        cfile = tmp_path / "c.csv"
        cfile.write_bytes(b"unit,c\nu0,0.0\nu1,0.\xff0\n")
        code = cli_main(["jump-test", "--data", _panel_csv(tmp_path),
                         "--threshold", f"file:{cfile}"])
        assert code == 3
        assert "c.csv line 3: cannot decode" in capsys.readouterr().err

    def test_oversized_cell(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("unit,time,y,x\na,1," + "1" * 200_000 + ",0.2\n")
        assert cli_main(["jump-test", "--data", str(path)]) == 3
        assert "big.csv line 2: field larger" in capsys.readouterr().err


class TestNumericalFailures:
    def test_no_support_on_one_side(self, tmp_path, capsys):
        """All covariates above the threshold leaves nothing to fit."""
        data = _panel_csv(tmp_path, n_units=1, x_shift=2.0)
        code = cli_main(["jump-test", "--data", data,
                         "--bandwidth", "fixed:0.4", "--threshold", "0.0"])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_every_replication_failing(self, capsys):
        code = cli_main(["simulate", "--dgp", "1", "--n", "2", "--t", "2", "--reps", "1"])
        assert code == 4
        captured = capsys.readouterr()
        assert "every replication failed numerically (1 of 1)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_extreme_covariate_scale(self, tmp_path, capsys, scale):
        code = cli_main(["jump-test", "--data", _scaled_golden_panel(tmp_path, scale)])
        assert code == 4
        assert "bandwidth selection failed: density x curvature^2" in capsys.readouterr().err

    def test_covariates_collapsing_at_a_far_threshold(self):
        """At c = -1e30 every centred covariate rounds to 1e30, where the
        quartic fit's widening by 1 leaves a zero span; that is a skip
        reason, not a LAPACK error."""
        proc = _run_python("-m", "paneljump.cli", "jump-test", "--data", str(GOLDEN_PANEL),
                           "--threshold=-1e30")
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("numerical failure: no unit admits a jump fit (u0: "
                                      "bandwidth selection failed: one side's centred covariates span [1e+30, 1e+30]")
        assert "Traceback" not in proc.stderr and "DLASCL" not in proc.stdout + proc.stderr


class TestInternalFaults:
    def test_plain_value_error_propagates(self, tmp_path, monkeypatch):
        """Only the three error families map to exit codes; any other
        exception is a fault in the program and is not caught."""
        def fault(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(paneljump.cli, "test_existence", fault)
        with pytest.raises(ValueError, match="internal fault"):
            cli_main(["jump-test", "--data", _panel_csv(tmp_path), "--bandwidth", "fixed:0.4"])


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

    def test_calls_the_bound_library_function(self, tmp_path, monkeypatch, capsys):
        """The command looks up ``paneljump.cli.test_existence`` on each run,
        so a wrapper bound there after import is what it calls."""
        calls = []

        def spy(*args):
            calls.append(args)
            return run_existence(*args)

        monkeypatch.setattr(paneljump.cli, "test_existence", spy)
        data = _panel_csv(tmp_path)
        assert cli_main(["jump-test", "--data", data, "--bandwidth", "fixed:0.4"]) == 0
        assert len(calls) == 1
        assert "# test,existence" in capsys.readouterr().out

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

    def test_threshold_file_uses_the_delimiter(self, tmp_path, capsys):
        data = _panel_csv(tmp_path, delimiter=";", header="unit;time;y;x")
        cfile = tmp_path / "c.csv"
        cfile.write_text("unit;c\nu0;0.0\nu1;0.0\n")
        code = cli_main(["jump-test", "--data", data, "--delimiter", ";",
                         "--bandwidth", "fixed:0.4", "--threshold", f"file:{cfile}"])
        assert code == 0
        assert "# reject,0.01,True" in capsys.readouterr().out

    def test_plugin_bandwidth_end_to_end(self, tmp_path, capsys):
        data = _panel_csv(tmp_path, t_obs=300)
        code = cli_main(["jump-test", "--data", data])
        assert code == 0
        assert "# reject,0.01,True" in capsys.readouterr().out

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\n\n", b"\xef\xbb\xbf\r\n"])
    def test_byte_order_mark_and_leading_blank_lines(self, tmp_path, prefix):
        # Excel writes a byte-order mark before the header of a UTF-8 csv.
        data = tmp_path / "panel.csv"
        data.write_bytes(prefix + GOLDEN_PANEL.read_bytes())
        out = tmp_path / "report.csv"
        assert cli_main(["jump-test", "--data", str(data), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_PANEL.parent / "golden_jump-test.csv").read_bytes()

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


    def test_simulated_levels_share_one_sample(self, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return simulate_max_gaussian(*args, **kwargs)

        monkeypatch.setattr(paneljump.inference, "simulate_max_gaussian", spy)
        code = cli_main(["threshold-search", "--data", str(GOLDEN_PANEL),
                         "--threshold", "grid:-0.2,0,0.2", "--method", "simulated",
                         "--cv-reps", "2000", "--alpha", "0.1", "--alpha", "0.05",
                         "--alpha", "0.01"])
        assert code == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines()
                    if line.startswith("# critical_value,")]) == 3


class TestNoDrawWithoutCorrelation:
    """Known-threshold commands compare independent statistics, so
    ``--method simulated`` gives the closed form and draws nothing, and
    ``--cv-reps`` changes nothing.  ``simulate`` keeps its ``--seed``, the
    Monte Carlo base seed."""

    @pytest.mark.parametrize("argv", [
        ["jump-test", "--data", str(GOLDEN_PANEL)],
        ["homogeneity-test", "--data", str(GOLDEN_PANEL)],
        ["critical-value", "--n", "13", "--sided", "upper"],
        ["simulate", "--dgp", "1", "--n", "3", "--t", "80", "--reps", "2",
         "--bandwidth", "fixed:0.3", "--seed", "7"],
    ], ids=["jump-test", "homogeneity-test", "critical-value", "simulate"])
    def test_simulated_method_is_closed_form(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("PANELJUMP_THREADS", "1")  # simulate runs in this process
        assert cli_main([*argv, "--method", "analytic"]) == 0
        analytic = capsys.readouterr().out

        def fail(*args, **kwargs):
            raise AssertionError("simulate_max_gaussian was called")

        monkeypatch.setattr(paneljump.inference, "simulate_max_gaussian", fail)
        assert cli_main([*argv, "--method", "simulated", "--cv-reps", "2000"]) == 0
        assert capsys.readouterr().out == analytic


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


class TestThresholdSearchCommand:
    def test_spacing_warning_only_in_report(self, tmp_path):
        out = tmp_path / "report.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["threshold-search", "--data", str(GOLDEN_PANEL),
                             "--threshold", "grid:-0.2,-0.1,0,0.1,0.2",
                             "--out", str(out)])
        assert code == 0
        assert not caught
        assert any(line.startswith("# warning") for line in out.read_text().splitlines())


class TestModuleEntry:
    def test_python_m_runs_the_cli(self):
        proc = _run_python("-m", "paneljump.cli", "critical-value", "--n", "3")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 3

    def test_importing_cli_loads_every_layer(self):
        # Traced benchmark runs wrap these modules after `import paneljump.cli`.
        layers = ["cli", "io", "bandwidth", "kernels", "estimator", "variance",
                  "inference", "dgp"]
        code = ("import sys, paneljump.cli; "
                f"print(*[m for m in {layers!r} if 'paneljump.' + m not in sys.modules])")
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

    def test_importing_cli_skips_slow_scipy_modules(self, tmp_path):
        # scipy and the process pool each add a large share of the CLI's
        # start-up time. No command loads scipy, the simulator's MA filter
        # included, and only a run with workers loads the pool.
        panel = ["--data", str(GOLDEN_PANEL)]
        runs = [["jump-test", *panel, "--out", str(tmp_path / "jump.csv")],
                ["homogeneity-test", *panel, "--out", str(tmp_path / "homogeneity.csv")],
                ["threshold-search", *panel, "--threshold", "grid:-0.1,0,0.1",
                 "--method", "analytic", "--out", str(tmp_path / "search.csv")],
                ["critical-value", "--n", "29"],
                ["simulate", "--dgp", "2", "--n", "3", "--t", "80", "--reps", "1",
                 "--workers", "1", "--out", str(tmp_path / "simulate.csv")]]
        code = ("import sys; from paneljump.cli import cli_main; "
                f"codes = [cli_main(args) for args in {runs!r}]; "
                "print(codes, *[m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'multiprocessing')])")
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"

    def test_no_source_file_imports_scipy(self):
        # numpy is the only runtime dependency; scipy is a test-time reference.
        files = sorted((SRC / "paneljump").rglob("*.py"))
        assert files
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(name.split(".")[0] != "scipy" for name in names), \
                    f"{path.name}:{node.lineno} imports scipy"

    def test_bad_settings_raise_config_error(self):
        # One exception for an invalid argument or setting: no bare
        # ValueError is raised, and the names it replaced stay gone.
        assert issubclass(ConfigError, PanelJumpError) and issubclass(ConfigError, ValueError)
        for info in pkgutil.iter_modules(paneljump.__path__):
            module = importlib.import_module(f"paneljump.{info.name}")
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                where = f"{info.name}.py:{getattr(node, 'lineno', '?')}"
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert getattr(exc, "id", None) != "ValueError", f"{where} raises ValueError"
                for field in ("id", "name", "attr"):
                    assert getattr(node, field, None) not in (
                        "UsageError", "InvalidAlpha", "SingleUnit", "ZeroVariance",
                        "AllUnitsSkipped", "NotPositiveSemidefinite", "MissingColumn",
                        "DuplicateKey", "EmptyUnit", "IoFailure", "EmptyWindow",
                        "DegenerateEverywhere", "TooFewObservations",
                    ), f"{where} names {getattr(node, field)}"

    def test_each_leaf_error_is_caught_or_formats_its_message(self):
        # The rule in the errors docstring: below the three families, a
        # class exists only if src/ tests for it by type (an except clause
        # or an isinstance call) or its constructor formats the message.
        caught = set()
        for info in pkgutil.iter_modules(paneljump.__path__):
            module = importlib.import_module(f"paneljump.{info.name}")
            for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    caught |= {getattr(t, "id", getattr(t, "attr", None)) for t in types}
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    caught.add(getattr(node.args[1], "id", None))
        families = {"PanelJumpError", "ConfigError", "DataError", "NumericalError"}
        leaves = [name for name in paneljump.errors.__all__ if name not in families]
        assert leaves
        for name in leaves:
            assert name in caught or "__init__" in vars(getattr(paneljump.errors, name)), name

    def test_all_names_are_defined_in_their_module(self):
        # Traced benchmark runs call getattr on every __all__ entry, so a
        # stale entry would break them.
        for info in pkgutil.iter_modules(paneljump.__path__):
            module = importlib.import_module(f"paneljump.{info.name}")
            tree = ast.parse(Path(module.__file__).read_text())
            defined = {node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)}
            for name in getattr(module, "__all__", []):
                assert name in defined, f"{info.name}.__all__ lists {name!r}"
                assert hasattr(module, name)
