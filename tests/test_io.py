"""Tests for CSV ingestion and report rendering."""

from __future__ import annotations

import csv
from io import StringIO

import numpy as np
import pytest

from paneljump.dgp import AccuracyTable, RateTable
from paneljump.errors import (
    DuplicateKey,
    EmptyUnit,
    IoFailure,
    MissingColumn,
    NonFiniteValue,
)
from paneljump.inference import (
    SkippedUnit,
    ThresholdSearchResult,
    UnitResult,
    UnitSearch,
)
from paneljump.io import (
    PanelSchema,
    read_panel_csv,
    read_threshold_csv,
    render_report,
    write_report,
)
from paneljump.inference import TestResult as Result


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestPanelSchema:
    def test_distinct_names_required(self):
        with pytest.raises(ValueError, match="distinct"):
            PanelSchema(unit_col="a", time_col="a")


class TestReadPanelCsv:
    def test_groups_and_sorts(self, tmp_path):
        """Row order in the file is irrelevant; output is sorted by unit
        and time."""
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\n"
                      "b,2,1.5,0.3\n"
                      "a,1,0.5,-0.2\n"
                      "a,2,0.7,0.1\n"
                      "b,1,-0.5,0.0\n")
        panel = read_panel_csv(path)
        assert [u.unit_id for u in panel.units] == ["a", "b"]
        np.testing.assert_array_equal(panel.units[0].y, [0.5, 0.7])
        np.testing.assert_array_equal(panel.units[0].x, [-0.2, 0.1])
        np.testing.assert_array_equal(panel.units[1].y, [-0.5, 1.5])

    def test_numeric_time_sorting(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,10,1.0,0.5\na,2,2.0,0.25\n")
        panel = read_panel_csv(path)
        np.testing.assert_array_equal(panel.units[0].y, [2.0, 1.0])

    def test_string_time_sorting(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,t10,1.0,0.5\na,t2,2.0,0.25\n")
        panel = read_panel_csv(path)
        np.testing.assert_array_equal(panel.units[0].y, [1.0, 2.0])

    def test_custom_schema(self, tmp_path):
        path = _write(tmp_path, "p.txt",
                      "id;date;ret;spread\nu;1;0.1;0.2\nu;2;0.3;0.4\n")
        schema = PanelSchema(unit_col="id", time_col="date", y_col="ret",
                             x_col="spread", delimiter=";")
        panel = read_panel_csv(path, schema)
        np.testing.assert_array_equal(panel.units[0].y, [0.1, 0.3])

    def test_extra_columns_and_blank_lines(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "note,unit,time,y,x\nhello,a,1,0.1,0.2\n\n"
                      ",a,2,0.3,0.4\n")
        panel = read_panel_csv(path)
        assert panel.units[0].y.shape == (2,)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "p.csv", "unit,time,y\na,1,0.1\n")
        with pytest.raises(MissingColumn, match="'x'"):
            read_panel_csv(path)

    def test_bad_value_reports_physical_row(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,1,0.1,0.2\na,2,oops,0.4\n")
        with pytest.raises(NonFiniteValue, match="row 3") as err:
            read_panel_csv(path)
        assert err.value.row == 3

    def test_rejects_inf(self, tmp_path):
        path = _write(tmp_path, "p.csv", "unit,time,y,x\na,1,inf,0.2\n")
        with pytest.raises(NonFiniteValue):
            read_panel_csv(path)

    def test_short_row(self, tmp_path):
        path = _write(tmp_path, "p.csv", "unit,time,y,x\na,1,0.1\n")
        with pytest.raises(NonFiniteValue, match="short row"):
            read_panel_csv(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,1,0.1,0.2\na,1,0.3,0.4\n")
        with pytest.raises(DuplicateKey, match="'a'"):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyUnit):
            read_panel_csv(_write(tmp_path, "p.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyUnit, match="no data rows"):
            read_panel_csv(_write(tmp_path, "p.csv", "unit,time,y,x\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            read_panel_csv(str(tmp_path / "absent.csv"))


class TestReadThresholdCsv:
    def test_with_header(self, tmp_path):
        path = _write(tmp_path, "c.csv", "unit,c\na,0.5\nb,-0.25\n")
        assert read_threshold_csv(path) == {"a": 0.5, "b": -0.25}

    def test_without_header(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\nb,-0.25\n")
        assert read_threshold_csv(path) == {"a": 0.5, "b": -0.25}

    def test_duplicate_unit(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\na,0.6\n")
        with pytest.raises(DuplicateKey, match="'a'"):
            read_threshold_csv(path)

    def test_bad_number_in_body(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\nb,oops\n")
        with pytest.raises(NonFiniteValue, match="row 2"):
            read_threshold_csv(path)

    def test_too_few_columns(self, tmp_path):
        with pytest.raises(NonFiniteValue, match="2 columns"):
            read_threshold_csv(_write(tmp_path, "c.csv", "a\n"))

    def test_empty(self, tmp_path):
        with pytest.raises(EmptyUnit):
            read_threshold_csv(_write(tmp_path, "c.csv", ""))


def _existence_result():
    units = [
        UnitResult(unit_id="a", threshold=0.0, bandwidth=0.25, gamma_hat=1.5,
                   v_hat=2.0, std_error=0.5, t_stat=3.0, n_obs=64, eff_obs=32),
        UnitResult(unit_id="b", threshold=0.0, bandwidth=0.25, gamma_hat=-0.5,
                   v_hat=2.0, std_error=0.5, t_stat=-1.0, n_obs=64, eff_obs=30),
    ]
    return Result(
        kind="existence", sidedness="two_sided", statistic=3.0,
        critical_values={0.05: 2.25}, reject={0.05: True}, n_effective=2,
        per_unit=units,
        skipped=[SkippedUnit("z", "too few observations")],
    )


def _search_result():
    unit = UnitSearch(
        unit_id="a", bandwidth=0.25, n_obs=64, c_hat=-0.2, best_index=0,
        best_stat=2.5, stats=np.array([2.5, 1.0]), gammas=np.array([1.2, 0.4]),
        v_hats=np.array([2.0, 2.0]), eff_obs=np.array([30, 28]),
    )
    return ThresholdSearchResult(
        grid=np.array([-0.2, 0.2]), sidedness="two_sided", statistic=2.5,
        critical_values={0.05: 2.8}, reject={0.05: False}, n_effective=1,
        n_comparisons=2, truncation=np.inf, spacing_warning=True,
        per_unit=[unit], skipped=[],
    )


class TestRenderReport:
    def test_existence_csv_golden(self):
        expected = (
            "unit,threshold,gamma_hat,std_error,t_stat,obs,eff_obs,bandwidth\n"
            "a,0,1.5,0.5,3,64,32,0.25\n"
            "b,0,-0.5,0.5,-1,64,30,0.25\n"
            "# test,existence\n"
            "# sidedness,two_sided\n"
            "# statistic,3\n"
            "# critical_value,0.05,2.25\n"
            "# reject,0.05,True\n"
            "# n_effective,2\n"
            "# skipped,z,too few observations\n"
        )
        assert render_report(_existence_result(), "csv") == expected

    def test_tsv_uses_tabs(self):
        text = render_report(_existence_result(), "tsv")
        assert text.splitlines()[0] == \
            "unit\tthreshold\tgamma_hat\tstd_error\tt_stat\tobs\teff_obs\tbandwidth"

    def test_markdown_layout(self):
        lines = render_report(_existence_result(), "markdown").splitlines()
        assert lines[0].startswith("| unit | threshold |")
        assert set(lines[1]) <= {"|", "-", " "}
        assert lines[2] == "| a | 0.0000 | 1.5000 | 0.5000 | 3.0000 | 64 | 32 | 0.2500 |"
        assert "test: existence" in lines
        assert "reject: 0.05: True" in lines

    def test_homogeneity_adds_centered_column(self):
        r = _existence_result()
        r.kind = "homogeneity"
        r.center = "median"
        r.center_value = 0.5
        for u in r.per_unit:
            u.centered = u.gamma_hat - 0.5
        text = render_report(r, "csv")
        assert text.splitlines()[0].split(",")[3] == "centered"
        assert "# center,median" in text
        assert "# center_value,0.5" in text

    def test_search_report(self):
        text = render_report(_search_result(), "csv")
        lines = text.splitlines()
        assert lines[1].startswith("a,-0.2,1.2,0.5,2.5,64,30,0.25")
        assert "# grid,-0.2 0.2" in lines
        assert "# truncation,inf" in lines
        assert any(line.startswith("# warning,grid spacing") for line in lines)

    def test_rate_table(self):
        tab = RateTable(dgp_id=1, n_units=4, t_obs=80, test="existence",
                        reps=6, failed=0, rates={0.05: 0.5},
                        std_errors={0.05: 0.2})
        assert render_report(tab, "csv") == (
            "dgp,n_units,t_obs,test,alpha,rate,std_error,reps,failed\n"
            "1,4,80,existence,0.05,0.5,0.2,6,0\n"
        )

    def test_accuracy_table(self):
        tab = AccuracyTable(dgp_id=2, n_units=10, t_obs=800, reps=200,
                            failed=0, mean_abs_error=0.004, max_abs_error=0.08)
        text = render_report(tab, "csv")
        assert text.splitlines()[1] == "2,10,800,0.004,0.08,200,0"

    @pytest.mark.parametrize("fmt, delim", [("csv", ","), ("tsv", "\t")])
    def test_cells_holding_the_delimiter_round_trip(self, fmt, delim):
        r = _existence_result()
        r.per_unit[0].unit_id = f"a{delim}b"
        reason = f"need at least 20 observations{delim} got 8"
        r.skipped = [SkippedUnit(f"z{delim}y", reason)]
        rows = list(csv.reader(StringIO(render_report(r, fmt)), delimiter=delim))
        assert [len(row) for row in rows[:3]] == [8, 8, 8]
        assert rows[1][0] == f"a{delim}b"
        assert rows[-1] == ["# skipped", f"z{delim}y", reason]

    def test_delimited_values_keep_precision(self):
        r = _existence_result()
        r.per_unit[0].gamma_hat = 1.0 / 3.0
        text = render_report(r, "csv")
        cell = text.splitlines()[1].split(",")[2]
        assert float(cell) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_deterministic(self):
        a = render_report(_search_result(), "markdown")
        b = render_report(_search_result(), "markdown")
        assert a == b

    def test_unknown_object(self):
        with pytest.raises(TypeError, match="render"):
            render_report(object())

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_report(_existence_result(), "yaml")


class TestWriteReport:
    def test_file_matches_return_value(self, tmp_path):
        path = str(tmp_path / "out.csv")
        text = write_report(_existence_result(), "csv", path)
        assert (tmp_path / "out.csv").read_text() == text

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write"):
            write_report(_existence_result(), "csv",
                         str(tmp_path / "no" / "such" / "dir.csv"))

    def test_render_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            write_report(object(), "csv", str(path))
        assert not path.exists()
