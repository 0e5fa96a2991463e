"""Tests for CSV ingestion and report rendering."""

from __future__ import annotations

import csv
import re
import tempfile
import tracemalloc
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paneljump.io
from paneljump.dgp import AccuracyTable, RateTable
from paneljump.errors import ConfigError, DataError, NonFiniteValue
from paneljump.inference import (
    SkippedUnit,
    ThresholdSearchResult,
    UnitResult,
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

    @pytest.mark.parametrize("delimiter", ["", ";;", 1, None, b","])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ConfigError, match="^delimiter must be a single character"):
            PanelSchema(delimiter=delimiter)


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
        with pytest.raises(DataError, match="column 'x' not found"):
            read_panel_csv(path)

    def test_bad_value_reports_physical_row(self, tmp_path):
        # The second file's quoted unit id spans lines 2 and 3.
        for text, row in (("unit,time,y,x\na,1,0.1,0.2\na,2,oops,0.4\n", 3),
                          ('unit,time,y,x\n"a\nb",1,2,3\nu,2,nan,1\n', 4)):
            path = _write(tmp_path, "p.csv", text)
            with pytest.raises(NonFiniteValue, match=f"row {row}") as err:
                read_panel_csv(path)
            assert err.value.row == row

    def test_rejects_inf(self, tmp_path):
        path = _write(tmp_path, "p.csv", "unit,time,y,x\na,1,inf,0.2\n")
        with pytest.raises(NonFiniteValue):
            read_panel_csv(path)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_rejects_non_finite_time(self, tmp_path, time):
        # Two nan times would otherwise pass the duplicate check unsorted.
        path = _write(tmp_path, "p.csv",
                      f"unit,time,y,x\na,1,0.1,0.2\na,{time},0.3,0.4\na,{time},0.5,0.6\n")
        with pytest.raises(NonFiniteValue, match=f"row 3 \\(time='{time}'\\)") as err:
            read_panel_csv(path)
        assert err.value.row == 3

    def test_short_row(self, tmp_path):
        path = _write(tmp_path, "p.csv", "unit,time,y,x\na,1,0.1\n")
        with pytest.raises(NonFiniteValue, match="short row"):
            read_panel_csv(path)

    def test_duplicate_key(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,1,0.1,0.2\na,1,0.3,0.4\n")
        with pytest.raises(DataError, match="unit 'a' has duplicate time '1'"):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="p.csv is empty"):
            read_panel_csv(_write(tmp_path, "p.csv", ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="has a header but no data rows"):
            read_panel_csv(_write(tmp_path, "p.csv", "unit,time,y,x\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_panel_csv(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, newline):
        # The bad byte lies past the text reader's first decoding block.
        lines = ["unit,time,y,x"] + [f"a,{t},0.1,0.2" for t in range(1, 2000)]
        path = tmp_path / "p.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode()
                         + b"b,1,0.\xff,0.2" + newline.encode())
        with pytest.raises(DataError, match="p.csv line 2001: cannot decode"):
            read_panel_csv(str(path))

    def test_oversized_cell_names_its_line(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "unit,time,y,x\na,1,0.1,0.2\na,2," + "1" * 200_000 + ",0.4\n")
        with pytest.raises(DataError, match="p.csv line 3: field larger than field limit"):
            read_panel_csv(path)

    @pytest.mark.parametrize("tail", ["", "\n"])  # the trailing blank line sends it to the scanner
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, tail):
        text = '"unit","time","y","x"\n"a",2,0.7,0.1\n"a",1,0.5,-0.2\n' + tail
        plain = read_panel_csv(_write(tmp_path, "plain.csv", text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert _units(read_panel_csv(str(path))) == _units(plain)
        path.write_bytes(b"\xef\xbb\xbf" + text.replace("0.5", "oops").encode())
        with pytest.raises(NonFiniteValue, match="row 3"):
            read_panel_csv(str(path))

    def test_header_is_the_first_non_blank_record(self, tmp_path):
        path = _write(tmp_path, "p.csv", "\n , \nunit,time,y,x\na,1,0.1,0.2\na,2,0.3,0.4\n")
        assert _units(read_panel_csv(path)) == [("a", [0.1, 0.3], [0.2, 0.4])]
        path = _write(tmp_path, "p.csv", "\n\nunit,time,y,x\na,1,0.1,0.2\na,2,oops,0.4\n")
        with pytest.raises(NonFiniteValue, match="row 5") as err:
            read_panel_csv(path)
        assert err.value.row == 5

    def test_only_blank_lines_is_empty(self, tmp_path):
        with pytest.raises(DataError, match="p.csv is empty"):
            read_panel_csv(_write(tmp_path, "p.csv", "\n \n,,\n"))


class TestReadThresholdCsv:
    def test_with_header(self, tmp_path):
        path = _write(tmp_path, "c.csv", "unit,c\na,0.5\nb,-0.25\n")
        assert read_threshold_csv(path) == {"a": 0.5, "b": -0.25}

    def test_without_header(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\nb,-0.25\n")
        assert read_threshold_csv(path) == {"a": 0.5, "b": -0.25}

    def test_duplicate_unit(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\na,0.6\n")
        with pytest.raises(DataError, match="unit 'a' listed twice"):
            read_threshold_csv(path)

    def test_bad_number_in_body(self, tmp_path):
        path = _write(tmp_path, "c.csv", "a,0.5\nb,oops\n")
        with pytest.raises(NonFiniteValue, match="row 2"):
            read_threshold_csv(path)

    def test_error_row_counts_blank_lines(self, tmp_path):
        # The second file's quoted unit id spans lines 2 and 3.
        for text, row in (("unit,c\n\nu1,abc\n", 3), ('unit,c\n"a\nb",1\nu1,abc\n', 4)):
            path = _write(tmp_path, "c.csv", text)
            with pytest.raises(NonFiniteValue, match=f"row {row}") as err:
                read_threshold_csv(path)
            assert err.value.row == row

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"unit,c\n\na,0.\xff5\n")
        with pytest.raises(DataError, match="c.csv line 3: cannot decode"):
            read_threshold_csv(str(path))

    def test_byte_order_mark_before_a_headerless_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbfu1,0.5\nu2,-0.25\n")
        assert read_threshold_csv(str(path)) == {"u1": 0.5, "u2": -0.25}

    @pytest.mark.parametrize("text, row", [("unit,c\na,0.5\nb,nan\n", 3), ("a,-inf\n", 1)])
    def test_non_finite_c(self, tmp_path, text, row):
        with pytest.raises(NonFiniteValue, match=f"row {row} \\(c='-?(nan|inf)'\\)$"):
            read_threshold_csv(_write(tmp_path, "c.csv", text))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError, match="c.csv has no data rows$"):
            read_threshold_csv(_write(tmp_path, "c.csv", "unit,c\n"))

    def test_too_few_columns(self, tmp_path):
        with pytest.raises(NonFiniteValue, match="2 columns"):
            read_threshold_csv(_write(tmp_path, "c.csv", "a\n"))

    def test_empty(self, tmp_path):
        with pytest.raises(DataError, match="c.csv is empty"):
            read_threshold_csv(_write(tmp_path, "c.csv", ""))

    @pytest.mark.parametrize("delimiter", ["", ",,", 1, None])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = _write(tmp_path, "c.csv", "a,0.5\n")
        with pytest.raises(ConfigError, match="^delimiter must be a single character"):
            read_threshold_csv(path, delimiter)


def _units(panel):
    return [(u.unit_id, u.y.tolist(), u.x.tolist()) for u in panel]


def _outcome(path, schema=None, scanner_only=False):
    """The panel as (id, y bytes, x bytes) per unit, or the error's type and
    message; ``scanner_only`` reads every file with the row scanner."""
    with pytest.MonkeyPatch.context() as mp:
        if scanner_only:
            mp.setattr(paneljump.io, "_columnar", lambda *args: None)
        try:
            panel = read_panel_csv(str(path), schema)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)
    return [(u.unit_id, u.y.tobytes(), u.x.tobytes()) for u in panel]


def _columnar_outcome(path, schema=None, chunk=paneljump.io._CHUNK):
    """``_outcome`` with the file parsed in pieces of about ``chunk`` bytes,
    and whether the columnar read was taken."""
    columnar, taken = paneljump.io._columnar, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paneljump.io, "_CHUNK", chunk)
        mp.setattr(paneljump.io, "_columnar", lambda *args: taken.append(columnar(*args)) or taken[-1])
        outcome = _outcome(path, schema)
    return outcome, any(panel is not None for panel in taken)


_IDS = ["a", "b", "u1", "u10", "U1", 'q"t', "d{delim}e", "é", "日本", "z\x00", "\x00", "",
        "a b", "#c", "l\nm", "cr\rlf"]
_BAD = ["nan", "inf", "-inf", "1_0", "", " ", "abc", "1e999", "\uff11", "0x1", '"', "1\n"]
_MUTATIONS = ["blank", "short", "long", "duplicate", "bad_number", "bad_time", "padded_id",
              "whitespace_row"]


@st.composite
def _panel_files(draw):
    """A long-format file as text, and its schema."""
    delim = draw(st.sampled_from([",", ";", "\t", "|", " "]))
    names = draw(st.permutations(["unit", "time", "y", "x"]))
    if draw(st.integers(0, 4)) == 0:  # an extra column
        names.insert(draw(st.integers(0, 4)), "note")
    ids = [i.format(delim=delim) for i in
           draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=4, unique=True))]
    string_times = draw(st.integers(0, 5)) == 0
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    records = []
    for unit in ids:
        for t in draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True)):
            time = f"t{t}" if string_times else draw(st.sampled_from(
                [str(t), f"{t}.0", f"{t}e0", f" {t} ", "-0.0" if t == 0 else str(t)]))
            cells = {"unit": unit, "time": time, "y": draw(number), "x": draw(number),
                     "note": draw(st.sampled_from(["", "n", 'say "hi"', f"p{delim}q"]))}
            records.append([cells[name] for name in names])
    records = draw(st.permutations(records))
    col = names.index
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)):
        i = draw(st.integers(0, len(records) - 1))
        if records[i] is None or len(records[i]) != len(names):  # a row inserted before
            continue
        cells = list(records[i])
        if kind == "bad_number":
            cells[col(draw(st.sampled_from(["y", "x"])))] = draw(st.sampled_from(_BAD))
        elif kind == "bad_time":
            cells[col("time")] = draw(st.sampled_from(_BAD))
        elif kind == "padded_id":
            cells[col("unit")] = draw(st.sampled_from([" ", "\t"])) + cells[col("unit")]
        else:
            cells[col("y")] = draw(number)
            records.insert(i, {"blank": None, "short": cells[:-1], "long": [*cells, "extra"],
                               "duplicate": cells, "whitespace_row": [" "] * len(names)}[kind])
            continue
        records[i] = cells
    buf = StringIO()
    writer = csv.writer(buf, delimiter=delim, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(names)
    for cells in records:
        if cells is None:
            buf.write("\n")
        else:
            writer.writerow(cells)
    schema = PanelSchema(delimiter=delim)
    prefix = draw(st.sampled_from(["", "", "", "\ufeff", "\n"]))
    return prefix + buf.getvalue(), schema


@settings(max_examples=400, deadline=None)
@given(case=_panel_files())
def test_columnar_read_matches_scanner(case):
    """The columnar read gives the scanner's panel bit for bit, or its
    exception type and message, on files with shuffled rows, float-like and
    string times, quoted ids holding the delimiter, a quote, a newline or a
    carriage return, padded ids, non-ASCII and NUL ids, CRLF endings, a
    byte-order mark, extra columns and cells, short rows, blank lines,
    non-finite and malformed numbers, and duplicate (unit, time) pairs.  It
    does so at the default piece size and in pieces of 1, 7 and 64 bytes,
    where records, CRLF pairs, multi-byte ids, quoted cells that span lines
    and units straddle piece edges, and the edges never change whether the
    columnar read is taken."""
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(text.encode())
        expected = _outcome(path, schema, scanner_only=True)
        reads = [_columnar_outcome(path, schema, chunk)
                 for chunk in (paneljump.io._CHUNK, 1, 7, 64)]
    assert [outcome for outcome, _ in reads] == [expected] * len(reads)
    assert len({taken for _, taken in reads}) == 1


@pytest.mark.parametrize("text, delimiter, fast", [
    ("unit,time,y,x\nb,2,1.5,0.3\na,1,0.5,-0.2\na,2,0.7,0.1\nb,1,-0.5,0.0\n", ",", True),
    ('unit;time;y;x\r\n"a;""b""";1e0;0.5;-0.2\r\n"a;""b""";-0.0;"0.7";0.1\r\n', ";", True),
    ("x\tunit\ttime\ty\n0.5\tz\x00\t 2 \t1\n0.25\t\u65e5\t1\t2", "\t", True),
    ('"unit","time","y","x"\n"cr\rlf",1,2,3\n', ",", True),
    ('unit,time,y,x\n"l\nm",1,2,3\n', ",", False),  # a record spans two lines
    ('unit,time,y,x\ra,0,5,6\n"l\nm",1,2,3\n', ",", False),  # a lone CR ends the header
    ("unit,time,y,x\na,1,2,3\na,1,4,5\n", ",", False),  # a duplicate
    ("unit,time,y,x,note\na,1,2,3\n", ",", False),  # a short row under five columns
    ("unit,time,y,x\na,1,2," + "0" * 200_000 + "1\n", ",", False),  # oversized, finite
    ('unit"time"y"x\na"2"0.7"0.3\na"1"0.5"0.2\n', '"', False),
])
def test_columnar_read_is_taken_only_where_certified(tmp_path, text, delimiter, fast):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    schema = PanelSchema(delimiter=delimiter)
    assert _columnar_outcome(path, schema) == (_outcome(path, schema, scanner_only=True), fast)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("text", [b'unit,time,y,x\na,1,2,"3\nb",5,6,7\n',
                                  b'unit,time,y,x\na,1,2,3\rb,2,2,3,"n\nc,1,2,3\n'],
                         ids=["quoted-x", "lone-cr"])
def test_piece_edge_inside_a_quoted_cell_is_not_certified(tmp_path, text, chunk):
    """A piece cut inside a quoted cell must not parse.  In the first file
    the quoted x cell holds a newline and the rest of the line, so the
    scanner reads one record with x = '3\\nb'; cut at that newline, each
    piece alone parses as whole records.  In the second, the lone CR ends
    a's record, so the piece cut inside b's quoted extra cell still gives one
    record more than its newlines, as a whole piece and its sentinel do:
    only the last record's unit tells that the quote swallowed the
    sentinel."""
    path = tmp_path / "p.csv"
    path.write_bytes(text)
    assert _columnar_outcome(path, chunk=chunk) == (_outcome(path, scanner_only=True), False)


@pytest.mark.parametrize("time_major", [False, True])
def test_columnar_read_memory_is_bounded(tmp_path, time_major):
    """Ingest's peak allocation stays under four times the panel's own array
    bytes on a 200,000-row file, in unit order and in time order.  At this
    size the sort and the piece being parsed cost about the same."""
    y, x = np.random.default_rng(0).normal(size=(2, 250, 800)).tolist()
    keys = [(i, t) for i in range(250) for t in range(800)]
    if time_major:
        keys.sort(key=lambda key: key[::-1])
    path = tmp_path / "p.csv"
    path.write_text("unit,time,y,x\n" + "".join(f"u{i:03d},{t},{y[i][t]!r},{x[i][t]!r}\n"
                                                 for i, t in keys))
    tracemalloc.start()
    try:
        panel = read_panel_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * sum(u.y.nbytes + u.x.nbytes for u in panel)


def test_oversized_finite_number_names_its_line(tmp_path):
    path = _write(tmp_path, "p.csv", "unit,time,y,x\na,1,0.1,0.2\na,2,0.3," + "0" * 200_000 + "1\n")
    with pytest.raises(DataError, match="p.csv line 3: field larger than field limit"):
        read_panel_csv(path)


def test_quote_delimiter_schema(tmp_path):
    path = _write(tmp_path, "p.csv", 'unit"time"y"x\na"2"0.7"0.3\na"1"0.5"0.2\n')
    panel = read_panel_csv(path, PanelSchema(delimiter='"'))
    assert _units(panel) == [("a", [0.5, 0.7], [0.2, 0.3])]


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
    unit = UnitResult(
        unit_id="a", threshold=-0.2, bandwidth=0.25, gamma_hat=1.2, v_hat=2.0,
        std_error=0.5, t_stat=2.5, n_obs=64, eff_obs=30, stats=np.array([2.5, 1.0]),
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

    def test_markdown_cells_hold_pipes_and_line_breaks(self, tmp_path):
        """The CSV reader accepts quoted ids holding a pipe, a backslash or a
        line break.  In markdown each unit stays one table row with the
        header's cell count (a cell ends at a pipe no backslash escapes), and
        each summary item, a skip reason included, stays one line."""
        ids = ["a|b", "line\nbreak", "c\\|d\r\ne"]
        path = _write(tmp_path, "p.csv", "unit,time,y,x\n" + "".join(
            f'"{uid}",{t},0.5,{t}\n' for uid in ids for t in range(3)))
        assert [u.unit_id for u in read_panel_csv(path)] == sorted(ids)
        r = _existence_result()
        r.per_unit[0].unit_id, r.per_unit[1].unit_id = ids[:2]
        r.skipped = [SkippedUnit(ids[2], "a | reason\nover two lines")]
        lines = render_report(r, "markdown").splitlines()
        cells = [re.findall(r"(?:\\.|[^\\|])+", line[1:-1]) for line in lines[:4]]
        assert [len(row) for row in cells] == [8, 8, 8, 8]
        assert [re.sub(r"\\(.)", r"\1", row[0].strip()).replace("<br>", "\n")
                for row in cells[2:]] == ids[:2]
        assert len(lines) == 4 + 1 + len(r.table()[2])
        assert lines[-1] == r"skipped: c\\\|d<br>e: a \| reason<br>over two lines"

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
        with pytest.raises(DataError, match="cannot write"):
            write_report(_existence_result(), "csv",
                         str(tmp_path / "no" / "such" / "dir.csv"))

    def test_render_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(TypeError):
            write_report(object(), "csv", str(path))
        assert not path.exists()
