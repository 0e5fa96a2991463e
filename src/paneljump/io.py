"""CSV ingestion and report rendering.

Input panels arrive in long format: one row per (unit, time) observation.
Reports are rendered fully in memory and written in a single call, so a
failing run never leaves a partial output file behind.  For a fixed input
and configuration the emitted bytes are identical across runs.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from io import BytesIO, StringIO, TextIOWrapper
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError, NonFiniteValue
from .panel import PanelData, PanelUnit

__all__ = [
    "PanelSchema",
    "read_panel_csv",
    "read_threshold_csv",
    "render_report",
    "write_report",
]

FORMATS = ("csv", "tsv", "markdown")
_CHUNK = 1 << 20  # bytes per parsed piece of a panel file: small pieces bound ingest memory
_ROW = np.dtype([("unit", object), ("time", float), ("y", float), ("x", float)])


@dataclass(frozen=True)
class PanelSchema:
    """Column names and the one-character delimiter of long-format panel files."""

    unit_col: str = "unit"
    time_col: str = "time"
    y_col: str = "y"
    x_col: str = "x"
    delimiter: str = ","

    def __post_init__(self) -> None:
        names = (self.unit_col, self.time_col, self.y_col, self.x_col)
        if len(set(names)) != 4:
            raise ConfigError(f"schema column names must be distinct, got {names}")
        _check_delimiter(self.delimiter)


def _check_delimiter(delimiter) -> None:
    """The one rule for delimiters: a one-character string, else a ConfigError."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")


def _parse_number(text: str, row: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonFiniteValue(row, f"{what}={text!r}") from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, f"{what}={text!r}")
    return value


def _records(path: str, delimiter: str):
    """Yield (physical line the record starts on, its cells) for each
    non-blank CSV record; a quoted cell may span lines, so records and lines
    can differ.  A UTF-8 byte-order mark is not part of the first cell."""
    line = 1
    try:
        with open(path, newline="") as fh:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            reader = csv.reader(fh, delimiter=delimiter)
            for row in reader:
                if any(cell.strip() for cell in row):
                    yield line, row
                line = reader.line_num + 1
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised per decoded block, not per line
        with open(path, newline="", errors="surrogateescape") as fh:  # bad byte -> U+DCxx
            line = next((n for n, text in enumerate(fh, 1) if not text.isascii()
                         and any("\udc80" <= ch <= "\udcff" for ch in text)), line)
        raise DataError(f"{path} line {line}: cannot decode as {exc.encoding} ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path} line {line}: {exc}") from None


def _pieces(fh):
    """The rest of the binary file ``fh`` in pieces of whole lines, about
    ``_CHUNK`` bytes each; a last line without a newline is given one."""
    while piece := fh.read(_CHUNK) + fh.readline():
        yield piece if piece.endswith(b"\n") else piece + b"\n"


def _columnar(path: str, delimiter: str, cols: list[int]) -> PanelData | None:
    """The panel from ``np.loadtxt`` over the file in pieces, or None for a
    file this read cannot certify: every line after the header must be one
    record whose cells the scanner would parse to the same finite numbers and
    stripped id."""
    try:
        with open(path, "rb") as fh:
            if b"\r" in fh.readline()[:-2]:
                return None  # csv ends the header at a lone CR; loadtxt skips the whole line
            start, n, shortest, longest = fh.tell(), 0, math.inf, 0
            for piece in _pieces(fh):  # bytes per data line bound its cells
                ends = np.flatnonzero(np.frombuffer(piece, np.uint8) == ord("\n"))
                sizes = np.diff(ends, prepend=-1)
                n += ends.size
                shortest, longest = min(shortest, sizes.min()), max(longest, sizes.max())
            if n == 0 or shortest < 3 or longest > csv.field_size_limit():
                return None  # header only, a blank line, or room for an oversized cell
            time, y, x = np.empty(n), np.empty(n), np.empty(n)
            code, codes, filled = np.empty(n, np.intp), {}, 0
            # One more record after each piece: an open quote at the piece's end swallows it.
            sentinel = [delimiter.join("0000") + "\n"]
            fh.seek(start)
            for piece in _pieces(fh):
                text = TextIOWrapper(BytesIO(piece), newline="")  # decoded as open() would
                rows = np.loadtxt(chain(text, sentinel), dtype=_ROW, delimiter=delimiter,
                                  quotechar='"', comments=None, usecols=cols, ndmin=1)
                if rows.size != piece.count(b"\n") + 1 or rows["unit"][-1] != "0":
                    return None  # a record spans lines, or the piece ends inside a quoted cell
                ids, k = rows["unit"][:-1], rows.size - 1
                heads = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
                span = slice(filled, filled + k)
                code[span] = np.repeat([codes.setdefault(unit, len(codes)) for unit in ids[heads]],
                                       np.diff(heads, append=k))
                for column, name in ((time, "time"), (y, "y"), (x, "x")):
                    column[span] = rows[name][:-1]
                filled += k
                del piece, text, rows, ids  # freed before the next piece is read
    except (OSError, ValueError, TypeError):  # unreadable, undecodable, short row, bad cell
        return None
    if filled != n or not all(np.isfinite(column).all() for column in (time, y, x)):
        return None  # the file changed between the passes, or a value is nan or inf
    unit_ids = sorted(codes)  # code-point order
    if any(u != u.strip() for u in unit_ids):
        return None
    code = np.argsort([codes[u] for u in unit_ids])[code]  # first-met code -> id rank
    order = np.lexsort((time, code))
    for column in (code, time, y, x):  # one column copy at a time
        column[:] = column[order]
    del order
    same_unit = code[1:] == code[:-1]
    if (same_unit & (time[1:] == time[:-1])).any():
        return None  # the scanner names the duplicate
    cuts = np.flatnonzero(~same_unit) + 1
    del code, time, same_unit
    # Each unit owns its arrays, as the scanner's do.
    return PanelData(units=[PanelUnit(unit_id, uy.copy(), ux.copy()) for unit_id, uy, ux
                            in zip(unit_ids, np.split(y, cuts), np.split(x, cuts))])


def read_panel_csv(path: str, schema: PanelSchema | None = None) -> PanelData:
    """Read a long-format panel.

    Rows are grouped by unit and sorted by time within each unit, so row
    order in the file does not matter.  Units are ordered by id.  Time
    values are compared numerically when the whole column parses as
    numbers, lexicographically otherwise; a time cell that parses as a
    non-finite number (nan, inf) is rejected.  The header is the first
    non-blank record; a UTF-8 byte-order mark before it is dropped.

    A file whose header is line 1 and has exactly the four schema columns
    is read column by column with ``np.loadtxt``, which is several times
    faster than the row scanner.  It is parsed in pieces of whole lines
    (about 1 MiB) into preallocated columns, so its peak memory is the
    larger of about three times the panel's arrays (the sort) and twice
    them plus a few MB for the piece being parsed.  That read is kept only
    when every later line is one record holding the four columns, the
    times, y and x are finite numbers, ids have no surrounding whitespace,
    no line is longer than ``csv.field_size_limit()`` and no (unit, time)
    pair repeats.  Any other file is read row by row, so the result and
    every error are the scanner's on every input.

    Raises
    ------
    NonFiniteValue
        A cell does not parse to a finite number, or a row is short.
    DataError
        The file cannot be read or decoded, is empty, lacks a column, or
        repeats a (unit, time) pair.  Row numbers in errors refer to
        physical file rows, header = row 1.
    """
    schema = schema or PanelSchema()
    records_in = _records(path, schema.delimiter)
    first = next(records_in, None)
    if first is None:
        raise DataError(f"{path} is empty")
    header = [h.strip() for h in first[1]]
    names = (schema.unit_col, schema.time_col, schema.y_col, schema.x_col)
    for col in names:
        if col not in header:
            raise DataError(f"column {col!r} not found in {path} (has {header})")
    cols = [header.index(col) for col in names]
    if first[0] == 1 and len(header) == 4 and not any("\n" in h or "\r" in h for h in first[1]):
        panel = _columnar(path, schema.delimiter, cols)  # needs the header to be line 1 alone
        if panel is not None:
            return panel

    records: dict[str, list[tuple[str, float, float]]] = {}
    numeric_time = True
    for row_no, row in records_in:
        if len(row) < len(header):
            raise NonFiniteValue(row_no, "short row")
        unit = row[cols[0]].strip()
        time = row[cols[1]].strip()
        try:
            if not math.isfinite(float(time)):
                raise NonFiniteValue(row_no, f"{schema.time_col}={time!r}")
        except ValueError:
            numeric_time = False
        y = _parse_number(row[cols[2]].strip(), row_no, schema.y_col)
        x = _parse_number(row[cols[3]].strip(), row_no, schema.x_col)
        records.setdefault(unit, []).append((time, y, x))
    if not records:
        raise DataError(f"{path} has a header but no data rows")

    units = []
    for unit_id in sorted(records):
        obs = records[unit_id]
        key = (lambda r: float(r[0])) if numeric_time else (lambda r: r[0])
        obs.sort(key=key)
        for prev, curr in zip(obs, obs[1:]):
            if key(prev) == key(curr):
                raise DataError(
                    f"unit {unit_id!r} has duplicate time {curr[0]!r}"
                )
        units.append(PanelUnit(
            unit_id=unit_id,
            y=np.array([r[1] for r in obs]),
            x=np.array([r[2] for r in obs]),
        ))
    return PanelData(units=units)


def read_threshold_csv(path: str, delimiter: str = ",") -> dict[str, float]:
    """Read per-unit thresholds from a 2-column (unit, c) file.

    Columns are split on the one-character ``delimiter``.  The first
    non-blank row is treated as a header and skipped when its second column
    does not parse as a number.  Row numbers in errors refer to physical
    file rows, blank ones included.
    """
    _check_delimiter(delimiter)
    rows = list(_records(path, delimiter))
    if not rows:
        raise DataError(f"{path} is empty")
    out: dict[str, float] = {}
    for row_no, row in rows:
        if len(row) < 2:
            raise NonFiniteValue(row_no, "need 2 columns (unit, c)")
        unit = row[0].strip()
        try:
            c = float(row[1])
        except ValueError:
            if row_no == rows[0][0]:
                continue
            raise NonFiniteValue(row_no, f"c={row[1]!r}") from None
        if not math.isfinite(c):
            raise NonFiniteValue(row_no, f"c={row[1]!r}")
        if unit in out:
            raise DataError(f"unit {unit!r} listed twice in {path}")
        out[unit] = c
    if not out:
        raise DataError(f"{path} has no data rows")
    return out


# ----------------------------------------------------------------------
# rendering

def _cell(value, markdown: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.ndarray):
        return " ".join(_cell(v, markdown) for v in value)
    return format(float(value), ".4f" if markdown else ".15g")  # delimited values round-trip


def _md(text: str) -> str:
    """``text`` as one markdown table cell or line: backslashes and pipes
    escaped, each line break written as <br>."""
    return re.sub(r"\r\n?|\n", "<br>", text.replace("\\", "\\\\").replace("|", "\\|"))


def render_report(result, output_format: str = "csv") -> str:
    """Render a result to text; see write_report for the file variant.

    ``result`` is any object whose ``table()`` returns a header, typed rows
    and typed summary lines.  Summary values keep full precision in every
    format.
    """
    if output_format not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}")
    if not hasattr(result, "table"):
        raise TypeError(f"cannot render {type(result).__name__}")
    header, rows, summary = result.table()
    summary = [[_cell(v, False) for v in item] for item in summary]
    if output_format == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(_md(_cell(v, True)) for v in row) + " |")
        if summary:
            lines.append("")
            for item in summary:
                lines.append(_md(": ".join(item)))
        return "\n".join(lines) + "\n"
    # The csv module quotes cells that hold the delimiter, a quote or a
    # newline, such as unit ids or skip reasons; other cells are unchanged.
    buf = StringIO()
    writer = csv.writer(buf, delimiter="," if output_format == "csv" else "\t",
                        lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v, False) for v in row] for row in rows)
    writer.writerows(["# " + item[0], *item[1:]] for item in summary)
    return buf.getvalue()


def write_report(result, output_format: str = "csv",
                 path: str | None = None) -> str:
    """Render a result and optionally write it to ``path``.

    The full report is rendered before the file is opened; on any error the
    target file is never created.  Returns the rendered text.
    """
    text = render_report(result, output_format)
    if path is not None:
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from None
    return text
