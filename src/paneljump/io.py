"""CSV ingestion and report rendering.

Input panels arrive in long format: one row per (unit, time) observation.
Reports are rendered fully in memory and written in a single call, so a
failing run never leaves a partial output file behind.  For a fixed input
and configuration the emitted bytes are identical across runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .dgp import AccuracyTable, RateTable
from .errors import (
    DuplicateKey,
    EmptyUnit,
    IoFailure,
    MissingColumn,
    NonFiniteValue,
)
from .inference import TestResult, ThresholdSearchResult
from .panel import PanelData, PanelUnit

__all__ = [
    "PanelSchema",
    "read_panel_csv",
    "read_threshold_csv",
    "render_report",
    "write_report",
]

FORMATS = ("csv", "tsv", "markdown")


@dataclass(frozen=True)
class PanelSchema:
    """Column names and delimiter for long-format panel files."""

    unit_col: str = "unit"
    time_col: str = "time"
    y_col: str = "y"
    x_col: str = "x"
    delimiter: str = ","

    def __post_init__(self) -> None:
        names = (self.unit_col, self.time_col, self.y_col, self.x_col)
        if len(set(names)) != 4:
            raise ValueError(f"schema column names must be distinct, got {names}")


def _parse_number(text: str, row: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise NonFiniteValue(row, f"{what}={text!r}") from None
    if not math.isfinite(value):
        raise NonFiniteValue(row, f"{what}={text!r}")
    return value


def read_panel_csv(path: str, schema: PanelSchema | None = None) -> PanelData:
    """Read a long-format panel.

    Rows are grouped by unit and sorted by time within each unit, so row
    order in the file does not matter.  Units are ordered by id.  Time
    values are compared numerically when the whole column parses as
    numbers, lexicographically otherwise.

    Raises
    ------
    MissingColumn, NonFiniteValue, DuplicateKey, EmptyUnit, IoFailure
        Row numbers in errors refer to physical file rows, header = row 1.
    """
    schema = schema or PanelSchema()
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=schema.delimiter)
            rows = list(reader)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    if not rows:
        raise EmptyUnit(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    idx = {}
    for col in (schema.unit_col, schema.time_col, schema.y_col, schema.x_col):
        if col not in header:
            raise MissingColumn(f"column {col!r} not found in {path} (has {header})")
        idx[col] = header.index(col)

    records: dict[str, list[tuple[str, float, float]]] = {}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise NonFiniteValue(row_no, "short row")
        unit = row[idx[schema.unit_col]].strip()
        time = row[idx[schema.time_col]].strip()
        y = _parse_number(row[idx[schema.y_col]].strip(), row_no, schema.y_col)
        x = _parse_number(row[idx[schema.x_col]].strip(), row_no, schema.x_col)
        records.setdefault(unit, []).append((time, y, x))
    if not records:
        raise EmptyUnit(f"{path} has a header but no data rows")

    numeric_time = True
    for obs in records.values():
        for time, _, _ in obs:
            try:
                float(time)
            except ValueError:
                numeric_time = False
                break
        if not numeric_time:
            break

    units = []
    for unit_id in sorted(records):
        obs = records[unit_id]
        key = (lambda r: float(r[0])) if numeric_time else (lambda r: r[0])
        obs.sort(key=key)
        for prev, curr in zip(obs, obs[1:]):
            if key(prev) == key(curr):
                raise DuplicateKey(
                    f"unit {unit_id!r} has duplicate time {curr[0]!r}"
                )
        units.append(PanelUnit(
            unit_id=unit_id,
            y=np.array([r[1] for r in obs]),
            x=np.array([r[2] for r in obs]),
        ))
    return PanelData(units=units)


def read_threshold_csv(path: str) -> dict[str, float]:
    """Read per-unit thresholds from a 2-column (unit, c) file.

    A first row whose second column does not parse as a number is treated
    as a header and skipped.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    if not rows:
        raise EmptyUnit(f"{path} is empty")
    out: dict[str, float] = {}
    for row_no, row in enumerate(rows, start=1):
        if len(row) < 2:
            raise NonFiniteValue(row_no, "need 2 columns (unit, c)")
        unit = row[0].strip()
        try:
            c = float(row[1])
        except ValueError:
            if row_no == 1:
                continue
            raise NonFiniteValue(row_no, f"c={row[1]!r}") from None
        if not math.isfinite(c):
            raise NonFiniteValue(row_no, f"c={row[1]!r}")
        if unit in out:
            raise DuplicateKey(f"unit {unit!r} listed twice in {path}")
        out[unit] = c
    if not out:
        raise EmptyUnit(f"{path} has no data rows")
    return out


# ----------------------------------------------------------------------
# rendering

def _num(value: float) -> str:
    """Delimited formats carry full precision so values round-trip."""
    return format(float(value), ".15g")


def _num_md(value: float) -> str:
    return format(float(value), ".4f")


def _result_table(result) -> tuple[list[str], list[list[float | int | str]], list[list[str]]]:
    """Header, typed rows, and summary lines for any result object."""
    if isinstance(result, TestResult):
        header = ["unit", "threshold", "gamma_hat", "std_error", "t_stat",
                  "obs", "eff_obs", "bandwidth"]
        if result.kind == "homogeneity":
            header.insert(3, "centered")
        rows = []
        for u in result.per_unit:
            row = [u.unit_id, u.threshold, u.gamma_hat, u.std_error, u.t_stat,
                   u.n_obs, u.eff_obs, u.bandwidth]
            if result.kind == "homogeneity":
                row.insert(3, u.centered)
            rows.append(row)
        summary = [["test", result.kind], ["sidedness", result.sidedness],
                   ["statistic", _num(result.statistic)]]
        if result.center is not None:
            summary.append(["center", result.center])
            summary.append(["center_value", _num(result.center_value)])
        for a in result.critical_values:
            summary.append(["critical_value", _num(a), _num(result.critical_values[a])])
        for a in result.reject:
            summary.append(["reject", _num(a), str(result.reject[a])])
        summary.append(["n_effective", str(result.n_effective)])
        for s in result.skipped:
            summary.append(["skipped", s.unit_id, s.reason])
        return header, rows, summary

    if isinstance(result, ThresholdSearchResult):
        header = ["unit", "c_hat", "gamma_hat", "std_error", "t_stat",
                  "obs", "eff_obs", "bandwidth"]
        rows = []
        for u in result.per_unit:
            i = u.best_index
            se = u.v_hats[i] / np.sqrt(u.n_obs * u.bandwidth)
            rows.append([u.unit_id, u.c_hat, u.gammas[i], float(se),
                         u.stats[i], u.n_obs, int(u.eff_obs[i]), u.bandwidth])
        summary = [["test", "threshold_search"], ["sidedness", result.sidedness],
                   ["statistic", _num(result.statistic)],
                   ["grid", " ".join(_num(g) for g in result.grid)],
                   ["truncation", _num(result.truncation)]]
        for a in result.critical_values:
            summary.append(["critical_value", _num(a), _num(result.critical_values[a])])
        for a in result.reject:
            summary.append(["reject", _num(a), str(result.reject[a])])
        summary.append(["n_effective", str(result.n_effective)])
        summary.append(["n_comparisons", str(result.n_comparisons)])
        if result.spacing_warning:
            summary.append(["warning", "grid spacing at most twice the bandwidth"])
        for s in result.skipped:
            summary.append(["skipped", s.unit_id, s.reason])
        return header, rows, summary

    if isinstance(result, RateTable):
        header = ["dgp", "n_units", "t_obs", "test", "alpha", "rate",
                  "std_error", "reps", "failed"]
        rows = [
            [result.dgp_id, result.n_units, result.t_obs, result.test,
             a, result.rates[a], result.std_errors[a], result.reps, result.failed]
            for a in result.rates
        ]
        return header, rows, []

    if isinstance(result, AccuracyTable):
        header = ["dgp", "n_units", "t_obs", "mean_abs_error", "max_abs_error",
                  "reps", "failed"]
        rows = [[result.dgp_id, result.n_units, result.t_obs,
                 result.mean_abs_error, result.max_abs_error,
                 result.reps, result.failed]]
        return header, rows, []

    raise TypeError(f"cannot render {type(result).__name__}")


def _cell(value, markdown: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _num_md(value) if markdown else _num(value)


def render_report(result, output_format: str = "csv") -> str:
    """Render a result to text; see write_report for the file variant."""
    if output_format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    header, rows, summary = _result_table(result)
    if output_format == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(_cell(v, True) for v in row) + " |")
        if summary:
            lines.append("")
            for item in summary:
                lines.append(": ".join(item))
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
            raise IoFailure(f"cannot write {path}: {exc}") from None
    return text
