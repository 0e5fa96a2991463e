"""Output checks: Monte Carlo table summaries and CLI report comparison.

References live under ``bench/refs``; ``record_refs.py`` writes them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
MC_REFS = REFS / "mc.json"

# Report cells compared as text; every other cell must agree numerically
# within REL_TOL.
TEXT_COLUMNS = {"unit", "c_hat"}
TEXT_SUMMARY = {"test", "sidedness", "center", "grid", "reject", "n_effective",
                "n_comparisons", "warning", "skipped"}
REL_TOL = 1e-9


def mc_summary(table) -> dict:
    """What a Monte Carlo pass must reproduce exactly."""
    if hasattr(table, "rates"):
        ok = table.reps - table.failed
        counts = {str(a): round(r * ok) if ok else None for a, r in table.rates.items()}
        return {"reject_counts": counts, "failed": table.failed}
    return {"mean_abs_error": table.mean_abs_error,
            "max_abs_error": table.max_abs_error, "failed": table.failed}


def mc_problems(summary: dict, reps: int, max_error: float) -> list[str]:
    """Invariants any seed must satisfy."""
    problems = []
    if summary["failed"]:
        problems.append(f"{summary['failed']} of {reps} replications failed")
    if "reject_counts" in summary:
        by_alpha = sorted(summary["reject_counts"].items(), key=lambda kv: -float(kv[0]))
        counts = [c for _, c in by_alpha]
        if any(c is None or not 0 <= c <= reps for c in counts):
            problems.append(f"rejection counts out of range: {dict(by_alpha)}")
        elif any(a < b for a, b in zip(counts, counts[1:])):
            problems.append(f"rejections not monotone in alpha: {dict(by_alpha)}")
    else:
        mean, worst = summary["mean_abs_error"], summary["max_abs_error"]
        if not (math.isfinite(mean) and 0.0 <= mean <= worst <= max_error):
            problems.append(f"accuracy errors out of range: mean {mean}, max {worst}")
    return problems


def mc_reference(workload: str, size: str, seed: int) -> dict | None:
    if not MC_REFS.is_file():
        return None
    return json.loads(MC_REFS.read_text()).get(workload, {}).get(size, {}).get(str(seed))


def cli_reference_path(workload: str, size: str, seed: int, sub: str) -> Path:
    return REFS / "cli" / f"{workload}-{size}-seed{seed}-{sub}.csv"


def _split(text: str):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("# ")]
    summary = [ln[2:].split(",") for ln in lines[1:] if ln.startswith("# ")]
    return header, rows, summary


def _same_number(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def compare_reports(expected: str, actual: str) -> list[str]:
    """Differences between two delimited reports, at most a few listed."""
    e_head, e_rows, e_sum = _split(expected)
    a_head, a_rows, a_sum = _split(actual)
    if e_head != a_head:
        return [f"header {a_head} != {e_head}"]
    if len(e_rows) != len(a_rows) or len(e_sum) != len(a_sum):
        return [f"shape {len(a_rows)}+{len(a_sum)} lines != {len(e_rows)}+{len(e_sum)}"]
    problems = []
    for e_row, a_row in zip(e_rows, a_rows):
        if len(e_row) != len(a_row):
            problems.append(f"row {a_row[:1]} has {len(a_row)} cells, expected {len(e_row)}")
            continue
        for col, e, a in zip(e_head, e_row, a_row):
            ok = e == a if col in TEXT_COLUMNS else _same_number(e, a)
            if not ok:
                problems.append(f"unit {e_row[0]} {col}: {a} != {e}")
    for e_line, a_line in zip(e_sum, a_sum):
        if e_line[0] in TEXT_SUMMARY or len(e_line) != len(a_line):
            ok = e_line == a_line
        else:
            ok = e_line[0] == a_line[0] and all(map(_same_number, e_line[1:], a_line[1:]))
        if not ok:
            problems.append(f"summary {a_line} != {e_line}")
    return problems[:5]
