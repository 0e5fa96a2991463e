"""Golden reports: fixed CLI runs on a checked-in panel, compared byte for byte.

``data/golden_panel.csv`` holds 8 DGP 2 units of 120 observations with
sparse jumps (units u4 and u6), plus unit u8 observed only below the
threshold, which every run on it skips.  ``data/golden_thresholds.csv``
gives each of those units its own threshold.  The ``simulate`` run needs
no panel: it draws a small fixed-seed Monte Carlo table.  The two
``critical-value`` runs have no ``--out``; their stdout is the report.
The expected reports next to them were written by the code, so a change
that moves any reported number fails here even when reruns still agree
with each other.

After a deliberate change of the numbers, rewrite the expected files of
the runs it moves, by name (no name rewrites all of them):

    PYTHONPATH=src python tests/test_golden.py critical-value-simulated
"""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from paneljump.cli import cli_main

DATA = Path(__file__).parent / "data"
PANEL = ["--data", str(DATA / "golden_panel.csv")]
GRID = ["--threshold", "grid:-0.2,-0.1,0,0.1,0.2"]

RUNS = {
    "jump-test": ["jump-test", *PANEL],
    "jump-test-epanechnikov": ["jump-test", *PANEL, "--kernel", "epanechnikov"],
    "jump-test-threshold-file": [
        "jump-test", *PANEL,
        "--threshold", f"file:{DATA / 'golden_thresholds.csv'}",
    ],
    "homogeneity-test": ["homogeneity-test", *PANEL],
    "threshold-search": ["threshold-search", *PANEL, *GRID,
                         "--method", "simulated", "--cv-reps", "2000"],
    "threshold-search-markdown": ["threshold-search", *PANEL, *GRID,
                                  "--format", "markdown"],
    "simulate": ["simulate", "--dgp", "2", "--n", "6", "--t", "150", "--reps", "6",
                 "--fraction", "0.5", "--scale", "0.7",
                 "--bandwidth", "fixed:0.3", "--workers", "1"],
    "critical-value": ["critical-value", "--n", "29"],
    "critical-value-simulated": ["critical-value", "--sided", "upper", "--n", "13",
                                 "--method", "simulated", "--cv-reps", "20000",
                                 "--seed", "3", "--alpha", "0.05", "--alpha", "0.05",
                                 "--alpha", "0.01"],
}


def _expected_path(name: str) -> Path:
    suffix = ".md" if "markdown" in RUNS[name] else ".csv"
    return DATA / f"golden_{name}{suffix}"


def _report(name: str, out: Path) -> bytes:
    if RUNS[name][0] == "critical-value":  # no --out flag: keep stdout
        with redirect_stdout(StringIO()) as buf:
            assert cli_main(RUNS[name]) == 0
        out.write_bytes(buf.getvalue().encode())
    else:
        assert cli_main([*RUNS[name], "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path):
    assert _report(name, tmp_path / "report") == _expected_path(name).read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = [n for n in names if n not in RUNS]
    if unknown:
        sys.exit(f"unknown golden run {', '.join(unknown)}; runs: {', '.join(RUNS)}")
    for run_name in names:
        _report(run_name, _expected_path(run_name))
