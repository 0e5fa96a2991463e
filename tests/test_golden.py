"""Golden reports: fixed CLI runs on a checked-in panel, compared byte for byte.

``data/golden_panel.csv`` holds 8 DGP 2 units of 120 observations with
sparse jumps (units u4 and u6), plus unit u8 observed only below the
threshold, which every run skips.  The expected reports next to it were
written by the code, so a change that moves any reported number fails
here even when reruns still agree with each other.

After a deliberate change of the numbers, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from paneljump.cli import cli_main

DATA = Path(__file__).parent / "data"
PANEL = DATA / "golden_panel.csv"

RUNS = {
    "jump-test": ["jump-test"],
    "jump-test-epanechnikov": ["jump-test", "--kernel", "epanechnikov"],
    "homogeneity-test": ["homogeneity-test"],
    "threshold-search": ["threshold-search", "--threshold", "grid:-0.2,-0.1,0,0.1,0.2",
                         "--method", "simulated", "--cv-reps", "2000"],
}


def _report(name: str, out: Path) -> bytes:
    assert cli_main([*RUNS[name], "--data", str(PANEL), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.filterwarnings("ignore::paneljump.errors.GridSpacingWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name, tmp_path):
    expected = (DATA / f"golden_{name}.csv").read_bytes()
    assert _report(name, tmp_path / "report.csv") == expected


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    for run_name in RUNS:
        _report(run_name, DATA / f"golden_{run_name}.csv")
