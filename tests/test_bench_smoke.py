"""Smoke test of the benchmark harness: a traced toy run of a workload ends
with a JSON summary that reports every operation correct.

``mc_search`` exercises the tracer's grid-search counters and
``cli_small`` its critical-value simulation counters, so a renamed or
removed layer function that the harness relies on shows up here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["mc_search", "cli_small"])
def test_traced_toy_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--toy", "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr[-2000:]
    assert summary["failed"] == 0
