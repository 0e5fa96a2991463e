"""Self-check of the benchmark at toy sizes; takes a few minutes.

    python3 bench/selfcheck.py

For every workload, runs bench/run.py --toy once untraced and twice traced,
and checks that each run passes its output checks, prints exactly the
metrics BENCHMARK.json lists with their units, and that the traced
counters (.calls, .rows, .draws, .bytes) repeat exactly.  Finally it runs
the benchmark in a directory holding only BENCHMARK.json and bench/, where
it must fail without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

EXACT_SUFFIXES = (".calls", ".rows", ".draws", ".bytes")


def bench_run(workload: str, trace: int, cwd=run.ROOT) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_result(workload: str, trace: int, result: dict, spec: dict) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: correct={result['correct']} "
             f"failed={result['failed']} of {result['attempted']}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != listed:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(printed) ^ set(listed))} "
             f"{[n for n in listed if printed.get(n, listed[n]) != listed[n]]}")
    print(f"ok   {workload} trace {trace}: {result['attempted']} operations, "
          f"{len(printed)} metrics", flush=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from bench/run.py")
    for workload in run.WORKLOADS:
        check_result(workload, 0, bench_run(workload, 0), spec)
        traced = [bench_run(workload, 1) for _ in range(2)]
        for result in traced:
            check_result(workload, 1, result, spec)
        for name, metric in traced[0]["metrics"].items():
            again = traced[1]["metrics"][name]["value"]
            if name.endswith(EXACT_SUFFIXES) and metric["value"] != again:
                fail(f"{workload}: {name} is {metric['value']} then {again}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_known",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} "
             f"and printed {proc.stdout[-200:]!r}")
    print("ok   without src/ the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
