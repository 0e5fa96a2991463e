"""Record the outputs that the benchmark's checks compare against.

    python3 bench/record_refs.py

Replaces everything under bench/refs with the outputs of the package under
src/.  Run it only at a commit whose outputs are trusted; the references in
the repository were recorded at the commit that added the benchmark.

Monte Carlo tables are a few numbers, so they are kept for seeds 0..31 at
full size.  CLI reports are kept for seed 0 (the default) and seed 1 (held
out while the benchmark was written); on every seed they are also checked
against the in-process library result.  Toy sizes keep seeds 0 and 1.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run

MC_SEEDS = {"full": range(32), "toy": range(2)}
CLI_SEEDS = range(2)


def main() -> int:
    run.import_package()
    shutil.rmtree(checks.REFS, ignore_errors=True)
    (checks.REFS / "cli").mkdir(parents=True)
    work = run.OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    mc_refs: dict = {}
    try:
        for size in ("full", "toy"):
            for name in ("mc_known", "mc_search"):
                for seed in MC_SEEDS[size]:
                    workload = run.McWorkload(name, size, seed, work)
                    outcome = workload.run_pass(0, False)
                    if outcome.failed:
                        sys.exit(f"{name} {size} seed {seed}: {outcome.problems}")
                    mc_refs.setdefault(name, {}).setdefault(size, {})[str(seed)] = \
                        workload.reference
            for name in ("cli_small", "cli_large"):
                for seed in CLI_SEEDS:
                    workload = run.CliWorkload(name, size, seed, work)
                    workload.setup()
                    workload.prepare_checks()
                    outcome = workload.run_pass(0, False)
                    if outcome.failed:
                        sys.exit(f"{name} {size} seed {seed}: {outcome.problems}")
                    for sub in workload.subcommands:
                        shutil.copyfile(work / f"{sub}.csv",
                                        checks.cli_reference_path(name, size, seed, sub))
                    print(f"recorded {name} {size} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.MC_REFS.write_text(json.dumps(mc_refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
