"""paneljump benchmark: four workloads, end-to-end metrics, optional trace.

    python3 bench/run.py --workload mc_known --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.

Workloads (sizes from the ROADMAP north star; why each exists is in
bench/README.md):

  mc_known   run_size_power, DGP 1, 100 units x 200 obs, pooled bandwidth
             with bounds (0.2, 0.5), known threshold, 8 replications a pass.
  mc_search  run_threshold_accuracy, DGP 2, 10 units x 800 obs, every unit
             given a jump, 61-point grid -0.30..0.30, 8 replications a pass.
  cli_small  100 x 200 panel CSV (DGP 2, 10% of units given a jump) through
             three fresh-interpreter CLI runs a pass: jump-test,
             homogeneity-test, threshold-search with simulated critical values.
  cli_large  1000 x 800 panel CSV of the same design through one
             fresh-interpreter jump-test a pass.

``--seed`` picks the inputs: the Monte Carlo base seed, or the seed of the
panel written to CSV.  Set-up (imports, inputs, a warm-up run) is timed in
SETUP_REPEATS fresh interpreters, so each sample pays every first-call cost.
The first sample is taken before the passes and the others at even steps of
the measured time, so that they do not all fall in one speed regime of the
host.  Whole passes run while the next one would end less than half a pass
after ``--seconds``, so the measured time is ``--seconds`` rounded to whole
passes, at least one.  Every pass's outputs are checked (see checks.py)
before its numbers count.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap each public layer function (tracer.py) and the per-layer metrics come
from them.  End-to-end metrics come only from ``--trace 0`` runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it, and the
files under ``.bench_out/``, hold the details: input sizes, sample counts,
fail_frac, run metadata, spans and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("mc_known", "mc_search", "cli_small", "cli_large")
GRID61 = tuple(k / 100 for k in range(-30, 31))
CLI_GRID = "grid:-0.3,-0.15,0,0.15,0.3"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

# (units, observations per unit, replications per pass); CLI rows carry no reps.
SIZES = {
    "full": {"mc_known": (100, 200, 8), "mc_search": (10, 800, 8),
             "cli_small": (100, 200), "cli_large": (1000, 800)},
    "toy": {"mc_known": (20, 100, 2), "mc_search": (3, 200, 2),
            "cli_small": (20, 100), "cli_large": (50, 200)},
}

END_TO_END = {
    "wall_s": "s",
    "units_per_s": "units/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: function span name -> fields reported for it.
TIMES = ("s", "self_s")
FUNCTION_FIELDS = {
    "cli.cli_main": ("s", "self_s"),
    "io.read_panel_csv": ("s", "calls", "rows"),
    "io.write_report": ("s", "bytes"),
    "bandwidth.plugin_bandwidth": ("s", "calls", "failed"),
    "bandwidth.pilot_bandwidth": ("s", "calls"),
    "kernels.local_weights": ("s", "calls", "failed"),
    "estimator.smooth_residuals": ("s", "calls"),
    "variance.sigma_e_sq_known": ("s", "calls"),
    "variance.sigma_e_sq_truncated": ("s", "calls", "failed"),
    "variance.sigma_c_matrix": ("s", "calls"),
    "inference.simulate_max_gaussian": ("s", "calls", "draws"),
    "inference.test_existence": ("s", "self_s"),
    "inference.test_homogeneity": ("s", "self_s"),
    "inference.search_thresholds": ("s", "self_s"),
    "dgp.gen_dgp": ("s", "calls"),
    "dgp.run_size_power": ("self_s",),
    "dgp.run_threshold_accuracy": ("self_s",),
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "failed": "count",
               "rows": "count", "draws": "count", "bytes": "bytes"}
EXTRA_LAYER_METRICS = {
    "cli.import_s": "s",
    "io.read_panel_csv.rows_per_s": "rows/s",
    "inference.grid_valid_frac": "fraction",
    "inference.grid_points": "count",
    "inference.units_skipped": "count",
    "inference.units_attempted": "count",
    "trace.overhead_frac": "fraction",
}
TEST_FUNCTIONS = ("inference.test_existence", "inference.test_homogeneity",
                  "inference.search_thresholds")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "PANELJUMP_THREADS")


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{field}": FIELD_UNITS[field]
             for fn, fields in FUNCTION_FIELDS.items() for field in fields}
    units.update(EXTRA_LAYER_METRICS)
    return units


def import_package() -> float:
    """Import paneljump from src/ and return the seconds it took."""
    if not (SRC / "paneljump" / "__init__.py").is_file():
        sys.exit(f"error: no paneljump package under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import paneljump.cli  # imports every layer module
    elapsed = time.perf_counter() - start
    if Path(paneljump.cli.__file__).resolve().parent != (SRC / "paneljump").resolve():
        sys.exit(f"error: paneljump was imported from {paneljump.cli.__file__}, not {SRC}")
    return elapsed


class Outcome:
    """Operations attempted and failed in one pass, with what went wrong."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(problem)


class McWorkload:
    """run_size_power or run_threshold_accuracy, called in-process with workers=1."""

    def __init__(self, name: str, size: str, seed: int, work: Path) -> None:
        from paneljump.bandwidth import BandwidthPolicy
        from paneljump.dgp import DgpConfig, GammaScheme
        from paneljump.inference import TestConfig

        self.name, self.size, self.seed = name, size, seed
        n, t, self.reps = SIZES[size][name]
        if name == "mc_known":
            self.dgp_cfg = DgpConfig(dgp_id=1, n_units=n, t_obs=t)
            self.test_cfg = TestConfig(bandwidth=BandwidthPolicy.pooled(bounds=(0.2, 0.5)))
        else:
            self.dgp_cfg = DgpConfig(dgp_id=2, n_units=n, t_obs=t,
                                     gamma_scheme=GammaScheme.accuracy())
            self.test_cfg = TestConfig()
        self.units_per_pass = n * self.reps
        self.inputs = {"units": n, "obs_per_unit": t, "reps_per_pass": self.reps,
                       "rows_per_rep": n * t}
        self.reference = None
        self.recorded = None

    def _run(self, reps: int):
        # Looked up at call time so that traced passes reach the wrappers.
        dgp = sys.modules["paneljump.dgp"]
        mc = dgp.McConfig(reps=reps, base_seed=self.seed)
        if self.name == "mc_known":
            return dgp.run_size_power(self.dgp_cfg, mc, config=self.test_cfg)
        return dgp.run_threshold_accuracy(self.dgp_cfg, mc, GRID61, config=self.test_cfg)

    def setup(self) -> None:
        self._run(1)  # warm-up: first-call caches and lazy imports

    def load(self) -> None:
        self.setup()  # this process needs its own warm-up

    def prepare_checks(self) -> None:
        self.recorded = checks.mc_reference(self.name, self.size, self.seed)

    def run_pass(self, pass_id: int, traced: bool) -> Outcome:
        outcome = Outcome(self.reps)
        try:
            table = self._run(self.reps)
        except Exception as exc:  # a crashing pass counts as all reps failed
            outcome.fail(self.reps, f"pass raised {type(exc).__name__}: {exc}")
            return outcome
        summary = checks.mc_summary(table)
        problems = checks.mc_problems(summary, self.reps, max(abs(g) for g in GRID61))
        if self.reference is None:
            self.reference = summary
        elif summary != self.reference:
            problems.append(f"pass differs from the first pass: {summary} != {self.reference}")
        if self.recorded is not None and summary != self.recorded:
            problems.append(f"differs from the recorded reference: {summary} != {self.recorded}")
        if problems:
            outcome.fail(self.reps, "; ".join(problems))
        elif summary["failed"]:
            outcome.fail(summary["failed"], "replications failed")
        return outcome


def write_panel_csv(panel, path: Path) -> None:
    """Long-format CSV; repr keeps every float exact through the round trip."""
    with open(path, "w") as fh:
        fh.write("unit,time,y,x\n")
        for unit in panel:
            uid = unit.unit_id
            fh.write("".join(f"{uid},{t},{y!r},{x!r}\n" for t, (y, x)
                             in enumerate(zip(unit.y.tolist(), unit.x.tolist()))))


class CliWorkload:
    """CSV panel written at set-up, then fresh-interpreter CLI runs in turn."""

    def __init__(self, name: str, size: str, seed: int, work: Path) -> None:
        self.name, self.size, self.seed, self.work = name, size, seed, work
        self.n, self.t = SIZES[size][name]
        self.csv = work / "panel.csv"
        data = ["--data", str(self.csv)]
        self.subcommands = {"jump-test": ["jump-test", *data]}
        if name == "cli_small":
            self.subcommands["homogeneity-test"] = ["homogeneity-test", *data]
            self.subcommands["threshold-search"] = [
                "threshold-search", *data, "--threshold", CLI_GRID, "--method", "simulated"]
        self.units_per_pass = self.n * len(self.subcommands)
        self.inputs = {"units": self.n, "obs_per_unit": self.t, "rows": self.n * self.t,
                       "subcommands": list(self.subcommands)}
        self.expected: dict[str, list[tuple[str, str]]] = {}
        self.child_spans: list[dict] = []
        self.import_s: dict[int, float] = {}

    def setup(self) -> None:
        """Generate the panel and write the CSV.  The interpreter running the
        set-up has imported the whole package, which warms the file cache as
        a warm-up CLI run would."""
        self.load()
        write_panel_csv(self.panel, self.csv)
        self.inputs["csv_bytes"] = self.csv.stat().st_size

    def load(self) -> None:
        """The panel in memory; the CSV is the one a set-up wrote into ``work``."""
        from paneljump.dgp import DgpConfig, GammaScheme, gen_dgp

        cfg = DgpConfig(dgp_id=2, n_units=self.n, t_obs=self.t, seed=self.seed,
                        gamma_scheme=GammaScheme.sparse_power(0.1))
        self.panel = gen_dgp(cfg)[0]
        if self.csv.is_file():
            self.inputs["csv_bytes"] = self.csv.stat().st_size

    def prepare_checks(self) -> None:
        """Reports the library gives in-process, plus recorded ones if any."""
        from paneljump.inference import (TestConfig, search_thresholds, test_existence,
                                         test_homogeneity)
        from paneljump.io import render_report

        grid = [float(v) for v in CLI_GRID[5:].split(",")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            library = {
                "jump-test": lambda: test_existence(self.panel, 0.0, TestConfig()),
                "homogeneity-test": lambda: test_homogeneity(self.panel, 0.0, TestConfig()),
                "threshold-search": lambda: search_thresholds(
                    self.panel, grid, TestConfig(cv_method="simulated")),
            }
            for sub in self.subcommands:
                self.expected[sub] = [("library", render_report(library[sub](), "csv"))]
                recorded = checks.cli_reference_path(self.name, self.size, self.seed, sub)
                if recorded.is_file():
                    self.expected[sub].append(("recorded", recorded.read_text()))

    def run_pass(self, pass_id: int, traced: bool) -> Outcome:
        outcome = Outcome(len(self.subcommands))
        for sub, argv in self.subcommands.items():
            out = self.work / f"{sub}.csv"
            out.unlink(missing_ok=True)
            spans = self.work / f"spans-{pass_id}-{sub}.json" if traced else None
            proc = run_child([*argv, "--out", str(out)], spans, pass_id)
            if proc.returncode != 0:
                outcome.fail(1, f"{sub} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
                continue
            if spans is not None:
                dump = json.loads(spans.read_text())
                self.child_spans.append({"pass": pass_id, "subcommand": sub, **dump})
                self.import_s[pass_id] = (self.import_s.get(pass_id, 0.0)
                                          + dump["extra"]["cli.import_s"])
            if not out.is_file():
                outcome.fail(1, f"{sub} exited 0 but wrote no report")
                continue
            report = out.read_text()
            for label, text in self.expected[sub]:
                problems = checks.compare_reports(text, report)
                if problems:
                    outcome.fail(1, f"{sub} report differs from {label}: {problems}")
                    break
        return outcome


def run_child(argv: list[str], spans: Path | None = None, pass_id: int = 0):
    cmd = [sys.executable, str(BENCH / "cli_child.py")]
    if spans is not None:
        cmd += ["--trace", str(spans), repr(time.monotonic()), str(pass_id)]
    try:
        return subprocess.run(cmd + argv, cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return subprocess.CompletedProcess(cmd, -9, exc.stdout, b"timed out")


def timed_setup(args, into: Path) -> float:
    """Seconds one fresh interpreter takes to import the package and set up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-into", str(into), *(["--toy"] if args.toy else [])]
    into.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def measure(workload, seconds: float, trace: bool, sample_setup):
    """Alternate untraced (and, with trace, traced) passes until time is up.

    ``sample_setup()`` is called SETUP_REPEATS - 1 times, at even steps of
    the measured time (or after the last pass); its time is not measured."""
    spans = tracer.Tracer()
    times = {False: [], True: []}
    outcomes = []
    marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    start = time.perf_counter()
    while True:
        if marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            t0 = time.perf_counter()
            sample_setup()
            start += time.perf_counter() - t0
        for traced in ((False, True) if trace else (False,)):
            pass_id = len(times[traced])
            bindings = []
            if traced and isinstance(workload, McWorkload):
                spans.pass_id = pass_id
                bindings = tracer.install(spans)
            t0 = time.perf_counter()
            outcomes.append(workload.run_pass(pass_id, traced))
            times[traced].append(time.perf_counter() - t0)
            tracer.uninstall(bindings)
        per_round = sum(statistics.median(v) for v in times.values() if v)
        if time.perf_counter() - start + per_round / 2 > seconds:
            for _ in marks:
                sample_setup()
            return times, outcomes, spans.spans


def layer_metrics(workload, times, mc_spans) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and the full per-pass table."""
    per_pass = tracer.summarize(mc_spans)
    for dump in getattr(workload, "child_spans", []):
        tracer.merge(per_pass, tracer.summarize(dump["spans"]))
    passes = range(len(times[True]))

    def values(fn, field):
        return [per_pass.get(p, {}).get(fn, {}).get(field, 0) for p in passes]

    metrics, mismatched = {}, []
    for fn, fields in FUNCTION_FIELDS.items():
        for field in fields:
            vals = values(fn, field)
            if field in TIMES:
                metrics[f"{fn}.{field}"] = statistics.median(vals)
            else:
                metrics[f"{fn}.{field}"] = vals[0]
                if len(set(vals)) > 1:
                    mismatched.append(f"{fn}.{field}: {vals}")
    import_s = getattr(workload, "import_s", {})
    metrics["cli.import_s"] = statistics.median(import_s.get(p, 0.0) for p in passes)
    read_s = metrics["io.read_panel_csv.s"]
    metrics["io.read_panel_csv.rows_per_s"] = (
        metrics["io.read_panel_csv.rows"] / read_s if read_s > 0 else 0.0)
    def first(key, fns):
        return sum(per_pass.get(0, {}).get(fn, {}).get(key, 0) for fn in fns)

    points = first("grid_points", TEST_FUNCTIONS)
    metrics["inference.grid_points"] = points
    metrics["inference.grid_valid_frac"] = (
        first("grid_valid", TEST_FUNCTIONS) / points if points else 0.0)
    metrics["inference.units_skipped"] = first("units_skipped", TEST_FUNCTIONS)
    metrics["inference.units_attempted"] = first("units_attempted", TEST_FUNCTIONS)
    metrics["trace.overhead_frac"] = mean(times[True]) / mean(times[False]) - 1.0
    table = {str(p): per_pass.get(p, {}) for p in passes}
    return metrics, {"per_pass": table, "counter_mismatches": mismatched}


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes, for the self-check")
    parser.add_argument("--setup-into", type=Path, metavar="DIR",
                        help="only set up once into DIR and exit (one timed set-up sample)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import_s = import_package()
    size = "toy" if args.toy else "full"
    cls = McWorkload if args.workload.startswith("mc_") else CliWorkload
    if args.setup_into:
        cls(args.workload, size, args.seed, args.setup_into).setup()
        return 0
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [timed_setup(args, work)]

        def sample_setup():  # into its own directory, so the CSV being read stays put
            setup_times.append(timed_setup(args, work / "again"))
            shutil.rmtree(work / "again")

        workload = cls(args.workload, size, args.seed, work)
        workload.load()
        workload.prepare_checks()
        times, outcomes, mc_spans = measure(workload, args.seconds, bool(args.trace),
                                            sample_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    untraced = times[False]
    detail = {
        "workload": args.workload, "size": size, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "inputs": workload.inputs,
        "setup_repeats": SETUP_REPEATS, "setup_samples_s": setup_times,
        "import_s": import_s, "passes_untraced": len(untraced),
        "passes_traced": len(times[True]), "pass_samples_s": untraced,
        "traced_pass_samples_s": times[True], "attempted": attempted,
        "failed": failed, "fail_frac": failed / attempted, "problems": problems[:20],
        "meta": metadata(),
    }
    if args.trace:
        metrics, table = layer_metrics(workload, times, mc_spans)
        units = per_layer_units()
        stem = f"{args.workload}-{size}-seed{args.seed}"
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"in_process": mc_spans, "children": getattr(workload, "child_spans", [])}))
        (OUT / f"layers-{stem}.json").write_text(json.dumps(
            {"metrics": metrics, **table}, indent=1))
        detail["counter_mismatches"] = table["counter_mismatches"]
        problems += [f"exact counter differs between traced passes: {m}"
                     for m in table["counter_mismatches"]]
    else:
        completed = sum(workload.units_per_pass * (o.attempted - o.failed) / o.attempted
                        for o in outcomes)
        metrics = {
            "wall_s": mean(untraced),
            "units_per_s": completed / sum(untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    detail["metrics"] = metrics
    (OUT / f"result-{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:40s} {value:>16.6g} {units[name]}")
    print(f"{args.workload:10s} {'fail_frac':40s} {failed / attempted:>16.6g} "
          f"fraction ({failed} of {attempted} operations)")
    for problem in problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print("detail: " + json.dumps({k: v for k, v in detail.items() if k != "metrics"}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
