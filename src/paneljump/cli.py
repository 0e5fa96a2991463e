"""Command line interface.

Subcommands: jump-test, homogeneity-test, threshold-search, simulate,
critical-value.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bandwidth import BandwidthPolicy
from .dgp import DgpConfig, GammaScheme, McConfig, run_size_power
from .errors import DataError, InvalidAlpha, NumericalError
from .inference import TestConfig, critical_value, search_thresholds, test_existence, test_homogeneity
from .io import PanelSchema, read_panel_csv, read_threshold_csv, write_report
from .kernels import KERNEL_KINDS, KernelSpec

__all__ = ["cli_main", "main"]

_SIDED = {"two": "two_sided", "upper": "one_sided_upper"}


class UsageError(Exception):
    pass


def _parse_schema(text: str | None, delimiter: str) -> PanelSchema:
    if text is None:
        return PanelSchema(delimiter=delimiter)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or not all(parts):
        raise UsageError(
            f"--schema needs 4 comma-separated column names (unit,time,y,x), got {text!r}"
        )
    return PanelSchema(unit_col=parts[0], time_col=parts[1], y_col=parts[2],
                       x_col=parts[3], delimiter=delimiter)


def _parse_bandwidth(text: str) -> BandwidthPolicy:
    if text == "auto":
        return BandwidthPolicy.plugin()
    if text == "pooled":
        return BandwidthPolicy.pooled()
    if text.startswith("fixed:"):
        try:
            value = float(text[6:])
        except ValueError:
            raise UsageError(f"bad fixed bandwidth {text!r}") from None
        if value <= 0.0:
            raise UsageError("fixed bandwidth must be positive")
        return BandwidthPolicy.fixed(value)
    raise UsageError(f"--bandwidth must be auto, pooled, or fixed:<v>, got {text!r}")


def _parse_threshold(text: str):
    """Returns a scalar, a per-unit mapping, or ('grid', values)."""
    if text.startswith("file:"):
        return read_threshold_csv(text[5:])
    if text.startswith("grid:"):
        try:
            values = [float(v) for v in text[5:].split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"bad grid in {text!r}") from None
        if not values:
            raise UsageError("grid needs at least one value")
        return ("grid", values)
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad threshold {text!r}") from None


def _test_config(args, sidedness: str | None = None) -> TestConfig:
    return TestConfig(
        alphas=tuple(args.alpha) if args.alpha else (0.10, 0.05, 0.01),
        kernel=KernelSpec(args.kernel),
        bandwidth=_parse_bandwidth(args.bandwidth),
        sidedness=sidedness or _SIDED[getattr(args, "sided", "two")],
        center=getattr(args, "center", "mean"),
        cv_method=args.method,
        cv_reps=args.cv_reps,
        seed=args.seed,
        truncation=getattr(args, "truncation", None),
    )


def _emit(result, args) -> None:
    text = write_report(result, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "tsv", "markdown"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="long-format panel CSV")
    p.add_argument("--schema", default=None,
                   help="unit,time,y,x column names (default: those names)")
    p.add_argument("--delimiter", default=",")


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", action="append", type=float, default=None,
                   help="significance level, repeatable (default 0.10 0.05 0.01)")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="uniform")
    p.add_argument("--bandwidth", default="auto",
                   help="auto | pooled | fixed:<v> (default auto)")
    p.add_argument("--method", choices=("analytic", "simulated"), default="analytic",
                   help="critical value method")
    p.add_argument("--cv-reps", type=int, default=100_000,
                   help="replications for simulated critical values")
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paneljump",
        description="Jump (threshold) effect tests for heterogeneous panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jump-test", help="simultaneous jump existence test")
    _add_data_flags(p)
    _add_test_flags(p)
    p.add_argument("--threshold", default="0.0",
                   help="<v> or file:<path> with per-unit (unit,c) rows")
    p.add_argument("--sided", choices=("two", "upper"), default="two")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_jump_test)

    p = sub.add_parser("homogeneity-test", help="common jump size test")
    _add_data_flags(p)
    _add_test_flags(p)
    p.add_argument("--threshold", default="0.0",
                   help="<v> or file:<path> with per-unit (unit,c) rows")
    p.add_argument("--center", choices=("mean", "median"), default="mean")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_homogeneity_test)

    p = sub.add_parser("threshold-search", help="grid search for unknown thresholds")
    _add_data_flags(p)
    _add_test_flags(p)
    p.add_argument("--threshold", required=True,
                   help="grid:<v1,v2,...> candidate thresholds")
    p.add_argument("--sided", choices=("two", "upper"), default="two")
    p.add_argument("--truncation", type=float, default=None,
                   help="cap on squared residuals (default: data driven)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_threshold_search)

    p = sub.add_parser("simulate", help="Monte Carlo size/power table")
    p.add_argument("--dgp", type=int, required=True, choices=range(1, 7))
    p.add_argument("--n", type=int, required=True, help="number of units")
    p.add_argument("--t", type=int, required=True, help="observations per unit")
    p.add_argument("--reps", type=int, required=True)
    _add_test_flags(p)
    p.add_argument("--test", choices=("existence", "homogeneity"), default="existence")
    p.add_argument("--threshold", default="0.0",
                   help="<v> known threshold or grid:<v1,...> to search")
    p.add_argument("--sided", choices=("two", "upper"), default="two")
    p.add_argument("--fraction", type=float, default=0.0,
                   help="fraction of units given a jump (0 = size run)")
    p.add_argument("--scale", type=float, default=1.0, help="jump scale factor")
    # argparse converts a string default with ``type`` only when this
    # subcommand runs, so a bad PANELJUMP_THREADS is a usage error here.
    p.add_argument("--workers", type=int,
                   default=os.environ.get("PANELJUMP_THREADS", "1"))
    _add_io_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("critical-value", help="print critical values")
    p.add_argument("--n", type=int, required=True, help="number of comparisons")
    p.add_argument("--alpha", action="append", type=float, default=None)
    p.add_argument("--sided", choices=("two", "upper"), default="two")
    p.add_argument("--method", choices=("analytic", "simulated"), default="analytic")
    p.add_argument("--cv-reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_critical_value)

    return parser


def _load_panel(args):
    schema = _parse_schema(args.schema, args.delimiter)
    return read_panel_csv(args.data, schema)


def _cmd_jump_test(args) -> int:
    threshold = _parse_threshold(args.threshold)
    if isinstance(threshold, tuple):
        raise UsageError("jump-test takes a scalar or file: threshold, not a grid")
    panel = _load_panel(args)
    result = test_existence(panel, threshold, _test_config(args))
    _emit(result, args)
    return 0


def _cmd_homogeneity_test(args) -> int:
    threshold = _parse_threshold(args.threshold)
    if isinstance(threshold, tuple):
        raise UsageError("homogeneity-test takes a scalar or file: threshold, not a grid")
    panel = _load_panel(args)
    result = test_homogeneity(panel, threshold, _test_config(args, "two_sided"))
    _emit(result, args)
    return 0


def _cmd_threshold_search(args) -> int:
    threshold = _parse_threshold(args.threshold)
    if not isinstance(threshold, tuple):
        raise UsageError("threshold-search needs --threshold grid:<v1,v2,...>")
    panel = _load_panel(args)
    result = search_thresholds(panel, threshold[1], _test_config(args))
    _emit(result, args)
    return 0


def _cmd_simulate(args) -> int:
    threshold = _parse_threshold(args.threshold)
    grid = None
    c0 = 0.0
    if isinstance(threshold, tuple):
        grid = threshold[1]
    elif isinstance(threshold, dict):
        raise UsageError("simulate takes a scalar or grid: threshold")
    else:
        c0 = threshold
    scheme = (GammaScheme.sparse_power(args.fraction, args.scale)
              if args.fraction > 0.0 else GammaScheme.null())
    dgp_cfg = DgpConfig(dgp_id=args.dgp, n_units=args.n, t_obs=args.t,
                        threshold=c0, gamma_scheme=scheme)
    mc = McConfig(reps=args.reps,
                  alphas=tuple(args.alpha) if args.alpha else (0.10, 0.05, 0.01),
                  base_seed=args.seed, workers=max(1, args.workers))
    table = run_size_power(dgp_cfg, mc, test=args.test, grid=grid,
                           config=_test_config(args))
    _emit(table, args)
    return 0


def _cmd_critical_value(args) -> int:
    alphas = tuple(args.alpha) if args.alpha else (0.10, 0.05, 0.01)
    sided = _SIDED[args.sided]
    for alpha in alphas:
        q = critical_value(args.n, alpha, sided, method=args.method,
                           reps=args.cv_reps, seed=args.seed)
        sys.stdout.write(f"{q:.3f}\n")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, InvalidAlpha, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 4


def main() -> None:
    sys.exit(cli_main())
