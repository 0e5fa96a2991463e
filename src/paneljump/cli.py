"""Command line interface.

Subcommands: jump-test, homogeneity-test, threshold-search, simulate,
critical-value.  Exit codes follow the error family: 0 success, 2 usage
error (argparse, or ConfigError), 3 data error (DataError), 4 numerical
failure (NumericalError).  Any other exception is a fault in the program:
it is not caught and ends in a traceback with exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bandwidth import BandwidthPolicy
from .dgp import DgpConfig, GammaScheme, McConfig, run_size_power
from .errors import ConfigError, DataError, NumericalError
from .inference import (CENTERS, CV_METHODS, TestConfig, critical_values, search_thresholds,
                        test_existence, test_homogeneity)
from .io import FORMATS, PanelSchema, read_panel_csv, read_threshold_csv, write_report
from .kernels import KERNEL_KINDS, KernelSpec

__all__ = ["cli_main", "main"]

_SIDED = {"two": "two_sided", "upper": "one_sided_upper"}
_THRESHOLD_FORMS = {"scalar": "<v>", "file": "file:<path>", "grid": "grid:<v1,v2,...>"}


def _parse_schema(text: str | None, delimiter: str) -> PanelSchema:
    if text is None:
        return PanelSchema(delimiter=delimiter)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or not all(parts):
        raise ConfigError(
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
            raise ConfigError(f"bad fixed bandwidth {text!r}") from None
        return BandwidthPolicy.fixed(value)
    raise ConfigError(f"--bandwidth must be auto, pooled, or fixed:<v>, got {text!r}")


def _parse_threshold(args, kinds: tuple[str, ...], delimiter: str = ","):
    """Returns a scalar, a per-unit mapping (``file:``) or a list of grid
    values (``grid:``).

    A kind the command does not take (``kinds``) is a ConfigError, raised
    before any file is read, and so is a non-finite threshold or grid
    value.  A threshold file is split on ``delimiter``.
    """
    text = args.threshold
    kind = text[:4] if text.startswith(("file:", "grid:")) else "scalar"
    if kind not in kinds:
        forms = " or ".join(_THRESHOLD_FORMS[k] for k in kinds)
        raise ConfigError(f"{args.command} takes --threshold {forms}, got {text!r}")
    if kind == "file":
        return read_threshold_csv(text[5:], delimiter)
    fields = [v for v in text[5:].split(",") if v.strip()] if kind == "grid" else [text]
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ConfigError(f"bad threshold {text!r}") from None
    if not values:
        raise ConfigError("grid needs at least one value")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"thresholds must be finite, got {text!r}")
    return values if kind == "grid" else values[0]


def _test_config(args) -> TestConfig:
    """The TestConfig the command's flags set; a flag the command lacks
    takes its default (critical-value has no kernel or bandwidth)."""
    return TestConfig(
        alphas=tuple(args.alpha) if args.alpha else TestConfig.alphas,
        kernel=KernelSpec(getattr(args, "kernel", "uniform")),
        bandwidth=_parse_bandwidth(getattr(args, "bandwidth", "auto")),
        sidedness=_SIDED[getattr(args, "sided", "two")],
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
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="long-format panel CSV")
    p.add_argument("--schema", default=None,
                   help="unit,time,y,x column names (default: those names)")
    p.add_argument("--delimiter", default=",")


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", action="append", type=float, default=None,
                   help="significance level, repeatable (default 0.10 0.05 0.01)")
    p.add_argument("--method", choices=CV_METHODS, default="analytic",
                   help="critical value method: simulated draws a grid search's "
                        "correlated maximum; everywhere else both give the closed form")
    p.add_argument("--cv-reps", type=int, default=100_000,
                   help="draws for simulated critical values of a grid search")
    p.add_argument("--seed", type=int, default=0)


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    _add_cv_flags(p)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="uniform")
    p.add_argument("--bandwidth", default="auto",
                   help="auto | pooled | fixed:<v> (default auto)")


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
    p.add_argument("--sided", choices=tuple(_SIDED), default="two")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_test, run=test_existence, kinds=("scalar", "file"))

    p = sub.add_parser("homogeneity-test", help="common jump size test")
    _add_data_flags(p)
    _add_test_flags(p)
    p.add_argument("--threshold", default="0.0",
                   help="<v> or file:<path> with per-unit (unit,c) rows")
    p.add_argument("--center", choices=CENTERS, default="mean")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_test, run=test_homogeneity, kinds=("scalar", "file"))

    p = sub.add_parser("threshold-search", help="grid search for unknown thresholds")
    _add_data_flags(p)
    _add_test_flags(p)
    p.add_argument("--threshold", required=True,
                   help="grid:<v1,v2,...> candidate thresholds")
    p.add_argument("--sided", choices=tuple(_SIDED), default="two")
    p.add_argument("--truncation", type=float, default=None,
                   help="cap on squared residuals (default: data driven)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_test, run=search_thresholds, kinds=("grid",))

    p = sub.add_parser("simulate", help="Monte Carlo size/power table")
    p.add_argument("--dgp", type=int, required=True, choices=range(1, 7))
    p.add_argument("--n", type=int, required=True, help="number of units")
    p.add_argument("--t", type=int, required=True, help="observations per unit")
    p.add_argument("--reps", type=int, required=True)
    _add_test_flags(p)
    p.add_argument("--test", choices=("existence", "homogeneity"), default="existence")
    p.add_argument("--threshold", default="0.0",
                   help="<v> known threshold or grid:<v1,...> to search")
    p.add_argument("--sided", choices=tuple(_SIDED), default="two")
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
    _add_cv_flags(p)
    p.add_argument("--sided", choices=tuple(_SIDED), default="two")
    p.set_defaults(func=_cmd_critical_value)

    return parser


def _cmd_test(args) -> int:
    """jump-test, homogeneity-test and threshold-search: ``args.run`` is
    the library test, ``args.kinds`` the threshold forms it takes."""
    schema = _parse_schema(args.schema, args.delimiter)
    threshold = _parse_threshold(args, args.kinds, schema.delimiter)
    config = _test_config(args)
    _emit(args.run(read_panel_csv(args.data, schema), threshold, config), args)
    return 0


def _cmd_simulate(args) -> int:
    threshold = _parse_threshold(args, ("scalar", "grid"))
    grid, c0 = (threshold, 0.0) if isinstance(threshold, list) else (None, threshold)
    scheme = (GammaScheme.sparse_power(args.fraction, args.scale)
              if args.fraction > 0.0 else GammaScheme.null())
    dgp_cfg = DgpConfig(dgp_id=args.dgp, n_units=args.n, t_obs=args.t,
                        threshold=c0, gamma_scheme=scheme)
    mc = McConfig(reps=args.reps, base_seed=args.seed, workers=args.workers)
    table = run_size_power(dgp_cfg, mc, test=args.test, grid=grid,
                           config=_test_config(args))
    _emit(table, args)
    return 0


def _cmd_critical_value(args) -> int:
    config = _test_config(args)
    cvs = critical_values(args.n, config)
    sys.stdout.write("".join(f"{cvs[a]:.3f}\n" for a in config.alphas))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
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


if __name__ == "__main__":
    main()
