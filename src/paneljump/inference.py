"""Max-type simultaneous tests for jumps across panel units.

Per unit, the jump estimate at its threshold is standardised by a local
variance estimate; the panel-level statistic is the maximum over units (and
over candidate thresholds when the location is unknown).  Where the
comparisons are independent, the critical values are the closed-form
quantiles of the maximum of independent standard normals.  Only a threshold
search with simulated critical values has a correlation structure to
simulate: its statistics are correlated across a unit's grid points, so it
draws the maximum with those per-unit correlation blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .bandwidth import BandwidthPolicy, _pilot_rows, _plugin_rows, _pooled_bandwidth
from .errors import (ConfigError, DataError, InsufficientSupport, NumericalError, _check_int,
                     _check_real, _raised)
from .estimator import _UnitJumpFit, _fit_rows, _smooth_rows
from .kernels import KernelSpec, _edges, _recentred, denominator_floor
from .panel import PanelData, PanelUnit
from .variance import (SigmaC, _default_truncation, _v_sq, _v_tilde_sq, _window_rows,
                       sigma_c_matrix)

__all__ = [
    "TestConfig",
    "UnitResult",
    "SkippedUnit",
    "TestResult",
    "ThresholdSearchResult",
    "critical_values",
    "simulate_max_gaussian",
    "test_existence",
    "test_homogeneity",
    "search_thresholds",
]

SIDEDNESS = ("two_sided", "one_sided_upper")
CENTERS = ("mean", "median")
CV_METHODS = ("analytic", "simulated")

# Relative floor applied to standardising scales so noiseless units yield
# large finite statistics instead of dividing by zero.
_V_FLOOR_REL = 1e-12

# Cap on floats drawn per simulation chunk (about 32 MB).  Together with
# the seed it fixes the sample: chunk i is drawn from the i-th spawned seed.
_CHUNK_BUDGET = 4_000_000

# Cap on floats per row block of units (rows x T): keeps peak memory flat in N.
_BLOCK_BUDGET = 2**13

# Grid-search scan.  A scan statistic stands in for the dense one only
# where its error bound is within _SCAN_RTOL relative.  Points scoring
# within _TIE_RTOL (relative) of a unit's best scan score are solved
# densely, so ties break as in the dense search; that needs _TIE_RTOL
# above twice _SCAN_RTOL.  Designs whose denominator lies within
# _FLOOR_RTOL (relative) of the singular-design floor are left for the
# dense solver to accept or reject.
_SCAN_RTOL = 4e-10
_TIE_RTOL = 1e-9
_FLOOR_RTOL = 1e-6


@dataclass(frozen=True)
class TestConfig:
    """Statistical knobs shared by the panel-level tests."""

    alphas: tuple[float, ...] = (0.10, 0.05, 0.01)
    kernel: KernelSpec = KernelSpec("uniform")
    bandwidth: BandwidthPolicy = BandwidthPolicy.plugin()
    sidedness: str = "two_sided"
    center: str = "mean"
    cv_method: str = "analytic"
    cv_reps: int = 100_000
    seed: int = 0
    truncation: float | None = None

    def __post_init__(self) -> None:
        try:
            alphas = tuple(_check_real(a, "alpha") for a in self.alphas)
        except (TypeError, ConfigError):
            raise ConfigError(
                f"alphas must be a sequence of real numbers, got {self.alphas!r}") from None
        object.__setattr__(self, "alphas", alphas)
        if not self.alphas:
            raise ConfigError("alphas needs at least one significance level")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alpha must lie in (0, 1), got {a}")
        if self.sidedness not in SIDEDNESS:
            raise ConfigError(f"sidedness must be one of {SIDEDNESS}")
        if self.center not in CENTERS:
            raise ConfigError(f"center must be one of {CENTERS}")
        if self.cv_method not in CV_METHODS:
            raise ConfigError(f"cv_method must be one of {CV_METHODS}")
        _check_int(self.cv_reps, "cv_reps", 1)
        _check_int(self.seed, "seed")
        if self.truncation is not None:
            object.__setattr__(self, "truncation", _check_real(self.truncation, "truncation"))
            if not self.truncation > 0.0:
                raise ConfigError(
                    f"truncation must be positive (inf disables it), got {self.truncation}")


@dataclass
class UnitResult:
    """One unit's report row: the jump fit at ``threshold``, its scale and
    statistic.  A search row sits at the unit's best grid point, and
    ``stats`` holds the statistic at every grid point (NaN where invalid).

    ``stats`` is exact at the reported point and at any near-tie.  Where a
    uniform-kernel search with analytic critical values ranked the grid by
    its prefix-sum scan, the other entries are scan values within 4e-10
    relative of the dense ones (typically 1e-12); the NaN mask is always
    exact.  At the same bandwidth and truncation level, a search row is
    bit for bit the row the unit gets when it is searched alone."""

    unit_id: str
    threshold: float
    bandwidth: float
    gamma_hat: float
    v_hat: float
    std_error: float
    t_stat: float
    n_obs: int
    eff_obs: int
    centered: float | None = None
    stats: np.ndarray | None = None


@dataclass
class SkippedUnit:
    unit_id: str
    reason: str


@dataclass
class TestResult:
    kind: str
    sidedness: str
    statistic: float
    critical_values: dict[float, float]
    reject: dict[float, bool]
    n_effective: int
    per_unit: list[UnitResult]
    skipped: list[SkippedUnit]
    center: str | None = None
    center_value: float | None = None

    def table(self) -> tuple[list[str], list[list], list[list]]:
        """Report header, typed per-unit rows and typed summary lines."""
        header, rows = _unit_table(self.per_unit, "threshold")
        if self.kind == "homogeneity":
            header.insert(3, "centered")
            for row, u in zip(rows, self.per_unit):
                row.insert(3, u.centered)
        summary = [["test", self.kind], ["sidedness", self.sidedness],
                   ["statistic", self.statistic]]
        if self.center is not None:
            summary += [["center", self.center], ["center_value", self.center_value]]
        return header, rows, summary + _decision_lines(self) + _skipped_lines(self.skipped)


@dataclass
class ThresholdSearchResult:
    grid: np.ndarray
    sidedness: str
    statistic: float
    critical_values: dict[float, float]
    reject: dict[float, bool]
    n_effective: int
    n_comparisons: int
    truncation: float
    spacing_warning: bool
    per_unit: list[UnitResult]
    skipped: list[SkippedUnit]

    def table(self) -> tuple[list[str], list[list], list[list]]:
        """Report header, typed rows at each unit's best grid point, and
        typed summary lines; the grid is one sequence-valued cell."""
        header, rows = _unit_table(self.per_unit, "c_hat")
        summary = [["test", "threshold_search"], ["sidedness", self.sidedness],
                   ["statistic", self.statistic], ["grid", self.grid],
                   ["truncation", self.truncation], *_decision_lines(self),
                   ["n_comparisons", self.n_comparisons]]
        if self.spacing_warning:
            summary.append(["warning", "grid spacing at most twice the bandwidth"])
        return header, rows, summary + _skipped_lines(self.skipped)


def _unit_table(per_unit: list[UnitResult], place: str) -> tuple[list[str], list[list]]:
    header = ["unit", place, "gamma_hat", "std_error", "t_stat", "obs", "eff_obs", "bandwidth"]
    rows = [[u.unit_id, u.threshold, u.gamma_hat, u.std_error, u.t_stat,
             u.n_obs, u.eff_obs, u.bandwidth] for u in per_unit]
    return header, rows


def _decision_lines(result: TestResult | ThresholdSearchResult) -> list[list]:
    lines = [["critical_value", a, q] for a, q in result.critical_values.items()]
    lines += [["reject", a, r] for a, r in result.reject.items()]
    return lines + [["n_effective", result.n_effective]]


def _skipped_lines(skipped: list[SkippedUnit]) -> list[list]:
    return [["skipped", s.unit_id, s.reason] for s in skipped]


# ----------------------------------------------------------------------
# critical values


def _score(t, sidedness: str, order: str = "K"):
    """What the max runs over: |t| for a two-sided test, t for an upper one,
    laid out in numpy ``order`` ("C" gives a C-ordered copy of t)."""
    return np.abs(t, order=order) if sidedness == "two_sided" else np.asarray(t, order=order)


def _usable_cpus() -> int:
    """CPUs this process may run on: the simulation's thread count, capped
    at its chunk count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_max_gaussian(sigma_c: SigmaC, reps: int, seed: int,
                          sidedness: str = "two_sided") -> np.ndarray:
    """Sample of ``reps`` max statistics over the ``sigma_c.n_comparisons``
    Gaussian comparisons of a threshold search: correlated within each unit
    block of ``sigma_c`` and independent across blocks.

    Work proceeds in fixed-size chunks, each drawn from its own child of
    ``SeedSequence(seed)``, and the chunks run on a thread pool with one
    thread per usable CPU.  The sample depends only on the arguments, not
    on the thread count.  A unit block's maximum is exact in any order, so
    the layout it is taken in cannot change the sample.  Independent
    comparisons need no draw: ``critical_values`` gives their quantiles in
    closed form.

    Raises
    ------
    ConfigError
        If the seed is not a nonnegative integer, or another argument is
        out of range.
    NumericalError
        If a correlation block has an eigenvalue below -1e-8.
    """
    _check_int(seed, "seed")
    if sidedness not in SIDEDNESS:
        raise ConfigError(f"sidedness must be one of {SIDEDNESS}")
    _check_int(reps, "reps", 1)
    factors = []
    for uid, block in zip(sigma_c.unit_ids, sigma_c.blocks):
        vals, vecs = np.linalg.eigh(block)
        if vals.min() < -1e-8:
            raise NumericalError(
                f"correlation block for unit {uid!r} has eigenvalue {vals.min():.3e}"
            )
        factors.append(vecs * np.sqrt(np.clip(vals, 0.0, None)))
    n_comparisons = sigma_c.n_comparisons
    if n_comparisons < 1:
        raise ConfigError("need at least one comparison")

    chunk = max(1, min(reps, _CHUNK_BUDGET // n_comparisons))
    n_chunks = -(-reps // chunk)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    out = np.empty(reps)

    def draw(i: int) -> None:
        # Units are drawn in order; a running max equals the max over all
        # columns exactly.  Each block is scored into a (points, rows) copy
        # whose max runs down its columns, one elementwise pass per point
        # instead of one short reduction per row.
        best = out[i * chunk:(i + 1) * chunk]
        rng = np.random.default_rng(children[i])
        best[:] = -np.inf
        for f in factors:
            z = rng.standard_normal((best.size, f.shape[0])) @ f.T
            np.maximum(best, _score(z.T, sidedness, "C").max(axis=0), out=best)

    with ThreadPoolExecutor(min(_usable_cpus(), n_chunks)) as pool:
        list(pool.map(draw, range(n_chunks)))  # re-raises a chunk's error
    return out


# Cephes ndtri (Cephes Math Library, S. L. Moshier): Phi^-1 by rational
# approximations on three ranges of y.  Each denominator's leading
# coefficient is 1, so Horner's first step is 1 * z + c, exactly as Cephes'
# p1evl forms z + c.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2, 2.00260212380060660359E2,
             -8.20372256168333339912E1, 1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1, 2.50464946208309415979E0,
             -1.42182922854787788574E-1, -3.80806407691578277194E-2,
             -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1, 1.34204006088543189037E-2,
             3.28014464682127739104E-4, 2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _horner(z: float, coef: tuple[float, ...]) -> float:
    out = coef[0]
    for c in coef[1:]:
        out = out * z + c
    return out


def _ndtri(y: float) -> float:
    """Standard normal quantile Phi^-1(y): a port of Cephes ``ndtri``, the
    algorithm behind ``scipy.special.ndtri``, with its operations in its
    order, so the two agree bit for bit on [0, 1].  y <= 0 gives -inf and
    y >= 1 gives inf."""
    if y <= 0.0:
        return -math.inf
    if y >= 1.0:
        return math.inf
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:  # central range, where upper is False
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q)
    return x if upper else -x


def critical_values(n_comparisons: int, config: TestConfig) -> dict[float, float]:
    """Critical value at each of ``config.alphas`` for the maximum of
    ``n_comparisons`` independent Gaussian comparisons, with
    ``config.sidedness``: the exact quantiles of their maximum, in closed
    form whatever ``config.cv_method`` says:

        two-sided    q = Phi^-1( (1 + (1 - alpha)^(1/n)) / 2 )
        one-sided    q = Phi^-1( (1 - alpha)^(1/n) )

    Phi^-1 is ``_ndtri``, an in-repo port of Cephes ``ndtri`` that equals
    ``scipy.special.ndtri`` bit for bit, so no scipy module is loaded.  A
    level too small to move (1 - alpha)^(1/n) off 1 gives inf.
    """
    _check_int(n_comparisons, "n_comparisons", 1)
    out = {}
    for a in config.alphas:
        p = (1.0 - a) ** (1.0 / n_comparisons)
        out[a] = float(_ndtri(0.5 * (1.0 + p) if config.sidedness == "two_sided" else p))
    return out


# ----------------------------------------------------------------------
# per-unit pipeline


def _v_floor(y: np.ndarray) -> float:
    scale = float(np.max(np.abs(y)))
    return _V_FLOOR_REL * (scale if scale > 0.0 else 1.0)


def _check_threshold(value, name: str) -> float:
    """The one rule for a threshold: a finite real number (``_check_real``),
    else a ConfigError naming ``name``.  Returns it as a float."""
    value = _check_real(value, name)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _check_grid(grid) -> np.ndarray:
    """The one rule for a grid: a nonempty, strictly increasing 1-d sequence
    of thresholds (``_check_threshold``), else a ConfigError; as floats."""
    grid = np.asarray(grid, dtype=object)  # keeps each value's type for _check_real
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("grid must be a nonempty 1-d sequence")
    grid = np.array([_check_threshold(v, "grid value") for v in grid])
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError("grid must be strictly increasing")
    return grid


def _resolve_thresholds(panel: PanelData, threshold) -> dict[str, float]:
    if isinstance(threshold, Mapping):
        missing = [u.unit_id for u in panel if u.unit_id not in threshold]
        if missing:
            raise DataError(f"no threshold given for units: {', '.join(missing)}")
        return {u.unit_id: _check_threshold(threshold[u.unit_id],
                                            f"threshold of unit {u.unit_id!r}")
                for u in panel}
    return dict.fromkeys((u.unit_id for u in panel), _check_threshold(threshold, "threshold"))


def _row_blocks(items, unit=lambda item: item):
    """``items`` in row blocks of equal-length units ``unit(item)``, at most
    _BLOCK_BUDGET floats each, in their order within a length."""
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(unit(item).n_obs, []).append(item)
    for t_obs, group in groups.items():
        step = max(1, _BLOCK_BUDGET // t_obs)
        yield from (group[i:i + step] for i in range(0, len(group), step))


def _blocks(units, rows, *values) -> dict:
    """``rows(block, y, x, *arrays)`` over the row blocks of ``units``,
    where ``arrays`` holds the block's entries of each mapping in
    ``values``; the row results by unit id, in the order of ``units``."""
    out = {}
    for block in _row_blocks(units):
        arrays = [np.array([v[u.unit_id] for u in block]) for v in values]
        out.update(zip([u.unit_id for u in block], rows(
            block, np.array([u.y for u in block]), np.array([u.x for u in block]), *arrays)))
    return {u.unit_id: out[u.unit_id] for u in units}


def _front_end(panel: PanelData, threshold, config: TestConfig, what: str):
    """Front end of the panel tests: the empty-panel check, each unit's
    stable x-order (its one sort), threshold and bandwidth.  Returns the
    units that keep a bandwidth, the bandwidth skips, and the orders,
    thresholds and bandwidths by unit id, as the row functions take them."""
    if len(panel) == 0:
        raise NumericalError("empty panel")
    thresholds = _resolve_thresholds(panel, threshold)
    orders = _blocks(panel, lambda _, y, x: np.argsort(x, axis=1, kind="stable"))
    policy, units, skipped = config.bandwidth, list(panel), []
    if policy.mode == "fixed":
        return units, skipped, orders, thresholds, dict.fromkeys(thresholds, policy.value)
    kernel, (lo, hi) = config.kernel, policy.bounds
    selected = _blocks(panel, lambda _, y, x, o, c: _plugin_rows(y, x, o, c, kernel, (lo, hi)),
                       orders, thresholds)
    if policy.mode == "plugin":
        failed = {uid: InsufficientSupport(f"bandwidth selection failed: {b}")
                  for uid, b in selected.items() if isinstance(b, InsufficientSupport)}
        bandwidths = _kept(panel, selected | failed, skipped, what)
        units = [u for u in panel if u.unit_id in bandwidths]
        return units, skipped, orders, thresholds, bandwidths
    per_unit = [b for b in selected.values() if not isinstance(b, InsufficientSupport)]
    if not per_unit:
        raise NumericalError("no unit supports plugin bandwidth selection")
    ranges = [u.x[o[-1]] - u.x[o[0]] for u, o in zip(panel, orders.values()) if u.x.size > 1]
    pooled = _pooled_bandwidth(per_unit, clamp=(lo * min(ranges), hi * max(ranges)))
    return units, skipped, orders, thresholds, dict.fromkeys(thresholds, pooled)


def _unit_row(unit: PanelUnit, c: float, b: float, fit: _UnitJumpFit,
              sigma_e_sq: float, floor: float) -> UnitResult:
    """Standardise the jump fit at c into a report row: scale v, its
    standard error and t = sqrt(T b) gamma_hat / v.  A scale that is not
    a positive finite number, or a t that is not finite, is a NumericalError
    naming the unit: an infinite scale would report t = 0 for any jump."""
    v = max(float(np.sqrt(max(_v_sq(fit.w_diff, sigma_e_sq, unit.n_obs, b), 0.0))), floor)
    if not v > 0.0:
        raise NumericalError(f"nonpositive variance for unit {unit.unit_id!r}")
    if v == np.inf:
        raise NumericalError(
            f"variance for unit {unit.unit_id!r} at c={c} overflows at this outcome scale"
        )
    t_stat = float(np.sqrt(unit.n_obs * b) * fit.gamma_hat / v)
    if not np.isfinite(t_stat):
        raise NumericalError(f"jump statistic for unit {unit.unit_id!r} at c={c} "
                             "overflows at this outcome scale")
    return UnitResult(
        unit_id=unit.unit_id,
        threshold=c,
        bandwidth=b,
        gamma_hat=fit.gamma_hat,
        v_hat=v,
        std_error=_std_error(v, unit.n_obs, b),
        t_stat=t_stat,
        n_obs=unit.n_obs,
        eff_obs=fit.eff_obs,
    )


def _analyze_rows(block: list[PanelUnit], y, x, order, c, b, kernel: KernelSpec) -> list:
    """Each unit's report row at its threshold, or the error that skips it or
    stops the test.  A unit whose smooth fits at no point is skipped for
    that, not for the variance window it leaves empty."""
    out = _fit_rows(y, x, c, b, kernel)
    keep = np.flatnonzero([isinstance(fit, _UnitJumpFit) for fit in out])
    if not keep.size:
        return out
    y, x, c, b = y[keep], x[keep], c[keep], b[keep]
    y = y - np.array([out[i].gamma_hat for i in keep])[:, None] * (x >= c[:, None])
    smoothed = _smooth_rows(y, x, order[keep], b, kernel)
    resid = np.array([np.full(x.shape[1], np.nan) if isinstance(r, InsufficientSupport) else r
                      for r in smoothed])
    for r, (i, sigma_sq) in enumerate(zip(keep, _window_rows(resid, x, c, b, np.inf))):
        if isinstance(smoothed[r], InsufficientSupport):
            sigma_sq = smoothed[r]
        try:
            out[i] = _unit_row(block[i], float(c[r]), float(b[r]), out[i], _raised(sigma_sq),
                               _v_floor(block[i].y))
        except NumericalError as exc:
            out[i] = exc
    return out


def _kept(units, results: dict, skipped: list[SkippedUnit], what: str) -> dict:
    """Each unit's result by unit id, in the order of ``units``.  A unit
    whose result is InsufficientSupport is left out and appended to
    ``skipped`` with the message as its reason; any other stored error is
    raised, and a NumericalError if no unit is left."""
    out = {}
    for unit in units:
        value = results[unit.unit_id]
        if isinstance(value, InsufficientSupport):
            skipped.append(SkippedUnit(unit.unit_id, str(value)))
        else:
            out[unit.unit_id] = _raised(value)
    if not out:
        detail = "; ".join(f"{s.unit_id}: {s.reason}" for s in skipped)
        raise NumericalError(f"no unit admits {what} ({detail})")
    return out


def _fit_panel(panel: PanelData, threshold, config: TestConfig):
    """Shared known-threshold pipeline: report rows, with per-unit skip reasons."""
    if config.truncation is not None:
        raise ConfigError(
            "TestConfig.truncation applies only to search_thresholds; "
            "known-threshold tests need truncation=None"
        )
    units, skipped, *values = _front_end(panel, threshold, config, "a jump fit")
    found = _blocks(units, lambda *args: _analyze_rows(*args, config.kernel), *values)
    return list(_kept(units, found, skipped, "a jump fit").values()), skipped


def _std_error(v: float, n_obs: int, b: float) -> float:
    return float(v / np.sqrt(n_obs * b))


def test_existence(panel: PanelData, threshold=0.0,
                   config: TestConfig | None = None) -> TestResult:
    """Simultaneous test for the existence of a jump in any unit.

    ``threshold`` is a real number applied to every unit or a mapping from
    unit id to its own threshold.  Units without a valid fit are skipped and
    excluded both from the maximum and from the comparison count used for
    critical values.
    """
    config = config or TestConfig()
    rows, skipped = _fit_panel(panel, threshold, config)
    stat = float(np.max(_score(np.array([r.t_stat for r in rows]), config.sidedness)))
    cvs = critical_values(len(rows), config)
    return TestResult(
        kind="existence",
        sidedness=config.sidedness,
        statistic=stat,
        critical_values=cvs,
        reject={a: stat > q for a, q in cvs.items()},
        n_effective=len(rows),
        per_unit=rows,
        skipped=skipped,
    )


def _check_two_sided(config: TestConfig) -> None:
    # Deviations from the cross-unit centre either way count against homogeneity.
    if config.sidedness != "two_sided":
        raise ConfigError(f"the homogeneity test is two-sided; got sidedness={config.sidedness!r}")


def test_homogeneity(panel: PanelData, threshold=0.0,
                     config: TestConfig | None = None) -> TestResult:
    """Simultaneous test that all units share a common jump size, two-sided by rule."""
    config = config or TestConfig()
    _check_two_sided(config)
    rows, skipped = _fit_panel(panel, threshold, config)
    if len(rows) < 2:
        raise NumericalError("homogeneity comparison needs at least two units")
    gammas = np.array([r.gamma_hat for r in rows])
    center_value = float(np.mean(gammas) if config.center == "mean" else np.median(gammas))
    v_tildes = np.sqrt(_v_tilde_sq(np.array([r.v_hat**2 for r in rows])))
    ts = np.sqrt([r.n_obs * r.bandwidth for r in rows]) * (gammas - center_value) / v_tildes
    stat = float(np.max(np.abs(ts)))
    cvs = critical_values(len(rows), config)
    rows = [
        replace(r, v_hat=float(vt), std_error=_std_error(vt, r.n_obs, r.bandwidth),
                t_stat=float(t), centered=float(r.gamma_hat - center_value))
        for r, t, vt in zip(rows, ts, v_tildes)
    ]
    return TestResult(
        kind="homogeneity",
        sidedness=config.sidedness,
        statistic=stat,
        critical_values=cvs,
        reject={a: stat > q for a, q in cvs.items()},
        n_effective=len(rows),
        per_unit=rows,
        skipped=skipped,
        center=config.center,
        center_value=center_value,
    )


# ----------------------------------------------------------------------
# unknown threshold


def _scan_rows(y, x, order, resid, grid: np.ndarray, b, a_trunc: float, floor):
    """Uniform-kernel statistics of each row at every grid point from prefix
    sums along its stable x-order ``order``, at its own bandwidth ``b`` and
    scale floor ``floor``.

    Mirrors ``estimator._fit_rows``, ``variance._window_rows`` and ``_unit_row``
    without forming a weight row: with the kernel constant, each side's
    fit needs only the windowed sums of 1, d, d^2, y and d y (d = x - c),
    and its squared weight norm is S_dd / (n S_dd - S_d^2).  The variance
    window is the union of the two sides' windows.  Sums run in numpy's long
    double, recentred on the row's mean of x; where that is plain float64 the
    error bound below is wider and more points go to the dense solver.  The
    edges and prefix sums run along each row on its own, so each row is
    bit-identical to a block of that row alone.

    Returns each row's statistic per grid point (NaN where the scan finds the
    point unusable, including where the dense solver's float64 sums would
    overflow) and a mask of points to solve densely: those whose validity
    hinges on the singular-design floor or on that overflow, and valid ones whose
    first-order error bound, covering the scan's prefix sums and the
    dense solver's own rounding, exceeds ``_SCAN_RTOL`` relative.  Both
    are (rows, grid points); window quantities run as (windows, rows).
    """
    xs = np.take_along_axis(x, order, 1)
    (n_rows, n_obs), k, rows = xs.shape, grid.size, np.arange(len(x))
    lo_m = _edges(xs, grid - b[:, None], "left").T
    lo_p = _edges(xs, np.broadcast_to(grid, (n_rows, k)), "left").T
    hi_p = _edges(xs, grid + b[:, None], "right").T

    ld = np.longdouble
    centre = xs.mean(1).astype(ld)
    xc = xs.astype(ld) - centre[:, None]
    ys = np.take_along_axis(y, order, 1).astype(ld)
    rs = np.take_along_axis(resid, order, 1)
    finite = np.isfinite(rs)
    capped = np.minimum(ld(a_trunc), np.where(finite, rs, 0.0).astype(ld) ** 2)
    terms = (xc, xc * xc, ys, xc * ys, np.abs(xc), np.abs(ys), np.abs(xc * ys), capped, finite)
    prefix = np.zeros((len(terms), n_rows, n_obs + 1), dtype=ld)
    np.cumsum(np.stack(terms), axis=2, out=prefix[:, :, 1:])
    # Windows: plus sides, minus sides, then variance windows.
    lo = np.concatenate((lo_p, lo_m, lo_m))
    hi = np.concatenate((hi_p, lo_p, hi_p))
    win = prefix[:, rows, hi] - prefix[:, rows, lo]
    mag = prefix[:, rows, hi] + prefix[:, rows, lo]  # bounds the prefix sums' rounding

    # Rounding per unit of magnitude: a sequential cumsum bound for the
    # scan's prefix sums and the few operations after them, and a
    # typical-rounding estimate for the dense solver's float64 sums.
    eps = np.finfo(float).eps
    scan_acc = (n_obs + 16) * np.finfo(ld).eps
    sides = slice(0, 2 * k)
    n = (hi[sides] - lo[sides]).astype(ld)
    dense_acc = (np.sqrt(n) + 16) * eps
    uc = np.tile(grid.astype(ld)[:, None] - centre, (2, 1))
    au = np.abs(uc)
    m1, m2, r0, r1_raw, _, abs_y = win[:6, sides]
    g_m1, g_m2, g_r0, g_r1 = mag[4, sides], mag[1, sides], mag[5, sides], mag[6, sides]
    with np.errstate(divide="ignore", invalid="ignore"):
        s1, s2, r1 = _recentred(uc, n, m1, m2, r0, r1_raw)
        # Error magnitudes of s1, s2, r0 and r1: prefix terms for the scan,
        # window terms (|d| <= b) for the dense solver.
        e_s1 = scan_acc * (g_m1 + au * n) + dense_acc * b * n
        e_s2 = scan_acc * (g_m2 + 2 * au * g_m1 + au * au * n) + dense_acc * s2
        e_r0 = scan_acc * g_r0 + dense_acc * abs_y
        e_r1 = scan_acc * (g_r1 + au * g_r0) + dense_acc * b * abs_y
        den = n * s2 - s1 * s1
        e_den = n * e_s2 + 2 * np.abs(s1) * e_s1
        mu = (s2 * r0 - s1 * r1) / den
        e_mu = (e_s2 * np.abs(r0) + np.abs(s2) * e_r0 + e_s1 * np.abs(r1)
                + np.abs(s1) * e_r1 + np.abs(mu) * e_den) / den
        # The dense sums carry the kernel value 1/2: its s0 is n/2, its s2
        # is s2/2 and its denominator den/4.
        den_floor = denominator_floor(n / 2, s2 / 2)
        distinct = ((hi[sides] - lo[sides] >= 2)
                    & (xs[rows, np.minimum(lo[sides], n_obs - 1)]
                       < xs[rows, np.maximum(hi[sides] - 1, 0)]))
        # The dense solver's float64 sums overflow where its s0 s2 = n s2 / 4
        # leaves the float range, and its design is then singular; the long
        # double sums here do not overflow, so such points are invalid, and
        # those the error bound cannot place go to the dense solver.
        f_max = np.finfo(float).max
        overflows = n * (s2 - e_s2) / 4 > f_max
        in_range = np.maximum(1, n / 4) * (s2 + e_s2) < f_max / 2
        solvable = distinct & (den / 4 > den_floor) & ~overflows
        borderline = ((np.abs(den / 4 - den_floor)
                       <= np.maximum(_FLOOR_RTOL * den_floor, e_den / 4))
                      | ~(overflows | in_range))

        cnt = win[8, 2 * k:]
        sigma_e_sq = win[7, 2 * k:] / cnt
        e_sigma = (scan_acc * mag[7, 2 * k:] / win[7, 2 * k:]
                   + (np.sqrt(cnt) + 16) * eps)
        plus, minus = slice(0, k), slice(k, 2 * k)
        gamma = mu[plus] - mu[minus]
        tb = (n_obs * b).astype(ld)
        w_sq = s2 / den
        v = np.maximum(np.sqrt(np.maximum(tb * (w_sq[plus] + w_sq[minus]) * sigma_e_sq, 0)),
                       floor.astype(ld))
        t = (np.sqrt(tb) * gamma / v).astype(float)
        # Relative error of t = sqrt(T b) gamma / v: that of gamma plus half
        # that of v^2 (w_sq and sigma_e_sq terms).
        e_w_sq = e_s2 / s2 + e_den / den
        rel = ((e_mu[plus] + e_mu[minus]) / np.abs(gamma)
               + 0.5 * (e_w_sq[plus] + e_w_sq[minus] + e_sigma) + 16 * eps).astype(float)
    possible = distinct[plus] & distinct[minus] & (cnt > 0)
    valid = solvable[plus] & solvable[minus] & (cnt > 0)
    t[~valid] = np.nan
    unsure = possible & (borderline[plus] | borderline[minus] | (valid & ~(rel <= _SCAN_RTOL)))
    return t.T, unsure.T


def _grid_search(units, grid: np.ndarray, orders, bandwidths, residuals, a_trunc: float,
                 config: TestConfig) -> dict:
    """Each unit's search by unit id: its report row at its best grid point
    (the first on exact ties), with ``stats`` as ``UnitResult`` says, and
    its correlation block over the valid points in grid order when
    critical values are simulated (else None); or InsufficientSupport
    when no grid point is usable.

    The uniform kernel with analytic critical values scans every point
    (``_scan_rows``, as row blocks of units) and solves only those that can
    win or that the scan cannot vouch for; any other configuration solves
    every point.  The solved (unit, grid point) rows run as row blocks
    gathered across the units of one length, each bit-identical to its
    point alone.
    """
    floors = {u.unit_id: _v_floor(u.y) for u in units}

    def solve_sets(_, y, x, order, resid, b, floor):
        stats, unsure = _scan_rows(y, x, order, resid, grid, b, a_trunc, floor)
        sure = np.isfinite(stats) & ~unsure
        score = _score(stats, config.sidedness)
        top = np.max(score, axis=1, keepdims=True, initial=-np.inf, where=sure)
        near = sure & (score >= top - _TIE_RTOL * np.maximum(1.0, np.abs(top)))
        return zip(stats, unsure | near)

    if config.kernel.kind == "uniform" and config.cv_method == "analytic":
        found = _blocks(units, solve_sets, orders, residuals, bandwidths, floors)
    else:
        found = dict.fromkeys(bandwidths, (np.full(grid.size, np.nan), np.ones(grid.size, bool)))
    points = [(u, k) for u in units for k in np.flatnonzero(found[u.unit_id][1]).tolist()]
    solved = {}
    for block in _row_blocks(points, lambda point: point[0]):
        ids, c = [u.unit_id for u, _ in block], grid[[k for _, k in block]]
        y, x = np.array([u.y for u, _ in block]), np.array([u.x for u, _ in block])
        b, resid = (np.array([v[uid] for uid in ids]) for v in (bandwidths, residuals))
        solved.update(zip([(uid, k) for uid, (_, k) in zip(ids, block)], zip(
            _fit_rows(y, x, c, b, config.kernel), _window_rows(resid, x, c, b, a_trunc))))

    out = {}
    for unit in units:
        uid, rows, w_diffs = unit.unit_id, [], []
        stats, solve = np.array(found[uid][0]), found[uid][1]
        for k in np.flatnonzero(solve).tolist():
            fit, sigma_e_sq = solved[uid, k]
            stats[k] = np.nan
            if isinstance(fit, _UnitJumpFit) and isinstance(sigma_e_sq, float):
                rows.append(_unit_row(unit, float(grid[k]), bandwidths[uid], fit, sigma_e_sq,
                                      floors[uid]))
                stats[k] = rows[-1].t_stat
                w_diffs.append(fit.w_diff)
        if not rows:
            out[uid] = InsufficientSupport("no valid grid point")
            continue
        best = int(np.argmax(_score(np.array([r.t_stat for r in rows]), config.sidedness)))
        out[uid] = replace(rows[best], stats=stats), (
            sigma_c_matrix(w_diffs) if config.cv_method == "simulated" else None)
    return out


def search_thresholds(panel: PanelData, grid, config: TestConfig | None = None) -> ThresholdSearchResult:
    """Grid search for per-unit thresholds with a simultaneous existence test.

    Each unit's threshold estimate is the grid point maximising its
    standardised jump statistic (first grid point on exact ties).  The
    panel statistic is the maximum over all units and grid points, with
    critical values for the total comparison count.  Residuals are taken
    from an undersmoothing pilot without jump removal, and squared
    residuals are truncated before averaging, so the unknown jump cannot
    inflate the variance estimates.  An explicit ``config.truncation`` at
    or below every finite squared residual would cap them all, and is a
    ``ConfigError``.

    With the uniform kernel and analytic critical values, a prefix-sum
    scan ranks every grid point and only the points that can be a unit's
    best (or that the scan cannot vouch for) are solved densely; each
    row's ``stats`` then holds what ``UnitResult`` says.  Other kernels,
    and simulated critical values, which need every weight row, solve
    every grid point.  The scan runs as row blocks of units, and the solved
    (unit, grid point) rows as row blocks gathered across the units of one
    length; at the same bandwidth and truncation level each unit's results
    are those of the unit searched alone, bit for bit.  The grid must be
    nonempty, finite and strictly increasing (a bool or string is no value).

    The result's ``spacing_warning`` flag is set when the grid spacing
    drops to 2 bandwidths or less, where statistics at neighbouring grid
    points share observations and independent critical values become
    conservative; reports show it as a warning line.  No Python warning
    is issued.
    """
    config = config or TestConfig()
    grid = _check_grid(grid)
    units, skipped, orders, _, bandwidths = _front_end(panel, float(grid[grid.size // 2]),
                                                       config, "a grid search")
    smoothed = _blocks(units, lambda _, y, x, order, b: _smooth_rows(
        y, x, order, _pilot_rows(x, order, b), config.kernel), orders, bandwidths)
    residuals = _kept(units, smoothed, skipped, "a grid search")
    units = [u for u in units if u.unit_id in residuals]

    with np.errstate(over="ignore"):  # squares past the float range are inf
        pooled = np.concatenate([r[np.isfinite(r)] ** 2 for r in residuals.values()])
    if config.truncation is None:
        a_trunc = _default_truncation(pooled)
    else:
        a_trunc = config.truncation
        if a_trunc <= pooled.min():
            raise ConfigError(
                f"truncation {a_trunc!r} is at or below every squared pilot "
                f"residual (the smallest is {float(pooled.min())!r})"
            )

    found = _kept(units, _grid_search(units, grid, orders, bandwidths, residuals, a_trunc,
                                      config), skipped, "a grid search")
    per_unit = [row for row, _ in found.values()]
    statistic = float(np.max(_score(np.array([u.t_stat for u in per_unit]), config.sidedness)))
    n_comparisons = int(sum(np.count_nonzero(np.isfinite(u.stats)) for u in per_unit))

    if config.cv_method == "simulated":
        sigma_c = SigmaC(unit_ids=list(found), blocks=[block for _, block in found.values()])
        sample = simulate_max_gaussian(sigma_c, config.cv_reps, config.seed, config.sidedness)
        cvs = {a: float(np.quantile(sample, 1.0 - a)) for a in config.alphas}
    else:
        cvs = critical_values(n_comparisons, config)

    spacing_warning = bool(grid.size > 1 and np.min(np.diff(grid))
                           <= 2.0 * max(u.bandwidth for u in per_unit))

    return ThresholdSearchResult(
        grid=grid,
        sidedness=config.sidedness,
        statistic=statistic,
        critical_values=cvs,
        reject={a: statistic > q for a, q in cvs.items()},
        n_effective=len(per_unit),
        n_comparisons=n_comparisons,
        truncation=a_trunc,
        spacing_warning=spacing_warning,
        per_unit=per_unit,
        skipped=skipped,
    )
