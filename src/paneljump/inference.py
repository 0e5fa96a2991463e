"""Max-type simultaneous tests for jumps across panel units.

Per unit, the jump estimate at its threshold is standardised by a local
variance estimate; the panel-level statistic is the maximum over units (and
over candidate thresholds when the location is unknown).  Critical values
come from the maximum of independent standard normals, either in closed
form or simulated, optionally with a per-unit correlation structure across
candidate thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.special import ndtri

from .bandwidth import BandwidthPolicy, _plugin_rows, pilot_bandwidth, pooled_bandwidth
from .errors import ConfigError, DataError, InsufficientSupport, NumericalError, _raised
from .estimator import UnitJumpFit, _fit_rows, _residual_rows, smooth_residuals
from .kernels import KernelSpec, denominator_floor
from .panel import PanelData, PanelUnit
from .variance import (
    SigmaC,
    _window_rows,
    default_truncation,
    sigma_c_matrix,
    v_sq,
    v_tilde_sq,
)

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

# Cap on floats drawn per simulation chunk (about 32 MB).
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
        if self.cv_reps < 1:
            raise ConfigError("cv_reps must be positive")
        if self.truncation is not None and not self.truncation > 0.0:
            raise ConfigError(
                f"truncation must be positive (inf disables it), got {self.truncation}"
            )


@dataclass
class UnitResult:
    """One unit's report row: the jump fit at ``threshold``, its scale and
    statistic.  A search row sits at the unit's best grid point, and
    ``stats`` holds the statistic at every grid point (NaN where invalid).

    ``stats`` is exact at the reported point and at any near-tie.  Where a
    uniform-kernel search with analytic critical values ranked the grid by
    its prefix-sum scan, the other entries are scan values within 4e-10
    relative of the dense ones (typically 1e-12); the NaN mask is always
    exact."""

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


def _score(t, sidedness: str):
    """What the max runs over: |t| for a two-sided test, t for an upper one."""
    return np.abs(t) if sidedness == "two_sided" else t


def simulate_max_gaussian(n_comparisons: int, reps: int, seed: int,
                          sigma_c: SigmaC | None = None,
                          sidedness: str = "two_sided") -> np.ndarray:
    """Sample of max statistics under the Gaussian reference distribution.

    Draws are independent standard normals unless ``sigma_c`` supplies
    per-unit correlation blocks, in which case draws are correlated within
    a block and independent across blocks.  Deterministic for a fixed seed
    and replication count; work proceeds in fixed-size chunks.

    Raises
    ------
    NumericalError
        If a correlation block has an eigenvalue below -1e-8.
    """
    if sidedness not in SIDEDNESS:
        raise ConfigError(f"sidedness must be one of {SIDEDNESS}")
    if reps < 1:
        raise ConfigError("reps must be positive")
    factors = None
    if sigma_c is not None:
        n_comparisons = sigma_c.n_comparisons
        factors = []
        for uid, block in zip(sigma_c.unit_ids, sigma_c.blocks):
            vals, vecs = np.linalg.eigh(block)
            if vals.min() < -1e-8:
                raise NumericalError(
                    f"correlation block for unit {uid!r} has eigenvalue {vals.min():.3e}"
                )
            factors.append(vecs * np.sqrt(np.clip(vals, 0.0, None)))
    if n_comparisons < 1:
        raise ConfigError("need at least one comparison")

    chunk = max(1, min(reps, _CHUNK_BUDGET // n_comparisons))
    n_chunks = -(-reps // chunk)
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    out = np.empty(reps)
    pos = 0
    for child in children:
        m = min(chunk, reps - pos)
        rng = np.random.default_rng(child)
        if factors is None:
            z = rng.standard_normal((m, n_comparisons))
        else:
            parts = [rng.standard_normal((m, f.shape[0])) @ f.T for f in factors]
            z = np.hstack(parts)
        out[pos:pos + m] = _score(z, sidedness).max(axis=1)
        pos += m
    return out


def critical_values(n_comparisons: int, config: TestConfig,
                    sigma_c: SigmaC | None = None) -> dict[float, float]:
    """Critical value at each of ``config.alphas`` for the maximum of
    ``n_comparisons`` Gaussian comparisons, with ``config.sidedness``.

    Analytic values are in closed form for independent comparisons:

        two-sided    q = Phi^-1( (1 + (1 - alpha)^(1/n)) / 2 )
        one-sided    q = Phi^-1( (1 - alpha)^(1/n) )

    Simulated values are the empirical (1 - alpha) quantiles of one
    ``simulate_max_gaussian`` sample of ``config.cv_reps`` draws, correlated
    within the blocks of ``sigma_c`` when it is given.
    """
    if config.cv_method == "simulated":
        sample = simulate_max_gaussian(n_comparisons, config.cv_reps, config.seed,
                                       sigma_c, config.sidedness)
        return {a: float(np.quantile(sample, 1.0 - a)) for a in config.alphas}
    if n_comparisons < 1:
        raise ConfigError("need at least one comparison")
    out = {}
    for a in config.alphas:
        p = (1.0 - a) ** (1.0 / n_comparisons)
        out[a] = float(ndtri(0.5 * (1.0 + p) if config.sidedness == "two_sided" else p))
    return out


# ----------------------------------------------------------------------
# per-unit pipeline


def _v_floor(y: np.ndarray) -> float:
    scale = float(np.max(np.abs(y)))
    return _V_FLOOR_REL * (scale if scale > 0.0 else 1.0)


def _resolve_thresholds(panel: PanelData, threshold) -> dict[str, float]:
    if isinstance(threshold, Mapping):
        missing = [u.unit_id for u in panel if u.unit_id not in threshold]
        if missing:
            raise DataError(f"no threshold given for units: {', '.join(missing)}")
        out = {u.unit_id: float(threshold[u.unit_id]) for u in panel}
    else:
        out = dict.fromkeys((u.unit_id for u in panel), float(threshold))
    bad = [f"{uid}={c}" for uid, c in out.items() if not np.isfinite(c)]
    if bad:
        raise ConfigError(f"thresholds must be finite, got {', '.join(bad[:3])}")
    return out


def _blocks(units, rows, *values) -> dict:
    """``rows(block, y, x, *arrays)`` over row blocks of equal-length units,
    at most _BLOCK_BUDGET floats each, where ``arrays`` holds the block's
    entries of each mapping in ``values``; the row results by unit id."""
    groups: dict[int, list[PanelUnit]] = {}
    for u in units:
        groups.setdefault(u.n_obs, []).append(u)
    out = {}
    for t_obs, group in groups.items():
        step = max(1, _BLOCK_BUDGET // t_obs)
        for block in (group[i:i + step] for i in range(0, len(group), step)):
            arrays = [np.array([v[u.unit_id] for u in block]) for v in values]
            out.update(zip([u.unit_id for u in block], rows(
                block, np.array([u.y for u in block]), np.array([u.x for u in block]), *arrays)))
    return {u.unit_id: out[u.unit_id] for u in units}


def _resolve_bandwidths(panel: PanelData, thresholds: dict[str, float],
                        policy: BandwidthPolicy, kernel: KernelSpec):
    """Per-unit bandwidths plus skip reasons for units that defeated selection."""
    if policy.mode == "fixed":
        return {u.unit_id: float(policy.value) for u in panel}, {}
    selected = _blocks(panel, lambda _, y, x, c: _plugin_rows(y, x, c, kernel, policy.bounds),
                       thresholds)
    failures = {uid: f"bandwidth selection failed: {b}" for uid, b in selected.items()
                if isinstance(b, InsufficientSupport)}
    per_unit = {uid: b for uid, b in selected.items() if uid not in failures}
    if policy.mode == "plugin":
        return per_unit, failures
    if not per_unit:
        raise NumericalError("no unit supports plugin bandwidth selection")
    ranges = [float(u.x.max() - u.x.min()) for u in panel if u.x.size > 1]
    clamp = (policy.bounds[0] * min(ranges), policy.bounds[1] * max(ranges))
    pooled = pooled_bandwidth(list(per_unit.values()), clamp=clamp)
    return {u.unit_id: pooled for u in panel}, {}


def _unit_row(unit: PanelUnit, c: float, b: float, fit: UnitJumpFit,
              sigma_e_sq: float, floor: float) -> UnitResult:
    """Standardise the jump fit at c into a report row: scale v, its
    standard error and t = sqrt(T b) gamma_hat / v.  A scale that is not
    a positive finite number is a NumericalError naming the unit: an
    infinite one would report t = 0 however large the jump."""
    v = max(float(np.sqrt(max(v_sq(fit.w_diff, sigma_e_sq, unit.n_obs, b), 0.0))), floor)
    if not v > 0.0:
        raise NumericalError(f"nonpositive variance for unit {unit.unit_id!r}")
    if v == np.inf:
        raise NumericalError(
            f"variance for unit {unit.unit_id!r} at c={c} overflows at this outcome scale"
        )
    return UnitResult(
        unit_id=unit.unit_id,
        threshold=c,
        bandwidth=b,
        gamma_hat=fit.gamma_hat,
        v_hat=v,
        std_error=_std_error(v, unit.n_obs, b),
        t_stat=float(np.sqrt(unit.n_obs * b) * fit.gamma_hat / v),
        n_obs=unit.n_obs,
        eff_obs=fit.eff_obs,
    )


def _analyze_rows(block: list[PanelUnit], y, x, c, b, kernel: KernelSpec) -> list:
    """Each unit's report row at its threshold, or the error that skips it or
    stops the test.  Where no variance-window point smooths, the others decide why."""
    out = _fit_rows(y, x, c, b, kernel)
    keep = np.flatnonzero([isinstance(fit, UnitJumpFit) for fit in out])
    if not keep.size:
        return out
    y, x, c, b = y[keep], x[keep], c[keep], b[keep]
    y = y - np.array([out[i].gamma_hat for i in keep])[:, None] * (x >= c[:, None])
    resid = _residual_rows(y, x, b, kernel, (x >= (c - b)[:, None]) & (x <= (c + b)[:, None]))
    for r, (i, sigma_sq) in enumerate(zip(keep, _window_rows(resid, x, c, b, np.inf))):
        try:
            if isinstance(sigma_sq, InsufficientSupport):
                smooth_residuals(y[r], x[r], float(b[r]), kernel)
            out[i] = _unit_row(block[i], float(c[r]), float(b[r]), out[i], _raised(sigma_sq),
                               _v_floor(block[i].y))
        except NumericalError as exc:
            out[i] = exc
    return out


def _each_unit(units, step, skipped: list[SkippedUnit], what: str) -> dict:
    """``step(unit)`` for each unit, keyed by unit id.  A unit whose step
    raises InsufficientSupport is left out and appended to ``skipped``
    with the message as its reason; a NumericalError if none is left."""
    out = {}
    for unit in units:
        try:
            out[unit.unit_id] = step(unit)
        except InsufficientSupport as exc:
            skipped.append(SkippedUnit(unit.unit_id, str(exc)))
    if not out:
        detail = "; ".join(f"{s.unit_id}: {s.reason}" for s in skipped)
        raise NumericalError(f"no unit admits {what} ({detail})")
    return out


def _fit_panel(panel: PanelData, threshold, config: TestConfig):
    """Shared known-threshold front end: report rows, with per-unit skip reasons."""
    if config.truncation is not None:
        raise ConfigError(
            "TestConfig.truncation applies only to search_thresholds; "
            "known-threshold tests need truncation=None"
        )
    if len(panel) == 0:
        raise NumericalError("empty panel")
    thresholds = _resolve_thresholds(panel, threshold)
    bandwidths, failures = _resolve_bandwidths(
        panel, thresholds, config.bandwidth, config.kernel
    )
    skipped = [SkippedUnit(uid, reason) for uid, reason in failures.items()]
    units = [u for u in panel if u.unit_id in bandwidths]
    found = _blocks(units, lambda *args: _analyze_rows(*args, config.kernel),
                    thresholds, bandwidths)
    rows = _each_unit(units, lambda u: _raised(found[u.unit_id]), skipped, "a jump fit")
    return list(rows.values()), skipped


def _std_error(v: float, n_obs: int, b: float) -> float:
    return float(v / np.sqrt(n_obs * b))


def test_existence(panel: PanelData, threshold=0.0,
                   config: TestConfig | None = None) -> TestResult:
    """Simultaneous test for the existence of a jump in any unit.

    ``threshold`` is a scalar applied to every unit or a mapping from unit
    id to its own threshold.  Units without a valid fit are skipped and
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
    v_tildes = np.sqrt(v_tilde_sq(np.array([r.v_hat**2 for r in rows])))
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


def _scan_uniform(x: np.ndarray, y: np.ndarray, resid: np.ndarray, grid: np.ndarray,
                  b: float, a_trunc: float, floor: float):
    """Uniform-kernel statistics at every grid point from prefix sums.

    Mirrors ``estimate_jump``, ``sigma_e_sq_truncated`` and ``_unit_row``
    without forming a weight row: with the kernel constant, each side's
    fit needs only the windowed sums of 1, d, d^2, y and d y (d = x - c),
    and its squared weight norm is S_dd / (n S_dd - S_d^2).  The variance
    window is the union of the two sides' windows.  Sums run in numpy's long
    double, recentred on the mean of x; where that is plain float64 the
    error bound below is wider and more points go to the dense solver.

    Returns the statistic per grid point (NaN where the scan finds the
    point unusable, including where the dense solver's float64 sums would
    overflow) and a mask of points to solve densely: those whose validity
    hinges on the singular-design floor or on that overflow, and valid ones whose
    first-order error bound, covering the scan's prefix sums and the
    dense solver's own rounding, exceeds ``_SCAN_RTOL`` relative.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n_obs, k = xs.size, grid.size
    lo_m = np.searchsorted(xs, grid - b, "left")
    lo_p = np.searchsorted(xs, grid, "left")
    hi_p = np.searchsorted(xs, grid + b, "right")

    ld = np.longdouble
    centre = ld(xs.mean())
    xc = xs.astype(ld) - centre
    ys = y[order].astype(ld)
    rs = resid[order]
    finite = np.isfinite(rs)
    capped = np.minimum(ld(a_trunc), np.where(finite, rs, 0.0).astype(ld) ** 2)
    terms = (xc, xc * xc, ys, xc * ys, np.abs(xc), np.abs(ys), np.abs(xc * ys), capped, finite)
    prefix = np.zeros((n_obs + 1, len(terms)), dtype=ld)
    np.cumsum(np.stack(terms, axis=1), axis=0, out=prefix[1:])
    # Windows: plus sides, minus sides, then variance windows.
    lo = np.concatenate((lo_p, lo_m, lo_m))
    hi = np.concatenate((hi_p, lo_p, hi_p))
    win = prefix[hi] - prefix[lo]
    mag = prefix[hi] + prefix[lo]  # bounds the prefix sums' rounding

    # Rounding per unit of magnitude: a sequential cumsum bound for the
    # scan's prefix sums and the few operations after them, and a
    # typical-rounding estimate for the dense solver's float64 sums.
    eps = np.finfo(float).eps
    scan_acc = (n_obs + 16) * np.finfo(ld).eps
    sides = slice(0, 2 * k)
    n = (hi[sides] - lo[sides]).astype(ld)
    dense_acc = (np.sqrt(n) + 16) * eps
    uc = np.tile(grid.astype(ld) - centre, 2)
    au = np.abs(uc)
    m1, m2, r0, r1_raw, _, abs_y = win[sides, :6].T
    g_m1, g_m2, g_r0, g_r1 = mag[sides, 4], mag[sides, 1], mag[sides, 5], mag[sides, 6]
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = m1 - uc * n
        s2 = m2 - 2 * uc * m1 + uc * uc * n
        r1 = r1_raw - uc * r0
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
                    & (xs[np.minimum(lo[sides], n_obs - 1)] < xs[np.maximum(hi[sides] - 1, 0)]))
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

        cnt = win[2 * k:, 8]
        sigma_e_sq = win[2 * k:, 7] / cnt
        e_sigma = (scan_acc * mag[2 * k:, 7] / win[2 * k:, 7]
                   + (np.sqrt(cnt) + 16) * eps)
        plus, minus = slice(0, k), slice(k, 2 * k)
        gamma = mu[plus] - mu[minus]
        tb = ld(n_obs * b)
        w_sq = s2 / den
        v = np.maximum(np.sqrt(np.maximum(tb * (w_sq[plus] + w_sq[minus]) * sigma_e_sq, 0)),
                       ld(floor))
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
    return t, unsure


def _search_unit(unit: PanelUnit, grid: np.ndarray, b: float, a_trunc: float,
                 resid: np.ndarray, config: TestConfig):
    """One unit's report row at its best grid point (the first on exact
    ties), with the statistic at every grid point in ``stats`` (NaN where
    unusable); None when no grid point is usable.

    Also returns the weight-difference rows of the solved valid grid
    points, in grid order, from which the unit's correlation block is
    built; every point is solved when critical values are simulated.
    With the uniform kernel and analytic critical values a prefix-sum scan
    ranks the grid first, and only the points that can win, and those the
    scan cannot vouch for, are solved densely; their exact values replace
    the scan's.  Any other configuration solves every point.  Solved points
    run as row blocks (the unit's arrays once per point, at most
    _BLOCK_BUDGET floats), each row bit-identical to its point alone.
    """
    y, x = unit.y, unit.x
    floor = _v_floor(y)
    if config.kernel.kind == "uniform" and config.cv_method == "analytic":
        stats, unsure = _scan_uniform(x, y, resid, grid, b, a_trunc, floor)
        sure = np.isfinite(stats) & ~unsure
        score = _score(stats, config.sidedness)
        top = np.max(score[sure], initial=-np.inf)
        near = sure & (score >= top - _TIE_RTOL * max(1.0, abs(top)))
        solve = np.flatnonzero(unsure | near)
    else:
        stats = np.full(grid.size, np.nan)
        solve = np.arange(grid.size)
    rows: list[UnitResult] = []
    w_diffs = []
    step = max(1, _BLOCK_BUDGET // unit.n_obs)
    for block in (solve[i:i + step] for i in range(0, solve.size, step)):
        c, bs = grid[block], np.full(block.size, b)
        y_rows, x_rows, resid_rows = (np.repeat(v[None], block.size, 0) for v in (y, x, resid))
        for k, fit, sigma_e_sq in zip(block, _fit_rows(y_rows, x_rows, c, bs, config.kernel),
                                      _window_rows(resid_rows, x_rows, c, bs, a_trunc)):
            stats[k] = np.nan
            if isinstance(fit, UnitJumpFit) and isinstance(sigma_e_sq, float):
                rows.append(_unit_row(unit, float(grid[k]), b, fit, sigma_e_sq, floor))
                stats[k] = rows[-1].t_stat
                w_diffs.append(fit.w_diff)
    if not rows:
        return None, w_diffs
    best = int(np.argmax(_score(np.array([r.t_stat for r in rows]), config.sidedness)))
    return replace(rows[best], stats=stats), w_diffs


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
    best (or that the scan cannot vouch for) are solved densely, so each
    row's ``stats`` holds exact values at the reported point and any
    near-ties, scan values within 4e-10 relative (typically 1e-12)
    elsewhere, and an exact NaN mask.  Other kernels, and simulated
    critical values, which need every weight row, solve every grid point.
    Solved points run as row blocks.  Grid values must be finite.

    The result's ``spacing_warning`` flag is set when the grid spacing
    drops to 2 bandwidths or less, where statistics at neighbouring grid
    points share observations and independent critical values become
    conservative; reports show it as a warning line.  No Python warning
    is issued.
    """
    config = config or TestConfig()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"grid values must be finite, got {grid[~np.isfinite(grid)][0]}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ConfigError("grid must be strictly increasing")
    if len(panel) == 0:
        raise NumericalError("empty panel")

    c_mid = float(grid[grid.size // 2])
    bandwidths, failures = _resolve_bandwidths(
        panel, {u.unit_id: c_mid for u in panel}, config.bandwidth, config.kernel
    )
    skipped = [SkippedUnit(uid, reason) for uid, reason in failures.items()]
    residuals = _each_unit(
        [u for u in panel if u.unit_id in bandwidths],
        lambda u: smooth_residuals(u.y, u.x, pilot_bandwidth(u.x, bandwidths[u.unit_id]),
                                   config.kernel),
        skipped, "a grid search",
    )

    pooled = np.concatenate([r[np.isfinite(r)] ** 2 for r in residuals.values()])
    if config.truncation is None:
        a_trunc = default_truncation(pooled, len(panel) * grid.size)
    else:
        a_trunc = float(config.truncation)
        if a_trunc <= pooled.min():
            raise ConfigError(
                f"truncation {a_trunc!r} is at or below every squared pilot "
                f"residual (the smallest is {float(pooled.min())!r})"
            )

    simulated = config.cv_method == "simulated"

    def search(unit: PanelUnit):
        row, w_diffs = _search_unit(unit, grid, bandwidths[unit.unit_id], a_trunc,
                                    residuals[unit.unit_id], config)
        if row is None:
            raise InsufficientSupport("no valid grid point")
        return row, sigma_c_matrix(w_diffs) if simulated else None

    found = _each_unit([u for u in panel if u.unit_id in residuals], search,
                       skipped, "a grid search")
    per_unit = [row for row, _ in found.values()]
    statistic = float(np.max(_score(np.array([u.t_stat for u in per_unit]), config.sidedness)))
    n_comparisons = int(sum(np.count_nonzero(np.isfinite(u.stats)) for u in per_unit))

    sigma_c = None
    if simulated:
        sigma_c = SigmaC(unit_ids=list(found), blocks=[block for _, block in found.values()])
    cvs = critical_values(n_comparisons, config, sigma_c)

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
