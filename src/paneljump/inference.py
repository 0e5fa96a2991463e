"""Max-type simultaneous tests for jumps across panel units.

Per unit, the jump estimate at its threshold is standardised by a local
variance estimate; the panel-level statistic is the maximum over units (and
over candidate thresholds when the location is unknown).  Critical values
come from the maximum of independent standard normals, either in closed
form or simulated, optionally with a per-unit correlation structure across
candidate thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import norm

from .bandwidth import BandwidthPolicy, pilot_bandwidth, plugin_bandwidth, pooled_bandwidth
from .errors import (
    AllUnitsSkipped,
    DataError,
    DegenerateEverywhere,
    EmptyWindow,
    GridSpacingWarning,
    InsufficientSupport,
    InvalidAlpha,
    NotPositiveSemidefinite,
    SingleUnit,
    TooFewObservations,
    ZeroVariance,
)
from .estimator import UnitJumpFit, estimate_jump, smooth_residuals
from .kernels import KernelSpec
from .panel import PanelData, PanelUnit
from .variance import (
    SigmaC,
    default_truncation,
    sigma_c_matrix,
    sigma_e_sq_known,
    sigma_e_sq_truncated,
    v_sq,
    v_tilde_sq,
)

__all__ = [
    "TestConfig",
    "UnitResult",
    "SkippedUnit",
    "TestResult",
    "UnitSearch",
    "ThresholdSearchResult",
    "stat_existence",
    "stat_homogeneity",
    "critical_value",
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


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


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
        for a in self.alphas:
            _check_alpha(a)
        if self.sidedness not in SIDEDNESS:
            raise ValueError(f"sidedness must be one of {SIDEDNESS}")
        if self.center not in CENTERS:
            raise ValueError(f"center must be one of {CENTERS}")
        if self.cv_method not in CV_METHODS:
            raise ValueError(f"cv_method must be one of {CV_METHODS}")
        if self.cv_reps < 1:
            raise ValueError("cv_reps must be positive")


@dataclass
class UnitResult:
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


@dataclass
class UnitSearch:
    unit_id: str
    bandwidth: float
    n_obs: int
    c_hat: float
    best_index: int
    best_stat: float
    stats: np.ndarray
    gammas: np.ndarray
    v_hats: np.ndarray
    eff_obs: np.ndarray


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
    per_unit: list[UnitSearch]
    skipped: list[SkippedUnit]


# ----------------------------------------------------------------------
# statistics on fitted units


def _standardized(fit: UnitJumpFit) -> float:
    if fit.v_hat is None or not fit.v_hat > 0.0:
        raise ZeroVariance(fit.unit_id)
    return np.sqrt(fit.n_obs * fit.b) * fit.gamma_hat / fit.v_hat


def stat_existence(fits: Sequence[UnitJumpFit], sidedness: str = "two_sided") -> float:
    """Maximum standardised jump statistic over units.

    Two-sided uses |t_j|; one-sided-upper uses the signed t_j, so only
    upward jumps push the statistic above its critical value.
    """
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    if len(fits) == 0:
        raise ValueError("no fitted units")
    ts = np.array([_standardized(f) for f in fits])
    return float(np.max(np.abs(ts) if sidedness == "two_sided" else ts))


def _homogeneity_terms(fits: Sequence[UnitJumpFit], center: str):
    if center not in CENTERS:
        raise ValueError(f"center must be one of {CENTERS}")
    if len(fits) < 2:
        raise SingleUnit("homogeneity comparison needs at least two units")
    gammas = np.array([f.gamma_hat for f in fits])
    for f in fits:
        if f.v_hat is None or not f.v_hat > 0.0:
            raise ZeroVariance(f.unit_id)
    vsqs = np.array([f.v_hat**2 for f in fits])
    center_value = float(np.mean(gammas) if center == "mean" else np.median(gammas))
    v_tildes = np.sqrt([v_tilde_sq(vsqs, j) for j in range(len(fits))])
    scale = np.sqrt([f.n_obs * f.b for f in fits])
    ts = scale * (gammas - center_value) / v_tildes
    return ts, center_value, v_tildes


def stat_homogeneity(fits: Sequence[UnitJumpFit], center: str = "mean") -> float:
    """Maximum standardised deviation of unit jumps from their centre.

    Centring by the cross-unit mean (or median) makes the statistic
    invariant to a jump shared by all units; the standardising scale
    accounts for the centre being estimated.
    """
    ts, _, _ = _homogeneity_terms(fits, center)
    return float(np.max(np.abs(ts)))


# ----------------------------------------------------------------------
# critical values


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
    NotPositiveSemidefinite
        If a correlation block has an eigenvalue below -1e-8.
    """
    if sidedness not in SIDEDNESS:
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    if reps < 1:
        raise ValueError("reps must be positive")
    factors = None
    if sigma_c is not None:
        n_comparisons = sigma_c.n_comparisons
        factors = []
        for uid, block in zip(sigma_c.unit_ids, sigma_c.blocks):
            vals, vecs = np.linalg.eigh(block)
            if vals.min() < -1e-8:
                raise NotPositiveSemidefinite(
                    f"correlation block for unit {uid!r} has eigenvalue {vals.min():.3e}"
                )
            factors.append(vecs * np.sqrt(np.clip(vals, 0.0, None)))
    if n_comparisons < 1:
        raise ValueError("need at least one comparison")

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
        vals = np.abs(z) if sidedness == "two_sided" else z
        out[pos:pos + m] = vals.max(axis=1)
        pos += m
    return out


def critical_value(n_comparisons: int, alpha: float, sidedness: str = "two_sided",
                   method: str = "analytic", reps: int = 100_000, seed: int = 0,
                   sigma_c: SigmaC | None = None) -> float:
    """Critical value for the maximum of n Gaussian comparisons.

    Analytic values treat the comparisons as independent:

        two-sided    q = Phi^-1( (1 + (1 - alpha)^(1/n)) / 2 )
        one-sided    q = Phi^-1( (1 - alpha)^(1/n) )

    The simulated method returns the empirical (1 - alpha) quantile of
    ``simulate_max_gaussian``, and is the route that honours ``sigma_c``.
    """
    alpha = _check_alpha(alpha)
    if method not in CV_METHODS:
        raise ValueError(f"method must be one of {CV_METHODS}")
    if method == "analytic":
        if n_comparisons < 1:
            raise ValueError("need at least one comparison")
        p = (1.0 - alpha) ** (1.0 / n_comparisons)
        if sidedness == "two_sided":
            return float(norm.ppf(0.5 * (1.0 + p)))
        if sidedness == "one_sided_upper":
            return float(norm.ppf(p))
        raise ValueError(f"sidedness must be one of {SIDEDNESS}")
    sample = simulate_max_gaussian(n_comparisons, reps, seed, sigma_c, sidedness)
    return float(np.quantile(sample, 1.0 - alpha))


def _critical_values(n: int, config: TestConfig, sidedness: str,
                     sigma_c: SigmaC | None = None) -> dict[float, float]:
    if config.cv_method == "analytic":
        return {a: critical_value(n, a, sidedness) for a in config.alphas}
    sample = simulate_max_gaussian(n, config.cv_reps, config.seed, sigma_c, sidedness)
    return {a: float(np.quantile(sample, 1.0 - a)) for a in config.alphas}


# ----------------------------------------------------------------------
# per-unit pipeline


def _v_floor(y: np.ndarray) -> float:
    scale = float(np.max(np.abs(y)))
    return _V_FLOOR_REL * (scale if scale > 0.0 else 1.0)


def _floored_scale(vsq: float, floor: float) -> float:
    return max(float(np.sqrt(max(vsq, 0.0))), floor)


def _resolve_thresholds(panel: PanelData, threshold) -> dict[str, float]:
    if isinstance(threshold, Mapping):
        missing = [u.unit_id for u in panel if u.unit_id not in threshold]
        if missing:
            raise DataError(f"no threshold given for units: {', '.join(missing)}")
        return {u.unit_id: float(threshold[u.unit_id]) for u in panel}
    c = float(threshold)
    return {u.unit_id: c for u in panel}


def _resolve_bandwidths(panel: PanelData, thresholds: dict[str, float],
                        policy: BandwidthPolicy, kernel: KernelSpec):
    """Per-unit bandwidths plus skip reasons for units that defeated selection."""
    if policy.mode == "fixed":
        return {u.unit_id: float(policy.value) for u in panel}, {}
    per_unit: dict[str, float] = {}
    failures: dict[str, str] = {}
    for u in panel:
        try:
            per_unit[u.unit_id] = plugin_bandwidth(
                u.y, u.x, thresholds[u.unit_id], kernel, policy.bounds
            )
        except TooFewObservations as exc:
            failures[u.unit_id] = f"bandwidth selection failed: {exc}"
    if policy.mode == "plugin":
        return per_unit, failures
    if not per_unit:
        raise TooFewObservations("no unit supports plugin bandwidth selection")
    ranges = [float(u.x.max() - u.x.min()) for u in panel if u.x.size > 1]
    clamp = (policy.bounds[0] * min(ranges), policy.bounds[1] * max(ranges))
    pooled = pooled_bandwidth(list(per_unit.values()), clamp=clamp)
    return {u.unit_id: pooled for u in panel}, {}


def _analyze_unit(unit: PanelUnit, c: float, b: float, kernel: KernelSpec) -> UnitJumpFit:
    """Fit both boundaries at c and attach the standardising scale."""
    y, x = unit.y, unit.x
    fit = estimate_jump(y, x, c, b, kernel, unit.unit_id)
    resid = smooth_residuals(y, x, b, kernel, jump_removal=(c, fit.gamma_hat))
    est = sigma_e_sq_known(resid, x, c, b)
    fit.v_hat = _floored_scale(v_sq(fit.w_diff, est.sigma_e_sq, unit.n_obs, b), _v_floor(y))
    return fit


def _fit_panel(panel: PanelData, threshold, config: TestConfig):
    """Shared known-threshold front end: fits, with per-unit skip reasons."""
    if len(panel) == 0:
        raise AllUnitsSkipped("empty panel")
    thresholds = _resolve_thresholds(panel, threshold)
    bandwidths, failures = _resolve_bandwidths(
        panel, thresholds, config.bandwidth, config.kernel
    )
    fits: list[UnitJumpFit] = []
    skipped = [SkippedUnit(uid, reason) for uid, reason in failures.items()]
    for unit in panel:
        if unit.unit_id not in bandwidths:
            continue
        try:
            fits.append(
                _analyze_unit(unit, thresholds[unit.unit_id],
                              bandwidths[unit.unit_id], config.kernel)
            )
        except (InsufficientSupport, EmptyWindow, DegenerateEverywhere) as exc:
            skipped.append(SkippedUnit(unit.unit_id, str(exc)))
    if not fits:
        detail = "; ".join(f"{s.unit_id}: {s.reason}" for s in skipped)
        raise AllUnitsSkipped(f"no unit admits a jump fit ({detail})")
    return fits, skipped


def _unit_row(fit: UnitJumpFit, t: float, centered: float | None = None,
              scale: float | None = None) -> UnitResult:
    v = scale if scale is not None else fit.v_hat
    se = v / np.sqrt(fit.n_obs * fit.b)
    return UnitResult(
        unit_id=fit.unit_id,
        threshold=fit.c,
        bandwidth=fit.b,
        gamma_hat=fit.gamma_hat,
        v_hat=float(v),
        std_error=float(se),
        t_stat=float(t),
        n_obs=fit.n_obs,
        eff_obs=fit.eff_obs,
        centered=centered,
    )


def test_existence(panel: PanelData, threshold=0.0,
                   config: TestConfig | None = None) -> TestResult:
    """Simultaneous test for the existence of a jump in any unit.

    ``threshold`` is a scalar applied to every unit or a mapping from unit
    id to its own threshold.  Units without a valid fit are skipped and
    excluded both from the maximum and from the comparison count used for
    critical values.
    """
    config = config or TestConfig()
    fits, skipped = _fit_panel(panel, threshold, config)
    ts = [_standardized(f) for f in fits]
    stat = stat_existence(fits, config.sidedness)
    cvs = _critical_values(len(fits), config, config.sidedness)
    return TestResult(
        kind="existence",
        sidedness=config.sidedness,
        statistic=stat,
        critical_values=cvs,
        reject={a: stat > q for a, q in cvs.items()},
        n_effective=len(fits),
        per_unit=[_unit_row(f, t) for f, t in zip(fits, ts)],
        skipped=skipped,
    )


def test_homogeneity(panel: PanelData, threshold=0.0,
                     config: TestConfig | None = None) -> TestResult:
    """Simultaneous test that all units share a common jump size.

    Always two-sided: deviations from the cross-unit centre in either
    direction count against homogeneity.
    """
    config = config or TestConfig()
    fits, skipped = _fit_panel(panel, threshold, config)
    ts, center_value, v_tildes = _homogeneity_terms(fits, config.center)
    stat = float(np.max(np.abs(ts)))
    cvs = _critical_values(len(fits), config, "two_sided")
    rows = [
        _unit_row(f, t, centered=float(f.gamma_hat - center_value), scale=float(vt))
        for f, t, vt in zip(fits, ts, v_tildes)
    ]
    return TestResult(
        kind="homogeneity",
        sidedness="two_sided",
        statistic=stat,
        critical_values=cvs,
        reject={a: stat > q for a, q in cvs.items()},
        n_effective=len(fits),
        per_unit=rows,
        skipped=skipped,
        center=config.center,
        center_value=center_value,
    )


# ----------------------------------------------------------------------
# unknown threshold


def _search_unit(unit: PanelUnit, grid: np.ndarray, b: float, a_trunc: float,
                 resid: np.ndarray, kernel: KernelSpec):
    """Per-grid statistics for one unit; NaN marks unusable grid points."""
    y, x = unit.y, unit.x
    k = grid.size
    stats = np.full(k, np.nan)
    gammas = np.full(k, np.nan)
    v_hats = np.full(k, np.nan)
    effs = np.zeros(k, dtype=int)
    floor = _v_floor(y)
    root_tb = np.sqrt(unit.n_obs * b)
    for i, c in enumerate(grid.tolist()):
        try:
            fit = estimate_jump(y, x, c, b, kernel)
            est = sigma_e_sq_truncated(resid, x, c, b, a_trunc)
        except (InsufficientSupport, EmptyWindow):
            continue
        v_hat = _floored_scale(v_sq(fit.w_diff, est.sigma_e_sq, unit.n_obs, b), floor)
        stats[i] = root_tb * fit.gamma_hat / v_hat
        gammas[i] = fit.gamma_hat
        v_hats[i] = v_hat
        effs[i] = fit.eff_obs
    return stats, gammas, v_hats, effs


def search_thresholds(panel: PanelData, grid, config: TestConfig | None = None) -> ThresholdSearchResult:
    """Grid search for per-unit thresholds with a simultaneous existence test.

    Each unit's threshold estimate is the grid point maximising its
    standardised jump statistic (first grid point on exact ties).  The
    panel statistic is the maximum over all units and grid points, with
    critical values for the total comparison count.  Residuals are taken
    from an undersmoothing pilot without jump removal, and squared
    residuals are truncated before averaging, so the unknown jump cannot
    inflate the variance estimates.

    A warning is issued when the grid spacing drops to 2 bandwidths or
    less, where statistics at neighbouring grid points share observations
    and independent critical values become conservative.
    """
    config = config or TestConfig()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing")
    if len(panel) == 0:
        raise AllUnitsSkipped("empty panel")

    c_mid = float(grid[grid.size // 2])
    bandwidths, failures = _resolve_bandwidths(
        panel, {u.unit_id: c_mid for u in panel}, config.bandwidth, config.kernel
    )
    skipped = [SkippedUnit(uid, reason) for uid, reason in failures.items()]

    residuals: dict[str, np.ndarray] = {}
    for unit in panel:
        if unit.unit_id not in bandwidths:
            continue
        b_star = pilot_bandwidth(unit.x, bandwidths[unit.unit_id])
        try:
            residuals[unit.unit_id] = smooth_residuals(
                unit.y, unit.x, b_star, config.kernel
            )
        except DegenerateEverywhere as exc:
            skipped.append(SkippedUnit(unit.unit_id, str(exc)))

    if config.truncation is not None:
        a_trunc = float(config.truncation)
    else:
        pooled = [r[np.isfinite(r)] ** 2 for r in residuals.values()]
        a_trunc = default_truncation(
            np.concatenate(pooled) if pooled else np.empty(0),
            len(panel) * grid.size,
        )

    per_unit: list[UnitSearch] = []
    used_bandwidths = []
    for unit in panel:
        if unit.unit_id not in residuals:
            continue
        b = bandwidths[unit.unit_id]
        stats, gammas, v_hats, effs = _search_unit(
            unit, grid, b, a_trunc, residuals[unit.unit_id], config.kernel
        )
        score = np.abs(stats) if config.sidedness == "two_sided" else stats
        score = np.where(np.isfinite(score), score, -np.inf)
        if not np.any(np.isfinite(stats)):
            skipped.append(SkippedUnit(unit.unit_id, "no valid grid point"))
            continue
        best = int(np.argmax(score))
        per_unit.append(
            UnitSearch(
                unit_id=unit.unit_id,
                bandwidth=b,
                n_obs=unit.n_obs,
                c_hat=float(grid[best]),
                best_index=best,
                best_stat=float(score[best]),
                stats=stats,
                gammas=gammas,
                v_hats=v_hats,
                eff_obs=effs,
            )
        )
        used_bandwidths.append(b)
    if not per_unit:
        detail = "; ".join(f"{s.unit_id}: {s.reason}" for s in skipped)
        raise AllUnitsSkipped(f"no unit admits a grid search ({detail})")

    statistic = max(u.best_stat for u in per_unit)
    n_comparisons = int(sum(np.count_nonzero(np.isfinite(u.stats)) for u in per_unit))

    sigma_c = None
    if config.cv_method == "simulated":
        ids, blocks = [], []
        for u, unit in ((u, panel.unit(u.unit_id)) for u in per_unit):
            valid = np.isfinite(u.stats)
            blocks.append(
                sigma_c_matrix(unit.x, grid[valid], u.bandwidth, config.kernel,
                               np.ones(int(valid.sum())))
            )
            ids.append(u.unit_id)
        sigma_c = SigmaC(unit_ids=ids, blocks=blocks)
    cvs = _critical_values(n_comparisons, config, config.sidedness, sigma_c)

    spacing_warning = False
    if grid.size > 1:
        spacing_warning = bool(np.min(np.diff(grid)) <= 2.0 * max(used_bandwidths))
        if spacing_warning:
            warnings.warn(
                "grid spacing is at most twice the bandwidth; statistics at "
                "neighbouring thresholds are correlated and independent "
                "critical values are conservative",
                GridSpacingWarning,
                stacklevel=2,
            )

    return ThresholdSearchResult(
        grid=grid,
        sidedness=config.sidedness,
        statistic=float(statistic),
        critical_values=cvs,
        reject={a: statistic > q for a, q in cvs.items()},
        n_effective=len(per_unit),
        n_comparisons=n_comparisons,
        truncation=a_trunc,
        spacing_warning=spacing_warning,
        per_unit=per_unit,
        skipped=skipped,
    )
