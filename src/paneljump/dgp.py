"""Synthetic panel generators and Monte Carlo drivers.

Six designs share the same outcome equation

    Y = cos(X) + sin(U) + gamma_j 1{X >= c0} + sigma_j(X, U) eps,
    U = Utilde X,  Utilde ~ U[-1, 1] iid,

and differ in how X and eps are built: iid draws (design 1), a factor
structure with serially correlated components (2, 3), and progressively
stronger factor dominance (4, 5, 6).  Serial dependence comes from a
truncated MA(infinity) filter with polynomially decaying coefficients.

Replication r of a Monte Carlo run draws its seed from (base_seed, r), so
tables are reproducible bit for bit and independent of execution order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .inference import TestConfig, _check_two_sided, search_thresholds, test_existence, test_homogeneity
from .panel import PanelData, PanelUnit

__all__ = [
    "GammaScheme",
    "DgpConfig",
    "McConfig",
    "RateTable",
    "AccuracyTable",
    "gen_ma_inf",
    "gen_dgp",
    "inject_jumps",
    "run_size_power",
    "run_threshold_accuracy",
]


@dataclass(frozen=True)
class GammaScheme:
    """How jump sizes are assigned across units.

    A random ``fraction`` of units gets a jump scaled to the detection
    boundary, scale * T^(-2/5) (log N)^(1/2) B with B ~ U[2, 10].
    ``null`` gives no unit a jump and ``accuracy`` every unit, for
    threshold-location experiments where each unit needs a jump to locate.
    """

    fraction: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError("fraction must lie in [0, 1]")
        if self.fraction > 0.0 and not 0.0 < self.scale < np.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")

    @classmethod
    def null(cls) -> "GammaScheme":
        return cls()

    @classmethod
    def sparse_power(cls, fraction: float, scale: float = 1.0) -> "GammaScheme":
        return cls(fraction=fraction, scale=scale)

    @classmethod
    def accuracy(cls, scale: float = 5.0) -> "GammaScheme":
        return cls(fraction=1.0, scale=scale)


@dataclass(frozen=True)
class DgpConfig:
    dgp_id: int
    n_units: int
    t_obs: int
    seed: int = 0
    threshold: float = 0.0
    gamma_scheme: GammaScheme = GammaScheme()

    def __post_init__(self) -> None:
        if self.dgp_id not in (1, 2, 3, 4, 5, 6):
            raise ConfigError(f"dgp_id must be 1..6, got {self.dgp_id}")
        if self.n_units < 1 or self.t_obs < 2:
            raise ConfigError("need at least 1 unit and 2 observations")
        if not np.isfinite(self.threshold):
            raise ConfigError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class McConfig:
    reps: int
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError("reps must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")


@dataclass
class RateTable:
    """Rejection rates by significance level for one design."""

    dgp_id: int
    n_units: int
    t_obs: int
    test: str
    reps: int
    failed: int
    rates: dict[float, float]
    std_errors: dict[float, float]

    def table(self) -> tuple[list[str], list[list], list[list]]:
        """Report header, one typed row per alpha, and no summary lines."""
        header = ["dgp", "n_units", "t_obs", "test", "alpha", "rate",
                  "std_error", "reps", "failed"]
        rows = [[self.dgp_id, self.n_units, self.t_obs, self.test, a,
                 self.rates[a], self.std_errors[a], self.reps, self.failed]
                for a in self.rates]
        return header, rows, []


@dataclass
class AccuracyTable:
    """Threshold-location error summary for one design."""

    dgp_id: int
    n_units: int
    t_obs: int
    reps: int
    failed: int
    mean_abs_error: float
    max_abs_error: float

    def table(self) -> tuple[list[str], list[list], list[list]]:
        """Report header, one typed row, and no summary lines."""
        header = ["dgp", "n_units", "t_obs", "mean_abs_error", "max_abs_error",
                  "reps", "failed"]
        rows = [[self.dgp_id, self.n_units, self.t_obs, self.mean_abs_error,
                 self.max_abs_error, self.reps, self.failed]]
        return header, rows, []


# ----------------------------------------------------------------------
# generators

# Decay rate beta and truncation lag of the MA filter behind designs 2-6.
_BETA_DECAY = 1.5
_MA_LAG = 100


def _ma_coefficients(beta: float, lag: int) -> np.ndarray:
    k = np.arange(lag + 1, dtype=float)
    a = (k + 1.0) ** (-(beta + 1.0))
    return a / np.sqrt(a @ a)


def _ma_rows(n_series: int, t_obs: int, beta: float, lag: int,
             rng: np.random.Generator) -> np.ndarray:
    """n_series independent unit-variance MA(lag) rows of length t_obs."""
    # Imported here: scipy.signal is slow to load and only the simulator needs it.
    from scipy.signal import fftconvolve

    a = _ma_coefficients(beta, lag)
    eta = rng.standard_normal((n_series, t_obs + lag))
    return fftconvolve(eta, a[None, :], mode="valid", axes=1)


def gen_ma_inf(t_obs: int, beta: float, lag: int,
               rng: np.random.Generator) -> np.ndarray:
    """One MA series with coefficients (k+1)^-(beta+1), normalised to unit
    variance, truncated at ``lag`` with the warm-up discarded."""
    return _ma_rows(1, t_obs, beta, lag, rng)[0]


def inject_jumps(n_units: int, t_obs: int, fraction: float, scale: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Assign boundary-scaled jumps to a random subset of units.

    The subset size is fraction * n_units rounded half up.  Jump sizes are
    scale * T^(-2/5) (log N)^(1/2) B with B ~ U[2, 10] drawn per selected
    unit; log N is floored at log 2 so a single-unit panel still receives
    a nonzero jump.
    """
    gammas = np.zeros(n_units)
    count = int(np.floor(fraction * n_units + 0.5))
    if count == 0:
        return gammas
    chosen = rng.choice(n_units, size=count, replace=False)
    b = rng.uniform(2.0, 10.0, size=count)
    gammas[chosen] = (scale * t_obs ** (-0.4)
                      * np.sqrt(np.log(max(n_units, 2))) * b)
    return gammas


def _sigma_hetero(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    s = 1.0 + (0.375 - 0.25 * np.abs(x)) * np.power(1.5, 2.0 * u)
    if not np.all(s > 0.0):
        raise NumericalError("volatility surface not positive on a draw")
    return s


def gen_dgp(cfg: DgpConfig) -> tuple[PanelData, np.ndarray, np.ndarray]:
    """Generate one panel.

    Returns (panel, gammas, thresholds) where gammas holds the true jump
    size per unit and thresholds the (common) true location.
    """
    n, t = cfg.n_units, cfg.t_obs
    ss = np.random.SeedSequence(cfg.seed)
    s_load, s_fac, s_idio, s_x, s_eps, s_u, s_nu, s_gamma = ss.spawn(8)

    if cfg.dgp_id == 1:
        x = np.random.default_rng(s_x).uniform(-1.0, 1.0, size=(n, t))
        eps = np.random.default_rng(s_eps).standard_normal((n, t))
        hetero = True
    else:
        rng_load = np.random.default_rng(s_load)
        lam_eps = rng_load.standard_normal(n)
        lam_x = rng_load.standard_normal(n)
        rng_fac = np.random.default_rng(s_fac)
        f_eps = _ma_rows(1, t, _BETA_DECAY, _MA_LAG, rng_fac)[0]
        f_x = _ma_rows(1, t, _BETA_DECAY, _MA_LAG, rng_fac)[0]
        rng_idio = np.random.default_rng(s_idio)
        u_eps = _ma_rows(n, t, _BETA_DECAY, _MA_LAG, rng_idio)
        u_x = _ma_rows(n, t, _BETA_DECAY, _MA_LAG, rng_idio)
        if cfg.dgp_id in (2, 3):
            eps = lam_eps[:, None] * f_eps + u_eps
            x = 0.25 * (lam_x[:, None] * f_x + u_x)
        elif cfg.dgp_id == 4:
            eps = (lam_eps[:, None] + 2.0) * f_eps + u_eps / 8.0
            x = 0.25 * ((lam_x[:, None] + 2.0) * f_x + u_x / 8.0)
        else:  # 5 and 6
            eps = (lam_eps[:, None] + 2.0) * f_eps + u_eps / 4.0
            x = 0.25 * ((lam_x[:, None] + 2.0) * f_x + u_x / 4.0)
        if cfg.dgp_id == 6:
            eps = eps + np.random.default_rng(s_nu).normal(0.0, 0.5, size=t)[None, :]
        hetero = cfg.dgp_id != 2

    u_tilde = np.random.default_rng(s_u).uniform(-1.0, 1.0, size=(n, t))
    u = u_tilde * x
    sigma = _sigma_hetero(x, u) if hetero else 1.0

    scheme = cfg.gamma_scheme
    gammas = inject_jumps(n, t, scheme.fraction, scheme.scale,
                          np.random.default_rng(s_gamma))
    y = (np.cos(x) + np.sin(u)
         + gammas[:, None] * (x >= cfg.threshold)
         + sigma * eps)

    width = len(str(n))
    units = [
        PanelUnit(unit_id=f"u{j + 1:0{width}d}", y=y[j], x=x[j])
        for j in range(n)
    ]
    thresholds = np.full(n, float(cfg.threshold))
    return PanelData(units=units), gammas, thresholds


# ----------------------------------------------------------------------
# Monte Carlo drivers


def _rep_seed(base_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([base_seed, rep]).generate_state(1, np.uint64)[0])


def _one_rep(dgp_cfg: DgpConfig, rep_seed: int, test: str, grid,
            config: TestConfig):
    """One replication, or None when it fails numerically.

    ``test`` "accuracy" returns the absolute threshold-location error of
    every searched unit; otherwise the reject map of the search (when
    ``grid`` is given) or of the known-threshold ``test``.
    """
    cfg = replace(dgp_cfg, seed=rep_seed)
    try:
        panel, _, thresholds = gen_dgp(cfg)
        if grid is not None:
            result = search_thresholds(panel, grid, config)
        elif test == "homogeneity":
            result = test_homogeneity(panel, cfg.threshold, config)
        else:
            result = test_existence(panel, cfg.threshold, config)
    except NumericalError:
        return None
    if test == "accuracy":
        true_c = float(thresholds[0])
        return [abs(u.threshold - true_c) for u in result.per_unit]
    return result.reject


def _run_reps(dgp_cfg: DgpConfig, mc: McConfig, test: str, grid,
              config: TestConfig) -> list:
    """Outcomes of ``_one_rep`` for replications 0..reps-1, in order."""
    n = mc.reps
    grid_t = None if grid is None else tuple(float(g) for g in grid)
    columns = ([dgp_cfg] * n, [_rep_seed(mc.base_seed, r) for r in range(n)],
               [test] * n, [grid_t] * n, [config] * n)
    # No more processes than replications: a fork pool starts all of its
    # workers at the first submit.
    workers = min(mc.workers, n)
    if workers <= 1:
        return list(map(_one_rep, *columns))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_one_rep, *columns,
                             chunksize=max(1, n // (8 * workers))))


def run_size_power(dgp_cfg: DgpConfig, mc: McConfig, test: str = "existence",
                   grid=None, config: TestConfig | None = None) -> RateTable:
    """Rejection-rate table over Monte Carlo replications.

    ``test`` selects the known-threshold existence or homogeneity test;
    passing ``grid`` runs the unknown-threshold existence search instead,
    so it needs ``test="existence"``, and homogeneity needs two units and
    a two-sided ``config``.
    Rates are reported once for each distinct level of ``config.alphas``.
    Replications that fail numerically are counted and excluded from the
    rates; acceptance-grade runs are expected to have none.  When every
    replication fails there is no rate, and a ``NumericalError`` says so.
    """
    if test not in ("existence", "homogeneity"):
        raise ConfigError(f"test must be 'existence' or 'homogeneity', got {test!r}")
    if grid is not None and test != "existence":
        raise ConfigError(f"grid runs the existence search and cannot take test={test!r}")
    if test == "homogeneity" and dgp_cfg.n_units < 2:
        raise ConfigError("the homogeneity test needs at least 2 units, "
                         f"got n_units={dgp_cfg.n_units}")
    config = config or TestConfig()
    if test == "homogeneity":
        _check_two_sided(config)
    counts = {a: 0 for a in config.alphas}
    failed = 0
    for outcome in _run_reps(dgp_cfg, mc, test, grid, config):
        if outcome is None:
            failed += 1
            continue
        for a in counts:
            counts[a] += bool(outcome[a])
    if failed == mc.reps:
        raise NumericalError(f"every replication failed numerically ({failed} of {mc.reps})")
    ok = mc.reps - failed
    rates = {a: counts[a] / ok for a in counts}
    ses = {a: float(np.sqrt(r * (1.0 - r) / ok)) for a, r in rates.items()}
    return RateTable(
        dgp_id=dgp_cfg.dgp_id,
        n_units=dgp_cfg.n_units,
        t_obs=dgp_cfg.t_obs,
        test="search" if grid is not None else test,
        reps=mc.reps,
        failed=failed,
        rates=rates,
        std_errors=ses,
    )


def run_threshold_accuracy(dgp_cfg: DgpConfig, mc: McConfig, grid,
                           config: TestConfig | None = None) -> AccuracyTable:
    """Mean and worst absolute threshold-location error over replications.

    Meant for configurations whose gamma scheme gives every unit a jump;
    units skipped by the search simply contribute nothing.  When every
    replication fails there is no error to report, and a
    ``NumericalError`` says so.
    """
    errors: list[float] = []
    failed = 0
    for outcome in _run_reps(dgp_cfg, mc, "accuracy", grid, config or TestConfig()):
        if outcome is None:
            failed += 1
        else:
            errors.extend(outcome)
    if failed == mc.reps:
        raise NumericalError(f"every replication failed numerically ({failed} of {mc.reps})")
    return AccuracyTable(
        dgp_id=dgp_cfg.dgp_id,
        n_units=dgp_cfg.n_units,
        t_obs=dgp_cfg.t_obs,
        reps=mc.reps,
        failed=failed,
        mean_abs_error=float(np.mean(errors)),
        max_abs_error=float(np.max(errors)),
    )
