"""Synthetic panel generators and Monte Carlo drivers.

Six designs share the same outcome equation

    Y = cos(X) + sin(U) + gamma_j 1{X >= c0} + sigma_j(X, U) eps,
    U = Utilde X,  Utilde ~ U[-1, 1] iid,

and differ in how X and eps are built: iid draws (design 1), a factor
structure with serially correlated components (2, 3), and progressively
stronger factor dominance (4, 5, 6).  Serial dependence comes from a
truncated MA(infinity) filter with polynomially decaying coefficients.

Deviation: the heteroskedastic designs (all but 2) use
sigma_j(X, U) = 1 + (0.375 - 0.25 |clip(X, -1, 1)|) 1.5^(2U), with the |X|
term read at X clipped to [-1, 1].  Read unclipped, the bracket turns
negative once |X| > 1.5, and the factor-driven covariates of designs 3-6
reach that often enough that sigma went non-positive on most draws (38 or
39 of 40 seeds at 100 x 200 for each of designs 4-6).  Design 1 draws X
from U[-1, 1], where the clip changes nothing, and design 2 is
homoskedastic, so both generate the same panels bit for bit as without
the clip.

Replication r of a Monte Carlo run draws its seed from (base_seed, r), so
tables are reproducible bit for bit and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError, _check_int, _check_real
from .inference import (_BLOCK_BUDGET, TestConfig, _check_grid, _check_threshold, _check_two_sided,
                        search_thresholds, test_existence, test_homogeneity)
from .panel import PanelData, PanelUnit

__all__ = [
    "GammaScheme",
    "DgpConfig",
    "McConfig",
    "RateTable",
    "AccuracyTable",
    "gen_dgp",
    "run_size_power",
    "run_threshold_accuracy",
]


@dataclass(frozen=True)
class GammaScheme:
    """How jump sizes are assigned across units.

    A random ``fraction`` of units gets a jump scaled to the detection
    boundary, scale * T^(-2/5) (log N)^(1/2) B with B ~ U[2, 10].
    The default gives no unit a jump and ``accuracy`` every unit, for
    threshold-location experiments where each unit needs a jump to locate.
    """

    fraction: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= _check_real(self.fraction, "fraction") <= 1.0:
            raise ConfigError("fraction must lie in [0, 1]")
        if self.fraction > 0.0 and not 0.0 < _check_real(self.scale, "scale") < np.inf:
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")

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
        _check_int(self.n_units, "n_units")
        _check_int(self.t_obs, "t_obs")
        if self.n_units < 1 or self.t_obs < 2:
            raise ConfigError("need at least 1 unit and 2 observations")
        _check_threshold(self.threshold, "threshold")
        _check_int(self.seed, "seed")


@dataclass(frozen=True)
class McConfig:
    reps: int
    base_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        _check_int(self.reps, "reps", 1)
        _check_int(self.workers, "workers", 1)
        _check_int(self.base_seed, "base_seed")


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


def _fft_len(n: int) -> int:
    """Smallest 2^i 3^j 5^k at least n (scipy.fft.next_fast_len(n, real=True))."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _ma_rows(n_series: int, t_obs: int, beta: float, lag: int,
             rng: np.random.Generator) -> np.ndarray:
    """n_series independent MA(lag) rows of length t_obs, with coefficients
    (k+1)^-(beta+1) normalised to unit variance and the warm-up discarded.
    The FFT length is scipy.signal.fftconvolve's, so rows equal its bit for bit.

    Rows are drawn and filtered in blocks of at most _BLOCK_BUDGET floats of
    transform length, in order from ``rng``, which fills C order from one
    stream: the rows equal those of one whole (n_series, t_obs + lag) draw,
    and only the result is held at full size.
    """
    n = _fft_len(t_obs + 2 * lag)
    a_hat = np.fft.rfft(_ma_coefficients(beta, lag), n)
    out = np.empty((n_series, t_obs))
    step = max(1, _BLOCK_BUDGET // n)
    for i in range(0, n_series, step):
        eta = rng.standard_normal((min(step, n_series - i), t_obs + lag))
        out[i:i + step] = np.fft.irfft(np.fft.rfft(eta, n, axis=1) * a_hat, n,
                                       axis=1)[:, lag:t_obs + lag]
    return out


def _inject_jumps(n_units: int, t_obs: int, fraction: float, scale: float,
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
    """sigma = 1 + (0.375 - 0.25 |clip(X, -1, 1)|) 1.5^(2U), at least 1.

    The |X| term is read at X clipped to [-1, 1] (a deviation; see the
    module docstring), so the bracket stays in [0.125, 0.375].
    """
    return 1.0 + (0.375 - 0.25 * np.abs(np.clip(x, -1.0, 1.0))) * np.power(1.5, 2.0 * u)


def gen_dgp(cfg: DgpConfig) -> tuple[PanelData, np.ndarray, np.ndarray]:
    """Generate one panel.

    Returns (panel, gammas, thresholds) where gammas holds the true jump
    size per unit and thresholds the (common) true location.

    The panel's (n_units, t_obs) y and x arrays are the only full-size
    arrays: the covariate and noise draws are made into them, and the factor
    transform and the outcome equation run in place over row blocks of at
    most _BLOCK_BUDGET (2^13) floats.  Generating a panel so costs about the
    panel's own memory, and every draw is the one a whole-panel build makes.
    """
    n, t = cfg.n_units, cfg.t_obs
    ss = np.random.SeedSequence(cfg.seed)
    s_load, s_fac, s_idio, s_x, s_eps, s_u, s_nu, s_gamma = ss.spawn(8)

    factor = nu = None
    if cfg.dgp_id == 1:
        x = np.random.default_rng(s_x).uniform(-1.0, 1.0, size=(n, t))
        y = np.random.default_rng(s_eps).standard_normal((n, t))
    else:
        rng_load = np.random.default_rng(s_load)
        lam_eps = rng_load.standard_normal(n)
        lam_x = rng_load.standard_normal(n)
        rng_fac = np.random.default_rng(s_fac)
        f_eps = _ma_rows(1, t, _BETA_DECAY, _MA_LAG, rng_fac)[0]
        f_x = _ma_rows(1, t, _BETA_DECAY, _MA_LAG, rng_fac)[0]
        # y holds the idiosyncratic noise of eps and x that of the covariate
        # until the block loop transforms them.
        rng_idio = np.random.default_rng(s_idio)
        y = _ma_rows(n, t, _BETA_DECAY, _MA_LAG, rng_idio)
        x = _ma_rows(n, t, _BETA_DECAY, _MA_LAG, rng_idio)
        if cfg.dgp_id in (2, 3):
            def factor(lam, f, idio):
                return lam * f + idio
        elif cfg.dgp_id == 4:
            def factor(lam, f, idio):
                return (lam + 2.0) * f + idio / 8.0
        else:  # 5 and 6
            def factor(lam, f, idio):
                return (lam + 2.0) * f + idio / 4.0
        if cfg.dgp_id == 6:
            nu = np.random.default_rng(s_nu).normal(0.0, 0.5, size=t)
    hetero = cfg.dgp_id != 2

    scheme = cfg.gamma_scheme
    gammas = _inject_jumps(n, t, scheme.fraction, scheme.scale,
                           np.random.default_rng(s_gamma))
    rng_u = np.random.default_rng(s_u)
    step = max(1, _BLOCK_BUDGET // t)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        if factor is not None:
            y[rows] = factor(lam_eps[rows, None], f_eps, y[rows])
            if nu is not None:
                y[rows] += nu
            x[rows] = 0.25 * factor(lam_x[rows, None], f_x, x[rows])
        xb, eps = x[rows], y[rows]
        u = rng_u.uniform(-1.0, 1.0, size=xb.shape) * xb
        sigma = _sigma_hetero(xb, u) if hetero else 1.0
        y[rows] = (np.cos(xb) + np.sin(u)
                   + gammas[rows, None] * (xb >= cfg.threshold)
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
    """Outcomes of ``_one_rep`` for the replications 0..reps-1 that did not
    fail numerically, in order, after one grid check; a ``NumericalError``
    when every replication failed."""
    n = mc.reps
    grid = None if grid is None else _check_grid(grid)
    columns = ([dgp_cfg] * n, [_rep_seed(mc.base_seed, r) for r in range(n)],
               [test] * n, [grid] * n, [config] * n)
    # No more processes than replications: a fork pool starts all of its
    # workers at the first submit.
    workers = min(mc.workers, n)
    if workers <= 1:
        outcomes = list(map(_one_rep, *columns))
    else:
        # Imported here: the process pool loads multiprocessing, which only a
        # run with workers needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_one_rep, *columns,
                                     chunksize=max(1, n // (8 * workers))))
    outcomes = [o for o in outcomes if o is not None]
    if not outcomes:
        raise NumericalError(f"every replication failed numerically ({n} of {n})")
    return outcomes


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
    outcomes = _run_reps(dgp_cfg, mc, test, grid, config)
    ok = len(outcomes)
    rates = {a: sum(bool(o[a]) for o in outcomes) / ok for a in config.alphas}
    ses = {a: float(np.sqrt(r * (1.0 - r) / ok)) for a, r in rates.items()}
    return RateTable(
        dgp_id=dgp_cfg.dgp_id,
        n_units=dgp_cfg.n_units,
        t_obs=dgp_cfg.t_obs,
        test="search" if grid is not None else test,
        reps=mc.reps,
        failed=mc.reps - ok,
        rates=rates,
        std_errors=ses,
    )


def run_threshold_accuracy(dgp_cfg: DgpConfig, mc: McConfig, grid,
                           config: TestConfig | None = None) -> AccuracyTable:
    """Mean and worst absolute threshold-location error over replications.

    Meant for configurations whose gamma scheme gives every unit a jump;
    units skipped by the search simply contribute nothing.  When every
    replication fails there is no error to report, and a
    ``NumericalError`` says so.  ``grid`` is required: without one there
    is no threshold to locate, and it is a ``ConfigError``.
    """
    if grid is None:
        raise ConfigError("threshold accuracy needs a grid to search")
    outcomes = _run_reps(dgp_cfg, mc, "accuracy", grid, config or TestConfig())
    errors = [e for outcome in outcomes for e in outcome]
    return AccuracyTable(
        dgp_id=dgp_cfg.dgp_id,
        n_units=dgp_cfg.n_units,
        t_obs=dgp_cfg.t_obs,
        reps=mc.reps,
        failed=mc.reps - len(outcomes),
        mean_abs_error=float(np.mean(errors)),
        max_abs_error=float(np.max(errors)),
    )
