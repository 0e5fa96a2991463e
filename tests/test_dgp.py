"""Tests for the synthetic panel generators and Monte Carlo drivers."""

from __future__ import annotations

import concurrent.futures
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

import paneljump.dgp
from paneljump.bandwidth import BandwidthPolicy
from paneljump.errors import ConfigError, NumericalError
from paneljump.dgp import (
    AccuracyTable,
    DgpConfig,
    GammaScheme,
    McConfig,
    RateTable,
    _BETA_DECAY,
    _MA_LAG,
    _fft_len,
    _inject_jumps,
    _ma_coefficients,
    _ma_rows,
    _sigma_hetero,
    gen_dgp,
    run_size_power,
    run_threshold_accuracy,
)
from paneljump.inference import _BLOCK_BUDGET
from paneljump.inference import TestConfig as Config

FIXED = Config(bandwidth=BandwidthPolicy.fixed(0.3))


class TestMaGenerator:
    def test_length(self):
        s = _ma_rows(1, 250, 1.5, 100, np.random.default_rng(0))[0]
        assert s.shape == (250,)

    def test_unit_variance(self):
        """Coefficients are normalised so the process variance is one."""
        s = _ma_rows(1, 30_000, 1.5, 100, np.random.default_rng(1))[0]
        assert np.var(s) == pytest.approx(1.0, abs=0.1)

    def test_positive_autocorrelation(self):
        s = _ma_rows(1, 30_000, 1.5, 100, np.random.default_rng(2))[0]
        rho1 = np.corrcoef(s[:-1], s[1:])[0, 1]
        # theoretical lag-1 autocorrelation for this decay is about 0.18
        assert rho1 > 0.1

    def test_deterministic_given_rng_seed(self):
        a = _ma_rows(1, 100, 1.5, 50, np.random.default_rng(7))[0]
        b = _ma_rows(1, 100, 1.5, 50, np.random.default_rng(7))[0]
        np.testing.assert_array_equal(a, b)

    # Lag 0 is left out: scipy multiplies a one-tap filter directly instead of
    # transforming it, and no design uses it (every design filters at lag 100).
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 5), t_obs=st.integers(2, 2000), lag=st.integers(1, 120),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_fftconvolve_bit_for_bit(self, rows, t_obs, lag, seed):
        rng = np.random.default_rng(seed)
        eta = rng.standard_normal((rows, t_obs + lag))
        want = fftconvolve(eta, _ma_coefficients(1.5, lag)[None, :], mode="valid", axes=1)
        got = _ma_rows(rows, t_obs, 1.5, lag, np.random.default_rng(seed))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    # Rows are filtered in blocks of _BLOCK_BUDGET // _fft_len(t_obs + 2 lag)
    # rows (8 at T = 800 and lag 100, 1 at T = 7000), so these cross seams.
    @pytest.mark.parametrize("rows, t_obs, lag", [(20, 800, 100), (25, 800, 100),
                                                  (17, 800, 100), (9, 7000, 50)])
    def test_row_blocks_match_scipy_fftconvolve_bit_for_bit(self, rows, t_obs, lag):
        assert rows > 2 * max(1, _BLOCK_BUDGET // _fft_len(t_obs + 2 * lag))
        rng = np.random.default_rng(rows)
        eta = rng.standard_normal((rows, t_obs + lag))
        want = fftconvolve(eta, _ma_coefficients(1.5, lag)[None, :], mode="valid", axes=1)
        got = _ma_rows(rows, t_obs, 1.5, lag, np.random.default_rng(rows))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fft_len_matches_scipy_next_fast_len(self):
        """Every n up to 10,000, then each 5-smooth s up to 100,000 and s + 1.

        The call at s + 1 tests every integer up to the next 5-smooth number,
        so the wider range is covered without calling once per n.
        """
        smooth = {2**i * 3**j * 5**k for i in range(17) for j in range(11) for k in range(8)}
        smooth = {s for s in smooth if s <= 100_000}
        for n in sorted(set(range(1, 10_001)) | smooth | {s + 1 for s in smooth}):
            assert _fft_len(n) == next_fast_len(n, real=True), n


def _whole_panel(cfg: DgpConfig):
    """gen_dgp's construction with every array at full panel size: the
    reference its row-block build must equal bit for bit."""
    def ma_rows(n_series, t_obs, rng):
        a = _ma_coefficients(_BETA_DECAY, _MA_LAG)
        eta = rng.standard_normal((n_series, t_obs + _MA_LAG))
        n = _fft_len(t_obs + 2 * _MA_LAG)
        full = np.fft.irfft(np.fft.rfft(eta, n, axis=1) * np.fft.rfft(a, n), n, axis=1)
        return full[:, _MA_LAG:t_obs + _MA_LAG]

    n, t = cfg.n_units, cfg.t_obs
    s_load, s_fac, s_idio, s_x, s_eps, s_u, s_nu, s_gamma = (
        np.random.SeedSequence(cfg.seed).spawn(8))
    if cfg.dgp_id == 1:
        x = np.random.default_rng(s_x).uniform(-1.0, 1.0, size=(n, t))
        eps = np.random.default_rng(s_eps).standard_normal((n, t))
    else:
        rng_load = np.random.default_rng(s_load)
        lam_eps = rng_load.standard_normal(n)
        lam_x = rng_load.standard_normal(n)
        rng_fac = np.random.default_rng(s_fac)
        f_eps = ma_rows(1, t, rng_fac)[0]
        f_x = ma_rows(1, t, rng_fac)[0]
        rng_idio = np.random.default_rng(s_idio)
        u_eps = ma_rows(n, t, rng_idio)
        u_x = ma_rows(n, t, rng_idio)
        if cfg.dgp_id in (2, 3):
            eps = lam_eps[:, None] * f_eps + u_eps
            x = 0.25 * (lam_x[:, None] * f_x + u_x)
        elif cfg.dgp_id == 4:
            eps = (lam_eps[:, None] + 2.0) * f_eps + u_eps / 8.0
            x = 0.25 * ((lam_x[:, None] + 2.0) * f_x + u_x / 8.0)
        else:
            eps = (lam_eps[:, None] + 2.0) * f_eps + u_eps / 4.0
            x = 0.25 * ((lam_x[:, None] + 2.0) * f_x + u_x / 4.0)
        if cfg.dgp_id == 6:
            eps = eps + np.random.default_rng(s_nu).normal(0.0, 0.5, size=t)[None, :]
    u = np.random.default_rng(s_u).uniform(-1.0, 1.0, size=(n, t)) * x
    sigma = _sigma_hetero(x, u) if cfg.dgp_id != 2 else 1.0
    gammas = _inject_jumps(n, t, cfg.gamma_scheme.fraction, cfg.gamma_scheme.scale,
                           np.random.default_rng(s_gamma))
    y = np.cos(x) + np.sin(u) + gammas[:, None] * (x >= cfg.threshold) + sigma * eps
    return y, x, gammas


# gen_dgp's outcome blocks hold _BLOCK_BUDGET // 800 = 10 rows at T = 800 and
# its MA filter's 8, so these panel sizes put units on both sides of seams.
_BLOCK_ROWS = _BLOCK_BUDGET // 800


@pytest.mark.parametrize("dgp_id", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_units", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                     3 * _BLOCK_ROWS + 1])
def test_gen_dgp_equals_whole_panel_build(dgp_id, n_units):
    cfg = DgpConfig(dgp_id=dgp_id, n_units=n_units, t_obs=800, seed=2, threshold=0.1,
                    gamma_scheme=GammaScheme.sparse_power(0.3))
    panel, gammas, thresholds = gen_dgp(cfg)
    y, x, want_gammas = _whole_panel(cfg)
    assert [u.unit_id for u in panel] == [f"u{j + 1:0{len(str(n_units))}d}"
                                          for j in range(n_units)]
    assert b"".join(u.y.tobytes() for u in panel) == y.tobytes()
    assert b"".join(u.x.tobytes() for u in panel) == x.tobytes()
    assert gammas.tobytes() == want_gammas.tobytes()
    np.testing.assert_array_equal(thresholds, np.full(n_units, 0.1))


def test_gen_dgp_memory_is_the_panels_own():
    """A 1000 x 800 DGP 2 panel is generated within 1.5 times its y and x
    bytes: the MA noise is drawn into the panel's arrays and everything else
    is a row block (a whole-panel build peaks at about 4.3 times)."""
    tracemalloc.start()
    try:
        panel, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=1000, t_obs=800))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(u.y.nbytes + u.x.nbytes for u in panel)


class TestInjectJumps:
    def test_null_fraction(self):
        g = _inject_jumps(20, 400, 0.0, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(g, np.zeros(20))

    def test_ten_percent_of_hundred(self):
        g = _inject_jumps(100, 400, 0.1, 1.0, np.random.default_rng(1))
        assert np.count_nonzero(g) == 10

    def test_rounds_half_up(self):
        # fraction 0.25 of 10 units -> 2.5 -> 3 jumps
        g = _inject_jumps(10, 400, 0.25, 1.0, np.random.default_rng(2))
        assert np.count_nonzero(g) == 3

    def test_sizes_on_detection_boundary(self):
        """Nonzero jumps equal scale * T^(-2/5) sqrt(log N) B with B in [2, 10]."""
        g = _inject_jumps(50, 400, 1.0, 2.0, np.random.default_rng(3))
        unit = 2.0 * 400.0 ** (-0.4) * np.sqrt(np.log(50.0))
        b = g / unit
        assert np.all((b >= 2.0) & (b <= 10.0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 60), fraction=st.floats(0.0, 1.0))
    def test_count_matches_rounded_fraction(self, n, fraction):
        g = _inject_jumps(n, 200, fraction, 1.0, np.random.default_rng(9))
        assert np.count_nonzero(g) == int(np.floor(fraction * n + 0.5))


class TestGenDgp:
    def test_shapes_and_ids(self):
        panel, gammas, thresholds = gen_dgp(DgpConfig(dgp_id=1, n_units=12, t_obs=64))
        assert len(panel.units) == 12
        assert [u.unit_id for u in panel.units][:3] == ["u01", "u02", "u03"]
        assert all(u.y.shape == (64,) and u.x.shape == (64,) for u in panel.units)
        assert gammas.shape == (12,)
        np.testing.assert_array_equal(thresholds, np.zeros(12))

    def test_reproducible(self):
        a, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=5, t_obs=128, seed=42))
        b, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=5, t_obs=128, seed=42))
        for ua, ub in zip(a.units, b.units):
            np.testing.assert_array_equal(ua.y, ub.y)
            np.testing.assert_array_equal(ua.x, ub.x)

    def test_seed_changes_draws(self):
        a, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=5, t_obs=128, seed=0))
        b, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=5, t_obs=128, seed=1))
        assert not np.array_equal(a.units[0].y, b.units[0].y)

    def test_iid_design_covariate_range(self):
        panel, _, _ = gen_dgp(DgpConfig(dgp_id=1, n_units=8, t_obs=512))
        for u in panel.units:
            assert np.all(np.abs(u.x) <= 1.0)

    def test_null_scheme_gives_zero_gammas(self):
        _, gammas, _ = gen_dgp(DgpConfig(dgp_id=3, n_units=10, t_obs=64))
        np.testing.assert_array_equal(gammas, np.zeros(10))

    def test_jump_enters_outcome_at_threshold(self):
        """With a shared seed the jump term is the only difference in y."""
        base = DgpConfig(dgp_id=1, n_units=10, t_obs=256, seed=5, threshold=0.2)
        null_panel, _, _ = gen_dgp(base)
        jump_panel, gammas, _ = gen_dgp(
            DgpConfig(**{**base.__dict__, "gamma_scheme": GammaScheme.accuracy()})
        )
        assert np.all(gammas > 0.0)
        for j, (u0, u1) in enumerate(zip(null_panel.units, jump_panel.units)):
            np.testing.assert_array_equal(u0.x, u1.x)
            np.testing.assert_allclose(
                u1.y - u0.y, gammas[j] * (u0.x >= 0.2), atol=1e-12
            )

    def test_all_designs_run(self):
        for dgp_id in (1, 2, 3, 4, 5, 6):
            panel, _, _ = gen_dgp(DgpConfig(dgp_id=dgp_id, n_units=3, t_obs=64))
            assert all(np.all(np.isfinite(u.y)) for u in panel.units)

    @pytest.mark.parametrize("dgp_id", [3, 4, 5, 6])
    def test_factor_designs_generate_every_seed(self, dgp_id):
        """With the |X| term read at clip(X, -1, 1) the volatility surface
        stays at least 1, so no draw fails (unclipped, 38 of these 40 seeds
        failed on each of designs 4-6)."""
        for seed in range(40):
            panel, _, _ = gen_dgp(DgpConfig(dgp_id=dgp_id, n_units=100, t_obs=200, seed=seed))
            assert all(np.all(np.isfinite(u.y)) for u in panel.units)

    @pytest.mark.parametrize("dgp_id", [1, 2])
    def test_clip_leaves_designs_1_and_2_unchanged(self, dgp_id, monkeypatch):
        """Design 1's X lies in [-1, 1] and design 2 is homoskedastic, so
        both panels equal, bit for bit, those of the unclipped surface."""
        cfg = DgpConfig(dgp_id=dgp_id, n_units=20, t_obs=200, seed=11,
                        gamma_scheme=GammaScheme.sparse_power(0.2))
        clipped, _, _ = gen_dgp(cfg)
        monkeypatch.setattr(
            paneljump.dgp, "_sigma_hetero",
            lambda x, u: 1.0 + (0.375 - 0.25 * np.abs(x)) * np.power(1.5, 2.0 * u))
        unclipped, _, _ = gen_dgp(cfg)
        for a, b in zip(clipped.units, unclipped.units):
            assert a.x.tobytes() == b.x.tobytes()
            assert a.y.tobytes() == b.y.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="dgp_id"):
            DgpConfig(dgp_id=7, n_units=3, t_obs=64)
        with pytest.raises(ValueError, match="at least 1 unit"):
            DgpConfig(dgp_id=1, n_units=0, t_obs=64)
        with pytest.raises(ValueError, match="threshold must be finite"):
            DgpConfig(dgp_id=1, n_units=3, t_obs=64, threshold=float("nan"))

    @pytest.mark.parametrize("seed", [-1, 1.0, None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            DgpConfig(dgp_id=1, n_units=3, t_obs=64, seed=seed)
        with pytest.raises(ConfigError, match="base_seed must be a nonnegative integer"):
            McConfig(reps=2, base_seed=seed)
        assert McConfig(reps=2, base_seed=np.int64(3)).base_seed == 3

    def test_invalid_scheme(self):
        with pytest.raises(ValueError, match="fraction"):
            GammaScheme(fraction=1.5)
        with pytest.raises(ValueError, match="scale"):
            GammaScheme.sparse_power(0.5, scale=0.0)
        assert GammaScheme(scale=0.0).fraction == 0.0  # no jumps, so no scale

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ConfigError, match="scale"):
            GammaScheme.sparse_power(0.5, scale=scale)


class TestRunSizePower:
    def test_table_fields_and_rates(self):
        tab = run_size_power(
            DgpConfig(dgp_id=1, n_units=4, t_obs=80),
            McConfig(reps=6, base_seed=3),
            config=FIXED,
        )
        assert isinstance(tab, RateTable)
        assert set(tab.rates) == {0.10, 0.05, 0.01}
        assert all(0.0 <= r <= 1.0 for r in tab.rates.values())
        assert tab.failed == 0
        assert tab.test == "existence"

    def test_repeatable(self):
        cfg = DgpConfig(dgp_id=1, n_units=4, t_obs=80)
        mc = McConfig(reps=6, base_seed=3)
        a = run_size_power(cfg, mc, config=FIXED)
        b = run_size_power(cfg, mc, config=FIXED)
        assert a.rates == b.rates

    def test_homogeneity_branch(self):
        tab = run_size_power(
            DgpConfig(dgp_id=1, n_units=4, t_obs=80),
            McConfig(reps=4, base_seed=5),
            test="homogeneity",
            config=FIXED,
        )
        assert tab.test == "homogeneity"

    def test_search_branch_labels_table(self):
        tab = run_size_power(
            DgpConfig(dgp_id=1, n_units=3, t_obs=80),
            McConfig(reps=3, base_seed=6),
            grid=[-0.4, 0.0, 0.4],
            config=FIXED,
        )
        assert tab.test == "search"

    def test_big_jumps_always_rejected(self):
        tab = run_size_power(
            DgpConfig(dgp_id=1, n_units=4, t_obs=200,
                      gamma_scheme=GammaScheme.accuracy(scale=20.0)),
            McConfig(reps=4, base_seed=8),
            config=FIXED,
        )
        assert tab.rates[0.01] == 1.0

    def test_workers_match_serial(self):
        cfg = DgpConfig(dgp_id=1, n_units=3, t_obs=80)
        serial = run_size_power(cfg, McConfig(reps=4, base_seed=9), config=FIXED)
        pooled = run_size_power(
            cfg, McConfig(reps=4, base_seed=9, workers=2), config=FIXED
        )
        assert serial.rates == pooled.rates

    def test_repeated_levels_count_once(self):
        cfg = DgpConfig(dgp_id=1, n_units=3, t_obs=80)
        mc = McConfig(reps=4, base_seed=3)
        repeated = run_size_power(cfg, mc, config=replace(FIXED, alphas=(0.5, 0.1, 0.5)))
        distinct = run_size_power(cfg, mc, config=replace(FIXED, alphas=(0.5, 0.1)))
        assert repeated == distinct

    def test_pool_has_no_more_workers_than_reps(self, monkeypatch):
        # A fork pool starts all of its workers at the first submit, so a
        # recorder stands in for the pool and no process is started.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns, chunksize=1):
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = DgpConfig(dgp_id=1, n_units=3, t_obs=80)
        pooled = run_size_power(cfg, McConfig(reps=3, base_seed=9, workers=32), config=FIXED)
        assert sizes == [3]
        assert pooled == run_size_power(cfg, McConfig(reps=3, base_seed=9), config=FIXED)

    def test_one_unit_homogeneity_rejected_before_any_replication(self, monkeypatch):
        def no_rep(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(paneljump.dgp, "_one_rep", no_rep)
        with pytest.raises(ValueError, match="at least 2 units"):
            run_size_power(DgpConfig(dgp_id=1, n_units=1, t_obs=80), McConfig(reps=2),
                           test="homogeneity", config=FIXED)

    def test_grid_rejects_homogeneity(self):
        with pytest.raises(ValueError, match="grid.*test='homogeneity'"):
            run_size_power(
                DgpConfig(dgp_id=1, n_units=3, t_obs=80),
                McConfig(reps=2),
                test="homogeneity",
                grid=[-0.4, 0.0, 0.4],
            )

    @pytest.mark.parametrize("grid", [["0.0"], [True], [0.0, None]])
    def test_grid_values_must_be_real_numbers(self, monkeypatch, grid):
        """Checked once, before any replication runs."""
        def no_rep(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(paneljump.dgp, "_one_rep", no_rep)
        with pytest.raises(ConfigError, match="^grid value must be a real number"):
            run_size_power(DgpConfig(dgp_id=1, n_units=3, t_obs=80), McConfig(reps=2),
                           grid=grid, config=FIXED)

    def test_every_replication_failing_raises(self):
        # Two observations per unit leave no local design on either side.
        with pytest.raises(NumericalError, match=r"every replication failed .* \(2 of 2\)"):
            run_size_power(DgpConfig(dgp_id=1, n_units=2, t_obs=2), McConfig(reps=2),
                           config=FIXED)

    def test_partial_failures_are_counted(self, monkeypatch):
        outcomes = iter([None, {0.5: True}, {0.5: False}])
        monkeypatch.setattr(paneljump.dgp, "_one_rep", lambda *args: next(outcomes))
        tab = run_size_power(DgpConfig(dgp_id=1, n_units=2, t_obs=30), McConfig(reps=3),
                             config=replace(FIXED, alphas=(0.5,)))
        assert tab.failed == 1
        assert tab.rates == {0.5: 0.5}

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="existence"):
            run_size_power(
                DgpConfig(dgp_id=1, n_units=3, t_obs=80),
                McConfig(reps=2),
                test="sharpness",
            )


class TestRunThresholdAccuracy:
    def test_locates_big_jumps(self):
        acc = run_threshold_accuracy(
            DgpConfig(dgp_id=1, n_units=4, t_obs=200,
                      gamma_scheme=GammaScheme.accuracy(scale=20.0)),
            McConfig(reps=4, base_seed=10),
            grid=[-0.4, -0.2, 0.0, 0.2, 0.4],
            config=FIXED,
        )
        assert isinstance(acc, AccuracyTable)
        assert acc.failed == 0
        assert acc.mean_abs_error <= 0.2
        assert acc.max_abs_error >= acc.mean_abs_error

    def test_repeatable(self):
        cfg = DgpConfig(dgp_id=1, n_units=3, t_obs=150,
                        gamma_scheme=GammaScheme.accuracy(scale=10.0))
        mc = McConfig(reps=3, base_seed=12)
        grid = [-0.3, 0.0, 0.3]
        a = run_threshold_accuracy(cfg, mc, grid, config=FIXED)
        b = run_threshold_accuracy(cfg, mc, grid, config=FIXED)
        assert a.mean_abs_error == b.mean_abs_error
        assert a.max_abs_error == b.max_abs_error

    def test_workers_match_serial(self):
        cfg = DgpConfig(dgp_id=2, n_units=3, t_obs=150,
                        gamma_scheme=GammaScheme.accuracy(scale=10.0))
        grid = [-0.3, 0.0, 0.3]
        serial = run_threshold_accuracy(cfg, McConfig(reps=4, base_seed=12), grid,
                                        config=FIXED)
        pooled = run_threshold_accuracy(cfg, McConfig(reps=4, base_seed=12, workers=2), grid,
                                        config=FIXED)
        assert serial == pooled

    def test_every_replication_failing_raises(self):
        with pytest.raises(NumericalError, match=r"every replication failed .* \(2 of 2\)"):
            run_threshold_accuracy(DgpConfig(dgp_id=1, n_units=2, t_obs=2), McConfig(reps=2),
                                   grid=[0.0], config=FIXED)

    def test_grid_required(self):
        # Without a grid there is no threshold to locate: the known-threshold
        # test would report each unit at the true threshold, error 0.
        with pytest.raises(ConfigError, match="needs a grid"):
            run_threshold_accuracy(DgpConfig(dgp_id=1, n_units=3, t_obs=150), McConfig(reps=2),
                                   grid=None, config=FIXED)


_DRIVERS = {
    "run_size_power": lambda grid, mc: run_size_power(
        DgpConfig(dgp_id=1, n_units=3, t_obs=80), mc, grid=grid, config=FIXED),
    "run_threshold_accuracy": lambda grid, mc: run_threshold_accuracy(
        DgpConfig(dgp_id=1, n_units=3, t_obs=80), mc, grid, config=FIXED),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("grid, message", [
    ([], "grid must be a nonempty 1-d sequence"),
    ([0.1, 0.0], "grid must be strictly increasing"),
    ([0.1, 0.1], "grid must be strictly increasing"),
    ([0.0, np.inf], "grid value must be finite, got inf"),
    (np.array([[0.1, 0.2]]), "grid must be a nonempty 1-d sequence"),
], ids=["empty", "decreasing", "repeated", "inf", "2-d"])
@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_drivers_check_the_grid_before_any_replication(monkeypatch, driver, grid, message,
                                                       workers):
    """A grid passes the search's one grid rule before any panel is built
    or any worker process starts."""
    def fail(*args, **kwargs):
        raise AssertionError("a panel was built or a worker pool started")

    monkeypatch.setattr(paneljump.dgp, "gen_dgp", fail)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _DRIVERS[driver](grid, McConfig(reps=2, workers=workers))
