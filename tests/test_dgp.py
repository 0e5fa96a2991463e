"""Tests for the synthetic panel generators and Monte Carlo drivers."""

from __future__ import annotations

import concurrent.futures
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
    _fft_len,
    _inject_jumps,
    _ma_coefficients,
    _ma_rows,
    gen_dgp,
    run_size_power,
    run_threshold_accuracy,
)
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

    def test_fft_len_matches_scipy_next_fast_len(self):
        """Every n up to 10,000, then each 5-smooth s up to 100,000 and s + 1.

        The call at s + 1 tests every integer up to the next 5-smooth number,
        so the wider range is covered without calling once per n.
        """
        smooth = {2**i * 3**j * 5**k for i in range(17) for j in range(11) for k in range(8)}
        smooth = {s for s in smooth if s <= 100_000}
        for n in sorted(set(range(1, 10_001)) | smooth | {s + 1 for s in smooth}):
            assert _fft_len(n) == next_fast_len(n, real=True), n


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
