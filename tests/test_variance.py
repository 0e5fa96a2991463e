"""Tests for error-variance estimation and standardization scales."""

from __future__ import annotations

import math

import numpy as np
import pytest

from paneljump.errors import EmptyWindow, SingleUnit
from paneljump.kernels import KernelSpec, local_weights
from paneljump.variance import (
    default_truncation,
    sigma_c_matrix,
    sigma_e_sq_known,
    sigma_e_sq_truncated,
    v_sq,
    v_tilde_sq,
)

UNIFORM = KernelSpec("uniform")


class TestSigmaESqKnown:
    def test_mean_of_squares_in_window(self):
        out = sigma_e_sq_known([1.0, -1.0, 2.0], [0.0, 0.1, -0.1], 0.0, 0.5)
        assert out.sigma_e_sq == pytest.approx(2.0)
        assert out.n_window == 3

    def test_points_outside_window_ignored(self):
        out = sigma_e_sq_known([3.0, 100.0], [0.0, 0.9], 0.0, 0.5)
        assert out.sigma_e_sq == pytest.approx(9.0)
        assert out.n_window == 1

    def test_nan_residuals_excluded_from_count(self):
        out = sigma_e_sq_known([2.0, np.nan, -2.0], [0.0, 0.1, 0.2], 0.0, 0.5)
        assert out.sigma_e_sq == pytest.approx(4.0)
        assert out.n_window == 2

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow):
            sigma_e_sq_known([1.0, 2.0], [3.0, -3.0], 0.0, 0.5)

    def test_consistent_on_iid_noise(self):
        """Monte Carlo check: variance 4 noise recovered within 10%."""
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, size=2000)
        e = rng.normal(0.0, 2.0, size=2000)
        out = sigma_e_sq_known(e, x, 0.0, 0.2)
        assert out.sigma_e_sq == pytest.approx(4.0, rel=0.10)


class TestSigmaESqTruncated:
    def test_clip_then_average(self):
        resid = np.sqrt([0.5, 3.0, 1.0])
        out = sigma_e_sq_truncated(resid, [0.0, 0.0, 0.0], 0.0, 1.0, 2.0)
        assert out.sigma_e_sq == pytest.approx((0.5 + 2.0 + 1.0) / 3.0)
        assert out.truncation == 2.0

    def test_infinite_level_matches_untruncated(self):
        rng = np.random.default_rng(3)
        resid = rng.normal(size=50)
        x = rng.uniform(-1.0, 1.0, size=50)
        a = sigma_e_sq_truncated(resid, x, 0.0, 0.8, np.inf)
        b = sigma_e_sq_known(resid, x, 0.0, 0.8)
        assert a.sigma_e_sq == b.sigma_e_sq

    def test_no_clipping_when_below_level(self):
        resid = [0.5, -0.5]
        a = sigma_e_sq_truncated(resid, [0.0, 0.1], 0.0, 1.0, 10.0)
        b = sigma_e_sq_known(resid, [0.0, 0.1], 0.0, 1.0)
        assert a.sigma_e_sq == b.sigma_e_sq

    def test_truncated_never_exceeds_untruncated(self):
        rng = np.random.default_rng(4)
        resid = rng.standard_t(df=2, size=200)
        x = rng.uniform(-1.0, 1.0, size=200)
        t = sigma_e_sq_truncated(resid, x, 0.0, 1.0, 1.5)
        u = sigma_e_sq_known(resid, x, 0.0, 1.0)
        assert t.sigma_e_sq < u.sigma_e_sq


class TestDefaultTruncation:
    def test_nine_times_median_for_small_counts(self):
        pooled = np.array([1.0, 2.0, 3.0])
        assert default_truncation(pooled, 100) == pytest.approx(9.0 * 2.0)

    def test_log_factor_for_huge_counts(self):
        # sqrt(log n) only wins past n = e^81
        pooled = np.array([1.0])
        n = 10**40
        assert default_truncation(pooled, n) == pytest.approx(
            np.sqrt(math.log(n)) * 1.0
        )

    def test_zero_median_disables_clipping(self):
        assert default_truncation(np.zeros(11), 100) == np.inf

    def test_empty_pool_disables_clipping(self):
        assert default_truncation(np.array([np.nan, np.nan]), 100) == np.inf


class TestVSq:
    def test_arithmetic(self):
        # sum of squared differences 0.01 by construction
        w_diff = np.array([0.1, 0.0])
        assert v_sq(w_diff, 2.0, 100, 0.5) == pytest.approx(1.0)

    def test_zero_sigma(self):
        assert v_sq(np.ones(3), 0.0, 50, 0.3) == 0.0

    def test_scales_with_sigma(self):
        w_diff = np.array([0.4, 0.6, -1.0])
        base = v_sq(w_diff, 1.0, 200, 0.25)
        assert v_sq(w_diff, 9.0, 200, 0.25) == pytest.approx(9.0 * base)


class TestVTildeSq:
    def test_two_equal_units(self):
        assert v_tilde_sq([1.0, 1.0], 0) == pytest.approx(0.5)

    def test_three_unit_arithmetic(self):
        assert v_tilde_sq([1.0, 4.0, 9.0], 1) == pytest.approx(26.0 / 9.0)

    def test_large_n_limit(self):
        v = np.ones(10**6)
        v[17] = 2.0
        assert v_tilde_sq(v, 17) == pytest.approx(2.0, abs=1e-4)

    def test_single_unit_rejected(self):
        with pytest.raises(SingleUnit):
            v_tilde_sq([1.0], 0)


class TestSigmaCMatrix:
    def _unit(self, seed=9, t=400):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, size=t)

    def test_unit_diagonal(self):
        x = self._unit()
        m = sigma_c_matrix(x, [-0.2, 0.0, 0.2], 0.3, UNIFORM, np.ones(3))
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)

    def test_symmetric_entries_in_range(self):
        x = self._unit()
        m = sigma_c_matrix(x, [-0.2, 0.0, 0.2], 0.3, UNIFORM, np.ones(3))
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.all(m <= 1.0) and np.all(m >= -1.0)

    def test_exact_zero_beyond_two_bandwidths(self):
        x = self._unit()
        m = sigma_c_matrix(x, [-0.5, 0.5], 0.2, UNIFORM, np.ones(2))
        assert m[0, 1] == 0.0

    def test_positive_semidefinite(self):
        x = self._unit(seed=10)
        grid = np.linspace(-0.4, 0.4, 7)
        m = sigma_c_matrix(x, grid, 0.25, UNIFORM, np.ones(7))
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > -1e-8

    def test_matches_brute_force_covariance(self):
        """Entry (i1, i2) equals the direct formula
        (v_i1 v_i2)^-1 T b sum_t dw_t(c_i1) dw_t(c_i2) sigma^2."""
        x = self._unit(seed=11, t=120)
        grid = np.array([-0.1, 0.05, 0.2])
        b = 0.35
        sig = np.array([1.3, 0.8, 2.1])
        m = sigma_c_matrix(x, grid, b, UNIFORM, sig)

        t_obs = x.size
        dws = []
        for c in grid:
            wp = local_weights(x, c, b, UNIFORM, "plus")
            wm = local_weights(x, c, b, UNIFORM, "minus")
            dws.append(wp - wm)
        for i1 in range(3):
            for i2 in range(3):
                # per-point sigma levels come from the window of the row
                # threshold; the correlation uses the geometric pairing
                v1 = np.sqrt(t_obs * b * (dws[i1] @ dws[i1]) * sig[i1])
                v2 = np.sqrt(t_obs * b * (dws[i2] @ dws[i2]) * sig[i2])
                cov = t_obs * b * (dws[i1] @ dws[i2]) * np.sqrt(sig[i1] * sig[i2])
                assert m[i1, i2] == pytest.approx(cov / (v1 * v2), abs=1e-10)
