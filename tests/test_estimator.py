"""Tests for the jump estimator and pilot smoothing."""

from __future__ import annotations

import numpy as np
import pytest

from paneljump.errors import DegenerateEverywhere, InsufficientSupport
from paneljump.estimator import (
    UnitJumpFit,
    estimate_jump,
    smooth_residuals,
)
from paneljump.kernels import KernelSpec

UNIFORM = KernelSpec("uniform")
EPA = KernelSpec("epanechnikov")


class TestEstimateJump:
    def test_exact_recovery_piecewise_affine(self):
        """Noiseless piecewise-affine panel: the estimator returns the true
        gap between the one-sided limits."""
        rng = np.random.default_rng(33)
        x = rng.uniform(-1.0, 1.0, size=200)
        gamma = 0.8215
        y = 0.4 + 1.1 * x + gamma * (x >= 0.0)
        fit = estimate_jump(y, x, 0.0, 0.5, UNIFORM)
        assert fit.gamma_hat == pytest.approx(gamma, abs=1e-10)
        assert fit.mu_minus == pytest.approx(0.4, abs=1e-10)
        assert fit.mu_plus == pytest.approx(0.4 + gamma, abs=1e-10)

    def test_different_slopes_each_side(self):
        x = np.linspace(-1.0, 1.0, 101)
        y = np.where(x >= 0.0, 2.0 + 3.0 * x, -1.0 - 0.5 * x)
        fit = estimate_jump(y, x, 0.0, 0.4, EPA)
        assert fit.gamma_hat == pytest.approx(3.0, abs=1e-9)

    def test_linear_in_y(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=60)
        y1 = rng.normal(size=60)
        y2 = rng.normal(size=60)
        g = lambda y: estimate_jump(y, x, 0.0, 0.6, UNIFORM).gamma_hat
        assert g(2.0 * y1 - 0.5 * y2) == pytest.approx(
            2.0 * g(y1) - 0.5 * g(y2), abs=1e-9
        )

    def test_metadata_fields(self):
        x = np.array([-0.4, -0.2, 0.1, 0.3, 2.5])
        y = np.zeros(5)
        fit = estimate_jump(y, x, 0.0, 1.0, UNIFORM, unit_id="u7")
        assert isinstance(fit, UnitJumpFit)
        assert fit.unit_id == "u7"
        assert fit.n_obs == 5
        assert fit.eff_obs_plus == 2  # 2.5 is outside the window
        assert fit.eff_obs_minus == 2
        assert fit.eff_obs == 4
        assert fit.v_hat is None

    def test_insufficient_side_reports_which(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InsufficientSupport) as err:
            estimate_jump(np.zeros(4), x, 0.0, 1.0, UNIFORM)
        assert "minus" in str(err.value)


class TestSmoothResiduals:
    def test_affine_signal_gives_zero_residuals(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 4.0, size=150)
        y = 2.0 - 3.0 * x
        r = smooth_residuals(y, x, 0.8, UNIFORM)
        np.testing.assert_allclose(r, 0.0, atol=1e-9)

    def test_uniform_prefix_path_matches_dense_path(self):
        """The prefix-sum fast path must agree with a brute-force local
        linear fit at every evaluation point."""
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.0, 1.0, size=300)
        y = np.sin(3.0 * x) + 0.1 * rng.normal(size=300)
        fast = smooth_residuals(y, x, 0.15, UNIFORM)

        slow = np.empty_like(fast)
        for i, xi in enumerate(x):
            w_lo = np.abs(x - xi) <= 0.15
            d = x[w_lo] - xi
            a = np.vstack([np.ones(d.size), d]).T
            coef, *_ = np.linalg.lstsq(a, y[w_lo], rcond=None)
            slow[i] = y[i] - coef[0]
        np.testing.assert_allclose(fast, slow, atol=1e-8)

    def test_nonuniform_kernel_path(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.0, 1.0, size=400)
        y = np.cos(2.0 * x) + 0.05 * rng.normal(size=400)
        r = smooth_residuals(y, x, 0.3, EPA)
        assert np.isfinite(r).all()
        # the smooth tracks the signal, so residuals are mostly noise sized
        assert np.abs(r).mean() < 0.15

    def test_jump_removal_cleans_residuals(self):
        """Without removal a jump bleeds into residuals near the threshold;
        with removal the residuals collapse to zero."""
        x = np.linspace(-1.0, 1.0, 201)
        y = 0.5 * x + 2.0 * (x >= 0.0)
        contaminated = smooth_residuals(y, x, 0.3, UNIFORM)
        cleaned = smooth_residuals(y, x, 0.3, UNIFORM, jump_removal=(0.0, 2.0))
        assert np.abs(contaminated).max() > 0.1
        np.testing.assert_allclose(cleaned, 0.0, atol=1e-9)

    def test_isolated_point_marked_nan(self):
        x = np.array([0.0, 0.01, 0.02, 0.03, 5.0])
        y = np.ones(5)
        r = smooth_residuals(y, x, 0.1, UNIFORM)
        assert np.isnan(r[-1])
        assert np.isfinite(r[:-1]).all()

    def test_degenerate_everywhere(self):
        x = np.full(6, 1.25)
        with pytest.raises(DegenerateEverywhere):
            smooth_residuals(np.ones(6), x, 0.1, UNIFORM)

    def test_bad_pilot_bandwidth(self):
        with pytest.raises(ValueError, match="pilot bandwidth"):
            smooth_residuals([1.0], [0.0], -0.5, UNIFORM)
