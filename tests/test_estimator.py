"""Tests for the jump estimator and pilot smoothing."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paneljump.errors import InsufficientSupport
from paneljump.estimator import _smooth_rows, _UnitJumpFit
from paneljump.kernels import KERNEL_KINDS, KernelSpec, _eval_kernel, denominator_floor
from one_row import jump, residuals, weights

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
        fit = jump(y, x, 0.0, 0.5, UNIFORM)
        assert fit.gamma_hat == pytest.approx(gamma, abs=1e-10)
        mu_minus = weights(x, 0.0, 0.5, UNIFORM, "minus") @ y
        mu_plus = weights(x, 0.0, 0.5, UNIFORM, "plus") @ y
        assert mu_minus == pytest.approx(0.4, abs=1e-10)
        assert mu_plus == pytest.approx(0.4 + gamma, abs=1e-10)

    def test_different_slopes_each_side(self):
        x = np.linspace(-1.0, 1.0, 101)
        y = np.where(x >= 0.0, 2.0 + 3.0 * x, -1.0 - 0.5 * x)
        fit = jump(y, x, 0.0, 0.4, EPA)
        assert fit.gamma_hat == pytest.approx(3.0, abs=1e-9)

    def test_linear_in_y(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, size=60)
        y1 = rng.normal(size=60)
        y2 = rng.normal(size=60)
        g = lambda y: jump(y, x, 0.0, 0.6, UNIFORM).gamma_hat
        assert g(2.0 * y1 - 0.5 * y2) == pytest.approx(
            2.0 * g(y1) - 0.5 * g(y2), abs=1e-9
        )

    def test_metadata_fields(self):
        x = np.array([-0.4, -0.2, 0.1, 0.3, 2.5])
        y = np.zeros(5)
        fit = jump(y, x, 0.0, 1.0, UNIFORM)
        assert isinstance(fit, _UnitJumpFit)
        assert [f.name for f in fields(fit)] == ["gamma_hat", "w_diff", "eff_obs"]
        assert fit.eff_obs == 4  # 2.5 is outside the window
        assert fit.w_diff.shape == (5,)
        assert fit.w_diff[4] == 0.0

    def test_insufficient_side_reports_which(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(InsufficientSupport) as err:
            jump(np.zeros(4), x, 0.0, 1.0, UNIFORM)
        assert "minus" in str(err.value)


class TestSmoothResiduals:
    def test_affine_signal_gives_zero_residuals(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 4.0, size=150)
        y = 2.0 - 3.0 * x
        r = residuals(y, x, 0.8, UNIFORM)
        np.testing.assert_allclose(r, 0.0, atol=1e-9)

    def test_uniform_prefix_path_matches_dense_path(self):
        """The prefix-sum fast path must agree with a brute-force local
        linear fit at every evaluation point."""
        rng = np.random.default_rng(14)
        x = rng.uniform(-1.0, 1.0, size=300)
        y = np.sin(3.0 * x) + 0.1 * rng.normal(size=300)
        fast = residuals(y, x, 0.15, UNIFORM)

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
        r = residuals(y, x, 0.3, EPA)
        assert np.isfinite(r).all()
        # the smooth tracks the signal, so residuals are mostly noise sized
        assert np.abs(r).mean() < 0.15

    def test_jump_removal_cleans_residuals(self):
        """Without removal a jump bleeds into residuals near the threshold;
        with removal the residuals collapse to zero."""
        x = np.linspace(-1.0, 1.0, 201)
        y = 0.5 * x + 2.0 * (x >= 0.0)
        contaminated = residuals(y, x, 0.3, UNIFORM)
        cleaned = residuals(y - 2.0 * (x >= 0.0), x, 0.3, UNIFORM)
        assert np.abs(contaminated).max() > 0.1
        np.testing.assert_allclose(cleaned, 0.0, atol=1e-9)

    def test_isolated_point_marked_nan(self):
        x = np.array([0.0, 0.01, 0.02, 0.03, 5.0])
        y = np.ones(5)
        r = residuals(y, x, 0.1, UNIFORM)
        assert np.isnan(r[-1])
        assert np.isfinite(r[:-1]).all()

    def test_degenerate_everywhere(self):
        x = np.full(6, 1.25)
        with pytest.raises(InsufficientSupport, match="no sample point admits a local linear fit"):
            residuals(np.ones(6), x, 0.1, UNIFORM)


def _dense_fitted(y, x, b, kernel):
    """Local linear fitted values of one row at each of its points, by a
    kernel-weighted least-squares fit per point on its window
    (fl(u - b) <= x <= fl(u + b)) in centred form, with the kernel factor
    1 for the uniform kernel as on its prefix-sum path; and each point's
    design denominator s0 s2 - s1^2 and its singular-design floor."""
    d = x[None, :] - x[:, None]
    inside = (x[None, :] >= (x - b)[:, None]) & (x[None, :] <= (x + b)[:, None])
    k = np.where(inside, 1.0 if kernel.kind == "uniform"
                 else _eval_kernel(kernel, np.clip(d / b, -1.0, 1.0)), 0.0)
    s0 = k.sum(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_bar, y_bar = (k @ x) / s0 - x, (k @ y) / s0
        dc, yc = d - d_bar[:, None], y[None, :] - y_bar[:, None]
        sdd = (k * dc * dc).sum(1)
        slope = (k * dc * yc).sum(1) / sdd
        return y_bar - slope * d_bar, s0 * sdd, denominator_floor(s0, (k * d * d).sum(1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    blocks=st.lists(st.tuples(st.integers(min_value=2, max_value=600),
                              st.integers(min_value=1, max_value=4)), min_size=1, max_size=3),
    kind=st.sampled_from(KERNEL_KINDS),
)
def test_smooth_rows_match_rows_alone_and_a_dense_fit(seed, blocks, kind):
    """Each row of a block of ``_smooth_rows``, at its own bandwidth, is the
    row smoothed alone, bit for bit, and a kernel-weighted least-squares
    fit at each point within 1e-9 relative, with its NaN mask wherever
    the design denominator is not within a factor 2 of its floor.  Blocks
    are ragged; x lies on a grid of 0.01 in [-1, 1], so rows have ties
    and, at bandwidths below 0.01, windows of one distinct value."""
    rng = np.random.default_rng(seed)
    kernel = KernelSpec(kind)
    for t_obs, n_rows in blocks:
        x = rng.integers(-100, 101, (n_rows, t_obs)) / 100
        y = np.sin(3.0 * x) + (x >= 0.0) + rng.normal(size=x.shape)
        b = rng.uniform(0.005, 0.5, n_rows)
        order = np.argsort(x, axis=1, kind="stable")
        for r, row in enumerate(_smooth_rows(y, x, order, b, kernel)):
            alone = _smooth_rows(y[r:r + 1], x[r:r + 1], order[r:r + 1], b[r:r + 1], kernel)[0]
            fitted, den, floor = _dense_fitted(y[r], x[r], b[r], kernel)
            clear = (den > 2.0 * floor) | (den < 0.5 * floor)
            if isinstance(row, InsufficientSupport):
                assert str(alone) == str(row)
                assert not (den > floor)[clear].any()
                continue
            assert row.tobytes() == alone.tobytes()
            np.testing.assert_array_equal(np.isnan(row)[clear], ~(den > floor)[clear])
            ok = clear & (den > floor)
            np.testing.assert_allclose(y[r][ok] - row[ok], fitted[ok], rtol=1e-9,
                                       atol=1e-9 * np.abs(y[r]).max())


@pytest.mark.xfail(strict=True, reason="the uniform smoother centres on the row mean and "
                   "takes prefix sums over the whole row, so a point far outside every "
                   "window costs the others precision")
@pytest.mark.parametrize("far", [1e8, -1e10])
def test_far_point_leaves_uniform_residuals_alone(far):
    """A point (far, 0) whose window holds only itself does not change the
    uniform smoother's residuals at the other points."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 200)
    y = np.sin(3.0 * x) + (x >= 0.0) + 0.1 * rng.normal(size=200)
    with_far = residuals(np.append(y, 0.0), np.append(x, far), 0.3, UNIFORM)[:200]
    np.testing.assert_allclose(with_far, residuals(y, x, 0.3, UNIFORM), rtol=1e-9)
