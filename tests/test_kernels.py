"""Tests for kernel evaluation and local linear weights."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from paneljump.bandwidth import BandwidthPolicy
from paneljump.errors import InsufficientSupport
from paneljump.kernels import KERNEL_KINDS, KernelSpec, _eval_kernel, denominator_floor
from one_row import jump, residuals, weights, window_mean

UNIFORM = KernelSpec("uniform")

# int_0^1 u^l K(u) du for l = 0, 1, 2.
PLUS_MOMENTS = {
    "uniform": (0.5, 0.25, 1.0 / 6.0),
    "triangular": (0.5, 1.0 / 6.0, 1.0 / 12.0),
    "epanechnikov": (0.5, 0.1875, 0.1),
}


def _moment(kind, ell, lo, hi):
    kernel = KernelSpec(kind)
    return quad(lambda u: u**ell * _eval_kernel(kernel, u), lo, hi)[0]


class TestEvalKernel:
    def test_uniform_constant_inside(self):
        u = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(_eval_kernel(UNIFORM, u), 0.5)

    def test_closed_support_endpoints(self):
        """|u| == 1 is inside the support for every kernel."""
        assert _eval_kernel(UNIFORM, 1.0) == 0.5
        assert _eval_kernel(UNIFORM, -1.0) == 0.5
        assert _eval_kernel(KernelSpec("triangular"), 1.0) == 0.0
        assert _eval_kernel(KernelSpec("epanechnikov"), -1.0) == 0.0

    def test_zero_outside_support(self):
        u = np.array([-1.0000001, 1.0000001, 5.0, -17.0])
        for kind in KERNEL_KINDS:
            np.testing.assert_array_equal(_eval_kernel(KernelSpec(kind), u), 0.0)

    def test_triangular_shape(self):
        np.testing.assert_allclose(
            _eval_kernel(KernelSpec("triangular"), np.array([-0.25, 0.0, 0.75])),
            [0.75, 1.0, 0.25],
        )

    def test_epanechnikov_shape(self):
        np.testing.assert_allclose(
            _eval_kernel(KernelSpec("epanechnikov"), np.array([0.0, 0.5])),
            [0.75, 0.5625],
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelSpec("gaussian")


class TestKernelMoments:
    """One-sided moments of _eval_kernel by quadrature."""

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_matches_numeric_integration(self, kind):
        """Quadrature of _eval_kernel agrees with the closed-form moments."""
        for ell in range(3):
            assert _moment(kind, ell, 0.0, 1.0) == pytest.approx(
                PLUS_MOMENTS[kind][ell], abs=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_sides_integrate_to_one(self, kind):
        total = _moment(kind, 0, 0.0, 1.0) + _moment(kind, 0, -1.0, 0.0)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_odd_moment_flips_sign(self, kind):
        assert _moment(kind, 1, -1.0, 0.0) == pytest.approx(
            -_moment(kind, 1, 0.0, 1.0), abs=1e-12)
        assert _moment(kind, 2, -1.0, 0.0) == pytest.approx(
            _moment(kind, 2, 0.0, 1.0), abs=1e-12)


class TestDenominatorFloor:
    def test_relative_above_one(self):
        assert denominator_floor(10.0, 5.0) == 1e-12 * 50.0

    def test_absolute_below_one(self):
        assert denominator_floor(1e-3, 1e-3) == 1e-12


class TestLocalWeights:
    def test_two_point_interpolation(self):
        """With two in-support points the boundary fit is the secant line:
        w = [x2, -x1] / (x2 - x1) regardless of the kernel factors."""
        x = np.array([0.2, 0.4, -0.3, 1.5])
        w = weights(x, 0.0, 1.0, UNIFORM, "plus")
        np.testing.assert_allclose(w, [2.0, -1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_reproduces_affine_functions(self, kind, side):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, size=60)
        w = weights(x, 0.1, 0.7, KernelSpec(kind), side)
        # exactness on affine y means intercept recovery at the threshold
        y = 3.0 - 2.0 * x
        assert w @ y == pytest.approx(3.0 - 2.0 * 0.1, abs=1e-9)

    def test_threshold_point_counts_as_plus(self):
        x = np.array([0.0, 0.5, -0.5, -0.25])
        assert weights(x, 0.0, 1.0, UNIFORM, "plus")[0] != 0.0
        assert weights(x, 0.0, 1.0, UNIFORM, "minus")[0] == 0.0

    def test_nonpositive_bandwidth_rejected(self):
        # A bandwidth enters through its policy, which rejects it there.
        with pytest.raises(ValueError, match="bandwidth"):
            BandwidthPolicy.fixed(0.0)

    def test_zero_off_own_side(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, size=40)
        w = weights(x, 0.0, 0.8, UNIFORM, "plus")
        assert np.all(w[x < 0.0] == 0.0)

    def test_fewer_than_two_distinct_points(self):
        with pytest.raises(InsufficientSupport, match="plus"):
            weights([0.5, 0.5, -0.2], 0.0, 1.0, UNIFORM, "plus")

    def test_no_points_at_all(self):
        with pytest.raises(InsufficientSupport, match="minus"):
            weights([0.5, 0.6], 0.0, 1.0, UNIFORM, "minus")

    def test_near_singular_design(self):
        # two points 1e-9 apart: distinct, but the design denominator is
        # below the relative floor
        with pytest.raises(InsufficientSupport, match="singular"):
            weights([0.5, 0.5 + 1e-9], 0.0, 1.0, UNIFORM, "plus")

    def test_overflowing_design_is_singular(self):
        # At |x| near 1e152 the side sums overflow and the design
        # denominator is NaN; that is no usable design, not NaN weights.
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 300) * 4e152
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InsufficientSupport, match="singular local design"):
            weights(x, -8e151, 4e152, UNIFORM, "plus")

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_point_at_the_float_limit_leaves_the_fit(self, kind):
        """One more point at 1e308, far off both windows, gets weight zero
        and leaves the jump fit bit for bit, with no RuntimeWarning: its
        offset is zeroed before it is squared."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 30)
        y = 0.5 * x + (x >= 0.0) + 0.1 * rng.standard_normal(30)
        kernel = KernelSpec(kind)
        fit = jump(y, x, 0.0, 0.3, kernel)
        far = jump(np.append(y, 0.0), np.append(x, 1e308), 0.0, 0.3, kernel)
        assert (far.gamma_hat, far.eff_obs) == (fit.gamma_hat, fit.eff_obs)
        assert far.w_diff[:-1].tobytes() == fit.w_diff.tobytes() and far.w_diff[-1] == 0.0


# dyadic grids keep the identity checks exact in floating point
_dyadic = st.integers(min_value=-256, max_value=256).map(lambda k: k / 256.0)


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(_dyadic, min_size=4, max_size=24),
    c=st.integers(min_value=-4, max_value=4).map(lambda k: k / 8.0),
    b=st.sampled_from([0.25, 0.5, 1.0]),
    kind=st.sampled_from(KERNEL_KINDS),
    side=st.sampled_from(["plus", "minus"]),
)
def test_weight_identities_property(xs, c, b, kind, side):
    """Sum to one and orthogonality to (x - c), whenever the fit exists."""
    x = np.array(xs)
    try:
        w = weights(x, c, b, KernelSpec(kind), side)
    except InsufficientSupport:
        return
    assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
    assert np.sum((x - c) * w) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(_dyadic, min_size=4, max_size=16),
    shift=st.integers(min_value=-8, max_value=8).map(lambda k: k / 4.0),
    kind=st.sampled_from(KERNEL_KINDS),
)
def test_weights_translation_invariant(xs, shift, kind):
    """Shifting x and c together leaves the weights untouched (dyadic
    shifts make the kernel arguments bit-identical)."""
    x = np.array(xs)
    try:
        w0 = weights(x, 0.0, 0.5, KernelSpec(kind), "plus")
    except InsufficientSupport:
        return
    w1 = weights(x + shift, shift, 0.5, KernelSpec(kind), "plus")
    np.testing.assert_array_equal(w0, w1)


def test_weights_scale_equivariant():
    """Scaling x, c, b by s > 0 leaves w unchanged up to rounding."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, size=50)
    w0 = weights(x, 0.25, 0.5, KernelSpec("triangular"), "minus")
    for s in (2.0, 0.125, 37.5):
        w1 = weights(s * x, s * 0.25, s * 0.5, KernelSpec("triangular"), "minus")
        np.testing.assert_allclose(w1, w0, atol=1e-10)


def _edge_panel(c, b):
    """Observations at fl(c - b), fl(c + b) and c, one ULP either side of
    each, and interior points that keep both sides' designs regular."""
    pivots = (c - b, c, c + b)
    ulps = [np.nextafter(p, -np.inf) for p in pivots] + [np.nextafter(p, np.inf) for p in pivots]
    interior = [c + f * b for f in (-0.5, -0.25, 0.25, 0.5)]
    return np.unique(np.array([*pivots, *ulps, *interior]))


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(min_value=-1.0, max_value=1.0),
    b=st.floats(min_value=0.01, max_value=1.0),
    offset=st.sampled_from([0.0, 1e4]),
)
# x = -0.0341396113661226 lies one ULP below fl(c - b), yet fl(x - c) / b
# rounds to exactly -1.
@example(c=0.2, b=0.2341396113661226, offset=0.0)
def test_windows_agree_at_the_edges(c, b, offset):
    """The one-sided weights, the windowed variance and the uniform
    residual smooth all draw the window c - b <= x <= c + b, split at c."""
    c += offset
    x = _edge_panel(c, b)
    inside = (c - b <= x) & (x <= c + b)
    plus = inside & (x >= c)
    minus = inside & (x < c)
    np.testing.assert_array_equal(weights(x, c, b, UNIFORM, "plus") != 0.0, plus)
    np.testing.assert_array_equal(weights(x, c, b, UNIFORM, "minus") != 0.0, minus)

    at_c = int(np.flatnonzero(x == c)[0])
    for i in range(x.size):
        resid = np.full(x.size, np.nan)
        resid[i] = 1.0
        try:
            counted = window_mean(resid, x, c, b, np.inf) == 1.0
        except InsufficientSupport as exc:
            assert str(exc).startswith("no usable residuals")
            counted = False
        assert counted == inside[i]
        if i != at_c:
            # y is the indicator of x[i], so the fit at c is x[i]'s weight
            r = residuals(np.eye(x.size)[i], x, b, UNIFORM)
            assert (r[at_c] != 0.0) == inside[i]
