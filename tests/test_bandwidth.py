"""Tests for plugin bandwidth selection, pooling, and pilot shrinkage."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from paneljump.bandwidth import (
    _BOUNDARY_CONSTANTS,
    DEFAULT_BOUNDS,
    BandwidthPolicy,
    _pilot_rows,
    _plugin_rows,
    _pooled_bandwidth,
    _quartic_sides,
)
from paneljump.errors import ConfigError, InsufficientSupport
from paneljump.kernels import KernelSpec, _eval_kernel
from one_row import pilot, plugin

UNIFORM = KernelSpec("uniform")

# int_0^1 u^l K(u) du for l = 0, 1, 2.
PLUS_MOMENTS = {
    "uniform": (0.5, 0.25, 1.0 / 6.0),
    "triangular": (0.5, 1.0 / 6.0, 1.0 / 12.0),
    "epanechnikov": (0.5, 0.1875, 0.1),
}


class TestBandwidthPolicy:
    def test_factories(self):
        assert BandwidthPolicy.fixed(0.4).mode == "fixed"
        assert BandwidthPolicy.plugin().mode == "plugin"
        assert BandwidthPolicy.pooled().mode == "pooled_plugin"
        assert BandwidthPolicy.plugin().bounds == DEFAULT_BOUNDS

    def test_fixed_needs_positive_value(self):
        with pytest.raises(ValueError, match="positive value"):
            BandwidthPolicy.fixed(0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fixed_needs_finite_value(self, value):
        with pytest.raises(ConfigError, match="positive value"):
            BandwidthPolicy.fixed(value)

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="bounds"):
            BandwidthPolicy.plugin(bounds=(0.3, 0.1))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            BandwidthPolicy(mode="adaptive")


class TestBoundaryConstant:
    def test_uniform_value_frozen(self):
        # independently derived: B = 1/6, V = 4 for the uniform boundary
        # equivalent kernel, so C = (2*4/(1/6)^2)^(1/5) = 288^(1/5)
        assert _BOUNDARY_CONSTANTS["uniform"] == pytest.approx(288.0**0.2, abs=1e-9)

    @pytest.mark.parametrize("kind", ["uniform", "triangular", "epanechnikov"])
    def test_matches_direct_quadrature(self, kind):
        # Exact: the stored constants are these quadrature results, which
        # every reported bandwidth depends on.
        kernel = KernelSpec(kind)
        k0, k1, k2 = PLUS_MOMENTS[kind]
        k3 = integrate.quad(lambda u: u**3 * _eval_kernel(kernel, u), 0, 1)[0]
        den = k0 * k2 - k1 * k1
        bias = (k2 * k2 - k1 * k3) / den
        var = integrate.quad(
            lambda u: (_eval_kernel(kernel, u) * (k2 - k1 * u) / den) ** 2, 0, 1
        )[0]
        assert _BOUNDARY_CONSTANTS[kind] == (2 * var / bias**2) ** 0.2


def _curved_sample(seed=0, t=400, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=t)
    y = np.cos(2.0 * x) + 4.0 * x**2 * (x >= 0.0) + noise * rng.normal(size=t)
    return y, x


class TestPluginBandwidth:
    def test_within_bounds(self):
        y, x = _curved_sample()
        b = plugin(y, x, 0.0, UNIFORM)
        lo, hi = DEFAULT_BOUNDS
        x_range = x.max() - x.min()
        assert lo * x_range <= b <= hi * x_range

    def test_deterministic(self):
        y, x = _curved_sample(seed=5)
        assert plugin(y, x, 0.0, UNIFORM) == plugin(
            y, x, 0.0, UNIFORM
        )

    def test_scale_equivariant_in_x(self):
        y, x = _curved_sample(seed=6)
        b = plugin(y, x, 0.1, UNIFORM)
        for s in (3.0, 0.25):
            bs = plugin(y, s * x, s * 0.1, UNIFORM)
            assert bs == pytest.approx(s * b, rel=1e-6)

    def test_y_scale_invariant_with_estimated_curvature(self):
        """Scaling y rescales sigma and the fitted curvature together, so
        the ratio in the rule is 2-homogeneous and b does not move."""
        y, x = _curved_sample(seed=7, noise=1.0)
        b1 = plugin(y, x, 0.0, UNIFORM, bounds=(0.001, 5.0))
        b2 = plugin(4.0 * y, x, 0.0, UNIFORM, bounds=(0.001, 5.0))
        assert b2 == pytest.approx(b1, rel=1e-9)

    def test_noisier_y_larger_bandwidth(self):
        """Extra noise raises sigma^2 but, at this sample size, barely
        moves the fitted curvature, which pushes the selection up."""
        rng = np.random.default_rng(71)
        x = rng.uniform(-1.0, 1.0, size=4000)
        signal = np.cos(2.0 * x) + 4.0 * x**2 * (x >= 0.0)
        eps = rng.normal(size=4000)
        b_quiet = plugin(signal + 0.2 * eps, x, 0.0, UNIFORM,
                                   bounds=(0.001, 5.0))
        b_loud = plugin(signal + 2.0 * eps, x, 0.0, UNIFORM,
                                  bounds=(0.001, 5.0))
        assert b_loud > b_quiet

    def test_jump_in_y_ignored(self):
        """An added jump at the threshold is soaked up by the side-wise
        fits and must not move the selected bandwidth."""
        y, x = _curved_sample(seed=8)
        b0 = plugin(y, x, 0.0, UNIFORM)
        b1 = plugin(y + 5.0 * (x >= 0.0), x, 0.0, UNIFORM)
        assert b1 == pytest.approx(b0, rel=1e-9)

    def test_shrinks_with_sample_size(self):
        """Median selected bandwidth drifts down as T grows, tracking the
        T^(-1/5) factor."""
        medians = []
        for t in (200, 800, 3200):
            bs = []
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                x = rng.uniform(-1.0, 1.0, size=t)
                y = np.sin(3.0 * x) + 8.0 * x**2 * (x >= 0) + rng.normal(size=t)
                bs.append(plugin(y, x, 0.0, UNIFORM, bounds=(0.001, 5.0)))
            medians.append(np.median(bs))
        assert medians[0] > medians[1] > medians[2]

    def test_too_few_observations(self):
        with pytest.raises(InsufficientSupport, match="at least 20"):
            plugin(np.zeros(10), np.linspace(-1, 1, 10), 0.0, UNIFORM)

    def test_too_few_per_side(self):
        x = np.concatenate([np.full(3, -0.5), np.linspace(0.1, 1.0, 27)])
        with pytest.raises(InsufficientSupport, match="per side"):
            plugin(np.zeros(30), x, 0.0, UNIFORM)

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_extreme_covariate_scale(self, scale):
        # f(c) curv^2 scales as scale^-5: it underflows to 0 at 1e100 and
        # overflows at 1e-100, where the bandwidth would clamp to its bound.
        y, x = _curved_sample(seed=6)
        with pytest.raises(InsufficientSupport, match="float range"):
            plugin(y, scale * x, 0.0, UNIFORM)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e307])
    def test_extreme_outcome_scale(self, scale):
        # The residual sums and the curvature overflow to inf past about
        # 1e154, and so does f(c) curv^2; no overflow warning leaks.
        y, x = _curved_sample(seed=6)
        with pytest.raises(InsufficientSupport,
                           match="= inf leaves float range at this covariate or outcome scale"):
            plugin(scale * y, x, 0.0, UNIFORM)

    @pytest.mark.parametrize("scale", [1e-308, 1e-310, 1e-320])
    def test_side_span_too_small_to_map(self, scale):
        # Each side spans less than 2^-1023, so the fit's domain scale
        # 2 / span overflows; the library fit would hand LAPACK inf and fail
        # with LinAlgError.
        x = scale * np.random.default_rng(5).uniform(-1.0, 1.0, 60)
        with pytest.raises(InsufficientSupport,
                           match=r"span \[.*\], which floating point cannot map onto \[-1, 1\]"):
            plugin(np.cos(np.arange(60.0)), x, 0.0, UNIFORM)

    def test_side_span_rounding_to_zero(self):
        # Every d = x + 1e30 rounds to 1e30, and so does the fit's widened
        # domain [1e30 - 1, 1e30 + 1]; the library fit would hand LAPACK NaN.
        with pytest.raises(InsufficientSupport,
                           match=r"span \[1e\+30, 1e\+30\], which floating point cannot"):
            plugin(np.zeros(30), np.linspace(-1.0, 1.0, 30), -1e30, UNIFORM)

    @pytest.mark.parametrize("c, domain", [
        (-0.9e308, r"\[.*, inf\]"),  # x - c overflows on the plus side
        (0.0, r"\[-9.9.*e\+307, -9.5.*e\+307\]"),  # the minus side's hi + lo overflows
    ])
    def test_side_domain_overflowing(self, c, domain):
        # Both sides hold 30 distinct covariates.
        rng = np.random.default_rng(0)
        x = np.concatenate((rng.uniform(-1e308, -0.95e308, 30), rng.uniform(0.5e308, 1e308, 30)))
        y = rng.standard_normal(60)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InsufficientSupport, match=f"span {domain}, which floating point"):
            plugin(y, x, c, UNIFORM)

    def test_overflowing_range(self):
        # Each side spans half the float range, but the whole range does not
        # fit: the exact quartic fits would clamp the bandwidth to lo * inf.
        rng = np.random.default_rng(0)
        x = np.concatenate((rng.uniform(-1e308, -0.5e308, 30), rng.uniform(0.5e308, 1e308, 30)))
        for y in (np.zeros(60), rng.standard_normal(60)):
            with np.errstate(over="ignore"), pytest.raises(
                    InsufficientSupport, match=r"covariate range -9.*e\+307 to 9.*e\+307 overflows to inf"):
                plugin(y, x, 0.0, UNIFORM)
            with np.errstate(over="ignore"):
                args = (y, x, 0.0, UNIFORM)
                assert _outcome(plugin, *args) == _outcome(_reference_plugin_bandwidth, *args)

    def test_degenerate_range(self):
        with pytest.raises(InsufficientSupport, match="range"):
            plugin(np.zeros(25), np.full(25, 0.7), 0.0, UNIFORM)

    @pytest.mark.parametrize("scale", [1e-160, 1e-250, 1e-307])
    def test_tiny_covariate_scale_warns_nothing(self, scale):
        # Each side still maps onto [-1, 1], but the fits' curvature
        # overflows to inf - inf and the floor divides by a range^2 that
        # underflows to 0; both leaked a RuntimeWarning.  The rule's range
        # check names the scale instead.
        y, x = _curved_sample(seed=6)
        with pytest.raises(InsufficientSupport,
                           match="= nan leaves float range at this covariate or outcome scale"):
            plugin(y, scale * x, 0.0, UNIFORM)


def _reference_plugin_bandwidth(y, x, c, kernel, bounds=DEFAULT_BOUNDS):
    """The plugin rule written with numpy's library calls: ``np.unique``
    for the per-side distinct counts, ``Polynomial.fit`` for the quartic
    fits, ``np.percentile`` for the quartiles and ``np.clip`` for the
    bounds.  ``_plugin_rows`` replays these calls' arithmetic."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    t_obs = x.size
    if t_obs < 20:
        raise InsufficientSupport(f"need at least 20 observations, got {t_obs}")
    x_range = float(x.max() - x.min())
    if x_range <= 0.0:
        raise InsufficientSupport("degenerate covariate range")
    d = x - c
    plus = d >= 0.0
    rss = 0.0
    curvs = []
    for side_mask in (plus, ~plus):
        if np.unique(x[side_mask]).size < 5:
            raise InsufficientSupport("need at least 5 distinct covariate values per side")
        poly = np.polynomial.Polynomial.fit(d[side_mask], y[side_mask], 4)
        resid = y[side_mask] - poly(d[side_mask])
        rss += float(resid @ resid)
        curvs.append(float(poly.deriv(2)(0.0)))
    if x_range == np.inf:
        raise InsufficientSupport(f"covariate range {x.min()} to {x.max()} overflows to inf")
    sigma_sq = rss / max(t_obs - 10, 1)
    lo, hi = bounds
    if sigma_sq <= 0.0:
        return lo * x_range
    spread = float(np.std(d))
    q75, q25 = np.percentile(d, [75.0, 25.0])
    iqr_scale = (q75 - q25) / 1.34
    width = min(spread, iqr_scale) if iqr_scale > 0.0 else spread
    h_dens = 0.9 * width * t_obs ** (-0.2)
    dens = float(np.mean(np.exp(-0.5 * (d / h_dens) ** 2)) / (h_dens * np.sqrt(2.0 * np.pi)))
    curv = max(abs(curvs[0] - curvs[1]), 0.1 * np.sqrt(sigma_sq) / (x_range * x_range))
    dens_curv_sq = dens * curv * curv
    if not 0.0 < dens_curv_sq < np.inf:
        raise InsufficientSupport(
            f"density x curvature^2 = {dens_curv_sq} leaves float range "
            "at this covariate or outcome scale"
        )
    raw = _BOUNDARY_CONSTANTS[kernel.kind] * (sigma_sq / dens_curv_sq) ** 0.2 * t_obs ** (-0.2)
    return float(np.clip(raw, lo * x_range, hi * x_range))


def _outcome(select, *args):
    """(bandwidth or (exception type, message), RankWarning count)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = select(*args)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            value = (type(exc), str(exc))
    return value, sum(issubclass(w.category, np.exceptions.RankWarning) for w in caught)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t_obs=st.sampled_from([12, 20, 23, 35, 59, 120, 199]),
    levels=st.sampled_from([0, 40, 12, 4]),
    cluster=st.booleans(),
    cube=st.booleans(),
    scale=st.sampled_from([1e-6, 1e-3, 0.5, 1.0, 1e3, 1e6]),
    offset=st.sampled_from([0.0, 1e3, -7.5]),
    at=st.sampled_from([0.5, 0.3, 0.7, 0.4, 0.6, 0.04, 0.96, 0.0, 1.0]),
    kind=st.sampled_from(["uniform", "triangular", "epanechnikov"]),
    bounds=st.sampled_from([DEFAULT_BOUNDS, (0.2, 0.5)]),
)
def test_plugin_bandwidth_matches_library_reference(seed, t_obs, levels, cluster, cube, scale,
                                                    offset, at, kind, bounds):
    """Bit-identical to the rule written with numpy's library calls, with
    the same exception and message and the same RankWarning count.  Cases
    cover tied covariates (``levels``), clusters 1e-13 wide that leave the
    scaled Vandermonde matrix rank-deficient, covariates piled up near the
    centre (``cube``) so that the quartiles set the density bandwidth,
    offsets, scales from 1e-6 to 1e6, and thresholds near either end
    where a side runs short of distinct values.  Most sample sizes put a
    quartile's interpolation weight at 0.5 or 0.75, where ``np.percentile``
    interpolates from the upper neighbour."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=t_obs)
    if levels:
        u = np.round(u * levels) / levels
    if cluster:
        u[: t_obs // 3] = 0.5 + 1e-13 * np.arange(t_obs // 3)
    if cube:
        u = u**3
    x = offset + scale * u
    y = np.cos(2.0 * u) + (u >= 0.1) + 0.3 * rng.standard_normal(t_obs)
    c = float(np.quantile(x, at))
    args = (y, x, c, KernelSpec(kind), bounds)
    new, ref = _outcome(plugin, *args), _outcome(_reference_plugin_bandwidth, *args)
    assert type(new[0]) is type(ref[0])
    assert new == ref


def test_plugin_bandwidth_matches_library_reference_on_collapsed_side():
    """25 distinct covariates 1e-14 apart all centre to d = 1000 at c = -1000:
    the plus side's fit widens its one-point domain and warns of rank 1,
    then the empty minus side raises."""
    x = 1e-14 * np.arange(25.0)
    y = np.cos(np.arange(25.0))
    args = (y, x, -1e3, UNIFORM, DEFAULT_BOUNDS)
    new = _outcome(plugin, *args)
    assert new == _outcome(_reference_plugin_bandwidth, *args)
    assert new[1] == 1


_LSTSQ_FALLBACK = ("numpy moved or changed its batched least-squares kernel; the fallback is "
                   "np.linalg.lstsq per side inside the same length-grouped program")


@pytest.mark.parametrize("m", [5, 6, 9, 37, 130, 901])
@pytest.mark.parametrize("cluster", [False, True])
def test_batched_lstsq_kernel_matches_np_linalg_lstsq(m, cluster):
    """``_quartic_sides`` solves all sides of one length with one call of
    ``numpy.linalg._umath_linalg.lstsq``, the private LAPACK gufunc that
    ``np.linalg.lstsq`` calls one matrix at a time.  Stacked, it gives
    each side's solution and rank bit for bit as ``np.linalg.lstsq`` on
    that side alone, on unit-norm quartic Vandermonde stacks, including
    rank-deficient ones with most covariates in a cluster 1e-13 wide.  If
    numpy moves or changes the kernel, this fails and names the fallback."""
    from numpy.linalg import _umath_linalg

    assert "ddd->ddid" in getattr(getattr(_umath_linalg, "lstsq", None), "types", ()), \
        _LSTSQ_FALLBACK
    rng = np.random.default_rng(m)
    u = rng.uniform(-1.0, 1.0, (7, m))
    if cluster:  # two points, and the rest where a quartic cannot tell them apart
        u[:, : m - 2] = 0.5 + 1e-13 * np.arange(m - 2)
    van = np.polynomial.polynomial.polyvander(u, 4)
    a = van / np.sqrt(np.square(van).sum(1))[:, None]
    b = rng.standard_normal((7, m, 1))
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _umath_linalg.lstsq(a, b, m * np.finfo(float).eps,
                                               signature="ddd->ddid")
    for i in range(len(u)):
        ref, _, ref_rank, _ = np.linalg.lstsq(a[i], b[i, :, 0], m * np.finfo(float).eps)
        assert coef[i, :, 0].tobytes() == ref.tobytes() and rank[i] == ref_rank, _LSTSQ_FALLBACK
    assert ((rank < 5) == cluster).all()


def test_failed_stacked_solve_raises_the_lstsq_error():
    """A side LAPACK cannot solve (here a NaN covariate) raises the
    LinAlgError ``np.linalg.lstsq`` raises, through the same error state,
    though the other side of its length solves."""
    d = np.tile(np.linspace(-1.0, 1.0, 8), (2, 1))
    d[1, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError,
                       match="^SVD did not converge in Linear Least Squares$"):
        _quartic_sides(np.ones((2, 8)), d, np.array([8, 8]), np.array([-1.0, -1.0]),
                       np.array([1.0, 1.0]))


_ROW_STAGES = ("ok", "ok", "ok", "ok", "few", "collapsed", "tiny", "cluster", "degenerate",
               "wide", "y1e155", "y1e307")


def _lattice_row(stage, t_obs, n_plus, levels, rng):
    """(y, x, c) of one unit on a coarse lattice with ``n_plus`` covariates
    at or above c = 0, so that the sides of a block share lengths, or one
    that ``stage`` makes fail a check of the plugin rule."""
    grid = np.arange(levels + 1) / levels
    plus = rng.choice(grid[:: levels // 2] if stage == "few" else grid, n_plus)
    u = rng.permutation(np.concatenate((plus, -rng.choice(grid[1:], t_obs - n_plus))))
    if stage == "cluster":
        u[: t_obs // 3] = 0.5 + 1e-13 * np.arange(t_obs // 3)
    elif stage == "degenerate":
        u[:] = 0.7
    y = np.cos(2.0 * u) + (u >= 0.1) + 0.3 * rng.standard_normal(t_obs)
    if stage == "collapsed":  # 1e-14 apart, all centred to d = 1000
        return y, 1e-14 * np.arange(float(t_obs)), -1e3
    if stage == "tiny":
        u = 1e-310 * u
    elif stage == "wide":
        u = np.where(u >= 0.0, 0.5e308 + 0.5e308 * u, -0.5e308 + 0.5e308 * u)
    elif stage.startswith("y"):
        y = y * float(stage[1:])
    return y, u, 0.0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stages=st.lists(st.sampled_from(_ROW_STAGES), min_size=2, max_size=40),
    t_obs=st.sampled_from([12, 20, 35, 60, 120]),
    levels=st.sampled_from([4, 8, 16]),
    kind=st.sampled_from(["uniform", "triangular", "epanechnikov"]),
    bounds=st.sampled_from([DEFAULT_BOUNDS, (0.2, 0.5)]),
)
def test_plugin_rows_in_a_block_match_library_reference(seed, stages, t_obs, levels, kind,
                                                         bounds):
    """Each row of a block of 2-40 units gives the library reference's
    outcome for that row alone, and the block warns RankWarning as often
    as the rows alone do, with no other RuntimeWarning.  The covariates sit
    on coarse lattices with a few plus-side counts per block, so many sides
    share a length and one stacked solve fits several.  Rows fail each
    check: too few distinct values per side, a collapsed side, a side span
    below 2^-1023 (where the library fit hands LAPACK what it cannot map
    and fails with LinAlgError, the row carries the named skip), 1e-13
    clusters that leave a fit rank-deficient, a degenerate or overflowing
    range, and outcomes at 1e155 and 1e307."""
    rng = np.random.default_rng(seed)
    counts = rng.choice([t_obs // 2, t_obs // 2 + 1, t_obs // 3], len(stages))
    y, x, c = map(np.array, zip(*(_lattice_row(s, t_obs, n, levels, rng)
                                  for s, n in zip(stages, counts))))
    kernel = KernelSpec(kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _plugin_rows(y, x, np.argsort(x, axis=1, kind="stable"), c, kernel, bounds)
    rank_warning = np.exceptions.RankWarning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                and not issubclass(w.category, rank_warning)]
    ranks = 0
    for r, value in enumerate(got):
        ref, n_ranks = _outcome(_reference_plugin_bandwidth, y[r], x[r], c[r], kernel, bounds)
        ranks += n_ranks
        if isinstance(value, Exception):
            value = (type(value), str(value))
        if ref == (np.linalg.LinAlgError, "SVD did not converge in Linear Least Squares"):
            assert value[0] is InsufficientSupport
            assert value[1].endswith("which floating point cannot map onto [-1, 1]")
        else:
            assert type(value) is type(ref)
            assert value == ref
    assert sum(issubclass(w.category, rank_warning) for w in caught) == ranks


NO_CLAMP = (0.0, np.inf)


class TestPooledBandwidth:
    def test_all_equal(self):
        assert _pooled_bandwidth([1.0, 1.0, 1.0], NO_CLAMP) == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert _pooled_bandwidth([0.5, 2.0], NO_CLAMP) == pytest.approx(1.0)

    def test_single_unit_passthrough(self):
        assert _pooled_bandwidth([0.37], NO_CLAMP) == pytest.approx(0.37)

    def test_clamp_applied(self):
        assert _pooled_bandwidth([0.5, 2.0], clamp=(1.5, 3.0)) == 1.5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _pooled_bandwidth([0.5, -0.1], NO_CLAMP)


class TestPilotBandwidth:
    def test_shrinks_by_tenth_root(self):
        x = np.linspace(-1.0, 1.0, 1000)
        b_star = pilot(x, 0.5)
        assert b_star == pytest.approx(0.5 * 1000 ** (-0.1), abs=1e-12)

    def test_floor_keeps_min_points_everywhere(self):
        """Sparse edges force the floor up so every point keeps at least
        10 neighbours within its window."""
        rng = np.random.default_rng(12)
        x = np.sort(np.concatenate([rng.uniform(-1, 1, 50), [4.0, 4.5, 9.0]]))
        b_star = pilot(x, 0.1)
        for xi in x:
            assert np.sum(np.abs(x - xi) <= b_star) >= 10

    def test_tiny_sample_spans_data(self):
        x = np.array([0.0, 1.0, 2.0])
        b_star = pilot(x, 0.01)
        assert b_star >= 2.0

    def test_overflowing_half_widths_leave_the_floor(self):
        """Half-widths past the float range do not set the floor; where all
        of them overflow, the shrunken b stands."""
        x = np.array([-1e308] * 6 + [1e308] * 6)
        with np.errstate(over="ignore"):
            assert pilot(x, 0.3) == 0.3 * 12.0 ** (-0.1)

    @pytest.mark.parametrize("n", [6, 12])
    def test_overflowing_spans_warn_nothing(self, n):
        """Spans past the float range raise no RuntimeWarning, on either the
        short-sample or the windowed path."""
        x = np.array([-1e308, 1e308] * (n // 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pilot(x, 0.3)


def _reference_pilot_bandwidth(x, b):
    """The pilot bandwidth of one unit with its windows found by index
    arithmetic, one fancy-indexed pass per place in the run of neighbours."""
    x = np.asarray(x, dtype=float)
    n = x.size
    b_star = b * float(n) ** (-0.1)
    if n <= 10:
        span = float(x.max() - x.min()) if n > 1 else b
        return max(b_star, span)
    xs = np.sort(x)
    k = 9
    half = np.full(n, np.inf)
    for m in range(k + 1):
        left = np.arange(n) - m
        right = left + k
        idx = np.where((left >= 0) & (right < n))[0]
        width = np.maximum(xs[right[idx]] - xs[idx], xs[idx] - xs[left[idx]])
        half[idx] = np.minimum(half[idx], width)
    return max(b_star, float(half[np.isfinite(half)].max()))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 2, 10, 11, 12, 19, 20, 57, 200, 800]),
    levels=st.sampled_from([0, 3, 25]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    b=st.sampled_from([1e-4, 0.05, 0.3, 5.0]),
)
def test_pilot_bandwidth_matches_reference(seed, n, levels, scale, b):
    """Bit-identical to the index-arithmetic form, ties and scales included."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    if levels:
        u = np.round(u * levels) / levels
    x = scale * u
    assert pilot(x, b) == _reference_pilot_bandwidth(x, b)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.sampled_from([1, 2, 10, 11, 200]),
    rows=st.integers(min_value=1, max_value=5),
    levels=st.sampled_from([0, 3, 25]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_pilot_rows_match_reference_per_row(seed, n, rows, levels, scale):
    """A block of several units gives each row the value of the reference
    for that row alone, with ties, at several scales and per-row b."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((rows, n))
    if levels:
        u = np.round(u * levels) / levels
    x = scale * u * rng.uniform(0.5, 2.0, (rows, 1))
    b = rng.choice([1e-4, 0.05, 0.3, 5.0], rows) * scale
    got = _pilot_rows(x, np.argsort(x, axis=1, kind="stable"), b)
    assert got.shape == (rows,)
    for r in range(rows):
        assert got[r] == _reference_pilot_bandwidth(x[r], b[r])
