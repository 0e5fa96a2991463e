"""Tests for test statistics, critical values, and the panel pipelines."""

from __future__ import annotations

import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

import paneljump.inference
from paneljump.bandwidth import BandwidthPolicy, pilot_bandwidth, pooled_bandwidth
from paneljump.errors import (
    DataError,
    ConfigError,
    InsufficientSupport,
    NumericalError,
)
from paneljump.dgp import DgpConfig, GammaScheme, gen_dgp
from paneljump.estimator import UnitJumpFit, _fitted_general, smooth_residuals
from paneljump.inference import (
    SkippedUnit,
    critical_values,
    search_thresholds,
    simulate_max_gaussian,
)
from paneljump.inference import TestConfig as Config
from paneljump.inference import test_existence as run_existence
from paneljump.inference import test_homogeneity as run_homogeneity
from paneljump.io import render_report
from paneljump.kernels import KERNEL_KINDS, KernelSpec, denominator_floor, eval_kernel, local_weights
from paneljump.panel import PanelData, PanelUnit
from paneljump.variance import SigmaC, sigma_c_matrix
from test_bandwidth import _reference_plugin_bandwidth

# A bandwidth of 1 on T = 100 points gives sqrt(T b) = 10.
STEP = Config(bandwidth=BandwidthPolicy.fixed(1.0))


def _step_panel(gammas, t_obs=100):
    """Noiseless panel: unit ``uid`` steps up by ``gammas[uid]`` at x = 0."""
    x = np.linspace(-1.0, 1.0, t_obs)
    return PanelData([PanelUnit(unit_id=uid, y=g * (x >= 0.0), x=x)
                      for uid, g in gammas.items()])


@pytest.fixture
def pin_scale(monkeypatch):
    """Pins every unit's standardising scale v_j to the given value, so
    t_j = sqrt(T b) gamma_j / v_j; v = 10 on a step panel makes t_j = gamma_j."""
    def pin(v):
        monkeypatch.setattr(paneljump.inference, "v_sq", lambda *args: v * v)
    return pin


class TestStatExistence:
    def test_single_unit_arithmetic(self, pin_scale):
        pin_scale(1.0)
        result = run_existence(_step_panel({"u": 2.0}), 0.0, STEP)
        assert result.statistic == pytest.approx(20.0)

    def test_all_zero_gammas(self, pin_scale):
        pin_scale(10.0)
        result = run_existence(_step_panel({"a": 0.0, "b": 0.0}), 0.0, STEP)
        assert result.statistic == 0.0

    def test_two_sided_takes_absolute(self, pin_scale):
        pin_scale(10.0)
        panel = _step_panel({"a": 1.5, "b": -3.2, "c": 2.0})
        assert run_existence(panel, 0.0, STEP).statistic == pytest.approx(3.2)

    def test_one_sided_keeps_sign(self, pin_scale):
        pin_scale(10.0)
        panel = _step_panel({"a": 1.5, "b": -3.2, "c": 2.0})
        cfg = Config(bandwidth=STEP.bandwidth, sidedness="one_sided_upper")
        assert run_existence(panel, 0.0, cfg).statistic == pytest.approx(2.0)

    def test_zero_variance_names_unit(self, pin_scale):
        pin_scale(np.nan)
        with pytest.raises(NumericalError, match="nonpositive variance for unit 'u9'"):
            run_existence(_step_panel({"u9": 1.0}), 0.0, STEP)


class TestStatHomogeneity:
    def test_equal_gammas_give_zero(self, pin_scale):
        pin_scale(10.0)
        result = run_homogeneity(_step_panel({"a": 1.3, "b": 1.3}), 0.0, STEP)
        assert result.statistic == 0.0

    def test_two_unit_arithmetic(self, pin_scale):
        """gammas (0, 1) with v chosen so each centred scale is exactly 1:
        both deviations are 0.5, times sqrt(Tb) = 10, giving 5."""
        pin_scale(np.sqrt(2.0))
        result = run_homogeneity(_step_panel({"a": 0.0, "b": 1.0}), 0.0, STEP)
        assert result.statistic == pytest.approx(5.0)

    def test_median_center(self, pin_scale):
        pin_scale(10.0)
        panel = _step_panel({"a": 0.0, "b": 0.0, "c": 5.0})
        ts_med = run_homogeneity(panel, 0.0, Config(bandwidth=STEP.bandwidth,
                                                    center="median")).statistic
        ts_mean = run_homogeneity(panel, 0.0, STEP).statistic
        assert ts_med != ts_mean

    def test_single_unit_rejected(self):
        """One unit left after skips is too few to compare."""
        x = np.linspace(-1.0, 1.0, 100)
        units = [PanelUnit(unit_id="ok", y=1.0 * (x >= 0.0), x=x),
                 PanelUnit(unit_id="bad", y=np.ones(30), x=np.linspace(0.1, 1.0, 30))]
        with pytest.raises(NumericalError,
                           match="homogeneity comparison needs at least two units"):
            run_homogeneity(PanelData(units), 0.0, STEP)


def _search_grid(panel, _threshold, cfg):
    """The grid search, called like the known-threshold tests."""
    return search_thresholds(panel, np.linspace(-0.5, 0.5, 11), cfg)


@pytest.mark.parametrize("run, cfg", [
    (run_existence, Config()),
    (run_existence, Config(sidedness="one_sided_upper")),
    (run_homogeneity, Config()),
    (run_homogeneity, Config(center="median")),
    (_search_grid, Config()),
    (_search_grid, Config(sidedness="one_sided_upper")),
])
def test_report_rows_carry_the_statistic(run, cfg):
    """Each row's t is sqrt(T b) times its (centred) jump over its scale
    and its standard error the scale over sqrt(T b), bit for bit; a search
    row sits at its unit's best grid point; and the panel statistic is the
    max over the rows."""
    panel, _, _ = gen_dgp(DgpConfig(dgp_id=1, n_units=10, t_obs=200, seed=4,
                                    gamma_scheme=GammaScheme.sparse_power(0.3)))
    result = run(panel, 0.0, cfg)
    upper = result.sidedness == "one_sided_upper"

    def score(t):
        return t if upper else np.abs(t)

    assert len(result.per_unit) == 10
    for u in result.per_unit:
        jump = u.gamma_hat if u.centered is None else u.centered
        assert u.t_stat == np.sqrt(u.n_obs * u.bandwidth) * jump / u.v_hat
        assert u.std_error == u.v_hat / np.sqrt(u.n_obs * u.bandwidth)
        if run is _search_grid:
            best = int(np.nanargmax(score(u.stats)))
            assert u.threshold == result.grid[best]
            assert u.t_stat == u.stats[best]
        else:
            assert u.stats is None
    ts = np.array([u.t_stat for u in result.per_unit])
    assert result.statistic == np.max(score(ts))


def critical_value(n, alpha, sidedness="two_sided", **knobs):
    """One level's critical value, through ``critical_values``."""
    return critical_values(n, Config(alphas=(alpha,), sidedness=sidedness, **knobs))[alpha]


class TestCriticalValue:
    def test_one_sided_quantiles_n13(self):
        for alpha, expected in ((0.10, 2.405), (0.05, 2.657), (0.01, 3.165)):
            q = critical_value(13, alpha, sidedness="one_sided_upper")
            assert q == pytest.approx(expected, abs=0.005)

    def test_one_sided_quantiles_n29(self):
        for alpha, expected in ((0.10, 2.685), (0.05, 2.917), (0.01, 3.392)):
            q = critical_value(29, alpha, sidedness="one_sided_upper")
            assert q == pytest.approx(expected, abs=0.005)

    def test_single_comparison_is_normal_quantile(self):
        assert critical_value(1, 0.05) == pytest.approx(1.95996, abs=1e-4)
        assert critical_value(1, 0.05, sidedness="one_sided_upper") == pytest.approx(
            sps.norm.ppf(0.95), abs=1e-9
        )

    def test_analytic_equals_norm_ppf_exactly(self):
        for n in (1, 2, 7, 40, 1000, 10**6):
            for alpha in (1e-6, 0.01, 0.05, 0.10, 0.5, 0.99):
                p = (1.0 - alpha) ** (1.0 / n)
                assert critical_value(n, alpha) == sps.norm.ppf(0.5 * (1.0 + p))
                assert critical_value(n, alpha, "one_sided_upper") == sps.norm.ppf(p)

    def test_monotone_in_comparisons_and_alpha(self):
        qs = [critical_value(n, 0.05) for n in (1, 10, 100, 1000)]
        assert qs == sorted(qs) and len(set(qs)) == 4
        qa = [critical_value(50, a) for a in (0.10, 0.05, 0.01)]
        assert qa == sorted(qa)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigError):
            critical_value(10, 0.0)
        with pytest.raises(ConfigError):
            critical_value(10, 1.0)

    def test_needs_a_level(self):
        with pytest.raises(ConfigError, match="at least one"):
            Config(alphas=())

    def test_levels_share_one_simulated_sample(self, monkeypatch):
        """All levels are quantiles of one sample, with the config's knobs."""
        calls = []

        def spy(*args):
            calls.append(args)
            return simulate_max_gaussian(*args)

        monkeypatch.setattr(paneljump.inference, "simulate_max_gaussian", spy)
        cfg = Config(alphas=(0.10, 0.05, 0.01), sidedness="one_sided_upper",
                     cv_method="simulated", cv_reps=5_000, seed=4)
        qs = critical_values(7, cfg)
        assert calls == [(7, 5_000, 4, None, "one_sided_upper")]
        sample = simulate_max_gaussian(7, 5_000, 4, sidedness="one_sided_upper")
        assert qs == {a: float(np.quantile(sample, 1.0 - a)) for a in cfg.alphas}

    def test_simulated_matches_analytic(self):
        q_sim = critical_value(100, 0.05, cv_method="simulated", cv_reps=200_000, seed=3)
        q_ana = critical_value(100, 0.05)
        assert q_sim == pytest.approx(q_ana, abs=0.02)


class TestSimulateMaxGaussian:
    def test_deterministic_given_seed(self):
        a = simulate_max_gaussian(5, 1000, seed=11)
        b = simulate_max_gaussian(5, 1000, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_single_comparison_distribution(self):
        """n = 1 draws follow |N(0,1)|: KS distance below 0.01."""
        sample = simulate_max_gaussian(1, 100_000, seed=2)
        ks = sps.kstest(sample, lambda z: 2.0 * sps.norm.cdf(z) - 1.0)
        assert ks.statistic < 0.01

    def test_identity_blocks_match_independent_path(self):
        sigma_c = SigmaC(unit_ids=["a", "b"], blocks=[np.eye(3), np.eye(2)])
        dep = simulate_max_gaussian(5, 2000, seed=7, sigma_c=sigma_c)
        indep = simulate_max_gaussian(5, 2000, seed=7)
        np.testing.assert_allclose(np.quantile(dep, [0.5, 0.9, 0.95]),
                                   np.quantile(indep, [0.5, 0.9, 0.95]),
                                   atol=0.08)

    def test_perfect_correlation_reduces_max(self):
        block = np.full((4, 4), 1.0)
        sigma_c = SigmaC(unit_ids=["a"], blocks=[block])
        dep = simulate_max_gaussian(4, 4000, seed=9, sigma_c=sigma_c)
        indep = simulate_max_gaussian(4, 4000, seed=9)
        assert np.quantile(dep, 0.95) < np.quantile(indep, 0.95)


def _noise_panel(n_units=4, t_obs=300, seed=0, sd=0.5):
    rng = np.random.default_rng(seed)
    units = []
    for j in range(n_units):
        x = rng.uniform(-1.0, 1.0, size=t_obs)
        y = 0.3 * x + sd * rng.normal(size=t_obs)
        units.append(PanelUnit(unit_id=f"u{j}", y=y, x=x))
    return PanelData(units)


def _jump_panel(gammas, t_obs=300, seed=1, sd=0.0):
    rng = np.random.default_rng(seed)
    units = []
    for j, g in enumerate(gammas):
        x = rng.uniform(-1.0, 1.0, size=t_obs)
        y = 0.5 * x + g * (x >= 0.0) + sd * rng.normal(size=t_obs)
        units.append(PanelUnit(unit_id=f"u{j}", y=y, x=x))
    return PanelData(units)


FIXED = Config(bandwidth=BandwidthPolicy.fixed(0.4))


class TestExistencePipeline:
    def test_noiseless_jumps_reject_everywhere(self):
        panel = _jump_panel([1.0, 2.0, 0.5])
        result = run_existence(panel, 0.0, FIXED)
        assert all(result.reject.values())
        assert result.statistic > result.critical_values[0.01]

    def test_null_noise_panel_mostly_accepts(self):
        panel = _noise_panel(seed=42)
        result = run_existence(panel, 0.0, FIXED)
        assert result.statistic < result.critical_values[0.01]

    def test_reject_decisions_consistent_across_levels(self):
        for seed in range(6):
            result = run_existence(_noise_panel(seed=seed), 0.0, FIXED)
            if result.reject[0.01]:
                assert result.reject[0.05]
            if result.reject[0.05]:
                assert result.reject[0.10]

    def test_statistic_is_max_over_units(self):
        result = run_existence(_noise_panel(seed=3), 0.0, FIXED)
        per_unit_max = max(abs(u.t_stat) for u in result.per_unit)
        assert result.statistic == pytest.approx(per_unit_max)

    def test_per_unit_scale_invariance(self):
        """y -> a_j + s_j y rescales gamma and v together, leaving each
        standardised statistic unchanged."""
        panel = _noise_panel(seed=8)
        base = run_existence(panel, 0.0, FIXED)
        scaled_units = [
            PanelUnit(unit_id=u.unit_id, y=7.0 + (3.0 + j) * u.y, x=u.x)
            for j, u in enumerate(panel)
        ]
        scaled = run_existence(PanelData(scaled_units), 0.0, FIXED)
        for u0, u1 in zip(base.per_unit, scaled.per_unit):
            assert u1.t_stat == pytest.approx(u0.t_stat, abs=1e-9)

    def test_threshold_mapping_per_unit(self):
        panel = _jump_panel([1.5, 1.5], seed=5)
        thresholds = {"u0": 0.0, "u1": 0.0}
        result = run_existence(panel, thresholds, FIXED)
        assert all(result.reject.values())

    def test_missing_threshold_entry(self):
        panel = _noise_panel(n_units=2)
        with pytest.raises(DataError, match="u1"):
            run_existence(panel, {"u0": 0.0}, FIXED)

    @pytest.mark.parametrize("column", ["y", "x"])
    def test_non_finite_value_is_data_error(self, column):
        """A NaN is a data error naming unit and position, not a skip."""
        panel = _noise_panel(n_units=2)
        arrays = {"y": panel.units[1].y.copy(), "x": panel.units[1].x.copy()}
        arrays[column][7] = np.nan
        with pytest.raises(DataError, match=rf"'u1': {column}\[7\]"):
            panel.units[1] = PanelUnit(unit_id="u1", **arrays)
            run_existence(panel, 0.0, FIXED)

    def test_duplicate_unit_id_is_data_error(self):
        """Per-unit results are keyed by id, so a repeated id would let
        one unit overwrite another."""
        units = _noise_panel(n_units=2).units
        with pytest.raises(DataError, match="unit id 'u0' appears more than once"):
            PanelData([units[0], PanelUnit(unit_id="u0", y=units[1].y, x=units[1].x)])

    @pytest.mark.parametrize("run", [run_existence, run_homogeneity])
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, {"u0": 0.0, "u1": -np.inf}])
    def test_non_finite_threshold_rejected(self, run, threshold):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            run(_noise_panel(n_units=2), threshold, FIXED)

    def test_all_units_skipped(self):
        # all mass on one side of the threshold defeats every unit
        units = [
            PanelUnit(unit_id="a", y=np.ones(30), x=np.linspace(0.1, 1.0, 30)),
            PanelUnit(unit_id="b", y=np.ones(30), x=np.linspace(0.2, 1.1, 30)),
        ]
        with pytest.raises(NumericalError, match="no unit admits a jump fit"):
            run_existence(PanelData(units), 0.0, FIXED)

    def test_no_unit_for_pooled_bandwidth(self):
        """A panel-level failure, not a unit's skip reason."""
        units = [PanelUnit(unit_id=u, y=np.zeros(10), x=np.linspace(-1.0, 1.0, 10)) for u in "ab"]
        cfg = Config(bandwidth=BandwidthPolicy.pooled())
        with pytest.raises(NumericalError) as err:
            run_existence(PanelData(units), 0.0, cfg)
        assert type(err.value) is NumericalError
        assert str(err.value) == "no unit supports plugin bandwidth selection"

    def test_partial_skip_reported(self):
        units = [
            PanelUnit(unit_id="ok", y=np.linspace(0, 1, 40),
                      x=np.linspace(-1.0, 1.0, 40)),
            PanelUnit(unit_id="bad", y=np.ones(30), x=np.linspace(0.1, 1.0, 30)),
        ]
        result = run_existence(PanelData(units), 0.0, FIXED)
        assert result.n_effective == 1
        assert [s.unit_id for s in result.skipped] == ["bad"]
        assert "minus" in result.skipped[0].reason

    def test_truncation_is_rejected(self):
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.4), truncation=1.0)
        with pytest.raises(ValueError, match="TestConfig.truncation"):
            run_existence(_noise_panel(), 0.0, cfg)

    def test_one_sided_direction(self):
        """A large downward jump escapes the one-sided-upper test."""
        panel = _jump_panel([-3.0, -2.0], sd=0.05, seed=9)
        two = run_existence(panel, 0.0, FIXED)
        one = run_existence(
            panel, 0.0,
            Config(bandwidth=BandwidthPolicy.fixed(0.4),
                       sidedness="one_sided_upper"),
        )
        assert two.reject[0.05]
        assert not one.reject[0.05]


def _skip_panel():
    """Two fittable units among three that each stage skips: ``short``
    defeats plugin bandwidth selection; ``far`` has no covariate within
    reach below 0, so no minus side at 0 or at any grid point below it;
    ``ties`` repeats ten covariate values ten times each with y = 0, so its
    plugin bandwidth (0.02 of the range) reaches no second value, and no
    residual smoothing window holds two distinct values."""
    rng = np.random.default_rng(3)
    x = np.linspace(-1.0, 1.0, 100)
    far_x = np.concatenate((np.linspace(-10.0, -9.0, 50), np.linspace(0.0, 1.0, 50)))
    return PanelData([
        PanelUnit("good1", np.sin(x) + 0.1 * rng.standard_normal(100), x),
        PanelUnit("far", np.cos(far_x) + 0.1 * rng.standard_normal(100), far_x),
        PanelUnit("ties", np.zeros(100), np.repeat(np.arange(-5.0, 5.0), 10)),
        PanelUnit("good2", np.sin(x) + 0.1 * rng.standard_normal(100), x),
        PanelUnit("short", np.zeros(10), np.linspace(-1.0, 1.0, 10)),
    ])


_BANDWIDTH_SKIP = ("short", "bandwidth selection failed: need at least 20 observations, got 10")


def _skipped_report_lines(result):
    return [line for line in render_report(result).splitlines()
            if line.startswith("# skipped")]


@pytest.mark.parametrize("run", [run_existence, run_homogeneity])
def test_known_threshold_skips_in_order(run):
    """Bandwidth failures come first, then fit failures in panel order,
    each with the reason its step gave."""
    result = run(_skip_panel(), 0.0, Config())
    assert [(s.unit_id, s.reason) for s in result.skipped] == [
        _BANDWIDTH_SKIP,
        ("far", "insufficient support on minus side: fewer than 2 distinct in-support points"),
        ("ties", "insufficient support on plus side: fewer than 2 distinct in-support points"),
    ]
    assert [u.unit_id for u in result.per_unit] == ["good1", "good2"]
    assert _skipped_report_lines(result) == [
        '# skipped,short,"bandwidth selection failed: need at least 20 observations, got 10"',
        "# skipped,far,insufficient support on minus side: fewer than 2 distinct in-support points",
        "# skipped,ties,insufficient support on plus side: fewer than 2 distinct in-support points",
    ]


@pytest.mark.parametrize("cv_method", ["analytic", "simulated"])
def test_search_skips_in_order(cv_method):
    """Bandwidth failures come first, then the pilot smoothing's, then the
    grid search's; ``ties`` precedes ``far`` although it follows it in the
    panel, because its failing stage runs first."""
    cfg = Config(cv_method=cv_method, cv_reps=1000)
    result = search_thresholds(_skip_panel(), [-0.4, -0.2, 0.0], cfg)
    assert [(s.unit_id, s.reason) for s in result.skipped] == [
        _BANDWIDTH_SKIP,
        ("ties", "no sample point admits a local linear fit"),
        ("far", "no valid grid point"),
    ]
    assert [u.unit_id for u in result.per_unit] == ["good1", "good2"]
    assert _skipped_report_lines(result) == [
        '# skipped,short,"bandwidth selection failed: need at least 20 observations, got 10"',
        "# skipped,ties,no sample point admits a local linear fit",
        "# skipped,far,no valid grid point",
    ]


class TestHomogeneityPipeline:
    def test_common_jump_invariance(self):
        """Adding one shared jump to every unit's outcome leaves the
        centred statistic unchanged to 1e-9."""
        panel = _noise_panel(seed=12)
        base = run_homogeneity(panel, 0.0, FIXED)
        shifted_units = [
            PanelUnit(unit_id=u.unit_id, y=u.y + 2.5 * (u.x >= 0.0), x=u.x)
            for u in panel
        ]
        shifted = run_homogeneity(PanelData(shifted_units), 0.0, FIXED)
        assert shifted.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_identical_units_give_zero(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1.0, 1.0, size=200)
        y = np.sin(x) + 0.2 * rng.normal(size=200)
        units = [PanelUnit(unit_id=f"u{j}", y=y.copy(), x=x.copy())
                 for j in range(3)]
        result = run_homogeneity(PanelData(units), 0.0, FIXED)
        assert result.statistic == pytest.approx(0.0, abs=1e-9)

    def test_one_outlier_unit_detected(self):
        panel = _jump_panel([0.0, 0.0, 0.0, 4.0], sd=0.1, seed=14)
        result = run_homogeneity(panel, 0.0, FIXED)
        assert result.reject[0.01]

    def test_single_unit_panel_rejected(self):
        with pytest.raises(NumericalError,
                           match="homogeneity comparison needs at least two units"):
            run_homogeneity(_noise_panel(n_units=1), 0.0, FIXED)

    def test_truncation_is_rejected(self):
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.4), truncation=np.inf)
        with pytest.raises(ValueError, match="TestConfig.truncation"):
            run_homogeneity(_noise_panel(), 0.0, cfg)

    def test_one_sided_config_is_rejected(self):
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.4), sidedness="one_sided_upper")
        with pytest.raises(ValueError, match="sidedness"):
            run_homogeneity(_noise_panel(), 0.0, cfg)

    def test_centered_column_present(self):
        result = run_homogeneity(_noise_panel(seed=15), 0.0, FIXED)
        for u in result.per_unit:
            assert u.centered is not None


def _mirror_panel():
    """Two grid thresholds with bitwise-identical local problems.

    Offsets and outcomes are dyadic rationals, the offsets sum to zero, and
    the clusters sit far apart at -5 and +5, so every intermediate sum is
    exact and the two candidate statistics tie bitwise.  The search must
    then return the smaller threshold.
    """
    half = np.array([1.0, 3.0, 6.0, 10.0, 14.0]) / 64.0
    dx = np.concatenate([-half[::-1], half])
    y0 = np.array([3.0, -1.0, 2.0, 0.0, -2.0, 1.0, 4.0, -3.0, 2.0, -1.0]) / 8.0
    x = np.concatenate([dx - 5.0, dx + 5.0])
    y = np.concatenate([y0, y0])
    return PanelData([PanelUnit(unit_id="m", y=y, x=x)])


class TestSearchThresholds:
    def test_recovers_clean_threshold(self):
        panel = _jump_panel([2.0, 2.0], seed=21, sd=0.0)
        grid = [-0.4, -0.2, 0.0, 0.2, 0.4]
        result = search_thresholds(panel, grid, FIXED)
        for u in result.per_unit:
            assert u.threshold == 0.0
        assert all(result.reject.values())

    def test_tie_breaks_to_smaller_threshold(self):
        result = search_thresholds(
            _mirror_panel(), [-5.0, 5.0],
            Config(bandwidth=BandwidthPolicy.fixed(0.25)),
        )
        unit = result.per_unit[0]
        assert unit.stats[0] == unit.stats[1]
        assert unit.threshold == -5.0
        assert unit.t_stat == unit.stats[0]

    def test_scan_error_cannot_break_a_tie(self, monkeypatch):
        """Scan values that differ within the tolerance send both tied
        points to the dense solver, which keeps the first."""
        scan = paneljump.inference._scan_uniform

        def nudged(*args):
            t, unsure = scan(*args)
            return t * (1.0 + 1e-10 * np.arange(t.size)), unsure

        monkeypatch.setattr(paneljump.inference, "_scan_uniform", nudged)
        result = search_thresholds(_mirror_panel(), [-5.0, 5.0],
                                   Config(bandwidth=BandwidthPolicy.fixed(0.25)))
        unit = result.per_unit[0]
        assert unit.stats[0] == unit.stats[1]
        assert unit.threshold == -5.0

    def test_overflowing_design_fails_instead_of_nan(self):
        """A grid point whose design sums overflow is unusable; with no
        usable point left the search raises rather than report NaN."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, 300)
        y = np.cos(x) + 0.02 * rng.standard_normal(300)
        panel = PanelData([PanelUnit("a", y, x * 4e152)])
        cfg = Config(bandwidth=BandwidthPolicy.fixed(4e152))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="no unit admits a grid search"):
            search_thresholds(panel, [-0.8e152, 0.0, 0.8e152], cfg)

    def test_spacing_warning_flag(self):
        # The flag is the only channel: no Python warning is issued.
        panel = _jump_panel([1.0], seed=22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = search_thresholds(panel, [-0.1, 0.0, 0.1], FIXED)
        assert result.spacing_warning

    def test_wide_spacing_no_warning(self):
        panel = _jump_panel([1.0], seed=23, sd=0.05)
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.1))
        result = search_thresholds(panel, [-0.5, 0.0, 0.5], cfg)
        assert not result.spacing_warning

    @pytest.mark.parametrize("level", [np.nan, -1.0, 0.0])
    def test_invalid_truncation_rejected(self, level):
        with pytest.raises(ValueError, match="truncation"):
            Config(truncation=level)
        assert Config(truncation=np.inf).truncation == np.inf

    def test_truncation_below_every_residual_rejected(self):
        """A level at or below the smallest squared pilot residual caps them
        all; a level just above it, inf and the default are accepted."""
        panel = _noise_panel(n_units=2)
        grid = [-0.2, 0.0, 0.2]
        pilots = [smooth_residuals(u.y, u.x, pilot_bandwidth(u.x, 0.4), FIXED.kernel)
                  for u in panel]
        smallest = min(float(np.nanmin(r * r)) for r in pilots)
        for level in (1e-320, smallest):
            with pytest.raises(ConfigError, match=re.escape(f"(the smallest is {smallest!r})")):
                search_thresholds(panel, grid, replace(FIXED, truncation=level))
        for level in (np.nextafter(smallest, np.inf), np.inf, None):
            search_thresholds(panel, grid, replace(FIXED, truncation=level))

    @pytest.mark.parametrize("grid", [[np.nan], [-0.2, np.inf], [-np.inf, 0.0]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid values must be finite"):
            search_thresholds(_jump_panel([1.0]), grid, FIXED)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increas"):
            search_thresholds(_jump_panel([1.0]), [0.0, 0.0, 0.1], FIXED)

    def test_rows_keep_a_statistic_per_grid_point(self):
        """Each row's stats has one entry per grid point, NaN where the
        point is unusable; the benchmark tracer counts valid points from it."""
        rng = np.random.default_rng(28)
        units = []
        for j, upper in enumerate((1.0, 0.3)):
            x = rng.uniform(-1.0, upper, size=300)
            y = (x >= 0.0) + 0.1 * rng.normal(size=300)
            units.append(PanelUnit(unit_id=f"u{j}", y=y, x=x))
        grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        result = search_thresholds(PanelData(units), grid,
                                   Config(bandwidth=BandwidthPolicy.fixed(0.2)))
        assert [u.stats.size for u in result.per_unit] == [grid.size, grid.size]
        assert [int(np.isnan(u.stats).sum()) for u in result.per_unit] == [0, 1]
        assert np.isnan(result.per_unit[1].stats[-1])
        assert result.n_comparisons == 9

    def test_comparison_count_over_valid_pairs(self):
        panel = _jump_panel([1.0, 1.0], seed=24, sd=0.05)
        grid = [-0.4, 0.0, 0.4]
        result = search_thresholds(panel, grid, FIXED)
        assert result.n_comparisons == 2 * 3

    def test_simulated_critical_values(self):
        panel = _jump_panel([1.5, 1.5], seed=25, sd=0.1)
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.1),
                         cv_method="simulated", cv_reps=20_000, seed=5)
        result = search_thresholds(panel, [-0.5, 0.0, 0.5], cfg)
        # disjoint windows: the simulated quantile approximates the
        # independent analytic one
        q_ana = critical_value(result.n_comparisons, 0.05)
        assert result.critical_values[0.05] == pytest.approx(q_ana, abs=0.1)

    def test_simulated_blocks_match_dense_reference(self, monkeypatch):
        # u1 has no observations above 0.3, so the grid point 0.5 is
        # invalid for it alone and its block is one row smaller.
        rng = np.random.default_rng(26)
        units = []
        for j, upper in enumerate((1.0, 0.3)):
            x = rng.uniform(-1.0, upper, size=300)
            y = 0.5 * x + (x >= 0.0) + 0.1 * rng.normal(size=300)
            units.append(PanelUnit(unit_id=f"u{j}", y=y, x=x))
        grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        b = 0.2
        cfg = Config(bandwidth=BandwidthPolicy.fixed(b), cv_method="simulated",
                     cv_reps=2_000, seed=5)
        seen = []

        def capture(n_comparisons, reps, seed, sigma_c=None, sidedness="two_sided"):
            seen.append(sigma_c)
            return simulate_max_gaussian(n_comparisons, reps, seed, sigma_c, sidedness)

        monkeypatch.setattr(paneljump.inference, "simulate_max_gaussian", capture)
        result = search_thresholds(PanelData(units), grid, cfg)

        (sigma_c,) = seen
        assert sigma_c.unit_ids == ["u0", "u1"]
        assert [blk.shape[0] for blk in sigma_c.blocks] == [5, 4]
        assert sigma_c.n_comparisons == result.n_comparisons
        for unit, u, block in zip(units, result.per_unit, sigma_c.blocks):
            rows = []
            for c in grid[np.isfinite(u.stats)]:
                dw = (local_weights(unit.x, c, b, cfg.kernel, "plus")
                      - local_weights(unit.x, c, b, cfg.kernel, "minus"))
                rows.append(dw / np.linalg.norm(dw))
            z = np.array(rows)
            np.testing.assert_allclose(block, z @ z.T, rtol=0.0, atol=1e-12)

    def test_simulated_search_solves_each_threshold_once(self, monkeypatch):
        solved = _count_solved_rows(monkeypatch)
        panel = _jump_panel([1.0, 1.0], seed=27, sd=0.1)
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.2), cv_method="simulated",
                     cv_reps=2_000, seed=5)
        result = search_thresholds(panel, [-0.3, 0.0, 0.3], cfg)
        assert result.n_comparisons == 6
        assert sum(solved) == result.n_comparisons

    def test_uniform_search_solves_few_grid_points(self, monkeypatch):
        """The scan ranks the grid; only the points that can win are solved."""
        solved = _count_solved_rows(monkeypatch)
        panel, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=10, t_obs=800, seed=3,
                                        gamma_scheme=GammaScheme.accuracy()))
        grid = np.round(np.arange(-0.30, 0.301, 0.01), 10)
        result = search_thresholds(panel, grid, Config())
        assert result.n_comparisons == 10 * grid.size
        assert len(panel) <= sum(solved) <= 2 * len(panel)


@pytest.mark.parametrize("config", [
    Config(kernel=KernelSpec("epanechnikov")),
    Config(cv_method="simulated", cv_reps=2_000, seed=5),
], ids=["epanechnikov", "simulated"])
def test_search_block_cap_leaves_results(config, monkeypatch):
    """With the block cap at one or two rows of T, a search that solves
    every grid point gives the results of the default cap, which holds all
    seven points in one block: every report field and statistic, the
    critical values and the comparison count."""
    panel, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=4, t_obs=200, seed=8,
                                    gamma_scheme=GammaScheme.accuracy()))
    grid = np.linspace(-0.3, 0.3, 7)
    solved = _count_solved_rows(monkeypatch)

    def outcome():
        solved.clear()
        result = search_thresholds(panel, grid, config)
        return ([_row_bytes(u) for u in result.per_unit], result.critical_values,
                result.statistic, result.n_comparisons)

    expected = outcome()
    assert solved == [7] * 4
    for rows in (1, 2):
        monkeypatch.setattr(paneljump.inference, "_BLOCK_BUDGET", rows * 200)
        assert outcome() == expected
        assert max(solved) == rows and sum(solved) == 28


def _count_solved_rows(monkeypatch) -> list[int]:
    """Patch the search's jump fit to record the rows of each block it solves."""
    solved = []
    fit_rows = paneljump.inference._fit_rows

    def counting(y, *args):
        solved.append(len(y))
        return fit_rows(y, *args)

    monkeypatch.setattr(paneljump.inference, "_fit_rows", counting)
    return solved


def test_scan_defers_near_singular_designs():
    """Two plus-side points 2e-6 apart put the design denominator at its
    floor; across separations straddling that point the scan's validity
    mask equals the dense solver's, which decides the close calls.  The
    grid point -0.1 is valid throughout, so each search reports a row whose
    NaN mask must show the dense verdict at 0."""
    rng = np.random.default_rng(30)
    x_minus = rng.uniform(-0.2, 0.0, size=20)
    config = Config()
    grid = np.array([-0.1, 0.0])
    masks = set()
    for k in range(-200, 201):
        x = np.concatenate([x_minus, [0.1, 0.1 + 2e-6 * (1.0 + k * 1e-6)]])
        unit = PanelUnit(unit_id="u", y=rng.normal(size=x.size), x=x)
        resid = rng.normal(size=x.size)
        row, _ = paneljump.inference._search_unit(unit, grid, 0.2, np.inf, resid, config)
        ref_row, _ = _dense_search_unit(unit, grid, 0.2, np.inf, resid, config)
        assert tuple(np.isnan(row.stats)) == tuple(np.isnan(ref_row.stats)), k
        masks.add(tuple(np.isnan(ref_row.stats)))
    assert masks == {(False, False), (False, True)}


@pytest.mark.parametrize("run, place", [
    (run_existence, 0.0),
    (search_thresholds, [-0.2, 0.0, 0.2]),
])
def test_overflowing_scale_is_numerical_error(run, place):
    """t does not depend on the scale of y, but squared residuals overflow
    near 1e154: there the scale v is infinite, which would report t = 0
    and no rejection; it is an error naming the unit instead."""
    panel, _, _ = gen_dgp(DgpConfig(dgp_id=1, n_units=5, t_obs=200, seed=0,
                                    gamma_scheme=GammaScheme.accuracy()))
    cfg = Config(bandwidth=BandwidthPolicy.fixed(0.3))

    def scaled(s):
        return PanelData([PanelUnit(u.unit_id, u.y * s, u.x) for u in panel])

    base = run(scaled(1.0), place, cfg).statistic
    assert base > 7.0
    assert run(scaled(1e150), place, cfg).statistic == pytest.approx(base, rel=1e-12)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="variance for unit 'u1' at c=0.0 overflows"):
        run(scaled(1e160), place, cfg)


def _overflow_unit(scale):
    """One unit at |x| up to ``scale``, where the dense solver's float64
    side sums overflow at some grid points (all of them at 4e152)."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 300)
    y = np.cos(x) + 0.02 * rng.standard_normal(300)
    resid = 0.02 * np.random.default_rng(1).standard_normal(300)
    return PanelUnit(unit_id="a", y=y, x=x * scale), resid


def _dense_valid(unit, grid, b):
    valid = []
    for c in grid.tolist():
        try:
            _reference_jump_fit(unit.y, unit.x, c, b, Config().kernel)
            valid.append(True)
        except InsufficientSupport:
            valid.append(False)
    return np.array(valid)


def test_scan_marks_overflowing_designs_invalid():
    """Where the dense solver's float64 sums overflow it finds the design
    singular; the scan's long double sums do not overflow, and it must not
    report a statistic there."""
    unit, resid = _overflow_unit(4e152)
    grid = np.array([-0.8e152, 0.0, 0.8e152])
    with np.errstate(over="ignore", invalid="ignore"):
        t, _ = paneljump.inference._scan_uniform(
            unit.x, unit.y, resid, grid, 4e152, np.inf, paneljump.inference._v_floor(unit.y))
        valid = _dense_valid(unit, grid, 4e152)
    assert not valid.any()
    np.testing.assert_array_equal(np.isnan(t), ~valid)


def test_overflowing_grid_points_leave_the_search():
    """At 3e152 the two central grid points overflow densely and the rest
    solve: the search's NaN mask, comparison count and values follow the
    dense solver."""
    unit, resid = _overflow_unit(3e152)
    grid = np.linspace(-0.8, 0.8, 9) * 3e152
    with np.errstate(over="ignore", invalid="ignore"):
        row, _ = paneljump.inference._search_unit(unit, grid, 3e152, np.inf, resid, Config())
        ref_row, _ = _dense_search_unit(unit, grid, 3e152, np.inf, resid, Config())
        valid = _dense_valid(unit, grid, 3e152)
    assert np.count_nonzero(valid) == 7
    np.testing.assert_array_equal(np.isnan(row.stats), ~valid)
    np.testing.assert_allclose(row.stats, ref_row.stats, rtol=1e-9, atol=0.0)
    assert replace(row, stats=None) == replace(ref_row, stats=None)


def _dense_search_unit(unit, grid, b, a_trunc, resid, config):
    """Reference for ``_search_unit``: every grid point solved alone by the
    test's reference chain; the row at the first best grid point on ties
    (None if no point is usable) and the valid points' weight differences."""
    floor = paneljump.inference._v_floor(unit.y)
    rows, w_diffs = [], []
    for c in grid.tolist():
        try:
            fit = _reference_jump_fit(unit.y, unit.x, c, b, config.kernel)
            sigma_e_sq = _reference_window_mean(resid, unit.x, c, b, a_trunc)
        except InsufficientSupport:
            rows.append(None)
            continue
        rows.append(paneljump.inference._unit_row(unit, c, b, fit, sigma_e_sq, floor))
        w_diffs.append(fit.w_diff)
    stats = np.array([np.nan if r is None else r.t_stat for r in rows])
    if np.all(np.isnan(stats)):
        return None, w_diffs
    score = np.abs(stats) if config.sidedness == "two_sided" else stats
    return replace(rows[int(np.nanargmax(score))], stats=stats), w_diffs


# One unit's search inputs: tied x (``levels``), near-singular designs
# (``jitter`` around the tied levels), observations exactly at c and c +- b
# (``pin``), grid points beyond the data (an empty side), NaN residuals and
# large x and y offsets.
_SEARCH_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_obs=st.integers(min_value=2, max_value=60),
    levels=st.sampled_from([0, 3, 8]),
    jitter=st.sampled_from([0.0, 1e-7]),
    n_grid=st.integers(min_value=1, max_value=6),
    b=st.sampled_from([0.05, 0.2, 0.45]),
    shift=st.sampled_from([0.0, 1e4]),
    y_shift=st.sampled_from([0.0, 1e6]),
    pin=st.booleans(),
    nan_frac=st.sampled_from([0.0, 0.3]),
    a_trunc=st.sampled_from([np.inf, 0.05]),
    sidedness=st.sampled_from(paneljump.inference.SIDEDNESS),
)


def _search_case(seed, n_obs, levels, jitter, n_grid, b, shift, y_shift, pin, nan_frac):
    """(unit, grid, residuals) for one draw of ``_SEARCH_CASES``."""
    rng = np.random.default_rng(seed)
    if levels:
        x0 = rng.integers(-levels, levels + 1, size=n_obs) / levels
        x0 += jitter * rng.normal(size=n_obs)
    else:
        x0 = rng.uniform(-1.0, 1.0, size=n_obs)
    grid = np.unique(rng.uniform(-1.2, 1.2, size=n_grid)) + shift
    x = x0 + shift
    if pin:
        c = grid[rng.integers(grid.size)]
        x[:3] = [c, c - b, c + b][:n_obs]
    y = y_shift + 0.5 * x0 + (x0 >= 0.1) + 0.3 * rng.normal(size=n_obs)
    resid = 0.3 * rng.normal(size=n_obs)
    resid[rng.uniform(size=n_obs) < nan_frac] = np.nan
    return PanelUnit(unit_id="u", y=y, x=x), grid, resid


@settings(max_examples=400, deadline=None)
@given(**_SEARCH_CASES)
def test_scan_search_matches_dense_reference(seed, n_obs, levels, jitter, n_grid, b, shift,
                                             y_shift, pin, nan_frac, a_trunc, sidedness):
    """The scan-ranked search agrees with solving every grid point: same
    NaN mask and comparison count, the same report row field for field,
    and statistics equal to rtol 1e-9."""
    unit, grid, resid = _search_case(seed, n_obs, levels, jitter, n_grid, b, shift, y_shift,
                                     pin, nan_frac)
    config = Config(sidedness=sidedness)

    row, _ = paneljump.inference._search_unit(unit, grid, b, a_trunc, resid, config)
    ref_row, _ = _dense_search_unit(unit, grid, b, a_trunc, resid, config)
    if ref_row is None:  # no usable grid point
        assert row is None
        return
    np.testing.assert_array_equal(np.isnan(row.stats), np.isnan(ref_row.stats))
    assert (np.count_nonzero(np.isfinite(row.stats))
            == np.count_nonzero(np.isfinite(ref_row.stats)))
    np.testing.assert_allclose(row.stats, ref_row.stats, rtol=1e-9, atol=0.0)
    assert replace(row, stats=None) == replace(ref_row, stats=None)


@settings(max_examples=400, deadline=None)
@given(**_SEARCH_CASES, path=st.sampled_from(
    [(kind, method) for kind in KERNEL_KINDS for method in paneljump.inference.CV_METHODS
     if (kind, method) != ("uniform", "analytic")]))
def test_dense_search_matches_reference(seed, n_obs, levels, jitter, n_grid, b, shift,
                                        y_shift, pin, nan_frac, a_trunc, sidedness, path):
    """Every search the scan does not rank (the triangular and Epanechnikov
    kernels, and simulated critical values) solves every grid point as row
    blocks, and equals the reference chain solving each point alone bit for
    bit: the report row field for field, every statistic with its NaN mask,
    and the correlation block built from the weight rows."""
    unit, grid, resid = _search_case(seed, n_obs, levels, jitter, n_grid, b, shift, y_shift,
                                     pin, nan_frac)
    config = Config(kernel=KernelSpec(path[0]), cv_method=path[1], sidedness=sidedness)

    row, w_diffs = paneljump.inference._search_unit(unit, grid, b, a_trunc, resid, config)
    ref_row, ref_w_diffs = _dense_search_unit(unit, grid, b, a_trunc, resid, config)
    if ref_row is None:
        assert row is None and w_diffs == []
        return
    np.testing.assert_array_equal(row.stats, ref_row.stats)
    assert replace(row, stats=None) == replace(ref_row, stats=None)
    np.testing.assert_array_equal(sigma_c_matrix(w_diffs), sigma_c_matrix(ref_w_diffs))


# ----------------------------------------------------------------------
# row blocks: the known-threshold fit against the per-unit chain


def _reference_local_weights(x, c, b, kernel, side):
    """``kernels.local_weights`` written directly for one unit's 1-d arrays."""
    d = x - c
    mask = (x >= c) & (x <= c + b) if side == "plus" else (x < c) & (x >= c - b)
    kw = np.zeros_like(d)
    kw[mask] = eval_kernel(kernel, np.clip(d[mask] / b, -1.0, 1.0))
    support = x[kw > 0.0]
    if support.size == 0 or support.min() == support.max():
        raise InsufficientSupport(
            f"insufficient support on {side} side: fewer than 2 distinct in-support points")
    s0 = float(kw.sum())
    s1 = float(kw @ d)
    s2 = float(kw @ (d * d))
    den = s2 * s0 - s1 * s1
    if not den > denominator_floor(s0, s2):
        raise InsufficientSupport(f"insufficient support on {side} side: singular local design")
    return kw * (s2 - d * s1) / den


def _reference_jump_fit(y, x, c, b, kernel):
    """``estimator.estimate_jump`` from the reference one-sided weights."""
    w_plus = _reference_local_weights(x, c, b, kernel, "plus")
    w_minus = _reference_local_weights(x, c, b, kernel, "minus")
    return UnitJumpFit(float(w_plus @ y) - float(w_minus @ y), w_plus - w_minus,
                       int(np.count_nonzero(w_plus)) + int(np.count_nonzero(w_minus)))


def _reference_window_mean(resid, x, c, b, a_trunc):
    """``variance.sigma_e_sq_truncated`` written for one unit's 1-d arrays."""
    vals = resid[(x >= c - b) & (x <= c + b) & np.isfinite(resid)]
    if vals.size == 0:
        raise InsufficientSupport(f"no usable residuals within {b} of c={c}")
    return float(np.mean(np.minimum(a_trunc, vals * vals)))


def _reference_fitted_uniform(eval_points, xs, ys, b):
    """``estimator._fitted_uniform`` at every point of one unit, written on 1-d arrays."""
    centre = float(xs.mean())
    xc = xs - centre
    z = np.zeros(1)
    p1, p2, q0, q1 = (np.concatenate((z, np.cumsum(v))) for v in (xc, xc * xc, ys, xc * ys))
    lo = np.searchsorted(xs, eval_points - b, side="left")
    hi = np.searchsorted(xs, eval_points + b, side="right")
    n = (hi - lo).astype(float)
    uc = eval_points - centre
    m1, m2, r0, r1 = (p[hi] - p[lo] for p in (p1, p2, q0, q1))
    sd1 = m1 - uc * n
    sd2 = m2 - 2.0 * uc * m1 + uc * uc * n
    t1 = r1 - uc * r0
    den = sd2 * n - sd1 * sd1
    floor = denominator_floor(n, sd2)
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = (sd2 * r0 - sd1 * t1) / den
    fitted[~(den > floor)] = np.nan
    return fitted


def _reference_analyze_unit(unit, c, b, kernel):
    """The known-threshold chain for one unit: both one-sided fits, the
    jump-removed residuals smoothed at every point, their windowed mean
    square and the report row."""
    y, x = unit.y, unit.x
    fit = _reference_jump_fit(y, x, c, b, kernel)
    y = y - fit.gamma_hat * (x >= c)
    order = np.argsort(x, kind="stable")
    if kernel.kind == "uniform":
        fitted = _reference_fitted_uniform(x, x[order], y[order], b)
    else:
        fitted = _fitted_general(x, x[order], y[order], b, kernel)
    resid = y - fitted
    if not np.any(np.isfinite(resid)):
        raise InsufficientSupport("no sample point admits a local linear fit")
    sigma_e_sq = _reference_window_mean(resid, x, c, b, np.inf)
    return paneljump.inference._unit_row(unit, c, b, fit, sigma_e_sq,
                                         paneljump.inference._v_floor(unit.y))


def _reference_fit_panel(panel, threshold, config):
    """``inference._fit_panel`` one unit at a time in panel order, with the
    plugin rule written with numpy's library calls."""
    if isinstance(threshold, dict):
        thresholds = {u.unit_id: float(threshold[u.unit_id]) for u in panel}
    else:
        thresholds = dict.fromkeys((u.unit_id for u in panel), float(threshold))
    policy, kernel = config.bandwidth, config.kernel
    skipped = []
    if policy.mode == "fixed":
        bandwidths = {u.unit_id: policy.value for u in panel}
    else:
        bandwidths = {}
        for u in panel:
            try:
                bandwidths[u.unit_id] = _reference_plugin_bandwidth(
                    u.y, u.x, thresholds[u.unit_id], kernel, policy.bounds)
            except InsufficientSupport as exc:
                skipped.append(SkippedUnit(u.unit_id, f"bandwidth selection failed: {exc}"))
        if policy.mode == "pooled_plugin":
            if not bandwidths:
                raise NumericalError("no unit supports plugin bandwidth selection")
            ranges = [float(u.x.max() - u.x.min()) for u in panel if u.x.size > 1]
            clamp = (policy.bounds[0] * min(ranges), policy.bounds[1] * max(ranges))
            pooled = pooled_bandwidth(list(bandwidths.values()), clamp=clamp)
            bandwidths, skipped = {u.unit_id: pooled for u in panel}, []
    rows = []
    for u in panel:
        if u.unit_id in bandwidths:
            try:
                rows.append(_reference_analyze_unit(u, thresholds[u.unit_id],
                                                    bandwidths[u.unit_id], kernel))
            except InsufficientSupport as exc:
                skipped.append(SkippedUnit(u.unit_id, str(exc)))
    if not rows:
        detail = "; ".join(f"{s.unit_id}: {s.reason}" for s in skipped)
        raise NumericalError(f"no unit admits a jump fit ({detail})")
    return rows, skipped


# Units built to pass, or to stop at one stage of the fit.
_STAGES = ("ok", "short", "levels", "plus", "minus", "floor", "far", "window",
           "everywhere", "huge")


def _stage_unit(uid, stage, c, t_obs, rng, k=0):
    """A unit around threshold c that stops where ``stage`` says: at
    bandwidth selection ("short", "levels"), at one side's support
    ("plus", "minus", "far": every point far above c), at the singular
    design floor ("floor", two plus points 2e-6 (1 + k 1e-6) apart), in
    smoothing within the variance window ("window") or everywhere
    ("everywhere"), or at an overflowing scale ("huge")."""
    u = rng.uniform(-3.0, 3.0, t_obs)
    if stage == "short":
        u = u[:12]
    elif stage == "levels":
        u = np.round(u)
    elif stage == "plus":
        u[:4] = 0.3
        u[4:] = -np.abs(u[4:]) - 1e-3
    elif stage == "minus":
        u[:4] = -0.3
        u[4:] = np.abs(u[4:])
    elif stage == "floor":
        u = np.concatenate([rng.uniform(-0.2, 0.0, 20), [0.1, 0.1 + 2e-6 * (1.0 + k * 1e-6)]])
    elif stage == "far":
        u = rng.uniform(30.0, 40.0, t_obs)
    y = np.cos(u) + (u >= 0.0) + 0.1 * rng.standard_normal(u.size)
    if stage == "window":
        y = y + 1e307 * (np.abs(u) <= 0.5)
    elif stage == "everywhere":
        y = y + 1e307
    elif stage == "huge":
        y = y * 1e160
    return PanelUnit(uid, y, c + u)


def _outcome(fit_panel, panel, threshold, config):
    """(rows, skipped) or (error type, message), with the RankWarning
    count and the set of RuntimeWarning messages raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rows, skipped = fit_panel(panel, threshold, config)
            value = ([_row_bytes(r) for r in rows], [(s.unit_id, s.reason) for s in skipped])
        except (InsufficientSupport, NumericalError) as exc:
            value = (type(exc), str(exc))
    ranks = sum(issubclass(w.category, np.exceptions.RankWarning) for w in caught)
    runtime = {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}
    return value, ranks, runtime


def _row_bytes(row):
    """Every field of a report row, floats and arrays as their bytes."""
    return tuple(np.asarray(getattr(row, f.name)).tobytes() if f.name != "unit_id"
                 else row.unit_id for f in fields(row))


def _assert_block_fit_equals_reference(panel, threshold, config):
    """Equal outcomes and RankWarning counts, and no new RuntimeWarning.
    A NumericalError from a report row stops the chain at its unit, where
    the block has already fitted the units after it, so on that outcome
    their warnings may show too."""
    new = _outcome(paneljump.inference._fit_panel, panel, threshold, config)
    ref = _outcome(_reference_fit_panel, panel, threshold, config)
    assert new[:2] == ref[:2]
    stopped = new[0][0] is NumericalError and not new[0][1].startswith("no unit admits")
    assert stopped or new[2] <= ref[2], "new RuntimeWarnings"
    return new[0]


_POLICIES = (BandwidthPolicy.fixed(0.2), BandwidthPolicy.fixed(0.5), BandwidthPolicy.plugin(),
             BandwidthPolicy.pooled((0.2, 0.5)))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    units=st.lists(st.tuples(st.sampled_from((25, 40, 60)), st.sampled_from(_STAGES)),
                   min_size=1, max_size=7),
    mapping=st.booleans(),
    kind=st.sampled_from(KERNEL_KINDS),
    policy=st.sampled_from(_POLICIES),
    k=st.integers(min_value=-200, max_value=200),
)
def test_block_fit_matches_per_unit_reference(seed, units, mapping, kind, policy, k):
    """The row-block fit equals the per-unit chain bit for bit: every
    report field, the skipped units in order with their reasons, the
    NumericalError of the first failing unit in panel order, the
    RankWarning count, and no RuntimeWarning the chain does not raise.
    Panels are ragged (several lengths, often one unit alone in its
    length) and units stop at every stage of the fit."""
    rng = np.random.default_rng(seed)
    cs = rng.uniform(-1.0, 1.0, len(units)) if mapping else np.zeros(len(units))
    panel = PanelData([_stage_unit(f"u{j}", stage, c, t_obs, rng, k)
                       for j, ((t_obs, stage), c) in enumerate(zip(units, cs))])
    threshold = {u.unit_id: float(c) for u, c in zip(panel, cs)} if mapping else 0.0
    _assert_block_fit_equals_reference(panel, threshold,
                                       Config(kernel=KernelSpec(kind), bandwidth=policy))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_block_fit_reaches_every_stage(kind, monkeypatch):
    """A ragged panel whose units stop at each stage, in several blocks
    (a unit alone in its length, then a cap of two rows a block), gives
    the per-unit chain's rows and skip reasons, including the smoothing
    precedence: no window point smooths ("no usable residuals") against
    no point at all ("no sample point admits")."""
    rng = np.random.default_rng(41)
    # The non-uniform kernels smooth these huge values into an overflowing
    # scale, a NumericalError, rather than into no residual.
    window, everywhere = ("window", "everywhere") if kind == "uniform" else ("ok", "ok")
    stages = ["ok", "plus", window, "ok", "minus", everywhere, "far", "ok", "ok"]
    panel = PanelData([_stage_unit(f"u{j}", s, 0.0, 300 if j == 3 else 200, rng)
                       for j, s in enumerate(stages)])
    config = Config(kernel=KernelSpec(kind), bandwidth=BandwidthPolicy.fixed(0.5))
    value = _assert_block_fit_equals_reference(panel, 0.0, config)
    reasons = dict(value[1])
    assert reasons["u1"].startswith("insufficient support on plus side")
    assert reasons["u4"].startswith("insufficient support on minus side")
    assert reasons["u6"].startswith("insufficient support on plus side")
    if kind == "uniform":
        assert reasons["u2"] == "no usable residuals within 0.5 of c=0.0"
        assert reasons["u5"] == "no sample point admits a local linear fit"
    monkeypatch.setattr(paneljump.inference, "_BLOCK_BUDGET", 400)
    assert _assert_block_fit_equals_reference(panel, 0.0, config) == value


def test_block_fit_first_numerical_error_in_panel_order():
    """Two overflowing units in different blocks: the error names the one
    first in panel order, though its block runs second."""
    rng = np.random.default_rng(42)
    panel = PanelData([_stage_unit("a", "ok", 0.0, 200, rng),
                       _stage_unit("b", "huge", 0.0, 300, rng),
                       _stage_unit("c", "huge", 0.0, 200, rng)])
    config = Config(bandwidth=BandwidthPolicy.fixed(0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        value = _assert_block_fit_equals_reference(panel, 0.0, config)
    assert value == (NumericalError,
                     "variance for unit 'b' at c=0.0 overflows at this outcome scale")


def test_block_fit_singular_floor_matches_reference():
    """Across separations straddling the singular-design floor, the block
    accepts and rejects the same units as the per-unit chain."""
    rng = np.random.default_rng(43)
    config = Config(bandwidth=BandwidthPolicy.fixed(0.2))
    outcomes = set()
    for k in range(-200, 201, 10):
        panel = PanelData([_stage_unit("ok", "ok", 0.0, 22, rng),
                           _stage_unit("f", "floor", 0.0, 22, rng, k)])
        outcomes.add(tuple(_assert_block_fit_equals_reference(panel, 0.0, config)[1]))
    assert len(outcomes) > 1
