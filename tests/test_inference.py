"""Tests for test statistics, critical values, and the panel pipelines."""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

import paneljump.inference
from paneljump.bandwidth import BandwidthPolicy, pilot_bandwidth
from paneljump.errors import (
    AllUnitsSkipped,
    DataError,
    DuplicateKey,
    EmptyWindow,
    ConfigError,
    InsufficientSupport,
    SingleUnit,
    ZeroVariance,
)
from paneljump.dgp import DgpConfig, GammaScheme, gen_dgp
from paneljump.estimator import estimate_jump, smooth_residuals
from paneljump.inference import (
    critical_values,
    search_thresholds,
    simulate_max_gaussian,
)
from paneljump.inference import TestConfig as Config
from paneljump.inference import test_existence as run_existence
from paneljump.inference import test_homogeneity as run_homogeneity
from paneljump.kernels import local_weights
from paneljump.panel import PanelData, PanelUnit
from paneljump.variance import SigmaC, sigma_e_sq_truncated

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
        with pytest.raises(ZeroVariance, match="u9"):
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
        with pytest.raises(SingleUnit):
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
        with pytest.raises(DuplicateKey, match="'u0'"):
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
        with pytest.raises(AllUnitsSkipped):
            run_existence(PanelData(units), 0.0, FIXED)

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
        with pytest.raises(SingleUnit):
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
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return local_weights(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("paneljump") and getattr(module, "local_weights", None) is local_weights:
                monkeypatch.setattr(module, "local_weights", counting)
        panel = _jump_panel([1.0, 1.0], seed=27, sd=0.1)
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.2), cv_method="simulated",
                     cv_reps=2_000, seed=5)
        result = search_thresholds(panel, [-0.3, 0.0, 0.3], cfg)
        assert result.n_comparisons == 6
        assert len(calls) == 2 * result.n_comparisons

    def test_uniform_search_solves_few_grid_points(self, monkeypatch):
        """The scan ranks the grid; only the points that can win are solved."""
        calls = []

        def counting(x, c, b, kernel, side):
            calls.append((c, side))
            return local_weights(x, c, b, kernel, side)

        for name, module in list(sys.modules.items()):
            if (name.startswith("paneljump")
                    and getattr(module, "local_weights", None) is local_weights):
                monkeypatch.setattr(module, "local_weights", counting)
        panel, _, _ = gen_dgp(DgpConfig(dgp_id=2, n_units=10, t_obs=800, seed=3,
                                        gamma_scheme=GammaScheme.accuracy()))
        grid = np.round(np.arange(-0.30, 0.301, 0.01), 10)
        result = search_thresholds(panel, grid, Config())
        assert result.n_comparisons == 10 * grid.size
        solved = len(calls) // 2
        assert len(calls) == 2 * solved
        assert len(panel) <= solved <= 2 * len(panel)


def test_scan_defers_near_singular_designs():
    """Two plus-side points 2e-6 apart put the design denominator at its
    floor; across separations straddling that point the scan's validity
    mask equals the dense solver's, which decides the close calls."""
    rng = np.random.default_rng(30)
    x_minus = rng.uniform(-0.2, 0.0, size=20)
    config = Config()
    grid = np.array([0.0])
    for k in range(-200, 201):
        x = np.concatenate([x_minus, [0.1, 0.1 + 2e-6 * (1.0 + k * 1e-6)]])
        unit = PanelUnit(unit_id="u", y=rng.normal(size=x.size), x=x)
        resid = rng.normal(size=x.size)
        row, _ = paneljump.inference._search_unit(unit, grid, 0.2, np.inf, resid, config)
        ref_row = _dense_search_unit(unit, grid, 0.2, np.inf, resid, config)
        assert (row is None) == (ref_row is None), k


def _dense_search_unit(unit, grid, b, a_trunc, resid, config):
    """Reference for ``_search_unit``'s row: every grid point solved
    densely, the first best grid point on ties, None if none is usable."""
    floor = paneljump.inference._v_floor(unit.y)
    rows = []
    for c in grid.tolist():
        try:
            fit = estimate_jump(unit.y, unit.x, c, b, config.kernel)
            sigma_e_sq = sigma_e_sq_truncated(resid, unit.x, c, b, a_trunc)
        except (InsufficientSupport, EmptyWindow):
            rows.append(None)
            continue
        rows.append(paneljump.inference._unit_row(unit, c, b, fit, sigma_e_sq, floor))
    stats = np.array([np.nan if r is None else r.t_stat for r in rows])
    if np.all(np.isnan(stats)):
        return None
    score = np.abs(stats) if config.sidedness == "two_sided" else stats
    return replace(rows[int(np.nanargmax(score))], stats=stats)


@settings(max_examples=400, deadline=None)
@given(
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
def test_scan_search_matches_dense_reference(seed, n_obs, levels, jitter, n_grid, b, shift,
                                             y_shift, pin, nan_frac, a_trunc, sidedness):
    """The scan-ranked search agrees with solving every grid point: same
    NaN mask and comparison count, the same report row field for field,
    and statistics equal to rtol 1e-9.  Cases cover tied x (``levels``),
    near-singular designs (``jitter`` around the tied levels), observations
    exactly at c and c +- b (``pin``), grid points beyond the data (an
    empty side), NaN residuals and large x and y offsets."""
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
    unit = PanelUnit(unit_id="u", y=y, x=x)
    config = Config(sidedness=sidedness)

    row, _ = paneljump.inference._search_unit(unit, grid, b, a_trunc, resid, config)
    ref_row = _dense_search_unit(unit, grid, b, a_trunc, resid, config)
    if ref_row is None:  # no usable grid point
        assert row is None
        return
    np.testing.assert_array_equal(np.isnan(row.stats), np.isnan(ref_row.stats))
    assert (np.count_nonzero(np.isfinite(row.stats))
            == np.count_nonzero(np.isfinite(ref_row.stats)))
    np.testing.assert_allclose(row.stats, ref_row.stats, rtol=1e-9, atol=0.0)
    assert replace(row, stats=None) == replace(ref_row, stats=None)
