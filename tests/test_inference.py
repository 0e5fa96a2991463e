"""Tests for test statistics, critical values, and the panel pipelines."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from paneljump.bandwidth import BandwidthPolicy
from paneljump.errors import (
    AllUnitsSkipped,
    DataError,
    GridSpacingWarning,
    InvalidAlpha,
    SingleUnit,
    ZeroVariance,
)
from paneljump.estimator import UnitJumpFit
from paneljump.inference import (
    critical_value,
    search_thresholds,
    simulate_max_gaussian,
    stat_existence,
    stat_homogeneity,
)
from paneljump.inference import TestConfig as Config
from paneljump.inference import test_existence as run_existence
from paneljump.inference import test_homogeneity as run_homogeneity
from paneljump.panel import PanelData, PanelUnit
from paneljump.variance import SigmaC


def _fit(t, unit_id="u", t_obs=100, b=1.0):
    """UnitJumpFit whose standardised statistic is exactly ``t``."""
    return UnitJumpFit(
        unit_id=unit_id, c=0.0, b=b, n_obs=t_obs, gamma_hat=t,
        mu_plus=t, mu_minus=0.0, w_diff=np.zeros(t_obs),
        eff_obs_plus=t_obs // 2, eff_obs_minus=t_obs // 2,
        v_hat=float(np.sqrt(t_obs * b)),
    )


class TestStatExistence:
    def test_single_unit_arithmetic(self):
        f = _fit(0.0, t_obs=100, b=1.0)
        f = UnitJumpFit(**{**f.__dict__, "gamma_hat": 2.0, "v_hat": 1.0})
        assert stat_existence([f]) == pytest.approx(20.0)

    def test_all_zero_gammas(self):
        assert stat_existence([_fit(0.0), _fit(0.0)]) == 0.0

    def test_two_sided_takes_absolute(self):
        fits = [_fit(1.5, "a"), _fit(-3.2, "b"), _fit(2.0, "c")]
        assert stat_existence(fits) == pytest.approx(3.2)

    def test_one_sided_keeps_sign(self):
        fits = [_fit(1.5, "a"), _fit(-3.2, "b"), _fit(2.0, "c")]
        assert stat_existence(fits, "one_sided_upper") == pytest.approx(2.0)

    def test_zero_variance_names_unit(self):
        bad = UnitJumpFit(**{**_fit(1.0).__dict__, "unit_id": "u9", "v_hat": 0.0})
        with pytest.raises(ZeroVariance, match="u9"):
            stat_existence([bad])


class TestStatHomogeneity:
    def test_equal_gammas_give_zero(self):
        assert stat_homogeneity([_fit(1.3, "a"), _fit(1.3, "b")]) == 0.0

    def test_two_unit_arithmetic(self):
        """gammas (0, 1) with v chosen so each centred scale is exactly 1:
        both deviations are 0.5, times sqrt(Tb) = 10, giving 5."""
        fits = []
        for uid, g in (("a", 0.0), ("b", 1.0)):
            f = _fit(0.0, uid, t_obs=100, b=1.0)
            fits.append(UnitJumpFit(**{
                **f.__dict__, "gamma_hat": g, "v_hat": float(np.sqrt(2.0)),
            }))
        assert stat_homogeneity(fits) == pytest.approx(5.0)

    def test_median_center(self):
        fits = [_fit(0.0, "a"), _fit(0.0, "b"), _fit(5.0, "c")]
        ts_med = stat_homogeneity(fits, center="median")
        ts_mean = stat_homogeneity(fits, center="mean")
        assert ts_med != ts_mean

    def test_single_unit_rejected(self):
        with pytest.raises(SingleUnit):
            stat_homogeneity([_fit(1.0)])


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

    def test_monotone_in_comparisons_and_alpha(self):
        qs = [critical_value(n, 0.05) for n in (1, 10, 100, 1000)]
        assert qs == sorted(qs) and len(set(qs)) == 4
        qa = [critical_value(50, a) for a in (0.10, 0.05, 0.01)]
        assert qa == sorted(qa)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            critical_value(10, 0.0)
        with pytest.raises(InvalidAlpha):
            critical_value(10, 1.0)

    def test_simulated_matches_analytic(self):
        q_sim = critical_value(100, 0.05, method="simulated", reps=200_000, seed=3)
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
        with pytest.warns(GridSpacingWarning):
            result = search_thresholds(panel, grid, FIXED)
        for u in result.per_unit:
            assert u.c_hat == 0.0
        assert all(result.reject.values())

    def test_tie_breaks_to_smaller_threshold(self):
        result = search_thresholds(
            _mirror_panel(), [-5.0, 5.0],
            Config(bandwidth=BandwidthPolicy.fixed(0.25)),
        )
        unit = result.per_unit[0]
        assert unit.stats[0] == unit.stats[1]
        assert unit.c_hat == -5.0
        assert unit.best_index == 0

    def test_spacing_warning_flag(self):
        panel = _jump_panel([1.0], seed=22)
        with pytest.warns(GridSpacingWarning):
            result = search_thresholds(panel, [-0.1, 0.0, 0.1], FIXED)
        assert result.spacing_warning

    def test_wide_spacing_no_warning(self):
        import warnings

        panel = _jump_panel([1.0], seed=23, sd=0.05)
        cfg = Config(bandwidth=BandwidthPolicy.fixed(0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridSpacingWarning)
            result = search_thresholds(panel, [-0.5, 0.0, 0.5], cfg)
        assert not result.spacing_warning

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increas"):
            search_thresholds(_jump_panel([1.0]), [0.0, 0.0, 0.1], FIXED)

    def test_comparison_count_over_valid_pairs(self):
        panel = _jump_panel([1.0, 1.0], seed=24, sd=0.05)
        grid = [-0.4, 0.0, 0.4]
        with pytest.warns(GridSpacingWarning):
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
