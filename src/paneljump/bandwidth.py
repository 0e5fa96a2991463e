"""Bandwidth selection.

A rule-of-thumb plugin rule targeting the mean squared error of the jump
estimate: side-wise global quartic fits supply the residual variance and the
curvature difference at the threshold, a Silverman-bandwidth kernel density
estimate supplies the design density, and a kernel-specific boundary
constant ties them together.  The selector is deliberately simple; it is
judged by the size and power it delivers downstream, not by bandwidth
optimality per se.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TooFewObservations
from .kernels import KernelSpec

__all__ = [
    "BandwidthPolicy",
    "boundary_constant",
    "plugin_bandwidth",
    "pooled_bandwidth",
    "pilot_bandwidth",
]

DEFAULT_BOUNDS = (0.02, 0.5)

# Minimum sample sizes for the quartic pilot fits.
_MIN_OBS = 20
_MIN_SIDE = 5

# Relative curvature floor: see plugin_bandwidth.
_CURV_FLOOR = 0.1

# Neighbours each sample point keeps inside the pilot window.
_PILOT_MIN_POINTS = 10


@dataclass(frozen=True)
class BandwidthPolicy:
    """How per-unit bandwidths are chosen.

    mode
        ``fixed`` uses ``value`` for every unit, ``plugin`` selects per
        unit, ``pooled_plugin`` geometric-averages the per-unit selections
        into one common bandwidth.
    bounds
        (lower, upper) as fractions of each unit's covariate range;
        selections are clamped into this interval.
    """

    mode: str = "plugin"
    value: float | None = None
    bounds: tuple[float, float] = DEFAULT_BOUNDS

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "plugin", "pooled_plugin"):
            raise ConfigError(f"unknown bandwidth mode {self.mode!r}")
        if self.mode == "fixed":
            if self.value is None or not 0.0 < self.value < np.inf:
                raise ConfigError(
                    f"fixed bandwidth needs a finite positive value, got {self.value}")
        lo, hi = self.bounds
        if not (0.0 < lo < hi):
            raise ConfigError(f"invalid bandwidth bounds {self.bounds}")

    @classmethod
    def fixed(cls, value: float) -> "BandwidthPolicy":
        return cls(mode="fixed", value=float(value))

    @classmethod
    def plugin(cls, bounds: tuple[float, float] = DEFAULT_BOUNDS) -> "BandwidthPolicy":
        return cls(mode="plugin", bounds=bounds)

    @classmethod
    def pooled(cls, bounds: tuple[float, float] = DEFAULT_BOUNDS) -> "BandwidthPolicy":
        return cls(mode="pooled_plugin", bounds=bounds)


# (2 V / B^2)^(1/5) per kernel; see boundary_constant.
_BOUNDARY_CONSTANTS = {
    "uniform": 3.103691147830719,
    "triangular": 3.9487009716696395,
    "epanechnikov": 3.6757156372762494,
}


def boundary_constant(kind: str) -> float:
    """MSE-optimal rate constant for the boundary local linear difference.

    With one-sided moments K_l = int_0^1 u^l K(u) du and the boundary
    equivalent kernel K*(u) = K(u)(K_2 - K_1 u) / (K_0 K_2 - K_1^2) on
    [0, 1], the jump estimate has leading bias  (1/2) b^2 B (m''_+ - m''_-)
    and variance  2 sigma^2 V / (f T b), where B = int u^2 K* and
    V = int K*^2.  Minimising the sum gives
    b = (2 V / B^2)^(1/5) [.]^(1/5) T^(-1/5).

    The integrands are polynomials, so 2 V / B^2 is exact: 288 (uniform),
    960 (triangular) and 568320/847 (Epanechnikov).  The stored values are
    those adaptive quadrature gives.  They equal the correctly rounded
    fifth roots for the uniform and triangular kernels; the Epanechnikov
    value sits 5 ULP above its root and is kept as it is, because every
    reported Epanechnikov bandwidth depends on it.
    """
    return _BOUNDARY_CONSTANTS[KernelSpec(kind).kind]


def _quartic_side(y: np.ndarray, d: np.ndarray):
    """Quartic fit in the centred covariate; returns (rss, curvature at 0)."""
    poly = np.polynomial.Polynomial.fit(d, y, 4)
    resid = y - poly(d)
    return float(resid @ resid), float(poly.deriv(2)(0.0))


def plugin_bandwidth(y, x, c: float, kernel: KernelSpec,
                     bounds: tuple[float, float] = DEFAULT_BOUNDS) -> float:
    """Rule-of-thumb bandwidth for the jump estimate at c.

        b = C(K) [ sigma^2 / (f(c) curv^2) ]^(1/5) T^(-1/5)

    where sigma^2 is the pooled residual variance of side-wise quartic
    fits, f(c) a Gaussian KDE with Silverman bandwidth, and curv the
    absolute difference of the quartic fits' second derivatives at c.
    The curvature is floored at 0.1 sigma / range^2 so a vanishing
    difference (common under smooth designs) cannot blow the bandwidth
    up; the result is then clamped into ``bounds`` times the covariate
    range.  Deterministic in its inputs.

    Raises
    ------
    TooFewObservations
        Fewer than 20 observations overall, fewer than 5 distinct
        covariate values on either side of c, a degenerate covariate
        range, or a covariate scale so extreme that f(c) curv^2
        underflows to 0 or overflows.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    t_obs = x.size
    if t_obs < _MIN_OBS:
        raise TooFewObservations(f"need at least {_MIN_OBS} observations, got {t_obs}")
    x_range = float(x.max() - x.min())
    if x_range <= 0.0:
        raise TooFewObservations("degenerate covariate range")
    d = x - c
    plus = d >= 0.0
    rss = 0.0
    curvs = []
    for side_mask in (plus, ~plus):
        if np.unique(x[side_mask]).size < _MIN_SIDE:
            raise TooFewObservations(
                f"need at least {_MIN_SIDE} distinct covariate values per side"
            )
        rss_side, curv = _quartic_side(y[side_mask], d[side_mask])
        rss += rss_side
        curvs.append(curv)
    df = max(t_obs - 10, 1)
    sigma_sq = rss / df
    lo, hi = bounds
    if sigma_sq <= 0.0:
        return lo * x_range

    # Silverman rule-of-thumb density estimate at the threshold.
    spread = float(np.std(d))
    q75, q25 = np.percentile(d, [75.0, 25.0])
    iqr_scale = (q75 - q25) / 1.34
    width = min(spread, iqr_scale) if iqr_scale > 0.0 else spread
    h_dens = 0.9 * width * t_obs ** (-0.2)
    dens = float(np.mean(np.exp(-0.5 * (d / h_dens) ** 2)) / (h_dens * np.sqrt(2.0 * np.pi)))

    curv = abs(curvs[0] - curvs[1])
    curv = max(curv, _CURV_FLOOR * np.sqrt(sigma_sq) / x_range**2)
    dens_curv_sq = dens * curv * curv
    if not 0.0 < dens_curv_sq < np.inf:
        raise TooFewObservations(
            f"density x curvature^2 = {dens_curv_sq} leaves float range at this covariate scale"
        )
    raw = boundary_constant(kernel.kind) * (sigma_sq / dens_curv_sq) ** 0.2 * t_obs ** (-0.2)
    return float(np.clip(raw, lo * x_range, hi * x_range))


def pooled_bandwidth(bandwidths, clamp: tuple[float, float] | None = None) -> float:
    """Geometric mean of per-unit bandwidths, optionally clamped.

    A single common bandwidth removes per-unit selection noise in short
    panels; the geometric mean respects the multiplicative structure of the
    plugin rule.
    """
    bs = np.asarray(bandwidths, dtype=float)
    if bs.size == 0:
        raise ConfigError("no bandwidths to pool")
    if np.any(bs <= 0.0):
        raise ConfigError("bandwidths must be positive")
    pooled = float(np.exp(np.mean(np.log(bs))))
    if clamp is not None:
        pooled = float(np.clip(pooled, clamp[0], clamp[1]))
    return pooled


def pilot_bandwidth(x, b: float) -> float:
    """Undersmoothing bandwidth for residual extraction near an unknown jump.

    Shrinks b by T^(-1/10) so an unremoved jump contaminates a thinner
    strip of residuals, then floors the result so that every sample point
    keeps at least 10 (``_PILOT_MIN_POINTS``) neighbours in its window.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    b_star = b * float(n) ** (-0.1)
    if n <= _PILOT_MIN_POINTS:
        span = float(x.max() - x.min()) if n > 1 else b
        return max(b_star, span)
    xs = np.sort(x)
    k = _PILOT_MIN_POINTS - 1
    # Minimal half-width placing >= _PILOT_MIN_POINTS sample values in the
    # window of each point, then the worst case over points.
    half = np.full(n, np.inf)
    for m in range(k + 1):
        left = np.arange(n) - m
        right = left + k
        valid = (left >= 0) & (right < n)
        idx = np.where(valid)[0]
        if idx.size == 0:
            continue
        width = np.maximum(xs[right[idx]] - xs[idx], xs[idx] - xs[left[idx]])
        half[idx] = np.minimum(half[idx], width)
    needed = float(half[np.isfinite(half)].max())
    return max(b_star, needed)
