"""Bandwidth selection.

A rule-of-thumb plugin rule targeting the mean squared error of the jump
estimate: side-wise global quartic fits supply the residual variance and the
curvature difference at the threshold, a Silverman-bandwidth kernel density
estimate supplies the design density, and a kernel-specific boundary
constant ties them together.  The selector is deliberately simple; it is
judged by the size and power it delivers downstream, not by bandwidth
optimality per se.

The plugin rule runs for a block of units at once, and avoids numpy's
convenience wrappers where their per-call overhead would be paid per unit:
the quartic fits are done with plain array operations and one ``lstsq``
call per side and unit.  Each step replays the floating-point operations
of the library call it replaces (``np.unique``,
``np.polynomial.Polynomial.fit`` with its evaluation and second
derivative, ``np.clip``) on the same operands in the same order, so the
bandwidths, errors and rank warnings are bit-identical to the rule written
with those calls; ``tests/test_bandwidth.py`` holds that reference and
checks it under hypothesis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientSupport, _check_real
from .kernels import KernelSpec

__all__ = ["BandwidthPolicy"]

DEFAULT_BOUNDS = (0.02, 0.5)

# Minimum sample sizes for the quartic pilot fits.
_MIN_OBS = 20
_MIN_SIDE = 5

# Relative curvature floor: see _plugin_rows.
_CURV_FLOOR = 0.1

# Neighbours each sample point keeps inside the pilot window.
_PILOT_MIN_POINTS = 10

_EPS = np.finfo(float).eps

# 2 / span is finite exactly when span exceeds this, 2^-1023: the quartic
# fit's domain scale, checked without dividing by a span.
_MAP_MIN_SPAN = 2.0 / np.finfo(float).max


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

    ``value`` and ``bounds`` are real numbers (not bools), kept as floats.
    """

    mode: str = "plugin"
    value: float | None = None
    bounds: tuple[float, float] = DEFAULT_BOUNDS

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "plugin", "pooled_plugin"):
            raise ConfigError(f"unknown bandwidth mode {self.mode!r}")
        if self.mode == "fixed":
            object.__setattr__(self, "value", _check_real(self.value, "fixed bandwidth"))
            if not 0.0 < self.value < np.inf:
                raise ConfigError(
                    f"fixed bandwidth needs a finite positive value, got {self.value}")
        try:
            lo, hi = (_check_real(v, "bound") for v in self.bounds)
        except (TypeError, ValueError):
            raise ConfigError(
                f"bandwidth bounds must be a pair of real numbers, got {self.bounds!r}") from None
        if not (0.0 < lo < hi):
            raise ConfigError(f"invalid bandwidth bounds {self.bounds}")
        object.__setattr__(self, "bounds", (lo, hi))

    @classmethod
    def fixed(cls, value: float) -> "BandwidthPolicy":
        return cls(mode="fixed", value=value)

    @classmethod
    def plugin(cls, bounds: tuple[float, float] = DEFAULT_BOUNDS) -> "BandwidthPolicy":
        return cls(mode="plugin", bounds=bounds)

    @classmethod
    def pooled(cls, bounds: tuple[float, float] = DEFAULT_BOUNDS) -> "BandwidthPolicy":
        return cls(mode="pooled_plugin", bounds=bounds)


# MSE-optimal rate constant (2 V / B^2)^(1/5) of the boundary local linear
# difference, per kernel.  With one-sided moments K_l = int_0^1 u^l K(u) du
# and the boundary equivalent kernel K*(u) = K(u)(K_2 - K_1 u) / (K_0 K_2 -
# K_1^2) on [0, 1], the jump estimate has leading bias
# (1/2) b^2 B (m''_+ - m''_-) and variance 2 sigma^2 V / (f T b), where
# B = int u^2 K* and V = int K*^2.  Minimising the sum gives
# b = (2 V / B^2)^(1/5) [.]^(1/5) T^(-1/5).
#
# The integrands are polynomials, so 2 V / B^2 is exact: 288 (uniform), 960
# (triangular) and 568320/847 (Epanechnikov).  The stored values are those
# adaptive quadrature gives.  They equal the correctly rounded fifth roots
# for the uniform and triangular kernels; the Epanechnikov value sits 5 ULP
# above its root and is kept as it is, because every reported Epanechnikov
# bandwidth depends on it.
_BOUNDARY_CONSTANTS = {
    "uniform": 3.103691147830719,
    "triangular": 3.9487009716696395,
    "epanechnikov": 3.6757156372762494,
}


def _quartic_side(y: np.ndarray, d: np.ndarray):
    """Quartic fit in the centred covariate; returns (rss, curvature at 0).

    The steps are those of ``np.polynomial.Polynomial.fit(d, y, 4)``, of
    evaluating the fit at ``d`` and of ``.deriv(2)(0.0)``, replayed in
    numpy 2's order: the domain [min d, max d] (widened by 1 each way when
    the two are equal) is mapped onto [-1, 1] as ``mapparms`` does, in
    numpy scalars, so a span that rounds to 0 divides as numpy does; the
    Vandermonde rows are built by successive multiplication as in
    ``polyvander``; the columns are scaled to unit norm (a zero norm stays
    1) and solved by ``lstsq`` with ``rcond = len(d) * eps``, warning
    ``RankWarning`` on a rank below 5; the fit is evaluated by
    ``polyval``'s Horner recursion and differentiated by
    ``polyder(c, 2, scl)``'s two scale-and-multiply passes before being
    evaluated at the mapped 0.  Every floating-point operation, operand
    and order matches the library's, so the results are bit-identical to
    it without its wrappers' per-call overhead.  Where the library would
    hand LAPACK NaN abscissae and fail, this raises InsufficientSupport:
    when the span rounds to 0 (the widening by 1 lost below the
    covariates' last place), is so small that the scale 2 / span
    overflows, or overflows itself, or when hi + lo overflows.
    """
    lo, hi = d.min(), d.max()
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    if not (_MAP_MIN_SPAN < span < np.inf and abs(hi + lo) < np.inf):  # else lstsq gets NaN
        raise InsufficientSupport(
            f"one side's centred covariates span [{lo}, {hi}], which floating point "
            "cannot map onto [-1, 1]"
        )
    off = (-hi - lo) / span
    scl = 2.0 / span
    u = off + scl * d
    x = u + 0.0  # the fit's copy of its abscissae: -0.0 becomes 0.0
    van = np.empty((5, d.size))
    van[0] = x * 0 + 1
    van[1] = x
    for k in range(2, 5):
        np.multiply(van[k - 1], x, out=van[k])
    norms = np.sqrt(np.square(van).sum(1))
    norms[norms == 0] = 1
    coef, _, rank, _ = np.linalg.lstsq(van.T / norms, y + 0.0, d.size * _EPS)
    coef = coef / norms
    if rank != 5:
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    fit = coef[4] + u * 0  # polyval starts from c[-1] + x * 0
    for k in (3, 2, 1, 0):
        fit = coef[k] + fit * u
    resid = y - fit
    c = coef * scl
    d2 = (2 * c[2] * scl, 2 * (3 * c[3] * scl), 3 * (4 * c[4] * scl))
    z = off + scl * 0.0
    curv = d2[0] + (d2[1] + (d2[2] + z * 0) * z) * z
    return float(resid @ resid), float(curv)


def _plugin_rows(y, x, order, c, kernel: KernelSpec, bounds: tuple[float, float]) -> list:
    """Rule-of-thumb bandwidth for the jump estimate at each row's own c
    (stable x-order ``order``), or the row's InsufficientSupport.

        b = C(K) [ sigma^2 / (f(c) curv^2) ]^(1/5) T^(-1/5)

    where sigma^2 is the pooled residual variance of side-wise quartic
    fits, f(c) a Gaussian KDE with Silverman bandwidth, and curv the
    absolute difference of the quartic fits' second derivatives at c.
    The curvature is floored at 0.1 sigma / range^2 so a vanishing
    difference (common under smooth designs) cannot blow the bandwidth
    up; the result is then clamped into ``bounds`` times the covariate
    range.  Deterministic in its inputs.

    The bandwidth is bit-identical to the same rule computed with
    ``np.unique``, ``np.percentile``, ``np.polynomial.Polynomial.fit`` and
    ``np.clip`` (see ``_quartic_side``).

    A row's InsufficientSupport says why: fewer than 20 observations
    overall, fewer than 5 distinct covariate values on either side of c,
    a degenerate covariate range or one that overflows to inf, a side
    whose centred covariates floating point cannot map onto the quartic
    fit's [-1, 1], or a covariate or outcome scale so extreme that
    f(c) curv^2 underflows to 0 or overflows.
    """
    t_obs = x.shape[1]
    if t_obs < _MIN_OBS:
        return [InsufficientSupport(f"need at least {_MIN_OBS} observations, got {t_obs}")
                for _ in x]
    xs = np.take_along_axis(x, order, 1)
    first = np.ones(x.shape, dtype=bool)  # each value's first place, so also the split
    np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
    with np.errstate(all="ignore"):  # it also covers rows that fail a check first
        d = x - c[:, None]
        # Silverman rule-of-thumb density estimate at the threshold.
        spread = np.std(d, 1)
        q75, q25 = np.percentile(d, [75.0, 25.0], axis=1)
        iqr_scale = (q75 - q25) / 1.34
        width = np.where(iqr_scale > 0.0, np.minimum(spread, iqr_scale), spread)
        h_dens = 0.9 * width * t_obs ** (-0.2)
        dens = np.mean(np.exp(-0.5 * (d / h_dens[:, None]) ** 2), 1) / (h_dens * np.sqrt(2.0 * np.pi))
    n_minus = np.count_nonzero(first & (xs < c[:, None]), 1)  # minus side x < c, then plus side
    out = []
    # Outcomes or covariates near the float limit overflow the fits' sums
    # and products; the rule's range check names what leaves float range.
    with np.errstate(over="ignore"):
        for row in zip(y, d, xs, np.count_nonzero(first, 1) - n_minus, n_minus, dens):
            try:
                out.append(_plugin_row(*row, kernel, bounds))
            except InsufficientSupport as exc:
                out.append(exc)
    return out


def _plugin_row(y, d, xs, n_plus, n_minus, dens, kernel: KernelSpec,
                bounds: tuple[float, float]) -> float:
    """One row's checks, quartic fits and rule, after the block's front end."""
    t_obs = d.size
    x_range = float(xs[-1] - xs[0])
    if x_range <= 0.0:
        raise InsufficientSupport("degenerate covariate range")
    plus = d >= 0.0
    rss = 0.0
    curvs = []
    for side_mask, count in ((plus, n_plus), (~plus, n_minus)):
        if count < _MIN_SIDE:
            raise InsufficientSupport(
                f"need at least {_MIN_SIDE} distinct covariate values per side"
            )
        rss_side, curv = _quartic_side(y[side_mask], d[side_mask])
        rss += rss_side
        curvs.append(curv)
    if x_range == np.inf:
        raise InsufficientSupport(f"covariate range {xs[0]} to {xs[-1]} overflows to inf")
    df = max(t_obs - 10, 1)
    sigma_sq = rss / df
    lo, hi = bounds
    if sigma_sq <= 0.0:
        return lo * x_range
    curv = abs(curvs[0] - curvs[1])
    curv = max(curv, _CURV_FLOOR * np.sqrt(sigma_sq) / (x_range * x_range))
    dens_curv_sq = float(dens) * curv * curv
    if not 0.0 < dens_curv_sq < np.inf:
        raise InsufficientSupport(
            f"density x curvature^2 = {dens_curv_sq} leaves float range "
            "at this covariate or outcome scale"
        )
    raw = _BOUNDARY_CONSTANTS[kernel.kind] * (sigma_sq / dens_curv_sq) ** 0.2 * t_obs ** (-0.2)
    return float(min(max(raw, lo * x_range), hi * x_range))


def _pooled_bandwidth(bandwidths, clamp: tuple[float, float]) -> float:
    """Geometric mean of per-unit bandwidths, clamped into ``clamp``.

    A single common bandwidth removes per-unit selection noise in short
    panels; the geometric mean respects the multiplicative structure of the
    plugin rule.
    """
    bs = np.asarray(bandwidths, dtype=float)
    if np.any(bs <= 0.0):
        raise ConfigError("bandwidths must be positive")
    pooled = float(np.exp(np.mean(np.log(bs))))
    return float(min(max(pooled, clamp[0]), clamp[1]))


def _pilot_rows(x, order, b) -> np.ndarray:
    """Undersmoothing bandwidth for residual extraction near an unknown
    jump, for each row (stable x-order ``order``) of a block of equal-length units.

    Shrinks each row's b by T^(-1/10) so an unremoved jump contaminates a
    thinner strip of residuals, then floors the result so that every
    sample point keeps at least 10 (``_PILOT_MIN_POINTS``) neighbours in
    its window.  Half-widths that overflow to inf are left out of the
    floor; a row where all of them do keeps the shrunken b.
    """
    n = x.shape[1]
    b_star = b * float(n) ** (-0.1)
    with np.errstate(over="ignore"):  # spans past the float range become inf
        if n <= _PILOT_MIN_POINTS:
            return np.maximum(b_star, x.max(1) - x.min(1) if n > 1 else b)
        xs = np.take_along_axis(x, order, 1)
        k = _PILOT_MIN_POINTS - 1
        # Minimal half-width placing >= _PILOT_MIN_POINTS sample values in the
        # window of each point, then the worst case over points: point j + m
        # is the m-th of the run xs[j:j + k + 1].
        half = np.full(x.shape, np.inf)
        for m in range(k + 1):
            at = slice(m, n - k + m)
            width = np.maximum(xs[:, k:] - xs[:, at], xs[:, at] - xs[:, :n - k])
            np.minimum(half[:, at], width, out=half[:, at])
    return np.maximum(b_star, np.where(np.isfinite(half), half, -np.inf).max(1))
