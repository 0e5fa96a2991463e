"""Bandwidth selection.

A rule-of-thumb plugin rule targeting the mean squared error of the jump
estimate: side-wise global quartic fits supply the residual variance and the
curvature difference at the threshold, a Silverman-bandwidth kernel density
estimate supplies the design density, and a kernel-specific boundary
constant ties them together.  The selector is deliberately simple; it is
judged by the size and power it delivers downstream, not by bandwidth
optimality per se.

The plugin rule runs as one array program for a block of units, without
numpy's convenience wrappers and their per-call overhead: the quartic fits
of the block's sides of one length share one batched LAPACK least-squares
call.  Each step replays the floating-point operations of the library call
it replaces (``np.unique``, ``np.polynomial.Polynomial.fit`` with its
evaluation and second derivative, ``np.clip``) on the same operands in the
same order, so the bandwidths, errors and rank warnings are bit-identical to
the rule written with those calls; ``tests/test_bandwidth.py`` holds that
reference and checks it under hypothesis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _quartic_sides(Y: np.ndarray, D: np.ndarray, m: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Quartic fits in the centred covariate of sides stacked in order of
    length: side s has its m[s] outcomes ``Y[s, :m[s]]`` and centred
    covariates ``D[s, :m[s]]`` in its unit's order, and a domain [lo[s],
    hi[s]] that maps onto [-1, 1].  Returns each side's rss and curvature at 0.

    Each side replays ``np.polynomial.Polynomial.fit(d, y, 4)``, its
    evaluation at ``d`` and ``.deriv(2)(0.0)`` in numpy 2's order
    (``mapparms``, ``polyvander``, unit-norm columns, ``lstsq`` with
    ``rcond = m * eps`` and a ``RankWarning`` below rank 5, ``polyval``'s
    Horner recursion, ``polyder``), so the results are bit-identical to the
    library's.  The elementwise steps run on the whole stack; the norms, the
    solve (the LAPACK gufunc ``np.linalg.lstsq`` calls, in its error state)
    and the rss (one BLAS dot per side) run once per length, on the sides of
    exactly that length: zero-padding changes the pairwise sums and LAPACK's
    reductions, and so the last bits.
    """
    span = hi - lo
    off, scl = ((-hi - lo) / span)[:, None], (2.0 / span)[:, None]
    u = off + scl * D
    van = np.empty((len(D), 5, D.shape[1]))
    van[:, 1] = u + 0.0  # the fit's copy of its abscissae: -0.0 becomes 0.0
    van[:, 0] = van[:, 1] * 0 + 1
    for k in range(2, 5):
        np.multiply(van[:, k - 1], van[:, 1], out=van[:, k])
    n_all, starts = np.unique(m, return_index=True)
    lengths = list(zip(n_all, map(slice, starts, [*starts[1:], len(m)])))
    coef = np.empty((len(D), 5))
    for n, at in lengths:
        norms = np.sqrt(np.square(van[at, :, :n]).sum(2))
        norms[norms == 0] = 1
        a, b = van[at, :, :n].transpose(0, 2, 1) / norms[:, None], Y[at, :n, None] + 0.0
        with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            sol, _, rank, _ = _umath_linalg.lstsq(a, b, n * _EPS, signature="ddd->ddid")
        coef[at] = sol[..., 0] / norms
        for _ in range(np.count_nonzero(rank != 5)):
            warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning, 2)
    fit = coef[:, 4:] + u * 0  # polyval starts from c[-1] + x * 0
    for k in (3, 2, 1, 0):
        fit = coef[:, k:k + 1] + fit * u
    resid, rss = Y - fit, np.empty(len(D))
    for n, at in lengths:
        rss[at] = (resid[at, None, :n] @ resid[at, :n, None])[:, 0, 0]
    c, z, scl = coef * scl, (off + scl * 0.0)[:, 0], scl[:, 0]
    d2 = (2 * c[:, 2] * scl, 2 * (3 * c[:, 3] * scl), 3 * (4 * c[:, 4] * scl))
    return rss, d2[0] + (d2[1] + (d2[2] + z * 0) * z) * z


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

    The checks run as arrays in the per-row order, and exactly the sides a
    per-row rule fits are fitted.  The bandwidth is bit-identical to the rule
    computed per row with ``np.unique``, ``np.percentile``,
    ``np.polynomial.Polynomial.fit`` and ``np.clip`` (see ``_quartic_sides``).

    A row's InsufficientSupport names its first failure: fewer than 20
    observations, a degenerate covariate range, fewer than 5 distinct
    covariate values on the plus side or a plus side whose centred
    covariates cannot map onto the fit's [-1, 1], the same for the minus
    side, a covariate range that overflows to inf, or a scale so extreme
    that f(c) curv^2 underflows to 0, overflows or is NaN.
    """
    t_obs = x.shape[1]
    if t_obs < _MIN_OBS:
        return [InsufficientSupport(f"need at least {_MIN_OBS} observations, got {t_obs}")
                for _ in x]
    xs = np.take_along_axis(x, order, 1)
    first = np.ones(x.shape, dtype=bool)  # each value's first place, so also the split
    np.not_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])
    n_minus = np.count_nonzero(first & (xs < c[:, None]), 1)  # minus side x < c, then plus side
    out, alive = [None] * len(x), np.ones(len(x), dtype=bool)

    def stop(done, why) -> None:  # the rows' value, or a message for their error
        for r in np.flatnonzero(alive & done):
            out[r] = InsufficientSupport(v) if isinstance(v := why(r), str) else v
        alive[done] = False

    def domain(lo, hi):  # a quartic fit's, widened where lo == hi as Polynomial.fit does
        return np.where(lo == hi, lo - 1.0, lo), np.where(lo == hi, hi + 1.0, hi)

    # Outcomes or covariates near the float limit overflow the rule's sums,
    # products and quotients; its checks name what leaves float range.
    with np.errstate(all="ignore"):
        d, ds = x - c[:, None], xs - c[:, None]  # ds: d in x-order, so sorted too
        # Silverman density estimate at c, with np.percentile's quartiles read from ds.
        spread = np.std(d, 1)
        place = (t_obs - 1) * np.array([0.75, 0.25])
        below, above = (ds[:, np.floor(place).astype(int) + j].T for j in (0, 1))
        step, gap = (place - np.floor(place))[:, None], above - below
        q75, q25 = np.where(step >= 0.5, above - gap * (1 - step), below + gap * step)
        iqr_scale = (q75 - q25) / 1.34
        width = np.where(iqr_scale > 0.0, np.minimum(spread, iqr_scale), spread)
        h_dens = 0.9 * width * t_obs ** (-0.2)
        dens = np.mean(np.exp(-0.5 * (d / h_dens[:, None]) ** 2), 1) / (h_dens * np.sqrt(2.0 * np.pi))
        plus, rows, x_range = d >= 0.0, np.arange(len(x)), xs[:, -1] - xs[:, 0]
        k = t_obs - np.count_nonzero(plus, 1)  # the plus side's first place in x-order
        lo, hi = domain(np.stack((ds[rows, np.minimum(k, t_obs - 1)], ds[:, 0])),
                        np.stack((ds[:, -1], ds[rows, np.maximum(k - 1, 0)])))
        mappable = (_MAP_MIN_SPAN < hi - lo) & (hi - lo < np.inf) & (abs(hi + lo) < np.inf)
        stop(x_range <= 0.0, lambda r: "degenerate covariate range")
        fitted = []
        for side, count in enumerate((np.count_nonzero(first, 1) - n_minus, n_minus)):
            stop(count < _MIN_SIDE, lambda r: (
                f"need at least {_MIN_SIDE} distinct covariate values per side"))
            stop(~mappable[side], lambda r: "one side's centred covariates span [{}, {}], which "
                 "floating point cannot map onto [-1, 1]".format(*map(float, domain(
                     *(f(d[r][plus[r] != side]) for f in (np.min, np.max))))))
            fitted.append(alive.copy())
        stop(x_range == np.inf, lambda r: f"covariate range {xs[r, 0]} to {xs[r, -1]} overflows to inf")
        # The fitted sides by length (plus sides first within a length), each
        # with its own points first, in its unit's order.
        side, m = np.flatnonzero(np.array(fitted)), np.concatenate((t_obs - k, k))
        side = side[np.argsort(m[side], kind="stable")]
        row, is_plus, m = side % len(x), side < len(x), m[side]
        at = np.argsort(plus[row] != is_plus[:, None], axis=1, kind="stable")[:, :m.max(initial=0)]
        rss, curvs = np.zeros((2, 2, len(x)))
        rss.reshape(-1)[side], curvs.reshape(-1)[side] = _quartic_sides(
            y[row[:, None], at], d[row[:, None], at], m, lo.ravel()[side], hi.ravel()[side])
        sigma_sq = (rss[0] + rss[1]) / max(t_obs - 10, 1)
        lo, hi = bounds
        stop(sigma_sq <= 0.0, lambda r: lo * float(x_range[r]))
        curv = abs(curvs[0] - curvs[1])
        floor = _CURV_FLOOR * np.sqrt(sigma_sq) / (x_range * x_range)
        curv = np.where(floor > curv, floor, curv)  # max(curv, floor), NaN as Python's
        dens_curv_sq = dens * curv * curv
        stop(~((0.0 < dens_curv_sq) & (dens_curv_sq < np.inf)), lambda r: (
            f"density x curvature^2 = {dens_curv_sq[r]} leaves float range "
            "at this covariate or outcome scale"))
    for r in np.flatnonzero(alive):
        ratio = float(sigma_sq[r]) / float(dens_curv_sq[r])
        raw = _BOUNDARY_CONSTANTS[kernel.kind] * ratio ** 0.2 * t_obs ** (-0.2)
        out[r] = float(min(max(raw, lo * float(x_range[r])), hi * float(x_range[r])))
    return out


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
