"""Jump estimation and residual smoothing.

The jump estimate at a threshold c is the difference between two boundary
local linear fits, one from each side.  Residual smoothing runs a plain
two-sided local linear regression at every sample point, or for the
uniform kernel at those asked for (a known-threshold fit's variance window);
it backs the variance estimators and must stay cheap, so the uniform
kernel gets a prefix-sum path that avoids per-point Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSupport
from .kernels import KernelSpec, _side_rows, denominator_floor, eval_kernel

__all__ = ["UnitJumpFit"]

# Evaluation points per block on the dense (non-uniform kernel) path.
_CHUNK = 256


@dataclass
class UnitJumpFit:
    """Result of a two-boundary local linear fit at one threshold.

    ``gamma_hat`` is the difference of the two one-sided boundary fits.
    ``w_diff`` is the weight difference ``w_plus - w_minus`` that the
    variance step needs, and ``eff_obs`` counts the observations with a
    nonzero weight on either side.
    """

    gamma_hat: float
    w_diff: np.ndarray = field(repr=False)
    eff_obs: int


def _fit_rows(y, x, c, b, kernel: KernelSpec) -> list:
    """The jump of each row's regression at its own c and bandwidth b.

    The estimate is ``mu_plus - mu_minus``, equivalently the weighted sum
    ``sum_t (w_t_plus - w_t_minus) y_t`` with the local linear boundary
    weights from each side (``kernels._side_rows``).  Gives each row's
    UnitJumpFit, or the InsufficientSupport of the side that failed, the
    plus side first.
    """
    w_plus, plus_errors = _side_rows(x, c, b, kernel, "plus")
    w_minus, minus_errors = _side_rows(x, c, b, kernel, "minus")
    out: list = [p or m for p, m in zip(plus_errors, minus_errors)]
    keep = np.flatnonzero([error is None for error in out])  # a failed side stops its row
    w_plus, w_minus, y_cols = w_plus[keep], w_minus[keep], y[keep, :, None]
    gamma = (w_plus[:, None] @ y_cols)[:, 0, 0] - (w_minus[:, None] @ y_cols)[:, 0, 0]
    eff = (w_plus != 0.0).sum(1) + (w_minus != 0.0).sum(1)
    for i, g, w, e in zip(keep, gamma, w_plus - w_minus, eff):
        out[i] = UnitJumpFit(float(g), w, int(e))
    return out


def _fitted_uniform(x: np.ndarray, at: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Local linear fitted values with the uniform kernel via prefix sums,
    at the points ``at`` marks in each row of ``x`` (NaN elsewhere).

    ``xs``/``ys`` are the rows sorted by x.  The constant kernel factor
    cancels from the local linear ratio, so windowed power sums suffice.
    All series are recentred on the row's mean of x to tame cancellation.
    """
    # Covariates near the float limit overflow the sums and window bounds;
    # the floor test below turns what they touch into NaN.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        centre = xs.mean(1)
        xc = xs - centre[:, None]
        z = np.zeros((len(xs), 1))
        p1, p2, q0, q1 = (np.concatenate((z, np.cumsum(v, 1)), 1).ravel()
                          for v in (xc, xc * xc, ys, xc * ys))
        points = [row[m] for row, m in zip(x, at)]
        starts = range(0, p1.size, xs.shape[1] + 1)  # each row's place in the raveled sums
        lo = np.concatenate([start + np.searchsorted(s, u - h, side="left")
                             for start, s, u, h in zip(starts, xs, points, b)])
        hi = np.concatenate([start + np.searchsorted(s, u + h, side="right")
                             for start, s, u, h in zip(starts, xs, points, b)])
        n = (hi - lo).astype(float)
        uc = np.concatenate(points) - np.repeat(centre, [u.size for u in points])
        m1, m2, r0, r1 = (p[hi] - p[lo] for p in (p1, p2, q0, q1))
        sd1 = m1 - uc * n
        sd2 = m2 - 2.0 * uc * m1 + uc * uc * n
        t1 = r1 - uc * r0
        den = sd2 * n - sd1 * sd1
        floor = denominator_floor(n, sd2)
        fitted = (sd2 * r0 - sd1 * t1) / den
        fitted[~(den > floor)] = np.nan
    out = np.full(x.shape, np.nan)
    out[at] = fitted
    return out


# Covariates near the float limit overflow the window bounds, offsets and
# sums; the floor test turns what they touch into NaN.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _fitted_general(eval_points: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    b: float, kernel: KernelSpec) -> np.ndarray:
    """Chunked dense path for non-uniform kernels.

    Evaluation points are processed in sorted blocks so each block touches a
    contiguous slice of the sorted sample.
    """
    order = np.argsort(eval_points, kind="stable")
    out = np.full(eval_points.size, np.nan)
    for start in range(0, order.size, _CHUNK):
        idx = order[start:start + _CHUNK]
        u = eval_points[idx]
        w0 = int(np.searchsorted(xs, u.min() - b, side="left"))
        w1 = int(np.searchsorted(xs, u.max() + b, side="right"))
        if w1 <= w0:
            continue
        xw = xs[w0:w1]
        yw = ys[w0:w1]
        d = xw[None, :] - u[:, None]
        k = eval_kernel(kernel, d / b)
        s0 = k.sum(axis=1)
        s1 = (k * d).sum(axis=1)
        s2 = (k * d * d).sum(axis=1)
        t0 = k @ yw
        t1 = (k * d) @ yw
        den = s2 * s0 - s1 * s1
        floor = denominator_floor(s0, s2)
        fit = (s2 * t0 - s1 * t1) / den
        fit[~(den > floor)] = np.nan
        out[idx] = fit
    return out


def _smooth_rows(y, x, b, kernel: KernelSpec) -> list:
    """Each row's residuals from a two-sided local linear smooth at every
    sample point (NaN where the local design is degenerate), or its
    InsufficientSupport when no point admits a fit."""
    return [r if np.isfinite(r).any() else InsufficientSupport(
        "no sample point admits a local linear fit")
        for r in _residual_rows(y, x, b, kernel, np.ones(x.shape, dtype=bool))]


def _residual_rows(y, x, b, kernel: KernelSpec, at) -> np.ndarray:
    """Each row's residuals at its own bandwidth; the uniform kernel smooths
    only the points ``at`` marks, leaving NaN elsewhere."""
    order = np.argsort(x, axis=1, kind="stable")
    xs, ys = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    if kernel.kind == "uniform":
        return y - _fitted_uniform(x, at, xs, ys, b)
    return y - np.array([_fitted_general(*row, kernel) for row in zip(x, xs, ys, b)])
