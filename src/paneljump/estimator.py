"""Jump estimation and residual smoothing.

The jump estimate at a threshold c is the difference between two boundary
local linear fits, one from each side.  Residual smoothing runs a plain
two-sided local linear regression at every sample point; it backs the
variance estimators and must stay cheap, so the uniform kernel gets a
prefix-sum path that avoids per-point Python work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSupport
from .kernels import KernelSpec, _edges, _eval_kernel, _recentred, _side_rows, denominator_floor

__all__: list[str] = []

# Evaluation points per block on the dense (non-uniform kernel) path.
_CHUNK = 256


@dataclass
class _UnitJumpFit:
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
    _UnitJumpFit, or the InsufficientSupport of the side that failed, the
    plus side first.
    """
    w_plus, plus_errors = _side_rows(x, c, b, kernel, "plus")
    w_minus, minus_errors = _side_rows(x, c, b, kernel, "minus")
    out: list = [p or m for p, m in zip(plus_errors, minus_errors)]
    keep = np.flatnonzero([error is None for error in out])  # a failed side stops its row
    w_plus, w_minus, y_cols = w_plus[keep], w_minus[keep], y[keep, :, None]
    # Outcomes near the float limit overflow a side's sum; _unit_row names the jump.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = (w_plus[:, None] @ y_cols)[:, 0, 0] - (w_minus[:, None] @ y_cols)[:, 0, 0]
    eff = (w_plus != 0.0).sum(1) + (w_minus != 0.0).sum(1)
    for i, g, w, e in zip(keep, gamma, w_plus - w_minus, eff):
        out[i] = _UnitJumpFit(float(g), w, int(e))
    return out


def _fitted_uniform(xs: np.ndarray, ys: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local linear fitted values with the uniform kernel via prefix sums,
    at every point of each row of ``xs`` (the rows sorted by x, ``ys`` in step).

    The constant kernel factor cancels from the local linear ratio, so
    windowed power sums suffice.  All series are recentred on the row's
    mean of x to tame cancellation."""
    # Covariates near the float limit overflow the sums and window bounds;
    # the floor test turns what they touch into NaN.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xc = xs - xs.mean(1)[:, None]
        z = np.zeros((len(xs), 1))
        p1, p2, q0, q1 = (np.concatenate((z, np.cumsum(v, 1)), 1)
                          for v in (xc, xc * xc, ys, xc * ys))
        rows = np.arange(len(xs))[:, None]
        lo, hi = _edges(xs, xs - b[:, None], "left"), _edges(xs, xs + b[:, None], "right")
        n = (hi - lo).astype(float)
        m1, m2, r0, r1 = (p[rows, hi] - p[rows, lo] for p in (p1, p2, q0, q1))
        s1, s2, t1 = _recentred(xc, n, m1, m2, r0, r1)  # u = each point itself
        return _local_linear(n, s1, s2, r0, t1)


# Covariates near the float limit overflow the window bounds, offsets and
# sums; the floor test turns what they touch into NaN.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _fitted_general(xs: np.ndarray, ys: np.ndarray, b: float,
                    kernel: KernelSpec) -> np.ndarray:
    """Chunked dense path for non-uniform kernels, at every point of the
    sorted sample ``xs`` (``ys`` in step).

    Evaluation points run in contiguous blocks, so each block touches a
    contiguous slice of the sample.
    """
    out = np.full(xs.size, np.nan)
    for start in range(0, xs.size, _CHUNK):
        u = xs[start:start + _CHUNK]
        w0 = int(np.searchsorted(xs, u[0] - b, side="left"))
        w1 = int(np.searchsorted(xs, u[-1] + b, side="right"))
        d = xs[w0:w1][None, :] - u[:, None]
        k = _eval_kernel(kernel, d / b)
        out[start:start + _CHUNK] = _local_linear(
            k.sum(axis=1), (k * d).sum(axis=1), (k * d * d).sum(axis=1),
            k @ ys[w0:w1], (k * d) @ ys[w0:w1])
    return out


def _local_linear(s0, s1, s2, t0, t1) -> np.ndarray:
    """The intercept of a local linear fit from its window sums of k, k d,
    k d^2, k y and k d y (kernel factor k, offset d from the evaluation
    point); NaN where the design denominator is not above its floor."""
    den = s2 * s0 - s1 * s1
    fit = (s2 * t0 - s1 * t1) / den
    fit[~(den > denominator_floor(s0, s2))] = np.nan
    return fit


def _smooth_rows(y, x, order, b, kernel: KernelSpec) -> list:
    """Each row's residuals from a two-sided local linear smooth at every
    sample point, at the row's own bandwidth (NaN where the local design
    is degenerate), or its InsufficientSupport when no point admits a fit.

    Each row is smoothed at its points taken in its stable x-order
    ``order``; each point's fitted value depends only on its own window.
    """
    xs, ys = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    # Outcomes past 2^512 are divided by an exact power of two: sums of y, x y stay finite.
    scale = np.ldexp(1.0, np.maximum(np.frexp(np.abs(ys).max(1))[1] - 512, 0))[:, None]
    if kernel.kind == "uniform":
        fitted = _fitted_uniform(xs, ys / scale, b)
    else:
        fitted = np.array([_fitted_general(*row, kernel) for row in zip(xs, ys / scale, b)])
    resid = np.empty(x.shape)
    with np.errstate(over="ignore"):
        np.put_along_axis(resid, order, ys - fitted * scale, 1)
    return [r if np.isfinite(r).any() else InsufficientSupport(
        "no sample point admits a local linear fit") for r in resid]
