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

from .errors import DegenerateEverywhere
from .kernels import KernelSpec, denominator_floor, eval_kernel, local_weights

__all__ = [
    "UnitJumpFit",
    "estimate_jump",
    "smooth_residuals",
]


@dataclass
class UnitJumpFit:
    """Result of a two-boundary local linear fit at one threshold.

    ``gamma_hat`` is defined as ``mu_plus - mu_minus``.  ``w_diff`` is the
    weight difference ``w_plus - w_minus`` that the variance step needs.
    ``v_hat`` is the standardising scale attached later by the variance
    step; it is None until then.
    """

    unit_id: str
    c: float
    b: float
    n_obs: int
    gamma_hat: float
    mu_plus: float
    mu_minus: float
    w_diff: np.ndarray = field(repr=False)
    eff_obs_plus: int
    eff_obs_minus: int
    v_hat: float | None = None

    @property
    def eff_obs(self) -> int:
        return self.eff_obs_plus + self.eff_obs_minus


def estimate_jump(y, x, c: float, b: float, kernel: KernelSpec,
                  unit_id: str = "") -> UnitJumpFit:
    """Estimate the jump of the regression function at c.

    The estimate is ``mu_plus - mu_minus``, equivalently the weighted sum
    ``sum_t (w_t_plus - w_t_minus) y_t`` with the local linear boundary
    weights from each side.

    Raises
    ------
    InsufficientSupport
        If either side lacks a valid local design; the exception records
        which side failed.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    w_plus = local_weights(x, c, b, kernel, "plus")
    w_minus = local_weights(x, c, b, kernel, "minus")
    mu_plus = float(w_plus @ y)
    mu_minus = float(w_minus @ y)
    return UnitJumpFit(
        unit_id=unit_id,
        c=float(c),
        b=float(b),
        n_obs=int(y.size),
        gamma_hat=mu_plus - mu_minus,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        w_diff=w_plus - w_minus,
        eff_obs_plus=int(np.count_nonzero(w_plus)),
        eff_obs_minus=int(np.count_nonzero(w_minus)),
    )


def _fitted_uniform(eval_points: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    b: float) -> np.ndarray:
    """Local linear fitted values with the uniform kernel via prefix sums.

    ``xs``/``ys`` must be sorted by x.  The constant kernel factor cancels
    from the local linear ratio, so windowed power sums suffice.  All series
    are recentred on the mean of x to tame cancellation in the squares.
    """
    centre = float(xs.mean())
    xc = xs - centre
    z = np.zeros(1)
    p1 = np.concatenate((z, np.cumsum(xc)))
    p2 = np.concatenate((z, np.cumsum(xc * xc)))
    q0 = np.concatenate((z, np.cumsum(ys)))
    q1 = np.concatenate((z, np.cumsum(xc * ys)))

    lo = np.searchsorted(xs, eval_points - b, side="left")
    hi = np.searchsorted(xs, eval_points + b, side="right")
    n = (hi - lo).astype(float)
    uc = eval_points - centre
    m1 = p1[hi] - p1[lo]
    m2 = p2[hi] - p2[lo]
    r0 = q0[hi] - q0[lo]
    r1 = q1[hi] - q1[lo]

    sd1 = m1 - uc * n
    sd2 = m2 - 2.0 * uc * m1 + uc * uc * n
    t1 = r1 - uc * r0
    den = sd2 * n - sd1 * sd1
    floor = denominator_floor(n, sd2)
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = (sd2 * r0 - sd1 * t1) / den
    fitted[~(den > floor)] = np.nan
    return fitted


def _fitted_general(eval_points: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    b: float, kernel: KernelSpec, chunk: int = 256) -> np.ndarray:
    """Chunked dense path for non-uniform kernels.

    Evaluation points are processed in sorted blocks so each block touches a
    contiguous slice of the sorted sample.
    """
    order = np.argsort(eval_points, kind="stable")
    out = np.full(eval_points.size, np.nan)
    for start in range(0, order.size, chunk):
        idx = order[start:start + chunk]
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
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = (s2 * t0 - s1 * t1) / den
        fit[~(den > floor)] = np.nan
        out[idx] = fit
    return out


def smooth_residuals(y, x, b_pilot: float, kernel: KernelSpec,
                     jump_removal: tuple[float, float] | None = None) -> np.ndarray:
    """Residuals from a two-sided local linear smooth at every sample point.

    Parameters
    ----------
    y, x : array_like
        Aligned observations for one unit.
    b_pilot : float
        Smoothing bandwidth.
    kernel : KernelSpec
    jump_removal : (c, gamma), optional
        If given, ``gamma * 1{x >= c}`` is subtracted from y before
        smoothing, so a previously estimated jump does not leak into the
        residuals.

    Returns
    -------
    numpy.ndarray
        Residual vector aligned with the input; NaN marks points whose
        local design was degenerate.

    Raises
    ------
    DegenerateEverywhere
        If no sample point admits a valid local fit.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if b_pilot <= 0.0:
        raise ValueError(f"pilot bandwidth must be positive, got {b_pilot}")
    if jump_removal is not None:
        c, gamma = jump_removal
        y = y - gamma * (x >= c)

    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    if kernel.kind == "uniform":
        fitted = _fitted_uniform(x, xs, ys, b_pilot)
    else:
        fitted = _fitted_general(x, xs, ys, b_pilot, kernel)
    resid = y - fitted
    if not np.any(np.isfinite(resid)):
        raise DegenerateEverywhere("no sample point admits a local linear fit")
    return resid
