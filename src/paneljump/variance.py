"""Variance estimation for standardising jump statistics.

The error variance near the threshold is a windowed average of squared
smoothing residuals; a truncated variant caps each squared residual before
averaging and is used when the threshold location itself is unknown, where
untreated jumps would otherwise contaminate the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, SingleUnit
from .kernels import KernelSpec, local_weights

__all__ = [
    "VarianceEstimate",
    "SigmaC",
    "sigma_e_sq_known",
    "sigma_e_sq_truncated",
    "default_truncation",
    "v_sq",
    "v_tilde_sq",
    "sigma_c_matrix",
]


@dataclass
class VarianceEstimate:
    sigma_e_sq: float
    n_window: int
    truncation: float | None = None


@dataclass
class SigmaC:
    """Per-unit correlation blocks across grid thresholds.

    ``blocks[j]`` is the K_j x K_j correlation matrix for unit
    ``unit_ids[j]`` over that unit's valid grid points.  Blocks for
    different units are independent by construction.
    """

    unit_ids: list[str]
    blocks: list[np.ndarray]

    @property
    def n_comparisons(self) -> int:
        return sum(block.shape[0] for block in self.blocks)


def _window_values(resid, x, c: float, b: float) -> np.ndarray:
    resid = np.asarray(resid, dtype=float)
    x = np.asarray(x, dtype=float)
    if b <= 0.0:
        raise ValueError(f"window width must be positive, got {b}")
    sel = (np.abs(x - c) <= b) & np.isfinite(resid)
    vals = resid[sel]
    if vals.size == 0:
        raise EmptyWindow(f"no usable residuals within {b} of c={c}")
    return vals


def sigma_e_sq_known(resid, x, c: float, b: float) -> VarianceEstimate:
    """Mean squared residual over the window |x - c| <= b.

    NaN residuals (degenerate smoothing points) are excluded from both the
    sum and the count.
    """
    vals = _window_values(resid, x, c, b)
    return VarianceEstimate(
        sigma_e_sq=float(np.mean(vals * vals)),
        n_window=int(vals.size),
    )


def sigma_e_sq_truncated(resid, x, c: float, b: float, a_trunc: float) -> VarianceEstimate:
    """Windowed mean of min(a_trunc, residual^2).

    Capping each squared residual bounds the damage from isolated large
    residuals, e.g. those produced by smoothing across an unremoved jump.
    """
    if a_trunc < 0.0:
        raise ValueError(f"truncation level must be nonnegative, got {a_trunc}")
    vals = _window_values(resid, x, c, b)
    capped = np.minimum(a_trunc, vals * vals)
    return VarianceEstimate(
        sigma_e_sq=float(np.mean(capped)),
        n_window=int(vals.size),
        truncation=float(a_trunc),
    )


def default_truncation(pooled_resid_sq, n_comparisons: int) -> float:
    """Default truncation level from pooled squared residuals.

    Scales the pooled median by max(9, sqrt(log of the comparison count)).
    A zero median (noiseless data) disables truncation entirely.
    """
    pooled = np.asarray(pooled_resid_sq, dtype=float)
    pooled = pooled[np.isfinite(pooled)]
    if pooled.size == 0:
        return np.inf
    med = float(np.median(pooled))
    if med <= 0.0:
        return np.inf
    factor = max(9.0, float(np.sqrt(np.log(float(max(n_comparisons, 2))))))
    return factor * med


def v_sq(w_diff, sigma_e_sq: float, t_obs: int, b: float) -> float:
    """Squared standardising scale T b sum_t w_diff_t^2 sigma^2.

    ``w_diff`` is the weight difference w_plus - w_minus of a jump fit.
    """
    w_diff = np.asarray(w_diff, dtype=float)
    return float(t_obs * b * (w_diff @ w_diff) * sigma_e_sq)


def v_tilde_sq(v_sqs, j: int) -> float:
    """Scale for the centred (cross-unit comparison) statistic of unit j.

    With N units, subtracting the cross-unit mean changes the variance of
    unit j's centred estimate to (1 - 1/N)^2 v_j^2 + sum_{i != j} v_i^2 / N^2.
    """
    v = np.asarray(v_sqs, dtype=float)
    n = v.size
    if n < 2:
        raise SingleUnit("centred scale needs at least two units")
    if not 0 <= j < n:
        raise IndexError(f"unit index {j} out of range for {n} units")
    others = v.sum() - v[j]
    return float((1.0 - 1.0 / n) ** 2 * v[j] + others / n**2)


def sigma_c_matrix(x, grid, b: float, kernel: KernelSpec,
                   sigma_e_sq_by_grid) -> np.ndarray:
    """Correlation block of one unit's jump statistics across grid thresholds.

    Entry (i1, i2) is

        (v(c_i1) v(c_i2))^-1 T b sum_t w_t(c_i1) w_t(c_i2) sigma^2

    with w_t(c) the plus-minus weight difference at threshold c.  Written as
    a Gram matrix of the normalised weight vectors, which makes it positive
    semidefinite with a unit diagonal by construction; the per-grid variance
    levels cancel from the ratio.  Thresholds further apart than 2b have
    disjoint windows and an exactly zero entry.

    Raises
    ------
    InsufficientSupport
        Propagated from any grid point without a valid two-sided design.
    """
    x = np.asarray(x, dtype=float)
    grid = np.asarray(grid, dtype=float)
    sig = np.asarray(sigma_e_sq_by_grid, dtype=float)
    if sig.shape != grid.shape:
        raise ValueError("sigma_e_sq_by_grid must align with grid")
    if np.any(sig < 0.0):
        raise ValueError("sigma_e_sq_by_grid must be nonnegative")
    rows = []
    for c in grid:
        dw = (local_weights(x, float(c), b, kernel, "plus")
              - local_weights(x, float(c), b, kernel, "minus"))
        rows.append(dw / np.linalg.norm(dw))
    z = np.vstack(rows)
    mat = z @ z.T
    np.clip(mat, -1.0, 1.0, out=mat)
    np.fill_diagonal(mat, 1.0)
    return mat
