"""Variance estimation for standardising jump statistics.

The error variance near the threshold is a windowed average of squared
smoothing residuals, each capped at a truncation level.  The cap is finite
when the threshold location itself is unknown, where untreated jumps would
otherwise contaminate the residuals, and infinite at a known threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientSupport, NumericalError, _raised

__all__ = [
    "SigmaC",
    "sigma_e_sq_truncated",
    "default_truncation",
    "v_sq",
    "v_tilde_sq",
    "sigma_c_matrix",
]


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


def sigma_e_sq_truncated(resid, x, c: float, b: float, a_trunc: float) -> float:
    """Windowed mean of min(a_trunc, residual^2) over the window of width b
    around c (the kernels module's window rule).

    Capping each squared residual bounds the damage from isolated large
    residuals, e.g. those produced by smoothing across an unremoved jump;
    ``a_trunc = np.inf`` gives the plain mean of squares.  NaN residuals
    (degenerate smoothing points) are excluded from both the sum and the
    count.
    """
    if not a_trunc >= 0.0:
        raise ConfigError(f"truncation level must be nonnegative, got {a_trunc}")
    if b <= 0.0:
        raise ConfigError(f"window width must be positive, got {b}")
    return _raised(_window_rows(np.asarray(resid, dtype=float)[None],
                                np.asarray(x, dtype=float)[None], np.array([c]), np.array([b]),
                                a_trunc)[0])


def _window_rows(resid, x, c, b, a_trunc: float) -> list:
    """``sigma_e_sq_truncated`` of each row at its own c and b, or the
    row's InsufficientSupport."""
    usable = (x >= (c - b)[:, None]) & (x <= (c + b)[:, None]) & np.isfinite(resid)
    return [float(np.mean(np.minimum(a_trunc, v * v))) if v.size else InsufficientSupport(
        f"no usable residuals within {float(bb)} of c={float(cc)}")
        for v, cc, bb in zip(map(np.compress, usable, resid), c, b)]


def default_truncation(pooled_resid_sq, n_comparisons: int) -> float:
    """Default truncation level from pooled squared residuals.

    Scales the pooled median by max(9, sqrt(log n)) for n comparisons,
    which is 9 for every n below e^81 (about 1.5e35), so in practice the
    comparison count never moves the level.  A zero median (noiseless
    data) disables truncation entirely.
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


def v_tilde_sq(v_sqs) -> np.ndarray:
    """Scales for the centred (cross-unit comparison) statistics of all units.

    With N units, subtracting the cross-unit mean changes the variance of
    unit j's centred estimate to (1 - 1/N)^2 v_j^2 + sum_{i != j} v_i^2 / N^2.
    """
    v = np.asarray(v_sqs, dtype=float)
    n = v.size
    if n < 2:
        raise NumericalError("centred scale needs at least two units")
    others = v.sum() - v
    return (1.0 - 1.0 / n) ** 2 * v + others / n**2


def sigma_c_matrix(w_diffs) -> np.ndarray:
    """Correlation block of one unit's jump statistics across grid thresholds.

    ``w_diffs`` holds one row per valid grid point: the weight difference
    w_plus - w_minus of the jump fit at that threshold.  Entry (i1, i2) is

        (v(c_i1) v(c_i2))^-1 T b sum_t w_t(c_i1) w_t(c_i2) sigma^2

    written as a Gram matrix of the normalised rows, which makes it positive
    semidefinite with a unit diagonal by construction; the per-grid variance
    levels cancel from the ratio.  Thresholds further apart than 2b have
    disjoint windows and an exactly zero entry.
    """
    z = np.vstack([dw / np.linalg.norm(dw) for dw in w_diffs])
    mat = z @ z.T
    np.clip(mat, -1.0, 1.0, out=mat)
    np.fill_diagonal(mat, 1.0)
    return mat
