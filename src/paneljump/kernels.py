"""Kernels and one-sided local linear threshold weights.

Conventions used throughout:
  * the window rule: an observation x is in the window of width b around
    c when fl(c - b) <= x <= fl(c + b), the bounds rounded once; every
    windowed computation (one-sided weights, windowed variance, residual
    smoothing and the grid-search scan) tests these same bounds, so a
    ``searchsorted`` on them (``_edges``) finds exactly the dense windows;
  * the plus side is x >= c and the minus side is x < c, which puts a
    point sitting exactly on the threshold on the plus side;
  * kernels live on [-1, 1] with the endpoints included, and inside the
    window they are evaluated at clip((x - c) / b, -1, 1);
  * weights are returned as full-length vectors, zero off the own side;
  * each per-unit step is one private ``*_rows`` function that solves a
    block of equal-length units, one row each, by row sums and stacked
    one-row products, so each row is bit-identical to a block of that row
    alone; a row the step cannot serve gets its InsufficientSupport in
    place of a result: ``_plugin_rows``, ``_pilot_rows``, ``_side_rows``,
    ``_fit_rows``, ``_smooth_rows``, ``_window_rows``, ``_analyze_rows``
    (a known-threshold report row), and the grid search's ``_scan_rows``,
    which marks unusable points NaN; the simulator's ``_ma_rows`` draws
    noise rows and is no step.  A step that needs sorted covariates takes
    the block's stable x-order, worked out once per panel test by
    ``inference._front_end``, and none of them sorts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientSupport

__all__ = ["KERNEL_KINDS", "KernelSpec"]

KERNEL_KINDS = ("uniform", "triangular", "epanechnikov")


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric, nonnegative kernel supported on [-1, 1].

    Parameters
    ----------
    kind : str
        One of ``uniform``, ``triangular``, ``epanechnikov``.
    """

    kind: str = "uniform"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(
                f"unknown kernel {self.kind!r}; expected one of {KERNEL_KINDS}"
            )


def _eval_kernel(kernel: KernelSpec, u) -> np.ndarray:
    """Evaluate the kernel elementwise at ``u``, zero outside [-1, 1].

    The support is closed: ``|u| == 1`` is inside.
    """
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= 1.0
    if kernel.kind == "uniform":
        return np.where(inside, 0.5, 0.0)
    if kernel.kind == "triangular":
        return np.where(inside, 1.0 - np.abs(arr), 0.0)
    return np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)  # epanechnikov


def denominator_floor(s0, s2):
    """Relative floor below which the local design is treated as singular.

    Works elementwise on arrays, so the smoothing paths share it.
    """
    return 1e-12 * np.maximum(1.0, s0 * s2)


def _edges(xs, at, side: str) -> np.ndarray:
    """Each row's ``searchsorted`` of its points ``at`` in its sorted ``xs``,
    as (rows, points): ``left`` for a window's first point at a lower
    bound, ``right`` for the end past its last at an upper bound."""
    return np.array([np.searchsorted(s, a, side) for s, a in zip(xs, at)])


def _recentred(u, n, m1, m2, r0, r1):
    """A window's sums of d, d^2 and d y about the evaluation point u
    (d = x - u), from its count n and its sums of x, x^2, y and x y, with
    x and u taken about one common centre."""
    return m1 - u * n, m2 - 2 * u * m1 + u * u * n, r1 - u * r0


def _side_rows(x, c, b, kernel: KernelSpec, side: str):
    """Local linear weights for the boundary value of each row's regression
    at its own c and bandwidth b, from one side (``plus`` or ``minus``).

    The weight of observation t is

        w_t = K_t [S_2 - (x_t - c) S_1] / (S_2 S_0 - S_1^2)

    restricted to the side, where K_t is the kernel factor and S_l are
    the side sums.  The weights reproduce any affine function of x
    exactly: they sum to one and are orthogonal to (x - c).

    Returns the weight rows, full length and zero off the side
    (meaningless where a row fails), and each row's error or None: an
    InsufficientSupport naming the side when fewer than two distinct
    covariate values carry kernel weight on it, or when the design
    denominator is not above its floor (a NaN denominator included).
    """
    c, b = c[:, None], b[:, None]
    mask = (x >= c) & (x <= c + b) if side == "plus" else (x < c) & (x >= c - b)
    d = np.where(mask, x - c, 0.0)  # zero off the window, so d * d stays finite there
    kw = np.where(mask, _eval_kernel(kernel, np.clip(d / b, -1.0, 1.0)), 0.0)
    carried = kw > 0.0
    distinct = np.where(carried, x, np.inf).min(1) < np.where(carried, x, -np.inf).max(1)
    s0 = kw.sum(1, keepdims=True)
    s1 = (kw[:, None] @ d[..., None])[:, 0]
    s2 = (kw[:, None] @ (d * d)[..., None])[:, 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = s2 * s0 - s1 * s1
        solvable = (den > denominator_floor(s0, s2))[:, 0]  # also rejects a NaN den
        w = kw * (s2 - d * s1) / den
    return w, [None if ok else InsufficientSupport(
        f"insufficient support on {side} side: "
        + ("singular local design" if two else "fewer than 2 distinct in-support points"))
        for two, ok in zip(distinct, distinct & solvable)]
