"""Kernels and one-sided local linear threshold weights.

Conventions used throughout:
  * the window rule: an observation x is in the window of width b around
    c when fl(c - b) <= x <= fl(c + b), the bounds rounded once; every
    windowed computation (one-sided weights, windowed variance, residual
    smoothing and the grid-search scan) tests these same bounds, so a
    ``searchsorted`` on them finds exactly the dense windows;
  * the plus side is x >= c and the minus side is x < c, which puts a
    point sitting exactly on the threshold on the plus side;
  * kernels live on [-1, 1] with the endpoints included, and inside the
    window they are evaluated at clip((x - c) / b, -1, 1);
  * weights are returned as full-length vectors, zero off the own side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientSupport

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "eval_kernel",
    "local_weights",
]

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


def eval_kernel(kernel: KernelSpec, u) -> np.ndarray:
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


def local_weights(x, c: float, b: float, kernel: KernelSpec, side: str) -> np.ndarray:
    """Local linear weights for the boundary value of the regression at c.

    The weight of observation t is

        w_t = K_t [S_2 - (x_t - c) S_1] / (S_2 S_0 - S_1^2)

    restricted to the requested side, where K_t is the kernel factor and
    S_l are the side sums.  The weights reproduce any affine function of x
    exactly: they sum to one and are orthogonal to (x - c).

    Returns
    -------
    numpy.ndarray
        Vector of the same length as ``x``; zero off the own side.

    Raises
    ------
    InsufficientSupport
        If fewer than two distinct covariate values carry kernel weight on
        the requested side, or the design denominator falls below its floor.
    """
    if side not in ("plus", "minus"):
        raise ConfigError(f"side must be 'plus' or 'minus', got {side!r}")
    if b <= 0.0:
        raise ConfigError(f"bandwidth must be positive, got {b}")
    x = np.asarray(x, dtype=float)
    d = x - c
    mask = (x >= c) & (x <= c + b) if side == "plus" else (x < c) & (x >= c - b)
    kw = np.zeros_like(d)
    kw[mask] = eval_kernel(kernel, np.clip(d[mask] / b, -1.0, 1.0))
    support = x[kw > 0.0]
    if support.size == 0 or support.min() == support.max():
        raise InsufficientSupport(side, "fewer than 2 distinct in-support points")
    s0 = float(kw.sum())
    s1 = float(kw @ d)
    s2 = float(kw @ (d * d))
    den = s2 * s0 - s1 * s1
    if den <= denominator_floor(s0, s2):
        raise InsufficientSupport(side, "singular local design")
    return kw * (s2 - d * s1) / den
