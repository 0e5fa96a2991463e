"""Kernels and one-sided local linear threshold weights.

Conventions used throughout:
  * kernels live on [-1, 1] with the endpoints included, so a point at
    exactly distance b from the centre still contributes;
  * the plus side is x >= c and the minus side is x < c, which puts a
    point sitting exactly on the threshold on the plus side;
  * weights are returned as full-length vectors, zero off the own side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSupport

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "KernelMoments",
    "eval_kernel",
    "kernel_moments",
    "local_weights",
]

KERNEL_KINDS = ("uniform", "triangular", "epanechnikov")

# int_0^1 u^l K(u) du for l = 0, 1, 2.  The minus-side moments follow from
# symmetry: the odd moment flips sign.
_PLUS_MOMENTS = {
    "uniform": (0.5, 0.25, 1.0 / 6.0),
    "triangular": (0.5, 1.0 / 6.0, 1.0 / 12.0),
    "epanechnikov": (0.5, 0.1875, 0.1),
}


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
            raise ValueError(
                f"unknown kernel {self.kind!r}; expected one of {KERNEL_KINDS}"
            )


@dataclass(frozen=True)
class KernelMoments:
    """One-sided kernel moments of order 0, 1, 2 over each half support."""

    plus: tuple[float, float, float]
    minus: tuple[float, float, float]


def eval_kernel(kernel: KernelSpec, u):
    """Evaluate the kernel at ``u`` (scalar or array), zero outside [-1, 1].

    The support is closed: ``|u| == 1`` is inside.  Only the uniform kernel
    is discontinuous there, and including the endpoint keeps window
    membership consistent with the side sums.
    """
    arr = np.asarray(u, dtype=float)
    inside = np.abs(arr) <= 1.0
    if kernel.kind == "uniform":
        out = np.where(inside, 0.5, 0.0)
    elif kernel.kind == "triangular":
        out = np.where(inside, 1.0 - np.abs(arr), 0.0)
    else:  # epanechnikov
        out = np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


def kernel_moments(kernel: KernelSpec) -> KernelMoments:
    """Closed-form one-sided moments for the built-in kernels."""
    k0, k1, k2 = _PLUS_MOMENTS[kernel.kind]
    return KernelMoments(plus=(k0, k1, k2), minus=(k0, -k1, k2))


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
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    if b <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {b}")
    x = np.asarray(x, dtype=float)
    d = x - c
    mask = d >= 0.0 if side == "plus" else d < 0.0
    kw = np.where(mask, eval_kernel(kernel, d / b), 0.0)
    support = kw > 0.0
    if np.unique(x[support]).size < 2:
        raise InsufficientSupport(side, "fewer than 2 distinct in-support points")
    s0 = float(kw.sum())
    s1 = float(kw @ d)
    s2 = float(kw @ (d * d))
    den = s2 * s0 - s1 * s1
    if den <= denominator_floor(s0, s2):
        raise InsufficientSupport(side, "singular local design")
    return kw * (s2 - d * s1) / den
