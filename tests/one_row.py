"""One unit through each per-unit step's row-block function.

Each helper runs its step on a block of one row built from 1-d arrays
and raises the row's InsufficientSupport (the pilot bandwidth and the
scan have none; the grid search returns it), so tests can state a step's
contract on a single unit.
"""

from __future__ import annotations

import numpy as np

from paneljump.bandwidth import DEFAULT_BOUNDS, _pilot_rows, _plugin_rows
from paneljump.errors import _raised
from paneljump.estimator import _fit_rows, _smooth_rows
from paneljump.inference import _grid_search, _scan_rows
from paneljump.kernels import _side_rows
from paneljump.variance import _window_rows


def _row(values) -> np.ndarray:
    """A 1-d sequence as a block of one row; a scalar as a one-entry vector."""
    return np.asarray(values, dtype=float)[None]


def _order(x) -> np.ndarray:
    """The stable x-order of the block of one row built from ``x``, as the
    panel front end works it out."""
    return np.argsort(_row(x), axis=1, kind="stable")


def plugin(y, x, c, kernel, bounds=DEFAULT_BOUNDS) -> float:
    """``bandwidth._plugin_rows`` for one unit."""
    return _raised(_plugin_rows(_row(y), _row(x), _order(x), _row(c), kernel, bounds)[0])


def pilot(x, b) -> float:
    """``bandwidth._pilot_rows`` for one unit."""
    return float(_pilot_rows(_row(x), _order(x), _row(b))[0])


def weights(x, c, b, kernel, side) -> np.ndarray:
    """``kernels._side_rows`` for one unit."""
    w, (error,) = _side_rows(_row(x), _row(c), _row(b), kernel, side)
    _raised(error)
    return w[0]


def jump(y, x, c, b, kernel):
    """``estimator._fit_rows`` for one unit: its _UnitJumpFit."""
    return _raised(_fit_rows(_row(y), _row(x), _row(c), _row(b), kernel)[0])


def residuals(y, x, b, kernel) -> np.ndarray:
    """``estimator._smooth_rows`` for one unit."""
    return _raised(_smooth_rows(_row(y), _row(x), _order(x), _row(b), kernel)[0])


def window_mean(resid, x, c, b, a_trunc) -> float:
    """``variance._window_rows`` for one unit."""
    return _raised(_window_rows(_row(resid), _row(x), _row(c), _row(b), a_trunc)[0])


def scan(x, y, resid, grid, b, a_trunc, floor):
    """``inference._scan_rows`` for one unit: its statistic at each grid
    point and its mask of points to solve densely."""
    t, unsure = _scan_rows(_row(y), _row(x), _order(x), _row(resid), grid, _row(b), a_trunc,
                           _row(floor))
    return t[0], unsure[0]


def search(unit, grid, b, a_trunc, resid, config):
    """``inference._grid_search`` for one unit: its (report row, correlation
    block or None), or its InsufficientSupport."""
    uid = unit.unit_id
    return _grid_search([unit], grid, {uid: _order(unit.x)[0]}, {uid: b}, {uid: resid}, a_trunc,
                        config)[uid]
