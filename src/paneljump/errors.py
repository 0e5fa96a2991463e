"""Exception hierarchy.

Three families matter for callers, and the command line maps each to its
own exit code:

  * ConfigError (exit 2): an invalid argument or setting, such as a level
    outside (0, 1) or a non-finite bandwidth.  It is also a ValueError.
  * DataError (exit 3): an input file or unit is malformed or unusable.
  * NumericalError (exit 4): a computation could not be carried out on
    otherwise valid input.

Any other exception is a fault in the program, not in its input.

A failure gets its own subclass only when code tells it apart from the
rest of its family: either ``src/`` catches it by type (the per-unit skips
InsufficientSupport, EmptyWindow and DegenerateEverywhere, and
TooFewObservations), or its constructor formats a message that many raise
sites share (NonFiniteValue, with its ``row``).  Every other failure raises
its family class with a message that names it.
"""

from __future__ import annotations

__all__ = [
    "PanelJumpError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "InsufficientSupport",
    "DegenerateEverywhere",
    "EmptyWindow",
    "TooFewObservations",
    "NonFiniteValue",
]


class PanelJumpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PanelJumpError, ValueError):
    """An argument or setting is invalid."""


class DataError(PanelJumpError):
    """Input data is malformed or unusable."""


class NumericalError(PanelJumpError):
    """A computation failed on otherwise valid input."""


class InsufficientSupport(NumericalError):
    """Too little kernel support on one side of the threshold.

    Raised when fewer than two distinct covariate values fall inside the
    kernel window on the requested side, or when the local design matrix is
    numerically singular.
    """

    def __init__(self, side: str, detail: str = ""):
        self.side = side
        msg = f"insufficient support on {side} side"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegenerateEverywhere(NumericalError):
    """Residual smoothing failed at every sample point."""


class EmptyWindow(NumericalError):
    """No usable residuals inside the variance window."""


class TooFewObservations(NumericalError):
    """Not enough observations for bandwidth selection."""


class NonFiniteValue(DataError):
    """A cell failed to parse to a finite number, or a unit built in code
    holds a non-finite value; ``row`` is then the position in the unit."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"non-finite or unparseable value at row {row}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
