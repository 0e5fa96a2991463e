"""Exception hierarchy.

Three families matter for callers, and the command line maps each to its
own exit code:

  * ConfigError (exit 2): an invalid argument or setting, such as a level
    outside (0, 1) or a non-finite bandwidth.  It is also a ValueError.
  * DataError (exit 3): an input file or unit is malformed or unusable.
  * NumericalError (exit 4): a computation could not be carried out on
    otherwise valid input.

Any other exception is a fault in the program, not in its input.
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
    "SingleUnit",
    "ZeroVariance",
    "AllUnitsSkipped",
    "TooFewObservations",
    "NotPositiveSemidefinite",
    "MissingColumn",
    "NonFiniteValue",
    "DuplicateKey",
    "EmptyUnit",
    "IoFailure",
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


class SingleUnit(NumericalError):
    """An operation that compares units received fewer than two."""


class ZeroVariance(NumericalError):
    """A unit carries a nonpositive variance estimate."""

    def __init__(self, unit_id: str):
        self.unit_id = unit_id
        super().__init__(f"nonpositive variance for unit {unit_id!r}")


class AllUnitsSkipped(NumericalError):
    """Every unit in the panel was skipped; no statistic can be formed."""


class TooFewObservations(NumericalError):
    """Not enough observations for bandwidth selection."""


class NotPositiveSemidefinite(NumericalError):
    """A correlation block is indefinite beyond numerical tolerance."""


class MissingColumn(DataError):
    """A required column is absent from the input file."""


class NonFiniteValue(DataError):
    """A cell failed to parse to a finite number, or a unit built in code
    holds a non-finite value; ``row`` is then the position in the unit."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"non-finite or unparseable value at row {row}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DuplicateKey(DataError):
    """The same (unit, time) pair, or the same unit id in a panel or a
    threshold file, appears more than once."""


class EmptyUnit(DataError):
    """A unit has no observations."""


class IoFailure(DataError):
    """Reading or writing a file failed at the OS level."""
