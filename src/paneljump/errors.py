"""Exception hierarchy.

Three families matter for callers, and the command line maps each to its
own exit code:

  * ConfigError (exit 2): an invalid argument or setting, such as a level
    outside (0, 1) or a non-finite bandwidth.  It is also a ValueError.
  * DataError (exit 3): an input file or unit is malformed or unusable.
  * NumericalError (exit 4): a computation could not be carried out on
    otherwise valid input.

Settings pass one of two type rules before any range check, so a wrong
type is a ConfigError and never a TypeError from later arithmetic:
``_check_int`` for seeds and counts, ``_check_real`` for real numbers.

Any other exception is a fault in the program, not in its input.

A failure gets its own subclass only when code tells it apart from the
rest of its family: either ``src/`` tests for it by type, or its
constructor formats a message that many raise sites share (NonFiniteValue,
with its ``row``).  The one class tested for is InsufficientSupport, the
per-unit skip: a per-unit step (bandwidth selection, the jump fit, residual
smoothing, the windowed variance, a unit's grid search) returns it in place
of the unit's result when its data cannot support the step, and
``inference._kept`` skips the unit with the message as the reason, in panel
order, raising any other stored error.  Every other failure raises its
family class with a message that names it.
"""

from __future__ import annotations

from numbers import Integral, Real

__all__ = [
    "PanelJumpError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "InsufficientSupport",
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
    """One unit has too little data for a per-unit step; the panel tests
    skip the unit and give the message as the reason."""


class NonFiniteValue(DataError):
    """A cell failed to parse to a finite number, or a unit built in code
    holds a non-finite value; ``row`` is then the position in the unit."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"non-finite or unparseable value at row {row}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _raised(value):
    """``value``, or raised if it is the exception a row block kept for a row."""
    if isinstance(value, PanelJumpError):
        raise value
    return value


def _check_int(value, name: str, low: int = 0) -> None:
    """The one rule for seeds and counts: a Python or numpy integer, not a
    bool, of at least ``low`` (0 or 1), else a ConfigError naming ``name``."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= low):
        need = "a nonnegative integer" if low == 0 else "positive and an integer"
        raise ConfigError(f"{name} must be {need}, got {value!r}")


def _check_real(value, name: str) -> float:
    """The one rule for real-valued settings: a Python or numpy real number,
    not a bool, else a ConfigError naming ``name``.  Returns it as a float;
    range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)
