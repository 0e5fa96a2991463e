"""Panel containers.

A panel is an ordered collection of units, each carrying aligned response
and covariate arrays.  Units may have different lengths; time ordering
within a unit is the caller's concern (the CSV reader sorts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NonFiniteValue

__all__ = ["PanelUnit", "PanelData"]


@dataclass
class PanelUnit:
    unit_id: str
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.ndim != 1 or self.x.ndim != 1:
            raise ConfigError(f"unit {self.unit_id!r}: y and x must be 1-d")
        if self.y.size != self.x.size:
            raise ConfigError(
                f"unit {self.unit_id!r}: y and x lengths differ "
                f"({self.y.size} vs {self.x.size})"
            )
        if self.y.size == 0:
            raise DataError(f"unit {self.unit_id!r} has no observations")
        for name, values in (("y", self.y), ("x", self.x)):
            finite = np.isfinite(values)
            if not finite.all():
                pos = int(np.argmin(finite))
                raise NonFiniteValue(pos, f"unit {self.unit_id!r}: {name}[{pos}] = {values[pos]}")

    @property
    def n_obs(self) -> int:
        return int(self.y.size)


@dataclass
class PanelData:
    units: list[PanelUnit] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for u in self.units:
            if u.unit_id in seen:
                raise DataError(f"unit id {u.unit_id!r} appears more than once")
            seen.add(u.unit_id)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)
