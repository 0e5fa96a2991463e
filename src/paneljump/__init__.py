"""Jump (threshold) effect estimation and simultaneous max-type tests for
heterogeneous nonparametric panel regressions."""

__version__ = "0.1.0"
