"""The package's public names: every module's ``__all__`` entries resolve
and are its own, and the full set is pinned so that adding, renaming or
removing a public name is a visible change; every function the benchmark
reports per layer that still exists is public (its tracer wraps only
``__all__`` functions); and the ``kernels`` docstring names every private
``*_rows`` function."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import paneljump

MODULES = sorted(m.name for m in pkgutil.iter_modules(paneljump.__path__))

PUBLIC = [
    "bandwidth.BandwidthPolicy",
    "cli.cli_main", "cli.main",
    "dgp.AccuracyTable", "dgp.DgpConfig", "dgp.GammaScheme", "dgp.McConfig", "dgp.RateTable",
    "dgp.gen_dgp", "dgp.run_size_power", "dgp.run_threshold_accuracy",
    "errors.ConfigError", "errors.DataError", "errors.InsufficientSupport",
    "errors.NonFiniteValue", "errors.NumericalError", "errors.PanelJumpError",
    "inference.SkippedUnit", "inference.TestConfig", "inference.TestResult",
    "inference.ThresholdSearchResult", "inference.UnitResult", "inference.critical_values",
    "inference.search_thresholds", "inference.simulate_max_gaussian",
    "inference.test_existence", "inference.test_homogeneity",
    "io.PanelSchema", "io.read_panel_csv", "io.read_threshold_csv", "io.render_report",
    "io.write_report",
    "kernels.KERNEL_KINDS", "kernels.KernelSpec",
    "panel.PanelData", "panel.PanelUnit",
    "variance.SigmaC", "variance.sigma_c_matrix",
]

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_are_defined_in_their_module(name):
    module = importlib.import_module(f"paneljump.{name}")
    assert len(set(module.__all__)) == len(module.__all__), "repeated entry"
    for attr in module.__all__:
        assert attr in vars(module), f"{name}.{attr} does not resolve"
        owner = getattr(vars(module)[attr], "__module__", module.__name__)
        assert owner == module.__name__, f"{name}.{attr} is defined in {owner}"


def test_public_names_are_pinned():
    names = sorted(f"{name}.{attr}" for name in MODULES
                   for attr in importlib.import_module(f"paneljump.{name}").__all__)
    assert names == sorted(PUBLIC)
    assert len(names) == 38


def _bench_function_fields() -> list[str]:
    """The span names of ``bench/run.py``'s ``FUNCTION_FIELDS``, read
    without importing the benchmark."""
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "FUNCTION_FIELDS" for target in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/run.py defines no FUNCTION_FIELDS")


def test_benchmarked_functions_are_public():
    """The tracer wraps only ``__all__`` functions, so a per-layer metric of a
    function that leaves ``__all__`` (or goes private under a leading
    underscore) would read nothing from then on."""
    for span in _bench_function_fields():
        layer, attr = span.split(".")
        module = importlib.import_module(f"paneljump.{layer}")
        assert not hasattr(module, f"_{attr}"), f"{span} went private"
        if hasattr(module, attr):
            assert attr in module.__all__ and inspect.isfunction(getattr(module, attr)), span


def test_kernels_docstring_lists_every_rows_function():
    doc = importlib.import_module("paneljump.kernels").__doc__
    listed = set(re.findall(r"``(_\w+_rows)``", doc))
    defined = {attr for name in MODULES
               for attr, value in vars(importlib.import_module(f"paneljump.{name}")).items()
               if re.fullmatch(r"_\w+_rows", attr) and inspect.isfunction(value)
               and value.__module__ == f"paneljump.{name}"}
    assert listed == defined
