"""Spans around calls into the paneljump layers, recorded from outside.

``install`` wraps every public function of the layer modules and rebinds
the wrapper in each ``paneljump.*`` namespace that holds the original, so
calls between modules are caught too.  Private helpers stay unwrapped;
their time shows as self time of the public function that calls them.

A span is ``[id, parent, pass_id, name, start, end, failed, counts]``.
Spans stay in memory until the run ends; ``summarize`` turns them into
per-pass totals per function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "io", "bandwidth", "kernels", "estimator", "variance",
          "inference", "dgp")


def _count_tests(args, result):
    return {"units_attempted": len(args["panel"]), "units_skipped": len(result.skipped)}


def _count_search(args, result):
    # Imported here, not at the top, so that run.py's timed import of
    # paneljump still includes numpy.
    import numpy as np

    counts = _count_tests(args, result)
    counts["grid_points"] = len(args["panel"]) * int(result.grid.size)
    counts["grid_valid"] = sum(int(np.isfinite(u.stats).sum()) for u in result.per_unit)
    return counts


def _count_draws(args, result):
    sigma_c = args.get("sigma_c")
    n = sigma_c.n_comparisons if sigma_c is not None else args["n_comparisons"]
    return {"draws": int(result.size) * int(n)}


# Work counters taken from a call's arguments and result.
COUNTERS = {
    "io.read_panel_csv": lambda args, result: {"rows": sum(u.n_obs for u in result)},
    "io.write_report": lambda args, result: {"bytes": len(result.encode("utf-8"))},
    "inference.simulate_max_gaussian": _count_draws,
    "inference.test_existence": _count_tests,
    "inference.test_homogeneity": _count_tests,
    "inference.search_thresholds": _count_search,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.pass_id,
                    name, clock(), None, False, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = clock()
                span[6] = True
                raise
            finally:
                stack.pop()
            span[5] = clock()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[7] = counter(bound.arguments, result)
            return result

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "extra": extra or {}}, fh)


def _layer_functions():
    """(span name, function) for each public function defined in a layer."""
    for layer in LAYERS:
        module = sys.modules[f"paneljump.{layer}"]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if callable(obj) and not isinstance(obj, type) \
                    and getattr(obj, "__module__", None) == module.__name__:
                yield f"{layer}.{attr}", obj


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the layer functions; returns the bindings that ``uninstall`` restores."""
    import paneljump.cli  # noqa: F401  (imports every layer module)

    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in _layer_functions()}
    bindings = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "paneljump" and not mod_name.startswith("paneljump."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                bindings.append((module, attr, value))
    return bindings


def uninstall(bindings: list[tuple]) -> None:
    for module, attr, original in bindings:
        setattr(module, attr, original)


def summarize(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per pass, per function: s, self_s, calls, failed and summed counters.

    Self time is a span's duration minus the durations of its direct child
    spans; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    out: dict[int, dict[str, dict[str, float]]] = {}
    for span, inner in zip(spans, child_time):
        _, _, pass_id, name, start, end, failed, counts = span
        row = out.setdefault(pass_id, {}).setdefault(
            name, {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
        row["s"] += end - start
        row["self_s"] += end - start - inner
        row["calls"] += 1
        row["failed"] += int(failed)
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def merge(into: dict, other: dict) -> None:
    """Add the per-pass totals of ``other`` into ``into``."""
    for pass_id, rows in other.items():
        target = into.setdefault(pass_id, {})
        for name, row in rows.items():
            dest = target.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                dest[key] = dest.get(key, 0) + value
