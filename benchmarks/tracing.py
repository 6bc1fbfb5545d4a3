"""Spans around the calls into each spinsync layer, recorded from outside.

The layers are the package modules.  Every public function a layer defines
is wrapped wherever any spinsync module binds that same function object
(`solve_linear`, for example, is also bound inside `liouvillian`), so calls
between layers are seen at the boundary.  Spans stay in memory as
(function, start, end, parent span, unit) and are written out when the run
ends; times are process CPU nanoseconds, like the end-to-end timings.  A
function that a later version of the package drops is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "spinsync"
LAYERS = ("operators", "liouvillian", "phasespace", "correlations",
          "first_order", "sweep", "cli")

# Functions the per-layer table always names, present or not.
LISTED = (
    "liouvillian.build_generator", "liouvillian.steady_state", "liouvillian.evolve",
    "operators.solve_linear", "operators.validate_density_matrix",
    "phasespace.s_rel", "correlations.negativity", "correlations.mutual_information",
    "correlations.purity", "correlations.schmidt_analysis", "first_order.coherences",
    "sweep.evaluate_point", "sweep.write_sweep_csv", "sweep.write_dynamics_csv",
    "sweep.linear_regression", "cli.build_parser", "cli.load_config", "cli.main",
)


class Tracer:
    """Wraps layer functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.errors: Counter = Counter()
        self.unit = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[(fid, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.unit)

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._register(f"{layer}.{name}", obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _register(self, qualname: str, fn):
        self.names.append(qualname)
        return self._wrap(len(self.names) - 1, fn)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def dump(self, path: str) -> None:
        payload = {
            "names": self.names,
            "fields": ["function", "start_cpu_ns", "end_cpu_ns", "parent", "unit"],
            "spans": [s for s in self.spans if s is not None],
            "errors": [[self.names[f], exc, n] for (f, exc), n in self.errors.items()],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def load(path: str) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def summarize(trace: dict) -> dict:
    """Per-function and per-layer calls and self time; root span time."""
    names = trace["names"]
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    calls = Counter()
    self_ns = Counter()
    root_ns = 0
    for fid, start, end, parent, _unit in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        else:
            root_ns += end - start
    for i, (fid, start, end, _parent, _unit) in enumerate(spans):
        calls[names[fid]] += 1
        self_ns[names[fid]] += end - start - child_ns[i]
    functions = {name: {"calls": calls[name], "self_s": self_ns[name] * 1e-9}
                 for name in names}
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, row in functions.items():
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]
    errors = Counter()
    for name, exc, n in trace["errors"]:
        errors[(name, exc)] += n
    return {"functions": functions, "layers": layers, "root_s": root_ns * 1e-9,
            "absent": [name for name in LISTED if name not in functions],
            "errors": errors}
