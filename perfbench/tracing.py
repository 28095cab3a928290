"""Spans around the calls the CLI makes into each package module.

The tracer replaces, for the duration of a traced pass, every public
belllab function that ``belllab.cli`` holds in its namespace (its own
``main`` and ``load_scenario`` plus everything it imported from the other
modules) and ``belllab.search.evaluate_point``, which refinement calls once
per probe.  Each call records a span: name ("module.function"), start, end,
parent span, command id, and a work count where the result carries one
(lattice points of a grid scan, evaluations of a refinement).

Spans stay in memory until the pass ends, then go to a JSON-lines side
file; the per-layer figures are computed from that file.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "search", "lhv", "inequalities", "quantum", "geometry")

#: The CLI's own functions that are reached through its module namespace.
CLI_OWN = ("main", "load_scenario")

#: Functions whose result reports how much work the call did.
COUNTED = {"search.grid_search", "search.refine"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = [span_id, name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.command, None]
            self.spans.append(span)
            self._stack.append(span_id)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counted:
                span[6] = result.evaluations
            return result

        return traced

    def install(self, cli_module, search_module):
        """Patch the traced names in place; returns a function that restores them."""
        patched = []
        for attr, value in list(vars(cli_module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            module = value.__module__ or ""
            own = module == cli_module.__name__
            if not module.startswith("belllab.") or (own and attr not in CLI_OWN):
                continue
            patched.append((cli_module, attr, value))
        patched.append((search_module, "evaluate_point", search_module.evaluate_point))
        for owner, attr, value in patched:
            layer = value.__module__.rsplit(".", 1)[-1]
            setattr(owner, attr, self.wrap(f"{layer}.{value.__name__}", value))

        def restore():
            for owner, attr, value in patched:
                setattr(owner, attr, value)

        return restore

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _covered(interval, children) -> float:
    """Length of the union of child intervals, clipped to the parent interval."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list[list]) -> dict:
    """Per-function calls, total and self seconds, work counts; per-layer self seconds."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    functions = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    layers = {layer: 0.0 for layer in LAYERS}
    for span_id, name, start, end, _, _, count in spans:
        duration = end - start
        self_s = duration - _covered((start, end), children.get(span_id, ()))
        entry = functions[name]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += self_s
        entry["count"] += count or 0
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return {"functions": dict(functions), "layers": layers}


def per_layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""
    functions = summary["functions"]

    def get(name, key):
        return functions.get(name, {}).get(key, 0)

    def us_per_call(name):
        calls = get(name, "calls")
        return get(name, "s") / calls * 1e6 if calls else 0.0

    points = get("search.grid_search", "count")
    metrics = {
        "search.grid_search.calls": (get("search.grid_search", "calls"), "count"),
        "search.grid_search.s": (get("search.grid_search", "s"), "s"),
        "search.grid_search.points": (points, "count"),
        "search.grid_search.ns_per_point": (
            get("search.grid_search", "s") / points * 1e9 if points else 0.0, "ns"),
        "search.refine.s": (get("search.refine", "s"), "s"),
        "search.refine.evaluations": (get("search.refine", "count"), "count"),
        "search.sweep.calls": (get("search.sweep", "calls"), "count"),
        "search.sweep.s": (get("search.sweep", "s"), "s"),
    }
    for name in ("search.evaluate_point", "lhv.random_model", "lhv.lhv_profile",
                 "inequalities.verdict_for_profile", "quantum.epr_profile",
                 "quantum.ghz_profile", "inequalities.epr_profile_from_dots",
                 "geometry.realizability_report", "cli.load_scenario"):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
        metrics[f"{name}.us_per_call"] = (us_per_call(name), "us")
    metrics["cli.main.calls"] = (get("cli.main", "calls"), "count")
    metrics["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (summary["layers"].get(layer, 0.0), "s")
    metrics["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
    return metrics
