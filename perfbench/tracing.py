"""Spans around the public functions of each ds2aw module, and the
per-layer metrics made from them.

Run as a drop-in for ``python -m ds2aw.cli``:

    python3 perfbench/tracing.py SPANS.json -- evolve-fg --config c.json --out d

It wraps every public function defined in the layer modules, rebinds each
name wherever a ds2aw module imported it, runs the CLI, and writes the
spans to SPANS.json.  Spans are kept in memory until the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("config", "modes", "curve", "theta", "fieldgen", "refsolver", "fieldio", "cli")


def _theta_extra(args, result):
    z = args["z"]
    shape = getattr(z, "shape", None) or (len(z),)
    return {"points": math.prod(shape[:-1]), "radius": args["params"].truncation_radius}


def _grid_extra(args, result):
    snaps = len(args["times"])
    return {"snapshots": snaps, "points": snaps * args["nx"] * args["ny"]}


def _written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Counts taken at the boundary where the work happens, keyed by
# (layer, function); each reads the bound arguments and the result.
EXTRAS = {
    ("theta", "theta"): _theta_extra,
    ("fieldgen", "evaluate_grid"): _grid_extra,
    ("curve", "build_spectral_data"): lambda args, sd: {"genus": sd.g},
    ("fieldio", "write_field_bin"): _written,
    ("fieldio", "write_field_csv"): _written,
}


class Recorder:
    """Spans as [layer, function, start, end, thread, parent, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer: str, name: str, fn):
        extra = EXTRAS.get((layer, name))
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [layer, name, 0.0, 0.0, threading.get_ident(),
                    stack[-1] if stack else -1, None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[6] = extra(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ds2aw.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "ds2aw" or modname.startswith("ds2aw."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _measure(intervals) -> float:
    return sum(b - a for a, b in _union(intervals))


def _clip(intervals, lo: float, hi: float):
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def process_metrics(spans: list[list]) -> dict:
    """Per-layer sums for one CLI process."""
    kids = defaultdict(list)
    for s in spans:
        if s[5] >= 0:
            kids[s[5]].append((s[2], s[3]))
    exclusive = defaultdict(list)  # layer -> intervals with no other span open below
    for i, s in enumerate(spans):
        cur = s[2]
        for a, b in _union(kids[i]):
            if a > cur:
                exclusive[s[0]].append((cur, a))
            cur = max(cur, b)
        if s[3] > cur:
            exclusive[s[0]].append((cur, s[3]))

    def calls(layer, name):
        return [s for s in spans if s[0] == layer and s[1] == name]

    def total(layer, name):
        return sum(s[3] - s[2] for s in calls(layer, name))

    m = defaultdict(float)
    theta_calls = calls("theta", "theta")
    theta_spans = [(s[2], s[3]) for s in spans if s[0] == "theta"]
    if theta_calls:
        first = min(theta_calls, key=lambda s: s[2])
        m["theta.first_call_s"] = first[3] - first[2]
    m["theta.self_s"] = _measure(exclusive["theta"])
    m["theta.points"] = sum(s[6]["points"] for s in theta_calls)
    m["theta.calls"] = len(theta_calls)
    m["theta.radius_M"] = max((s[6]["radius"] for s in theta_calls), default=0)

    grids = calls("fieldgen", "evaluate_grid")
    m["fieldgen.grid_s"] = total("fieldgen", "evaluate_grid")
    m["fieldgen.params_s"] = total("fieldgen", "default_theta_params")
    m["fieldgen.snapshots"] = sum(s[6]["snapshots"] for s in grids)
    m["fieldgen.points"] = sum(s[6]["points"] for s in grids)
    m["fieldgen.overhead_s"] = sum(
        (g[3] - g[2]) - _measure(_clip(theta_spans, g[2], g[3])) for g in grids
    )

    steps = calls("refsolver", "step")
    m["refsolver.evolve_s"] = total("refsolver", "evolve")
    m["refsolver.steps"] = len(steps)
    m["refsolver.step_total_s"] = sum(s[3] - s[2] for s in steps)

    for key, name in (("write_csv_s", "write_field_csv"), ("read_csv_s", "read_field_csv"),
                      ("write_bin_s", "write_field_bin"), ("read_bin_s", "read_field_bin")):
        m[f"fieldio.{key}"] = total("fieldio", name)
    m["fieldio.bytes_written"] = sum(
        s[6]["bytes"] for s in spans if s[0] == "fieldio" and s[6] and "bytes" in s[6]
    )

    m["curve.build_s"] = total("curve", "build_spectral_data")
    m["curve.genus"] = max((s[6]["genus"] for s in calls("curve", "build_spectral_data")),
                           default=0)
    m["modes.census_s"] = _measure(exclusive["modes"])
    m["config.load_s"] = total("config", "load_config")
    m["cli.self_s"] = _measure(exclusive["cli"])
    return m


MAXED = ("theta.radius_M", "curve.genus")


def round_metrics(per_process: list[dict]) -> dict:
    """Sum the processes of one round, then form the ratios."""
    m = defaultdict(float)
    for pm in per_process:
        for key, value in pm.items():
            m[key] = max(m[key], value) if key in MAXED else m[key] + value
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m["theta.points_per_s"] = ratio(m["theta.points"], m["theta.self_s"])
    m["fieldgen.snapshot_s"] = ratio(m["fieldgen.grid_s"], m["fieldgen.snapshots"])
    m["fieldgen.points_per_s"] = ratio(m["fieldgen.points"], m["fieldgen.grid_s"])
    m["refsolver.step_us"] = 1e6 * ratio(m["refsolver.step_total_s"], m["refsolver.steps"])
    return dict(m)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracing.py SPANS.json -- <ds2aw arguments>\n")
        return 2
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("ds2aw.cli")
    try:
        return cli.main(argv[2:])
    finally:
        Path(argv[0]).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
