"""Span tracing of mvspectral's layers from outside the package.

The tracer wraps every public function of the layer modules (and the public
classmethods of their classes, such as ``ViewGraph.from_weights``) by
rebinding each name in every ``mvspectral`` module namespace that holds it.
Calls between modules go through those module-level names, so a call from
``multiview`` into ``eigen.generalized_eig`` is seen as well as a call made
by the benchmark.  Nothing in the package itself is edited.

Each call becomes a span ``(id, parent, name, start, end, op)``.  A span's
self time is its duration minus the durations of its direct children; the
children of one span run one after another, so their durations never
overlap.  A function that calls itself through its module name (for
example ``io.to_jsonable``) is one span, not one per level.  Spans stay in
memory and are written out by ``write_jsonl`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("io", "graphs", "eigen", "multiview", "jdl", "clustering", "experiments", "cli")

# Spans counted when they run inside an ancestor span:
# descendant -> (ancestor, counter).
NESTED_COUNTERS = {
    "eigen.generalized_eig": ("multiview.aasc_weights", "multiview.aasc_weights.eigensolves"),
}


class _Frame:
    __slots__ = ("span_id", "name", "start", "child_s")

    def __init__(self, span_id, name, start):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans, per-name self time and counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self._patched = []

    def reset_round(self) -> None:
        """Start a fresh set of per-name totals (spans are kept)."""
        self.calls = {}
        self.self_s = {}
        self.counters = {}

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str, op=None) -> _Frame:
        frame = _Frame(len(self.spans) + len(self.stack), name, time.perf_counter())
        if op is not None:
            self.op = op
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += duration
        self.spans.append((frame.span_id, parent.span_id if parent else None, frame.name,
                           frame.start, end, self.op))
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        self.self_s[frame.name] = self.self_s.get(frame.name, 0.0) + duration - frame.child_s
        nested = NESTED_COUNTERS.get(frame.name)
        if nested is not None and any(f.name == nested[0] for f in self.stack):
            self.count(nested[1], 1)

    def _wrap(self, name: str, func, hook=None):
        tracer = self
        takes_track = _accepts(func, "track")

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.stack and tracer.stack[-1].name == name:
                return func(*args, **kwargs)
            track = None
            if takes_track and "track" not in kwargs and len(args) < 5:
                track = kwargs["track"] = []
            frame = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, track)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public layer function in every mvspectral namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "mvspectral" or key.startswith("mvspectral.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"mvspectral.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, obj, HOOKS.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patched.append((holder, key, obj))
                            setattr(holder, key, wrapped)
            for cls in list(vars(mod).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") or not isinstance(raw, classmethod):
                        continue
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, raw.__func__, HOOKS.get(name))
                    self._patched.append((cls, attr, raw))
                    setattr(cls, attr, classmethod(wrapped))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end, op in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")


def _accepts(func, parameter: str) -> bool:
    try:
        return parameter in inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False


def _argument(args, kwargs, index: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[index]


def _bytes_read(tracer, args, kwargs, result, track):
    tracer.count("io.read_matrix_csv.bytes", os.path.getsize(_argument(args, kwargs, 0, "path")))


def _bytes_written(tracer, args, kwargs, result, track):
    tracer.count("io.write_matrix_csv.bytes", os.path.getsize(_argument(args, kwargs, 1, "path")))


def _aasc_trace(tracer, args, kwargs, result, track):
    tracer.count("multiview.aasc_weights.trace_len", len(result[2]))


def _jdl_sweeps(tracer, args, kwargs, result, track):
    tracer.count("jdl.sweeps", getattr(result, "sweeps_run", 0))
    tracer.count("jdl.reorthonormalizations", getattr(result, "reorthonormalizations", 0))


def _lloyd_iterations(tracer, args, kwargs, result, track):
    # ``track`` holds the objective after initialization and after each
    # Lloyd iteration.
    if track:
        tracer.count("clustering.kmeans.lloyd_iterations", len(track) - 1)


HOOKS = {
    "io.read_matrix_csv": _bytes_read,
    "io.write_matrix_csv": _bytes_written,
    "multiview.aasc_weights": _aasc_trace,
    "jdl.joint_diagonalize": _jdl_sweeps,
    "clustering.kmeans": _lloyd_iterations,
}


def round_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round, keyed by metric name."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters

    def rate(layer: str) -> float:
        seconds = self_s.get(layer, 0.0)
        return counters.get(f"{layer}.bytes", 0) / 1e6 / seconds if seconds > 0 else 0.0

    sweeps = counters.get("jdl.sweeps", 0)
    values = {
        "io.read_matrix_csv.MB_per_s": rate("io.read_matrix_csv"),
        "io.write_matrix_csv.MB_per_s": rate("io.write_matrix_csv"),
        "jdl.s_per_sweep": (self_s.get("jdl.joint_diagonalize_matrices", 0.0) / sweeps
                            if sweeps else 0.0),
    }
    for metric in PER_LAYER:
        if metric in values or metric == "trace.overhead_s":
            continue
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(layer, 0)
        elif field == "self_s":
            values[metric] = self_s.get(layer, 0.0)
        else:
            values[metric] = counters.get(metric, 0)
    return values


# name -> (unit, better); must match "per_layer" in BENCHMARK.json.
PER_LAYER = {
    "io.read_matrix_csv.calls": ("count", "lower"),
    "io.read_matrix_csv.self_s": ("s", "lower"),
    "io.read_matrix_csv.MB_per_s": ("MB/s", "higher"),
    "io.write_matrix_csv.self_s": ("s", "lower"),
    "io.write_matrix_csv.MB_per_s": ("MB/s", "higher"),
    "io.load_views.self_s": ("s", "lower"),
    "io.dump_json.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "graphs.from_weights.calls": ("count", "lower"),
    "graphs.from_weights.self_s": ("s", "lower"),
    "graphs.graph_from_timeseries.self_s": ("s", "lower"),
    "graphs.laplacian.self_s": ("s", "lower"),
    "eigen.generalized_eig.calls": ("count", "lower"),
    "eigen.generalized_eig.self_s": ("s", "lower"),
    "eigen.generalized_eigvals.calls": ("count", "lower"),
    "eigen.generalized_eigvals.self_s": ("s", "lower"),
    "multiview.embed.self_s": ("s", "lower"),
    "multiview.mvscw_weights.self_s": ("s", "lower"),
    "multiview.aasc_weights.self_s": ("s", "lower"),
    "multiview.aasc_weights.eigensolves": ("count", "lower"),
    "multiview.aasc_weights.trace_len": ("count", "lower"),
    "jdl.joint_diagonalize.self_s": ("s", "lower"),
    "jdl.joint_diagonalize_matrices.self_s": ("s", "lower"),
    "jdl.sweeps": ("count", "lower"),
    "jdl.s_per_sweep": ("s", "lower"),
    "jdl.reorthonormalizations": ("count", "lower"),
    "clustering.consensus_labelling.calls": ("count", "lower"),
    "clustering.consensus_labelling.self_s": ("s", "lower"),
    "clustering.kmeans.calls": ("count", "lower"),
    "clustering.kmeans.self_s": ("s", "lower"),
    "clustering.kmeans.lloyd_iterations": ("count", "lower"),
    "clustering.best_label_permutation.calls": ("count", "lower"),
    "clustering.best_label_permutation.self_s": ("s", "lower"),
    "clustering.dice.self_s": ("s", "lower"),
    "experiments.compute_embedding.self_s": ("s", "lower"),
    "experiments.consistency_experiment.self_s": ("s", "lower"),
    "experiments.eigengap_report.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
