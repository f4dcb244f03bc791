"""Spans around qevo's layer functions, installed from outside the package.

`install` swaps module attributes for timing wrappers, so the package source
stays untouched. Each call records a span (name, start, end, parent) in
memory; counts that need more than the call itself are worked out after the
span closes, inside a `tracer.count` span, so they are charged to no layer.
`layer_metrics` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

COUNT_SPAN = "tracer.count"

# (module, attribute, span name). evolve binds `rmse` by name, so the metric
# is wrapped where evolve looks it up.
WRAPPED = (
    ("trace_io", "parse_trace", "trace_io.parse_trace"),
    ("trace_io", "aggregate", "trace_io.aggregate"),
    ("dataset", "fit_normalizer", "dataset.fit_normalizer"),
    ("dataset", "normalize", "dataset.normalize"),
    ("dataset", "build_windows", "dataset.build_windows"),
    ("dataset", "split", "dataset.split"),
    ("network", "input_states", "network.input_states"),
    ("network", "forward_states", "network.forward_states"),
    ("network", "save_genome", "network.save_genome"),
    ("network", "load_genome", "network.load_genome"),
    ("evolve", "rmse", "metrics.rmse"),
    ("evolve", "init_population", "evolve.init_population"),
    ("evolve", "modulate", "evolve.modulate"),
    ("evolve", "recombine", "evolve.recombine"),
    ("evolve", "select_survivor", "evolve.select_survivor"),
    ("evolve", "update_probabilities", "evolve.update_probabilities"),
    ("evolve", "save_checkpoint", "evolve.save_checkpoint"),
    ("evolve", "train", "evolve.train"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_predict", "cli.cmd_predict"),
    ("cli", "_forecast_rows", "cli._forecast_rows"),
    ("cli", "write_forecast_csv", "cli.write_forecast_csv"),
    ("cli", "_write_json", "cli._write_json"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                index = self._open(COUNT_SPAN)
                try:
                    after(self.counts, args, kwargs, result)
                finally:
                    self._close(index)
            return result

        return traced

    def self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        own = duration.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        np.subtract.at(own, parents[nested], duration[nested])
        return own

    def write(self, path: str) -> None:
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        spans = [
            [ids[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": spans, "counts": self.counts}, fh)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_parse(counts, args, kwargs, trace):
    counts["trace_io.parse_trace.rows"] += len(trace.samples)


def _count_aggregate(counts, args, kwargs, series):
    trace, minutes = _arg(args, kwargs, 0, "trace"), _arg(args, kwargs, 1, "interval_minutes")
    times = np.fromiter((t for t, _ in trace.samples), dtype=float, count=len(trace.samples))
    occupied = np.unique(np.floor(times / (minutes * 60.0))).size
    counts["trace_io.aggregate.buckets"] += len(series.values)
    counts["trace_io.aggregate.empty_buckets"] += len(series.values) - occupied


def _count_windows(counts, args, kwargs, windows):
    counts["dataset.windows"] += len(windows)


def _count_forward(counts, args, kwargs, preds):
    genome, states = args[0], args[1]
    widths = genome.architecture.widths
    rows = states.shape[0]
    counts["network.forward_states.row_transitions"] += rows * (len(widths) - 1)
    # A complex multiply-add is 8 real flops; one per weight per row.
    counts["network.forward_states.flops_computed"] += 8 * rows * sum(
        a * b for a, b in zip(widths, widths[1:])
    )


def _file_bytes(key, position, name):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(_arg(args, kwargs, position, name))

    return count


HOOKS = {
    "trace_io.parse_trace": _count_parse,
    "trace_io.aggregate": _count_aggregate,
    "dataset.build_windows": _count_windows,
    "network.forward_states": _count_forward,
    "evolve.save_checkpoint": _file_bytes("evolve.save_checkpoint.bytes", 1, "path"),
    "cli.write_forecast_csv": _file_bytes("cli.write_forecast_csv.bytes", 1, "path"),
}


def install() -> Tracer:
    """Wrap every function in WRAPPED for the rest of the process."""
    from qevo import cli, dataset, evolve, network, trace_io

    modules = {"trace_io": trace_io, "dataset": dataset, "network": network,
               "evolve": evolve, "cli": cli}
    tracer = Tracer()
    for module, attr, name in WRAPPED:
        target = modules[module]
        setattr(target, attr, tracer.wrap(getattr(target, attr), name, HOOKS.get(name)))
    return tracer


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, named <module>.<function>.<stat>.

    evolve's adoption ratio and degenerate-argument count are not traced:
    run.py reads them from the run's report.json."""
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, seconds in zip(tracer.names, own):
        self_s[name] += float(seconds)
        calls[name] += 1
    c = tracer.counts
    transitions = c["network.forward_states.row_transitions"]
    return {
        "trace_io.parse_trace.self_s": self_s["trace_io.parse_trace"],
        "trace_io.parse_trace.rows": c["trace_io.parse_trace.rows"],
        "trace_io.aggregate.self_s": self_s["trace_io.aggregate"],
        "trace_io.aggregate.buckets": c["trace_io.aggregate.buckets"],
        "trace_io.aggregate.empty_frac": (
            c["trace_io.aggregate.empty_buckets"] / c["trace_io.aggregate.buckets"]
            if c["trace_io.aggregate.buckets"] else 0.0
        ),
        "dataset.self_s": sum(
            self_s[f"dataset.{f}"] for f in ("fit_normalizer", "normalize", "build_windows", "split")
        ),
        "dataset.windows": c["dataset.windows"],
        "network.forward_states.calls": calls["network.forward_states"],
        "network.forward_states.self_s": self_s["network.forward_states"],
        "network.forward_states.row_transitions": transitions,
        "network.forward_states.ns_per_row_transition": (
            1e9 * self_s["network.forward_states"] / transitions if transitions else 0.0
        ),
        "network.forward_states.flops_computed": c["network.forward_states.flops_computed"],
        "network.input_states.self_s": self_s["network.input_states"],
        "network.genome_io.self_s": self_s["network.save_genome"] + self_s["network.load_genome"],
        "metrics.rmse.calls": calls["metrics.rmse"],
        "metrics.rmse.self_s": self_s["metrics.rmse"],
        "evolve.init_population.self_s": self_s["evolve.init_population"],
        "evolve.modulate.calls": calls["evolve.modulate"],
        "evolve.modulate.self_s": self_s["evolve.modulate"],
        "evolve.recombine.calls": calls["evolve.recombine"],
        "evolve.recombine.self_s": self_s["evolve.recombine"],
        "evolve.select_survivor.self_s": self_s["evolve.select_survivor"],
        "evolve.update_probabilities.self_s": self_s["evolve.update_probabilities"],
        "evolve.save_checkpoint.calls": calls["evolve.save_checkpoint"],
        "evolve.save_checkpoint.self_s": self_s["evolve.save_checkpoint"],
        "evolve.save_checkpoint.bytes": c["evolve.save_checkpoint.bytes"],
        "evolve.train.self_s": self_s["evolve.train"],
        "cli._forecast_rows.self_s": self_s["cli._forecast_rows"],
        "cli.write_forecast_csv.self_s": self_s["cli.write_forecast_csv"],
        "cli.write_forecast_csv.bytes": c["cli.write_forecast_csv.bytes"],
        "cli._write_json.self_s": self_s["cli._write_json"],
        "cli.self_s": self_s["cli.main"] + self_s["cli.cmd_train"] + self_s["cli.cmd_predict"],
    }
