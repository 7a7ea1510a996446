"""Per-layer tracing from outside the program.

The traced run wraps public functions of `src/edsim` at the name their caller
looks up (for example `edsim.engine.select_request_ca`, which is the binding the
engine calls), so the program itself carries no timing code.  Every wrapped call
records a span (layer, start, end, parent span); a layer's self time is its
spans' duration minus the time covered by their direct child spans.

A name that no longer exists is skipped and reported; a layer none of whose
names exists is reported as not measured (value null) instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

STATS_TESTS = ("chi_square_uniform_mc", "shapiro_wilk", "wilcoxon_rank_sum", "welch_t_test", "paired_t_test")


def _count_events(tracer, args, kwargs, result):
    trace = getattr(result, "trace", None)
    tracer.count("events", len(trace) if isinstance(trace, list) and trace else None)


def _count_trace_bytes(tracer, args, kwargs, result):
    tracer.count("trace_bytes", len(result.encode("utf-8")) if isinstance(result, str) else None)


def _count_bytes_written(tracer, args, kwargs, result):
    if isinstance(result, dict) and all(isinstance(p, str) and os.path.isfile(p) for p in result.values()):
        tracer.count("bytes_written", sum(os.path.getsize(p) for p in result.values()))
    else:
        tracer.count("bytes_written", None)


def _count_rows(tracer, args, kwargs, result):
    tracer.count("rows_read", len(result) if isinstance(result, list) else None)


def _count_selection(pending_pos):
    def count(tracer, args, kwargs, result):
        pending = kwargs["pending"] if "pending" in kwargs else (
            args[pending_pos] if pending_pos is not None and pending_pos < len(args) else None
        )
        tracer.count("pending_seen", len(pending) if hasattr(pending, "__len__") else None)
        reason = getattr(getattr(result, "reason", None), "value", None)
        tracer.count("accepted", (reason == "accepted") if reason is not None else None)

    return count


def _pending_position(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("pending") if "pending" in params else None


# (layer, module, attribute, counter factory taking the original function or None)
WRAPS = [
    ("engine.run_shift", "edsim.cli", "run_shift", lambda fn: _count_events),
    ("engine.render_trace", "edsim.cli", "render_trace", lambda fn: _count_trace_bytes),
    ("policy.select", "edsim.engine", "select_request_ca", lambda fn: _count_selection(_pending_position(fn))),
    ("policy.select", "edsim.engine", "select_request_fifo", lambda fn: _count_selection(_pending_position(fn))),
    ("policy.update_trust", "edsim.engine", "update_trust", None),
    ("behavior.get_task_duration", "edsim.engine", "get_task_duration", None),
    ("domain.validate_config", "edsim.cli", "validate_config", None),
    ("domain.validate_config", "edsim.domain", "validate_config", None),
    ("domain.validate_config", "edsim.analysis", "validate_config", None),
    ("cli.run_experiment", "edsim.cli", "run_experiment", None),
    ("metrics.write_csvs", "edsim.cli", "write_csvs", lambda fn: _count_bytes_written),
    ("metrics.read", "edsim.analysis", "read_runs", lambda fn: _count_rows),
    ("metrics.read", "edsim.analysis", "read_doctors", lambda fn: _count_rows),
    ("metrics.read", "edsim.analysis", "read_nurses", lambda fn: _count_rows),
    ("analysis.load_experiment", "edsim.analysis", "load_experiment", None),
    ("analysis.compare_experiments", "edsim.cli", "compare_experiments", None),
] + [(f"stats.{name}", "edsim.stats", name, None) for name in STATS_TESTS]

LAYERS = list(dict.fromkeys(layer for layer, _, _, _ in WRAPS))


class Tracer:
    """Install wrappers, collect spans and counters, and restore the originals."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.unmeasurable: set = set()
        self.missing: list[str] = []
        self.measured_layers: set = set()
        self._stack: list[int] = []
        self._installed: list = []

    def count(self, name: str, value) -> None:
        if value is None:
            self.unmeasurable.add(name)
        else:
            self.counters[name] += value

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self.unmeasurable = set()

    def _wrap(self, layer: str, fn, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans[idx] = (layer, start, end, parent)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for layer, module_name, attr, counter_factory in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            counter = counter_factory(fn) if counter_factory else None
            setattr(module, attr, self._wrap(layer, fn, counter))
            self._installed.append((module, attr, fn))
            self.measured_layers.add(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in self.measured_layers}
        for idx, (layer, start, end, _) in enumerate(self.spans):
            entry = totals[layer]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[idx]
        return totals


# name -> (unit, better)
PER_LAYER_UNITS: dict[str, tuple[str, str]] = {}


def _declare(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER_UNITS[name] = (unit, better)


for _layer in LAYERS:
    _declare(f"{_layer}.calls", "count")
    _declare(f"{_layer}.s", "s")
_declare("engine.self_s", "s")
_declare("engine.events_per_s", "1/s", "higher")
_declare("engine.trace_bytes", "bytes")
_declare("policy.select.pending_seen", "count")
_declare("policy.select.accepted_ratio", "ratio", "higher")
_declare("metrics.bytes_written", "bytes")
_declare("metrics.rows_read", "count")
_declare("cli.parallel_efficiency", "ratio", "higher")
_declare("trace_overhead_frac", "ratio")
_declare("traced_wall_s", "s")
_declare("untraced_wall_s", "s")


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer figures of one traced round; None marks a figure not measured."""
    totals = tracer.layer_totals()
    counters, unmeasurable = tracer.counters, tracer.unmeasurable
    out: dict[str, float | None] = {}
    for layer in LAYERS:
        entry = totals.get(layer)
        out[f"{layer}.calls"] = None if entry is None else entry["calls"]
        out[f"{layer}.s"] = None if entry is None else entry["s"]

    def counter(name, layer):
        if layer not in totals or name in unmeasurable:
            return None
        return counters.get(name, 0)

    engine = totals.get("engine.run_shift")
    out["engine.self_s"] = None if engine is None else engine["self_s"]
    events = counter("events", "engine.run_shift")
    out["engine.events_per_s"] = (
        None if events is None else (events / engine["s"] if engine["s"] > 0 else 0.0)
    )
    out["engine.trace_bytes"] = counter("trace_bytes", "engine.render_trace")
    out["policy.select.pending_seen"] = counter("pending_seen", "policy.select")
    accepted = counter("accepted", "policy.select")
    decisions = totals["policy.select"]["calls"] if "policy.select" in totals else 0
    out["policy.select.accepted_ratio"] = (
        None if accepted is None else (accepted / decisions if decisions else 0.0)
    )
    out["metrics.bytes_written"] = counter("bytes_written", "metrics.write_csvs")
    out["metrics.rows_read"] = counter("rows_read", "metrics.read")
    return out
