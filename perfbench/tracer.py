"""Outside-in span tracer for the dpknockoff layers.

The benchmark never edits the package.  Instead it replaces each traced
public function at the module attribute its caller resolves at call time
(``dpknockoff.pipeline.build_knockoffs`` is what ``run_knockoff_filter``
calls, for example) with a wrapper that records one span per call: layer
name, start, end, parent span and the exception class if the call raised.
Parents come from a per-thread span stack, so sweeps on a thread pool nest
correctly.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

# Layer name -> the (module, attribute) sites that callers resolve it from.
# The order is the order of the per-layer report.
LAYERS = {
    "simulate.generate_trial": [("dpknockoff.simulate", "generate_trial")],
    "design.load_dataset": [("dpknockoff.cli", "load_dataset")],
    "design.normalize_columns": [("dpknockoff.pipeline", "normalize_columns")],
    "design.compute_bounds": [("dpknockoff.pipeline", "compute_bounds")],
    "knockoffs.gram_spectrum": [("dpknockoff.pipeline", "gram_spectrum")],
    "knockoffs.build_knockoffs": [("dpknockoff.pipeline", "build_knockoffs")],
    "knockoffs.complement_basis": [("dpknockoff.knockoffs", "complement_basis")],
    "privacy.build_sensitivity_context": [("dpknockoff.pipeline", "build_sensitivity_context")],
    "privacy.release_pair": [("dpknockoff.pipeline", "release_pair")],
    "privacy.release_estimate": [("dpknockoff.pipeline", "release_estimate")],
    "selection.estimate_coefficients": [("dpknockoff.pipeline", "estimate_coefficients")],
    "selection.compute_statistics": [("dpknockoff.pipeline", "compute_statistics")],
    "selection.knockoff_threshold": [("dpknockoff.pipeline", "knockoff_threshold")],
    "selection.evaluate_selection": [("dpknockoff.simulate", "evaluate_selection")],
    "pipeline.run_knockoff_filter": [
        ("dpknockoff.simulate", "run_knockoff_filter"),
        ("dpknockoff.cli", "run_knockoff_filter"),
    ],
    "cli.main": [],  # wrapped and called in-process by child.cli_traced
}

# A percentile is reported only when at least ten samples lie beyond it.
P90_MIN_CALLS = 100


def _array_bytes(obj, seen) -> int:
    """nbytes of every ndarray reachable from ``obj`` through dataclass
    fields, each array counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(obj, "dtype"):
        return nbytes
    if not dataclasses.is_dataclass(obj):
        return 0
    return sum(_array_bytes(getattr(obj, f.name, None), seen) for f in dataclasses.fields(obj))


def _augmented_mb(args, kwargs, result) -> float:
    """MB held by the returned AugmentedDesign: the knockoff copy, G, and the
    arrays of its design (source data included) and spectrum."""
    return _array_bytes(result, set()) / 1e6


def _dataset_bytes(args, kwargs, result) -> float:
    """Size of the CSV files load_dataset parsed."""
    x_path = args[0] if args else kwargs["x_path"]
    y_path = args[1] if len(args) > 1 else kwargs["y_path"]
    return float(os.path.getsize(x_path) + os.path.getsize(y_path))


# Per-call quantities recorded next to the span, by layer.
MEASURES = {
    "knockoffs.build_knockoffs": _augmented_mb,
    "design.load_dataset": _dataset_bytes,
}


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self):
        self.spans = []  # (span id, parent id, layer, start, end, error class)
        self.measures = {}  # span id -> per-call value, for layers in MEASURES
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        measure = MEASURES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, layer, start, end, error))
            if measure is not None:
                try:
                    self.measures[span_id] = measure(args, kwargs, result)
                except Exception:  # a measure must never fail the traced call
                    pass
            return result

        traced.__wrapped_layer__ = layer
        return traced

    def install(self):
        """Replace every traced call site with its wrapper.

        A site that no longer exists is skipped, so a layer taken off the
        call path reports zero calls instead of stopping the run.
        """
        import importlib

        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if getattr(original, "__wrapped_layer__", None) is not None:
                    raise RuntimeError(f"{module_name}.{attr} is already traced")
                setattr(module, attr, self.wrap(layer, original))

    def dump(self, path) -> None:
        """Write the spans and per-call measures as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for span_id, value in self.measures.items():
                fh.write(json.dumps({"measure": [span_id, value]}) + "\n")


def load_spans(path):
    spans, measures = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "span" in rec:
                spans.append(tuple(rec["span"]))
            else:
                span_id, value = rec["measure"]
                measures[span_id] = value
    return spans, measures


def layer_stats(processes, ops: int):
    """Per-layer metrics from the spans of one or more processes.

    ``processes`` is a list of (spans, measures) pairs as kept by
    :class:`Tracer`; span ids are local to a process.  ``ops`` is the number
    of operations (sweep trials or CLI invocations) the spans cover; calls
    are reported per operation, so they repeat exactly from run to run.  A
    layer's self time is its duration minus the durations of its direct
    children, which the per-thread stack nests inside it.
    """
    durations = defaultdict(list)
    self_time = defaultdict(float)
    errors = defaultdict(lambda: defaultdict(int))
    measures = defaultdict(list)  # layer -> [(per-call value, duration)]
    for spans, proc_measures in processes:
        child_time = defaultdict(float)
        for _sid, parent, _layer, start, end, _err in spans:
            child_time[parent] += end - start
        for sid, _parent, layer, start, end, err in spans:
            durations[layer].append(end - start)
            self_time[layer] += (end - start) - child_time[sid]
            if err is not None:
                errors[layer][err] += 1
            if sid in proc_measures:
                measures[layer].append((proc_measures[sid], end - start))
    total_self = sum(self_time.values()) or 1.0

    metrics = {}
    for layer in LAYERS:
        d = durations.get(layer, [])
        calls = len(d)
        metrics[f"{layer}.calls"] = (calls / ops, "1/op")
        metrics[f"{layer}.errors"] = (sum(errors[layer].values()), "count")
        metrics[f"{layer}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        p90 = 1e3 * statistics.quantiles(d, n=10)[-1] if calls >= P90_MIN_CALLS else 0.0
        metrics[f"{layer}.ms_p90"] = (p90, "ms")
        metrics[f"{layer}.self_share"] = (self_time[layer] / total_self, "ratio")

    mb = [value for value, _ in measures["knockoffs.build_knockoffs"]]
    metrics["knockoffs.materialized_MB"] = (statistics.median(mb) if mb else 0.0, "MB")
    rates = [size / 1e6 / t for size, t in measures["design.load_dataset"] if t > 0]
    metrics["design.load_dataset.MB_per_s"] = (statistics.median(rates) if rates else 0.0, "MB/s")
    errors_by_class = {layer: dict(v) for layer, v in errors.items() if v}
    return metrics, errors_by_class
