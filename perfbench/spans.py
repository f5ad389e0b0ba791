"""Span recording at the program's module boundaries, and the arithmetic on spans.

Wrappers are installed from outside the program: each public function is
replaced at the place its caller looks it up (for example
`compredict.pipeline.sweep_errors`, which is what `run_pipeline` calls), so
`src/` is not edited and an untraced run executes exactly the shipped code.

A span is (id, name, parent id, thread id, start, end, ok, info). Names are
`<layer>.<function>`; the layer is the part before the first dot. Spans are
kept in memory and written once, when the traced run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("io", "signal", "prediction", "metrics", "analysis", "pipeline", "process")


class Recorder:
    """Collects spans from any thread.

    A span opened on a thread with no open span of its own (a thread-pool
    worker) takes as parent the innermost span open on the main thread, so
    sweeps run by `run_pipeline`'s pool are children of `run_pipeline`.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, info=None):
        """Return fn wrapped in a span; info(args, kwargs, result) adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            ok, extra, result = False, {}, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if info is not None:
                    extra = info(args, kwargs, result if ok else None)
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "parent": parent,
                        "thread": threading.get_ident(),
                        "start": start,
                        "end": end,
                        "ok": ok,
                        **extra,
                    }
                )

        return traced


class _WriteSpan:
    """Context manager returned by the traced `open`: one span per file
    written, from open to close, with the bytes written."""

    def __init__(self, recorder, fh, span_id, parent, start):
        self._recorder, self._fh = recorder, fh
        self._id, self._parent, self._start = span_id, parent, start

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc):
        size = self._fh.tell()
        self._fh.close()
        self._recorder.spans.append(
            {
                "id": self._id,
                "name": "io.write",
                "parent": self._parent,
                "thread": threading.get_ident(),
                "start": self._start,
                "end": time.perf_counter(),
                "ok": exc[0] is None,
                "bytes": size,
            }
        )
        return False


def traced_open(recorder):
    """An `open` for one module's namespace that records files it writes."""

    def _open(path, mode="r", *args, **kwargs):
        start = time.perf_counter()
        fh = open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        stack = recorder._stack()
        return _WriteSpan(recorder, fh, next(recorder._ids), stack[-1] if stack else None, start)

    return _open


def install(recorder):
    """Wrap the boundary functions where their callers bind them."""
    from compredict import cli, io, pipeline

    def rows(args, kwargs, result):
        return {"rows": 0 if result is None else len(result[1])}

    def grf_samples(args, kwargs, result):
        return {"samples": len(args[0])}

    def sweep_info(args, kwargs, result):
        _, spec, kind = args[:3]
        starts = 0 if result is None else len(result[0])
        return {"profile": str(kind.value), "n": spec.n_samples, "starts": starts}

    def stats_info(args, kwargs, result):
        if result is None:
            return {"fit_rows": 0, "stat_rows": 0}
        return {"fit_rows": len(result[0]), "stat_rows": len(result[2])}

    def export_info(args, kwargs, result):
        return {"bytes": sum(os.path.getsize(p) for p in result or ())}

    sites = [
        (cli, "load_all_trials", "pipeline.load_all_trials", None),
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
        (cli, "export_results", "pipeline.export_results", export_info),
        (cli, "load_trial", "io.load_trial", None),
        (io, "read_com_csv", "io.read_com_csv", rows),
        (io, "read_grf_csv", "io.read_grf_csv", rows),
        (io, "preprocess", "signal.preprocess", grf_samples),
        (io, "detect_contact", "signal.detect_contact", None),
        (pipeline, "load_trial", "io.load_trial", None),
        (pipeline, "sweep_errors", "prediction.sweep_errors", sweep_info),
        (pipeline, "summarize", "metrics.summarize", None),
        (pipeline, "compute_statistics", "analysis.compute_statistics", stats_info),
    ]
    for module, attr, name, info in sites:
        setattr(module, attr, recorder.wrap(name, getattr(module, attr), info))
    cli.open = traced_open(recorder)


# ---------------------------------------------------------------------------
# arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def attribute(spans, t0: float, t1: float):
    """Split the wall interval [t0, t1] between spans.

    Each instant goes to the deepest span open at that instant (ties go to
    the one opened last), and instants inside no span go to the process.
    For one span this is its duration minus the part of it its children
    cover; concurrent children of one parent together take their merged
    interval. Returns ({span id: seconds}, {layer: seconds}); the layer
    figures, `process` included, sum to t1 - t0.
    """
    by_id = {s["id"]: s for s in spans}
    depth = {}

    def depth_of(span_id):
        if span_id not in depth:
            parent = by_id[span_id]["parent"]
            depth[span_id] = 0 if parent not in by_id else depth_of(parent) + 1
        return depth[span_id]

    events = []
    for s in spans:
        events.append((max(s["start"], t0), 1, s["id"]))
        events.append((min(s["end"], t1), 0, s["id"]))
    events.sort()
    per_span = defaultdict(float)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    active = {}
    last = t0
    for when, opening, span_id in events + [(t1, 0, None)]:
        if when > last:
            if active:
                owner = max(active, key=lambda i: (active[i], by_id[i]["start"], i))
                per_span[owner] += when - last
                per_layer[by_id[owner]["name"].split(".", 1)[0]] += when - last
            else:
                per_layer["process"] += when - last
            last = when
        if span_id is None:
            break
        if opening:
            active[span_id] = depth_of(span_id)
        else:
            active.pop(span_id, None)
    return dict(per_span), per_layer


def layer_metrics(spans, t0: float, t1: float) -> dict:
    """Per-layer figures of one traced run whose process ran over [t0, t1]."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(selected):
        return sum(s["end"] - s["start"] for s in selected)

    per_span, per_layer = attribute(spans, t0, t1)
    out = {}

    sweeps = named("prediction.sweep_errors")
    done = [s for s in sweeps if s["ok"]]
    sweep_busy = busy(sweeps)
    sweep_wall = union_length([(s["start"], s["end"]) for s in sweeps])
    sample_errors = sum(s["starts"] * s["n"] for s in done)
    call_ms = [1e3 * (s["end"] - s["start"]) for s in sweeps]
    out["prediction.sweep_calls"] = len(sweeps)
    out["prediction.call_ms_p50"] = float(np.percentile(call_ms, 50)) if call_ms else 0.0
    out["prediction.call_ms_p99"] = float(np.percentile(call_ms, 99)) if call_ms else 0.0
    out["prediction.sweep_busy_s"] = sweep_busy
    out["prediction.sweep_wall_s"] = sweep_wall
    out["prediction.parallelism"] = sweep_busy / sweep_wall if sweep_wall else 0.0
    out["prediction.horizons"] = sum(s["starts"] for s in done)
    out["prediction.sample_errors"] = sample_errors
    out["prediction.ns_per_sample_error"] = 1e9 * sweep_busy / sample_errors if sample_errors else 0.0
    for profile in ("zero", "const", "cubic", "oracle"):
        out[f"prediction.sweep_s.{profile}"] = busy(s for s in sweeps if s["profile"] == profile)
    out["prediction.skipped"] = len(sweeps) - len(done)
    out["prediction.useful_ratio"] = len(done) / len(sweeps) if sweeps else 0.0

    reads = named("io.read_com_csv") + named("io.read_grf_csv")
    read_s = busy(reads)
    read_rows = sum(s["rows"] for s in reads)
    loads = named("io.load_trial")
    out["io.read_calls"] = len(reads)
    out["io.read_rows"] = read_rows
    out["io.read_s"] = read_s
    out["io.rows_per_s"] = read_rows / read_s if read_s else 0.0
    out["io.load_trial_s"] = busy(loads)
    out["io.load_trial_self_s"] = sum(per_span.get(s["id"], 0.0) for s in loads)
    writes = named("io.write")
    out["io.write_s"] = busy(writes)
    out["io.write_bytes"] = sum(s["bytes"] for s in writes)

    pre = named("signal.preprocess")
    detect = named("signal.detect_contact")
    out["signal.preprocess_calls"] = len(pre)
    out["signal.grf_samples"] = sum(s["samples"] for s in pre)
    out["signal.preprocess_s"] = busy(pre)
    out["signal.detect_contact_calls"] = len(detect)
    out["signal.detect_contact_s"] = busy(detect)

    summ = named("metrics.summarize")
    out["metrics.summarize_calls"] = len(summ)
    out["metrics.summarize_s"] = busy(summ)

    runs = named("pipeline.run_pipeline")
    stats = named("analysis.compute_statistics")
    exports = named("pipeline.export_results")
    out["pipeline.self_s"] = sum(per_span.get(s["id"], 0.0) for s in runs)
    out["pipeline.load_s"] = busy(named("pipeline.load_all_trials"))
    out["pipeline.run_pipeline_s"] = busy(runs)
    out["pipeline.export_s"] = busy(exports)
    out["pipeline.export_bytes"] = sum(s["bytes"] for s in exports)
    out["analysis.statistics_s"] = busy(stats)
    out["analysis.stat_rows"] = sum(s["stat_rows"] for s in stats)
    out["analysis.fit_rows"] = sum(s["fit_rows"] for s in stats)

    for layer, seconds in per_layer.items():
        out[f"self_s.{layer}"] = seconds
    out["trace.wall_s"] = t1 - t0
    out["trace.spans"] = len(spans)
    return out
