"""Per-layer metrics from the spans of one traced workload iteration.

Names are ``<module>.<function>.<stat>``: ``s`` is the inclusive time of the
outermost calls, ``self_s`` that time minus the time of child spans, and
``calls`` the number of calls. Sizes marked computed come from array shapes,
not from counters: they ignore caches and are no bandwidth measurement.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

MIB = 1024 * 1024

# metric -> (unit, traced function it derives from; None if not span-based)
PER_LAYER = {
    "traceio.read_trace.s": ("s", "traceio.read_trace"),
    "traceio.read_trace.mb": ("MiB", "traceio.read_trace"),
    "traceio.write_trace.s": ("s", "traceio.write_trace"),
    "traceio.write_trace.mb": ("MiB", "traceio.write_trace"),
    "traceio.read_weights.s": ("s", "traceio.read_weights"),
    "traceio.write_weights.s": ("s", "traceio.write_weights"),
    "traceio.weights.mb": ("MiB", "traceio.read_weights"),
    "similarity.build_matrices.s": ("s", "similarity.build_matrices"),
    "similarity.build_matrices.alloc_peak_mb": ("MiB", "similarity.build_matrices"),
    "similarity.build_matrices.gflop": ("GFLOP", "similarity.build_matrices"),
    "similarity.build_matrices.gflop_per_s": ("GFLOP/s", "similarity.build_matrices"),
    "similarity.build_matrices.input_mb": ("MiB", "similarity.build_matrices"),
    "similarity.export_heatmap.s": ("s", "similarity.export_heatmap"),
    "similarity.write_matrices.s": ("s", "similarity.write_matrices"),
    "similarity.read_matrices.s": ("s", "similarity.read_matrices"),
    "search.search.s": ("s", "search.search"),
    "search.threshold_sweep.s": ("s", "search.threshold_sweep"),
    "search.threshold_sweep.cells": ("count", "search.threshold_sweep"),
    "search.threshold_sweep.cell_us": ("us", "search.threshold_sweep"),
    "search.threshold_sweep.accept_ratio": ("ratio", "search.threshold_sweep"),
    "search.plan_from_depth.s": ("s", "search.plan_from_depth"),
    "surgery.fuse.s": ("s", "surgery.fuse"),
    "surgery.verify_fusion.s": ("s", "surgery.verify_fusion"),
    "surgery.verify_fusion.checks": ("count", "surgery.verify_fusion"),
    "nanomodel.train_toy.s": ("s", "nanomodel.train_toy"),
    "nanomodel.train_toy.step_ms": ("ms", "nanomodel.train_toy"),
    "nanomodel.train_toy.self_s": ("s", "nanomodel.train_toy"),
    "nanomodel.train_toy.tokens_per_step": ("tokens", "nanomodel.train_toy"),
    "nanomodel.attention_forward.self_s": ("s", "nanomodel.attention_forward"),
    "nanomodel.attention_forward.calls": ("count", "nanomodel.attention_forward"),
    "nanomodel.mlp_apply.self_s": ("s", "nanomodel.mlp_apply"),
    "nanomodel.mlp_apply.calls": ("count", "nanomodel.mlp_apply"),
    "nanomodel.route.self_s": ("s", "nanomodel.route"),
    "nanomodel.route.calls": ("count", "nanomodel.route"),
    "nanomodel.moe_param_grads.self_s": ("s", "nanomodel.moe_param_grads"),
    "nanomodel.moe_param_grads.calls": ("count", "nanomodel.moe_param_grads"),
    "cli.import_s": ("s", None),
    "cli.startup_s": ("s", None),
    "cli.manifest.s": ("s", "cli.PipelineRun.record"),
    "cli.manifest.hashed_mb": ("MiB", "cli.PipelineRun.record"),
    "trace.overhead_s": ("s", None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs) -> tuple[dict[str, float], set[str]]:
    """Metrics of one set-up plus one traced chain, and the untraceable names."""
    inclusive: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[tuple[str, str], float] = defaultdict(float)
    alloc_peak = 0.0
    startup = []
    missing: set[str] = set()
    for run in runs:
        spans = run.spans
        child_time = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            name, length = span["name"], span["end"] - span["start"]
            if name == "cli.main":
                startup.append(run.wall_s - length)
                missing.update(span["attrs"].get("missing", ()))
                continue
            calls[name] += 1
            self_s[name] += length - child_time[span["id"]]
            parent, nested = span["parent"], False
            while parent is not None and not nested:
                nested = spans[parent]["name"] == name
                parent = spans[parent]["parent"]
            if not nested:
                inclusive[name] += length
            for key, value in span["attrs"].items():
                if key == "alloc_peak_bytes":
                    alloc_peak = max(alloc_peak, value)
                elif isinstance(value, (int, float)):
                    attrs[(name, key)] += value

    bm, sweep, train = "similarity.build_matrices", "search.threshold_sweep", "nanomodel.train_toy"
    m = {f"{name}.s": inclusive[name] for name in (
        "traceio.read_trace", "traceio.write_trace", "traceio.read_weights",
        "traceio.write_weights", bm, "similarity.export_heatmap", "similarity.write_matrices",
        "similarity.read_matrices", "search.search", sweep, "search.plan_from_depth",
        "surgery.fuse", "surgery.verify_fusion", train)}
    m["traceio.read_trace.mb"] = attrs[("traceio.read_trace", "bytes")] / MIB
    m["traceio.write_trace.mb"] = attrs[("traceio.write_trace", "bytes")] / MIB
    m["traceio.weights.mb"] = (attrs[("traceio.read_weights", "bytes")]
                               + attrs[("traceio.write_weights", "bytes")]) / MIB
    m[f"{bm}.alloc_peak_mb"] = alloc_peak / MIB
    m[f"{bm}.gflop"] = attrs[(bm, "flop")] / 1e9
    m[f"{bm}.gflop_per_s"] = _ratio(m[f"{bm}.gflop"], inclusive[bm])
    m[f"{bm}.input_mb"] = attrs[(bm, "input_bytes")] / MIB
    m[f"{sweep}.cells"] = attrs[(sweep, "cells")]
    m[f"{sweep}.cell_us"] = _ratio(inclusive[sweep] * 1e6, attrs[(sweep, "cells")])
    m[f"{sweep}.accept_ratio"] = _ratio(attrs[(sweep, "accepted")], attrs[(sweep, "candidates")])
    m["surgery.verify_fusion.checks"] = attrs[("surgery.verify_fusion", "checks")]
    m[f"{train}.step_ms"] = _ratio(inclusive[train] * 1e3, attrs[(train, "steps")])
    m[f"{train}.self_s"] = self_s[train]
    m[f"{train}.tokens_per_step"] = _ratio(attrs[(train, "tokens_per_step")], calls[train])
    for name in ("attention_forward", "mlp_apply", "route", "moe_param_grads"):
        m[f"nanomodel.{name}.self_s"] = self_s[f"nanomodel.{name}"]
        m[f"nanomodel.{name}.calls"] = calls[f"nanomodel.{name}"]
    m["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    m["cli.manifest.s"] = inclusive["cli.manifest"]
    m["cli.manifest.hashed_mb"] = attrs[("cli.manifest", "hashed_bytes")] / MIB
    return m, missing


def drop_missing(metrics: dict[str, float], missing: set[str]) -> dict[str, float]:
    """Leave out the metrics of functions that no longer exist in d2m."""
    return {k: v for k, v in metrics.items() if PER_LAYER.get(k, ("", None))[1] not in missing}


def import_time(env: dict, root: Path, repeats: int = 5) -> list[float]:
    """Seconds to import ``d2m.cli`` (numpy included) in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import d2m.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times


def stage_shares(runs) -> dict[str, float]:
    """Share of each stage's wall time spent in each module's calls made
    directly by ``cli.main``, keyed ``<stage>.<module>``; the rest is start-up
    and CLI glue."""
    time_in: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    for run in runs:
        wall[run.label] += run.wall_s
        main = next(s["id"] for s in run.spans if s["name"] == "cli.main")
        for span in run.spans:
            if span["parent"] == main:
                module = span["name"].split(".")[0]
                time_in[f"{run.label}.{module}"] += span["end"] - span["start"]
    return {key: value / wall[key.split(".")[0]] for key, value in time_in.items()}
