"""Span tracing for one d2m CLI stage, from outside the package.

``install`` wraps public functions of the ``d2m`` modules so that every call
records a span (name, start, end, parent span) plus a few computed sizes. A
wrapper replaces the original function wherever a loaded ``d2m`` module binds
it, so ``from .traceio import read_trace`` style imports are traced too. Names
that no longer exist are skipped and simply produce no spans.

Run as a script, it executes one traced CLI stage and writes its spans as JSON
when the stage ends:

    python3 bench/tracer.py SPANS.json RUN_ID -- analyze --trace ... --out-dir ...
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

# (module, attribute) pairs to wrap; a dotted attribute is a method of a class.
# Only public names: private kernels are timed through their public callers.
TARGETS = (
    ("traceio", "read_trace"),
    ("traceio", "write_trace"),
    ("traceio", "read_weights"),
    ("traceio", "write_weights"),
    ("similarity", "build_matrices"),
    ("similarity", "export_heatmap"),
    ("similarity", "write_matrices"),
    ("similarity", "read_matrices"),
    ("search", "search"),
    ("search", "threshold_sweep"),
    ("search", "plan_from_depth"),
    ("surgery", "fuse"),
    ("surgery", "verify_fusion"),
    ("nanomodel", "train_toy"),
    ("nanomodel", "attention_forward"),
    ("nanomodel", "mlp_apply"),
    ("nanomodel", "route"),
    ("nanomodel", "moe_param_grads"),
    ("cli", "PipelineRun.check_inputs"),
    ("cli", "PipelineRun.record"),
)

# Manifest bookkeeping is one layer: both methods report as "cli.manifest".
SPAN_NAMES = {
    "cli.PipelineRun.check_inputs": "cli.manifest",
    "cli.PipelineRun.record": "cli.manifest",
}


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "run_id": self.run_id, "start": time.perf_counter(),
                "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def _file_bytes(value) -> int | None:
    if isinstance(value, (str, Path)) and os.path.isfile(value):
        return os.path.getsize(value)
    return None


def _rehashed_bytes(run, inputs) -> int:
    """Bytes of the inputs an earlier stage recorded, which check_inputs hashes."""
    manifest = Path(run.run_dir) / "manifest.json"
    if not manifest.is_file():
        return 0
    recorded: set[str] = set()
    for stage in json.loads(manifest.read_text(encoding="utf-8"))["stages"].values():
        recorded.update(stage.get("outputs", {}))
    run_dir = Path(run.run_dir).resolve()
    return sum(os.path.getsize(p) for p in inputs
               if os.path.relpath(Path(p).resolve(), run_dir) in recorded)


def _record_attrs(name: str, args: tuple, kwargs: dict, result, attrs: dict) -> None:
    """Counts and computed sizes that belong to a span (set after the call)."""
    if name == "cli.PipelineRun.check_inputs":
        attrs["hashed_bytes"] = _rehashed_bytes(args[0], args[1])
    elif name == "cli.PipelineRun.record":
        attrs["hashed_bytes"] = sum(os.path.getsize(p) for p in (*args[2], *args[3]))
    elif name in ("traceio.read_trace", "traceio.write_trace",
                "traceio.read_weights", "traceio.write_weights"):
        size = _file_bytes(args[-1] if name.endswith("write_trace") or
                           name.endswith("write_weights") else args[0])
        if size is not None:
            attrs["bytes"] = size
    elif name == "similarity.build_matrices":
        trace = args[0]
        num_layers, seq_len, hidden = trace.num_layers, trace.seq_len, trace.hidden_dim
        # Computed, not measured: two Gram matrices over unit rows (one
        # multiply-add per element pair), the three norm passes and the
        # pairwise norm gap; input bytes are the float64 states read once.
        attrs["flop"] = (4 * num_layers ** 2 * seq_len * hidden
                         + 8 * num_layers * seq_len * hidden + 3 * num_layers ** 2 * seq_len)
        attrs["input_bytes"] = 2 * num_layers * seq_len * hidden * 8
    elif name == "search.threshold_sweep":
        num_layers = args[0].num_layers
        sizes = set(kwargs.get("block_sizes", args[4] if len(args) > 4 else (1, 2, 3)))
        per_cell = sum(num_layers - s for s in sizes if s < num_layers)
        attrs["cells"] = len(result)
        attrs["candidates"] = per_cell * len(result)
        attrs["accepted"] = sum(len(cell.plan.blocks) for cell in result)
    elif name == "surgery.verify_fusion":
        attrs["checks"] = len(result.checks)
    elif name == "nanomodel.train_toy":
        data = args[1] if len(args) > 1 else kwargs.get("data")
        attrs["steps"] = kwargs.get("steps", args[2] if len(args) > 2 else 0)
        attrs["tokens_per_step"] = int(getattr(data, "size", 0))


def _wrap(tracer: Tracer, name: str, fn):
    span_name = SPAN_NAMES.get(name, name)
    alloc = name == "similarity.build_matrices"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(span_name)
        attrs = span["attrs"]
        if alloc:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if alloc:
                attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.close(span)
        try:
            _record_attrs(name, args, kwargs, result, attrs)
        except Exception as exc:  # a changed signature must not fail the stage
            attrs["attrs_error"] = repr(exc)
        return result

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the names that were missing."""
    missing = []
    for module_name, attr in TARGETS:
        name = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(f"d2m.{module_name}")
        except ImportError:
            missing.append(name)
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, fn_name, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        wrapper = _wrap(tracer, name, original)
        if owner_name:
            setattr(owner, fn_name, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "d2m" and not mod_name.startswith("d2m."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- D2M_ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, d2m_args = argv[0], argv[1], argv[3:]
    import d2m.cli

    tracer = Tracer(run_id)
    missing = install(tracer)
    span = tracer.open("cli.main")
    try:
        code = d2m.cli.main(d2m_args)
    finally:
        tracer.close(span)
        span["attrs"]["missing"] = missing
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
