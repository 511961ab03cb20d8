"""Command-line pipeline: synth -> analyze -> search -> fuse -> estimate ->
train-toy -> diagnose -> pareto, with JSON/CSV artifacts at every stage.

All randomness funnels through explicit --seed flags, so reruns on unchanged
inputs produce byte-identical artifact trees. Exit codes: 0 success, 2 bad
input or validation failure, 3 I/O failure, 4 internal invariant violation.
An optional --run-dir records a stage manifest (inputs and outputs with
content hashes) and refuses to run a stage whose declared inputs no longer
hash-match what an earlier stage produced. ``main`` keeps that protocol for
every stage: each input is hashed once, before the stage runs, and the
manifest records that digest; outputs are hashed once they are written.
Each ``cmd_*`` only does its stage's work and returns its note; ``main``
runs it in one ``config.staged_outputs`` group, so a stage that fails
replaces none of its outputs and removes the ``--out-dir`` it made. Every
input file, the manifest and each file hashed included, is opened through
``config.input_file``: one that is not a regular file, such as a pipe, is
refused with exit 3, and every refusal names its file.

Each subcommand imports the modules it runs when it runs, so a stage pays
only for its own imports: ``search`` (plan and sweep modes), ``fuse``,
``estimate``, ``pareto`` and ``diagnose`` never load numpy (``fuse`` copies
and checks the weight file's float32 bytes as they are), and only a stage
given --run-dir loads ``hashlib``, whose OpenSSL takes about 3.6 MiB.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .config import (
    ModelShape,
    PipelineConfig,
    SearchThresholds,
    input_file,
    json_document,
    load_config,
    load_plan,
    output_dir,
    plan_to_dict,
    read_matrices,
    staged_outputs,
    text_file,
    validate_shape,
    write_json,
)
from .errors import (
    D2mError,
    DivergenceDetected,
    InvalidConfig,
    IoFailure,
    NonFiniteActivation,
    NonFiniteGradient,
    OutOfRange,
    VerificationFailure,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INVARIANT = 4


class StaleArtifact(D2mError):
    """A declared input no longer matches the hash a prior stage recorded."""


class MissingInput(D2mError):
    """A declared input file does not exist."""


class CorruptManifest(D2mError):
    """A run directory's manifest.json is not a stage manifest."""


# --- stage manifest ---------------------------------------------------------------


def _sha256(path) -> str:
    import hashlib  # OpenSSL: only a --run-dir stage loads it

    # 64 KiB, reused: a larger buffer shows in a stage's peak RSS
    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 16))
    with input_file(path) as reader:
        for offset in range(0, reader.size, len(buf)):
            digest.update(reader.read_into(buf[:reader.size - offset], offset, "hashing"))
    return digest.hexdigest()


class PipelineRun:
    """Manifest bookkeeping for one stage in a run directory: the manifest is
    read once, when the run is opened, and written once, by ``record``."""

    def __init__(self, run_dir: Path):
        # refused before the stage runs, not when its manifest is written
        existing = next(d for d in (run_dir, *run_dir.parents) if d.exists())
        if not existing.is_dir():
            raise IoFailure(f"--run-dir {run_dir}: {existing} is not a directory")
        self.run_dir = run_dir
        self.path = run_dir / "manifest.json"
        self.data = self._load()

    def _load(self) -> dict:
        if not self.path.exists():
            return {"stages": {}}
        try:
            with text_file(self.path) as handle:
                data = json_document(handle.read(), "manifest")
                stages = data.get("stages") if isinstance(data, dict) else None
                if not isinstance(stages, dict) or not all(
                        isinstance(stage, dict) and isinstance(stage.get("outputs", {}), dict)
                        for stage in stages.values()):
                    raise CorruptManifest("no \"stages\" object of stage records")
        except InvalidConfig as exc:
            raise CorruptManifest(str(exc)) from exc
        return data

    def _rel(self, path: str | Path) -> str:
        return os.path.relpath(Path(path).resolve(), self.run_dir.resolve())

    def check_inputs(self, inputs: list[str | Path]) -> dict[str | Path, str]:
        """Each input's digest, hashed once; any input an earlier stage
        produced must still match the digest that stage recorded."""
        recorded: dict[str, str] = {}
        for stage in self.data["stages"].values():
            recorded.update(stage.get("outputs", {}))
        digests = {}
        for path in inputs:
            digests[path] = _sha256(path)
            rel = self._rel(path)
            if rel in recorded and recorded[rel] != digests[path]:
                raise StaleArtifact(
                    f"input {path} no longer matches the hash recorded by an earlier stage"
                )
        return digests

    def record(self, stage: str, inputs: dict[str | Path, str],
               outputs: list[str | Path]) -> None:
        """Replace the stage's inputs with the digests ``check_inputs`` took;
        add its outputs to those it recorded before, so ``search``'s plan and
        sweep modes both stay checked."""
        earlier = self.data["stages"].get(stage, {}).get("outputs", {})
        self.data["stages"][stage] = {
            "inputs": {self._rel(p): digest for p, digest in inputs.items()},
            "outputs": {**earlier, **{self._rel(p): _sha256(p) for p in outputs}},
        }
        self.run_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.path, self.data)


# --- subcommands ---------------------------------------------------------------------


def _parse_redundant(specs: list[str]) -> list[tuple[int, int, float]]:
    entries = []
    for spec in specs:
        try:
            base, offset, noise = spec.split(":")
            entries.append((int(base), int(offset), float(noise)))
        except ValueError as exc:  # wrong field count or a non-number
            raise InvalidConfig(f"--redundant expects base:offset:noise, got {spec!r}") from exc
    return entries


@contextmanager
def _overflow_names(flag: str):
    """Turn a float32 overflow of what ``flag`` scales into an error naming it,
    with no numpy warning printed."""
    import numpy as np

    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise InvalidConfig(f"{flag} overflows float32") from None


def cmd_synth(args) -> str:
    from .nanomodel import build_toy_container, embed_tokens, forward_trace, make_copy_stream
    from .traceio import SyntheticTrace, write_trace, write_weights

    # every flag is checked before anything is created
    shape = validate_shape(ModelShape(
        num_layers=args.layers, hidden_dim=args.hidden, mlp_dim=args.mlp_dim,
        num_heads=args.heads, num_kv_heads=args.kv_heads, head_dim=args.head_dim,
        vocab_size=args.vocab, tied_embedding=not args.untied,
    ))
    redundant = _parse_redundant(args.redundant)
    if args.trace_mode == "forward" and any(noise != 0 for _, _, noise in redundant):
        raise InvalidConfig("--trace-mode forward copies layers exactly, so every "
                            "--redundant noise must be 0")
    # the trace's arguments are checked before the model is drawn
    if args.trace_mode == "synthetic":
        # drawn as write_trace writes it, so it is never held whole
        trace = SyntheticTrace(shape.num_layers, args.seq_len, shape.hidden_dim,
                               redundant, args.seed)
    else:
        tokens = make_copy_stream(shape.vocab_size, args.seq_len, 1, args.seed)[0]
    duplicates = [(base, offset) for base, offset, _ in redundant]
    with _overflow_names(f"--weight-scale {args.weight_scale:g}"):
        model = build_toy_container(shape, seed=args.seed, weight_scale=args.weight_scale,
                                    duplicate_from=duplicates)
    if args.trace_mode == "forward":
        _, trace, _ = forward_trace(model, embed_tokens(model, tokens))

    out_dir = output_dir(args.out_dir)
    # the trace first, as only its noise can still overflow float32 once drawn
    with _overflow_names("--redundant noise"):
        write_trace(trace, out_dir / "trace.d2mt")
    write_weights(model, out_dir / "model.d2mw")
    write_json(out_dir / "config.json", asdict(PipelineConfig(model=shape)))
    return ""


def cmd_analyze(args) -> str:
    from . import similarity

    out_dir = output_dir(args.out_dir)  # before the trace is read
    matrices = similarity.stream_matrices(args.trace)
    similarity.export_heatmap(matrices, *(out_dir / f"{name}.csv"
                                          for name in similarity.MATRIX_NAMES))
    similarity.write_matrices(matrices, out_dir / "matrices.d2ms")
    return ""


def _parse_list(flag: str, text: str, cast=float) -> list:
    try:
        values = [cast(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"{flag}: bad list {text!r}: {exc}") from exc
    return values


def cmd_search(args) -> str:
    from .search import search, threshold_sweep, write_sweep_csv

    matrices = read_matrices(args.matrices)
    block_sizes = tuple(_parse_list("--block-sizes", args.block_sizes, int))

    if args.sweep:
        if not args.delta_grid or not args.epsilon_grid or not args.sweep_out:
            raise InvalidConfig("--sweep requires --delta-grid, --epsilon-grid, --sweep-out")
        cells = threshold_sweep(
            matrices, _parse_list("--delta-grid", args.delta_grid),
            _parse_list("--epsilon-grid", args.epsilon_grid),
            score_penalty=args.score_penalty, block_sizes=block_sizes)
        write_sweep_csv(cells, args.sweep_out)
        return f" ({len(cells)} cells)"

    if args.delta is None or args.epsilon is None or not args.plan_out:
        raise InvalidConfig("plan mode requires --delta, --epsilon, --plan-out")
    plan = search(matrices, SearchThresholds(
        cos_threshold=args.delta, norm_tolerance=args.epsilon,
        score_penalty=args.score_penalty, block_sizes=block_sizes))
    write_json(args.plan_out, plan_to_dict(plan))
    return f" (prune {sorted(plan.prune_layers)})"


def cmd_fuse(args) -> str:
    from . import surgery
    from .weightfile import open_weights

    with open_weights(args.model) as header:
        num_layers = header.shape.num_layers
    plan = load_plan(args.plan, num_layers)
    provenance, _ = surgery.fuse(args.model, plan, base_copies=args.base_copies,
                                 supp_copies=args.supp_copies, top_k=args.top_k,
                                 destination=args.out)
    write_json(args.provenance_out, surgery.provenance_to_dict(provenance))
    return ""


def cmd_estimate(args) -> str:
    from . import costmodel

    config = load_config(args.config)
    shape = config.model
    breakdown = costmodel.total_latency(shape, config.hardware, config.workload)
    params_total, size_bytes = costmodel.static_memory(
        shape, bytes_per_param=config.hardware.weight_bytes)
    doc = {
        "config_id": Path(args.config).stem,
        "L": shape.num_layers,
        "N": max(shape.experts.values(), default=1),
        "k": shape.moe.top_k if shape.moe else 1,
        "prefill_s": breakdown.prefill_s,
        "prefill_memory_s": breakdown.prefill_memory_s,
        "prefill_bound": breakdown.prefill_bound,
        "decode_s": breakdown.decode_s,
        "decode_compute_s": breakdown.decode_compute_s,
        "decode_bound": breakdown.decode_bound,
        "total_s": breakdown.total_s,
        "params_total": params_total,
        "params_active": costmodel.active_params(shape),
        "bytes": size_bytes,
    }
    write_json(args.out, doc)
    return ""


def cmd_pareto(args) -> str:
    from . import tradeoff

    if (args.w is None) == (args.calibrate is None):  # neither, or both
        raise InvalidConfig("provide either --w or --calibrate FACTOR GAIN")
    candidates = tradeoff.read_candidates_csv(args.candidates)
    exponent = args.w if args.calibrate is None else tradeoff.calibrate_w(*args.calibrate)
    evaluated, best = tradeoff.evaluate_candidates(candidates, args.base_latency, exponent)
    note = f"base_latency_ms={args.base_latency:g} w={exponent:.6f} argmax={best.config_id}"
    tradeoff.write_candidates_csv(evaluated, args.rewards_out, note)
    tradeoff.write_candidates_csv(tradeoff.pareto_frontier(evaluated), args.frontier_out, note)
    return f"; argmax {best.config_id} (reward {best.reward:.2f})"


def cmd_diagnose(args) -> str:
    from .diagnostics import train_log_from_csv, write_summary_csv, wta_metrics

    log = train_log_from_csv(args.log)
    rows = len(log.steps)
    if not -rows <= args.row < rows:
        raise OutOfRange(f"--row {args.row} outside {-rows}..{rows - 1} "
                         f"for a log of {rows} rows")
    write_summary_csv(wta_metrics([log.steps[args.row].loads]), args.out)
    return ""


def cmd_train_toy(args) -> str:
    from .nanomodel import check_topology, make_copy_stream, train_toy
    from .traceio import read_weights, write_weights
    from .weightfile import open_weights

    with open_weights(args.model) as header:
        shape = header.shape
    check_topology(shape)  # from the header, before any tensor is read
    model = read_weights(args.model)
    data = make_copy_stream(model.shape.vocab_size, args.seq_len, args.sequences, args.seed)
    log, trained = train_toy(model, data, steps=args.steps, lr=args.lr, alpha=args.alpha)
    log.to_csv(args.log_out)
    write_weights(trained, args.model_out)
    final = log.steps[-1]
    return f"; final task loss {final.task_loss:.4f}, balance {final.lb_loss:.4f}"


# --- parser & dispatch -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2m",
        description="Dense-to-MoE surgery toolkit: analyze layer redundancy, fuse "
                    "redundant layers into MoE experts, and rank candidate depths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(p, func, *inputs):
        """Give a stage --run-dir, its function, and the flags naming its input files."""
        p.add_argument("--run-dir", default=None,
                       help="directory whose manifest.json tracks stage inputs/outputs")
        p.set_defaults(func=func, inputs=inputs)

    p = sub.add_parser("synth", help="generate a toy model, trace, and config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--mlp-dim", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--kv-heads", type=int, default=2)
    p.add_argument("--head-dim", type=int, default=8)
    p.add_argument("--vocab", type=int, default=64)
    p.add_argument("--untied", action="store_true")
    p.add_argument("--seq-len", type=int, default=96)
    p.add_argument("--weight-scale", type=float, default=0.02)
    p.add_argument("--redundant", action="append", default=[], metavar="BASE:OFFSET:NOISE",
                   help="duplicate layer BASE onto BASE+OFFSET with Gaussian noise")
    p.add_argument("--trace-mode", choices=("synthetic", "forward"), default="synthetic")
    declare(p, cmd_synth)

    p = sub.add_parser("analyze", help="similarity matrices and heatmap CSVs from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True)
    declare(p, cmd_analyze, "trace")

    p = sub.add_parser("search", help="block search (plan) or threshold sweep (CSV)")
    p.add_argument("--matrices", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--score-penalty", type=float, default=SearchThresholds.score_penalty)
    p.add_argument("--block-sizes", default=",".join(map(str, SearchThresholds.block_sizes)))
    p.add_argument("--plan-out", default=None)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--delta-grid", default=None)
    p.add_argument("--epsilon-grid", default=None)
    p.add_argument("--sweep-out", default=None)
    declare(p, cmd_search, "matrices")

    p = sub.add_parser("fuse", help="apply a fusion plan to a dense model")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--base-copies", type=int, required=True)
    p.add_argument("--supp-copies", type=int, required=True)
    p.add_argument("--top-k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance-out", required=True)
    declare(p, cmd_fuse, "model", "plan")

    p = sub.add_parser("estimate", help="latency, memory, and parameter counts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    declare(p, cmd_estimate, "config")

    p = sub.add_parser("pareto", help="rewards and Pareto frontier over candidates")
    p.add_argument("--candidates", required=True)
    p.add_argument("--base-latency", type=float, required=True)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--calibrate", type=float, nargs=2, metavar=("FACTOR", "GAIN"),
                   default=None)
    p.add_argument("--rewards-out", required=True)
    p.add_argument("--frontier-out", required=True)
    declare(p, cmd_pareto, "candidates")

    p = sub.add_parser("diagnose", help="winner-takes-all summary from a training log")
    p.add_argument("--log", required=True)
    p.add_argument("--row", type=int, default=-1,
                   help="log row to diagnose (default: final step)")
    p.add_argument("--out", required=True)
    declare(p, cmd_diagnose, "log")

    p = sub.add_parser("train-toy", help="SGD on a fused toy model's router and experts")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=5.0)
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--log-out", required=True)
    p.add_argument("--model-out", required=True)
    declare(p, cmd_train_toy, "model")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one stage in one output group. Its declared inputs must exist. With
    --run-dir, each input is hashed once before the stage runs (a stale one is
    refused), and the manifest records those digests and its outputs'."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # before a stage creates anything
            raise InvalidConfig(f"--seed must be non-negative, got {args.seed}")
        inputs = [getattr(args, name) for name in args.inputs]
        for path in inputs:
            if not Path(path).exists():
                raise MissingInput(f"input does not exist: {path}")
        run = PipelineRun(Path(args.run_dir)) if args.run_dir else None
        digests = run.check_inputs(inputs) if run else {}
        with staged_outputs() as group:
            note = args.func(args)
        if run:
            run.record(args.command, digests, group.written)
        print(f"wrote {', '.join(map(str, group.written))}{note}")
        return EXIT_OK
    except (VerificationFailure, NonFiniteActivation, NonFiniteGradient,
            DivergenceDetected, StaleArtifact, CorruptManifest) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except D2mError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
