"""The two benchmark workloads: inputs, timed CLI chain and output checks.

Each workload puts almost all of its work in one module, so that a gain in
one layer shows on one workload and a cost to another use of the same layer
shows on another:

- ``analyze_ref``: a reference-scale trace (L=24, T=1024, d=896, 176 MB), so
  trace reads and the similarity matrices dominate; a 60x60 threshold sweep
  and one search follow on the small matrices.
- ``train_desk``: the README toy pipeline, where the toy trainer dominates and
  seven short stages expose the per-stage start-up cost.

Checks compare outputs with independent oracles; their tolerances hold for
any implementation that computes the same quantities.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Stage:
    label: str
    args: list[str]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Context:
    seed: int
    inputs: Path
    chain: Path
    # per-layer timings that checks take in the benchmark process, outside
    # the CLI, by metric name: one value per repeat
    measured: dict[str, list[float]] = field(default_factory=dict)


def _synth(ctx: Context, *flags: str) -> Stage:
    return Stage("synth", ["synth", "--out-dir", str(ctx.inputs), "--seed", str(ctx.seed),
                           *flags])


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_matrices(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a D2MS cache (magic, version, L, three L*L f64-LE matrices).

    A parser of its own rather than ``d2m.similarity.read_matrices``, so that
    the analyze_ref check also holds the cache format to its specification.
    """
    raw = path.read_bytes()
    if raw[:4] != b"D2MS":
        raise ValueError(f"{path} is not a matrices cache")
    num_layers = int(np.frombuffer(raw, dtype="<u4", count=1, offset=8)[0])
    mats = np.frombuffer(raw, dtype="<f8", count=3 * num_layers ** 2, offset=12)
    s_out, s_mlp, delta = mats.reshape(3, num_layers, num_layers)
    return s_out, s_mlp, delta


def _plan(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")]


def _finite_floats(cells: list[str]) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in cells)
    except ValueError:
        return False


class AnalyzeRef:
    name = "analyze_ref"
    layers, seq_len, hidden = 24, 1024, 896
    planted = ((5, 1, 0.01), (11, 1, 0.01), (18, 1, 0.01))
    delta, epsilon = 0.05, 0.1
    sampled_pairs = 12
    delta_grid = np.geomspace(1e-3, 0.9, 60)
    epsilon_grid = np.geomspace(1e-3, 0.9, 60)
    block_sizes = (1, 2, 3, 4)
    sampled_cells = 24
    lookup_repeats = 20

    def setup(self, ctx: Context) -> list[Stage]:
        # A minimal model (mlp 8, one 8-wide head): set-up time is the trace.
        redundant = [f for b, o, n in self.planted for f in ("--redundant", f"{b}:{o}:{n}")]
        return [_synth(ctx, "--layers", str(self.layers), "--hidden", str(self.hidden),
                       "--mlp-dim", "8", "--heads", "1", "--kv-heads", "1", "--head-dim", "8",
                       "--vocab", "8", "--seq-len", str(self.seq_len), *redundant)]

    def chain(self, ctx: Context) -> list[Stage]:
        analysis = ctx.chain / "analysis"
        matrices = str(analysis / "matrices.d2ms")
        return [
            Stage("analyze", ["analyze", "--trace", str(ctx.inputs / "trace.d2mt"),
                              "--out-dir", str(analysis), "--run-dir", str(ctx.chain)]),
            Stage("sweep", ["search", "--matrices", matrices, "--sweep",
                            "--delta-grid", _grid(self.delta_grid),
                            "--epsilon-grid", _grid(self.epsilon_grid),
                            "--block-sizes", ",".join(str(s) for s in self.block_sizes),
                            "--sweep-out", str(ctx.chain / "sweep.csv")]),
            Stage("search", ["search", "--matrices", matrices,
                             "--delta", repr(self.delta), "--epsilon", repr(self.epsilon),
                             "--plan-out", str(ctx.chain / "plan.json"),
                             "--run-dir", str(ctx.chain)]),
        ]

    def _grid_points(self) -> list[tuple[float, float]]:
        return [(float(d), float(e)) for d in self.delta_grid for e in self.epsilon_grid]

    def check_chain(self, ctx: Context) -> list[Check]:
        want = sorted(b + o for b, o, _ in self.planted)
        got = _plan(ctx.chain / "plan.json")["prune"]
        rows = _csv_rows(ctx.chain / "sweep.csv")[1:]
        points = self._grid_points()
        ordered = len(rows) == len(points) and all(
            row[0] == f"{d:.8e}" and row[1] == f"{e:.8e}" for row, (d, e) in zip(rows, points))
        counts_ok = ordered and all(0 <= int(row[2]) < self.layers for row in rows)
        return [
            Check("analyze_ref.plan_prunes_planted", got == want, f"pruned {got}, want {want}"),
            Check("analyze_ref.sweep_rows", counts_ok,
                  f"{len(rows)} rows for a {len(points)}-cell grid"),
        ]

    def check_run(self, ctx: Context) -> list[Check]:
        return self._check_matrices(ctx) + self._check_sweep(ctx)

    def _check_matrices(self, ctx: Context) -> list[Check]:
        from d2m.similarity import norm_mismatch, seq_avg_cosine

        s_out, s_mlp, delta = _read_matrices(ctx.chain / "analysis" / "matrices.d2ms")
        path = ctx.inputs / "trace.d2mt"
        header = np.fromfile(path, dtype="<u4", count=5, offset=0)
        dims = (self.layers, self.seq_len, self.hidden)
        payload = np.memmap(path, dtype="<f4", mode="r", offset=20,
                            shape=(2, *dims)) if tuple(header[2:]) == dims else None
        if payload is None:
            return [Check("analyze_ref.trace_header", False, f"header {header}")]
        rng = np.random.default_rng(ctx.seed)
        pairs = {(b - 1, b + o - 1) for b, o, _ in self.planted}
        while len(pairs) < self.sampled_pairs:
            i, j = sorted(int(v) for v in rng.choice(self.layers, size=2, replace=False))
            pairs.add((i, j))
        errors = {"s_out": 0.0, "s_mlp": 0.0, "delta_norm": 0.0}
        for i, j in sorted(pairs):
            h_i, h_j = (np.asarray(payload[0, k], dtype=np.float64) for k in (i, j))
            y_i, y_j = (np.asarray(payload[1, k], dtype=np.float64) for k in (i, j))
            errors["s_out"] = max(errors["s_out"], abs(s_out[i, j] - seq_avg_cosine(y_i, y_j)))
            errors["s_mlp"] = max(errors["s_mlp"], abs(s_mlp[i, j] - seq_avg_cosine(h_i, h_j)))
            # the later layer is the norm-mismatch denominator
            errors["delta_norm"] = max(errors["delta_norm"],
                                       abs(delta[i, j] - norm_mismatch(h_i, h_j)))
        del payload
        return [Check(f"analyze_ref.{name}_matches_oracle", err <= 1e-12,
                      f"max |error| {err:.3e} over {len(pairs)} pairs")
                for name, err in errors.items()]

    def _check_sweep(self, ctx: Context) -> list[Check]:
        from d2m.config import SearchThresholds
        from d2m.search import plan_from_depth, search, threshold_sweep
        from d2m.similarity import read_matrices

        matrices = read_matrices(ctx.chain / "analysis" / "matrices.d2ms")
        counts = [int(row[2]) for row in _csv_rows(ctx.chain / "sweep.csv")[1:]]
        cells = threshold_sweep(matrices, list(self.delta_grid), list(self.epsilon_grid),
                                score_penalty=1.0, block_sizes=self.block_sizes)
        same_counts = counts == [c.pruned_count for c in cells]

        def single(d: float, e: float):
            return search(matrices, SearchThresholds(cos_threshold=d, norm_tolerance=e,
                                                     score_penalty=1.0,
                                                     block_sizes=self.block_sizes))

        rng = np.random.default_rng(ctx.seed)
        sampled = rng.choice(len(cells), size=self.sampled_cells, replace=False)
        mismatched = [int(i) for i in sampled
                      if single(cells[i].cos_threshold, cells[i].norm_tolerance) != cells[i].plan
                      or cells[i].pruned_count != counts[i]]

        # plan_from_depth must find every reported depth at its tightest cell
        points = self._grid_points()
        tightest: dict[int, tuple[float, float]] = {}
        for (d, e), n in zip(points, counts):
            tightest[n] = min(tightest.get(n, (d, e)), (d, e))
        # No CLI stage calls plan_from_depth, so it is timed here, in the
        # benchmark process, once per repeat of the lookups of every depth.
        lookup_s = []
        for _ in range(self.lookup_repeats):
            start = time.perf_counter()
            found = {n: plan_from_depth(cells, self.layers - n) for n in sorted(tightest)}
            lookup_s.append(time.perf_counter() - start)
        lookups_ok = []
        for n, (d, e, plan) in found.items():
            lookups_ok.append((d, e) == tightest[n] and len(plan.prune_layers) == n)
        ctx.measured["search.plan_from_depth.s"] = lookup_s
        return [
            Check("analyze_ref.sweep_matches_library", same_counts,
                  "CLI sweep counts differ from threshold_sweep"),
            Check("analyze_ref.cells_match_single_search", not mismatched,
                  f"cells {mismatched} differ from a single search()"),
            Check("analyze_ref.plan_from_depth_finds_depths", all(lookups_ok),
                  f"{lookups_ok.count(False)} of {len(lookups_ok)} depths not found"),
        ]


class TrainDesk:
    name = "train_desk"
    steps = 200
    probe_tokens = 16
    calibrate = (2.0, 1.11)

    def setup(self, ctx: Context) -> list[Stage]:
        # Candidates for pareto: one per retained depth, drawn from the seed.
        rng = random.Random(ctx.seed)
        base = 150.0 + 100.0 * rng.random()
        lines = ["config_id,depth,latency_ms,score,reward"]
        for depth in (5, 4, 3, 2):
            latency = base * depth / 5 * (1.0 + 0.05 * rng.random())
            score = 1.0 - (5 - depth) * 0.1 * (0.5 + rng.random())
            lines.append(f"L{depth},{depth},{latency!r},{score!r},")
        (ctx.inputs / "candidates.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (ctx.inputs / "base_latency").write_text(repr(base), encoding="utf-8")
        return [_synth(ctx, "--layers", "5", "--hidden", "16", "--mlp-dim", "32", "--heads", "2",
                       "--kv-heads", "1", "--head-dim", "8", "--vocab", "32", "--seq-len", "48",
                       "--redundant", "4:1:0.0")]

    def chain(self, ctx: Context) -> list[Stage]:
        c, i = ctx.chain, ctx.inputs
        run_dir = ["--run-dir", str(c)]
        base = (i / "base_latency").read_text(encoding="utf-8")
        return [
            Stage("analyze", ["analyze", "--trace", str(i / "trace.d2mt"),
                              "--out-dir", str(c / "analysis"), *run_dir]),
            Stage("search", ["search", "--matrices", str(c / "analysis" / "matrices.d2ms"),
                             "--delta", "0.05", "--epsilon", "0.1",
                             "--plan-out", str(c / "plan.json"), *run_dir]),
            Stage("fuse", ["fuse", "--model", str(i / "model.d2mw"), "--plan", str(c / "plan.json"),
                           "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                           "--out", str(c / "fused.d2mw"), "--provenance-out", str(c / "prov.json"),
                           *run_dir]),
            Stage("estimate", ["estimate", "--config", str(i / "config.json"),
                               "--out", str(c / "cost.json"), *run_dir]),
            Stage("train-toy", ["train-toy", "--model", str(c / "fused.d2mw"),
                                "--steps", str(self.steps), "--lr", "5.0", "--alpha", "1e-3",
                                "--seed", str(ctx.seed), "--seq-len", "64", "--sequences", "4",
                                "--log-out", str(c / "train_log.csv"),
                                "--model-out", str(c / "trained.d2mw"), *run_dir]),
            Stage("diagnose", ["diagnose", "--log", str(c / "train_log.csv"),
                               "--out", str(c / "wta.csv"), *run_dir]),
            Stage("pareto", ["pareto", "--candidates", str(i / "candidates.csv"),
                             "--base-latency", base,
                             "--calibrate", *(repr(v) for v in self.calibrate),
                             "--rewards-out", str(c / "rewards.csv"),
                             "--frontier-out", str(c / "frontier.csv"), *run_dir]),
        ]

    def _expected_argmax(self, ctx: Context) -> str:
        base = float((ctx.inputs / "base_latency").read_text(encoding="utf-8"))
        factor, gain = self.calibrate
        w = -math.log(gain) / math.log(factor)
        rows = _csv_rows(ctx.inputs / "candidates.csv")[1:]
        best = max(rows, key=lambda r: (float(r[3]) * (float(r[2]) / base) ** w, -float(r[2])))
        return best[0]

    def check_chain(self, ctx: Context) -> list[Check]:
        c = ctx.chain
        prune = _plan(c / "plan.json")["prune"]
        cost = json.loads((c / "cost.json").read_text(encoding="utf-8"))
        log = _csv_rows(c / "train_log.csv")
        summary = _csv_rows(c / "wta.csv")[1:]
        rewards = _csv_rows(c / "rewards.csv")[1:]
        frontier = _csv_rows(c / "frontier.csv")[1:]
        header = (c / "rewards.csv").read_text(encoding="utf-8").splitlines()[0]
        argmax = re.search(r"argmax=(\S+)", header)
        want = self._expected_argmax(ctx)
        return [
            Check("train_desk.plan_prunes_planted", prune == [5], f"pruned {prune}"),
            Check("train_desk.estimate_parses",
                  math.isfinite(cost.get("total_s", math.nan)) and cost["total_s"] > 0,
                  f"total_s {cost.get('total_s')}"),
            Check("train_desk.train_log_finite",
                  len(log) == self.steps + 1 and all(_finite_floats(r) for r in log[1:]),
                  f"{len(log) - 1} log rows for {self.steps} steps"),
            Check("train_desk.diagnose_parses",
                  bool(summary) and all(_finite_floats(r[1:]) for r in summary),
                  f"{len(summary)} summary rows"),
            Check("train_desk.pareto_argmax", argmax is not None and argmax.group(1) == want,
                  f"header {header!r}, expected argmax {want}"),
            Check("train_desk.pareto_parses",
                  len(rewards) == 4 and bool(frontier)
                  and all(_finite_floats(r[2:]) for r in rewards + frontier),
                  f"{len(rewards)} reward rows, {len(frontier)} frontier rows"),
        ]

    def check_run(self, ctx: Context) -> list[Check]:
        from d2m.config import plan_from_json
        from d2m.surgery import functional_equivalence_check
        from d2m.traceio import read_weights

        dense = read_weights(ctx.inputs / "model.d2mw")
        fused = read_weights(ctx.chain / "fused.d2mw")
        plan = plan_from_json((ctx.chain / "plan.json").read_text(encoding="utf-8"))
        probe = np.random.default_rng(ctx.seed).standard_normal(
            (self.probe_tokens, dense.shape.hidden_dim))
        gap = functional_equivalence_check(dense, fused, plan, probe)
        return [Check("train_desk.fused_matches_pruned", gap <= 1e-12,
                      f"max |deviation| {gap:.3e}")]


WORKLOADS = {w.name: w for w in (AnalyzeRef(), TrainDesk())}
