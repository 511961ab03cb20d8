"""Winner-takes-all routing diagnostics.

A layer's load profile is the distribution of hard top-1 assignments over its
experts; the summary aggregates per-layer profiles into the six standard
concentration metrics (mean dominant load, threshold exceedances, dominance
ratio against uniform, top-bottom gap, and natural-log entropy). The toy
trainer's log lives here too, so that ``diagnose`` loads no toy model.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import output_file, text_file
from .errors import DimensionMismatch, EmptyRecord, InvalidConfig

DEFAULT_THRESHOLDS = (0.4, 0.5)


@dataclass(frozen=True)
class LayerLoadProfile:
    """Per-expert top-1 load fractions of one layer."""

    layer: int
    loads: tuple[float, ...]
    winner: int

    @property
    def top_load(self) -> float:
        return self.loads[self.winner - 1]


@dataclass(frozen=True)
class WtaSummary:
    """Aggregate concentration metrics over per-layer profiles."""

    num_layers: int
    num_experts: int
    mean_top_load: float
    layers_above: tuple[tuple[float, int], ...]
    mean_top_uniform_ratio: float
    mean_top_bottom_gap: float
    mean_entropy: float


def load_profile(assignments, num_experts: int, layer: int = 1) -> LayerLoadProfile:
    """Count hard top-1 assignments (0-based expert indices); winner ties
    resolve to the smaller index."""
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.size == 0:
        raise EmptyRecord("load_profile needs at least one token")
    if assignments.min() < 0 or assignments.max() >= num_experts:
        raise InvalidConfig(
            f"assignment indices must lie in [0, {num_experts}), "
            f"got range [{assignments.min()}, {assignments.max()}]"
        )
    counts = np.bincount(assignments, minlength=num_experts)
    loads = counts / assignments.size
    winner = int(np.argmax(loads)) + 1
    return LayerLoadProfile(layer=layer, loads=tuple(float(v) for v in loads), winner=winner)


def profile_entropy(profile: LayerLoadProfile) -> float:
    """Natural-log entropy with the 0*ln(0) := 0 convention."""
    loads = np.asarray(profile.loads)
    nz = loads[loads > 0]
    return float(-(nz * np.log(nz)).sum())


def wta_metrics(profiles: Sequence[LayerLoadProfile], num_experts: int,
                thresholds: Sequence[float] = DEFAULT_THRESHOLDS) -> WtaSummary:
    """Aggregate the six winner-takes-all metrics over layers."""
    if not profiles:
        raise EmptyRecord("wta_metrics needs at least one layer profile")
    for p in profiles:
        if len(p.loads) != num_experts:
            raise DimensionMismatch(
                f"layer {p.layer} profile has {len(p.loads)} experts, expected {num_experts}"
            )
    tops = np.array([p.top_load for p in profiles])
    bottoms = np.array([min(p.loads) for p in profiles])
    entropies = np.array([profile_entropy(p) for p in profiles])
    layers_above = tuple(
        (float(th), int(np.sum(tops > th))) for th in sorted(thresholds)
    )
    return WtaSummary(
        num_layers=len(profiles),
        num_experts=num_experts,
        mean_top_load=float(tops.mean()),
        layers_above=layers_above,
        mean_top_uniform_ratio=float((tops * num_experts).mean()),
        mean_top_bottom_gap=float((tops - bottoms).mean()),
        mean_entropy=float(entropies.mean()),
    )


def write_summary_csv(summary: WtaSummary, destination) -> None:
    """The six metric rows, one per line."""
    rows = [["metric", "value"],
            ["mean_top_expert_load", f"{summary.mean_top_load:.6f}"]]
    for th, count in summary.layers_above:
        rows.append([f"layers_top_gt_{int(round(th * 100))}", str(count)])
    rows += [
        ["mean_top_uniform_ratio", f"{summary.mean_top_uniform_ratio:.6f}"],
        ["mean_top_bottom_gap", f"{summary.mean_top_bottom_gap:.6f}"],
        ["mean_entropy", f"{summary.mean_entropy:.6f}"],
    ]
    with output_file(destination) as handle:
        csv.writer(handle).writerows(rows)


def write_per_layer_csv(profiles: Sequence[LayerLoadProfile], destination) -> None:
    if not profiles:
        raise EmptyRecord("no profiles to write")
    num_experts = len(profiles[0].loads)
    rows = [["layer", "winner", "top_load"]
            + [f"p_{i}" for i in range(1, num_experts + 1)]]
    for p in profiles:
        rows.append([str(p.layer), str(p.winner), f"{p.top_load:.6f}"]
                    + [f"{v:.6f}" for v in p.loads])
    with output_file(destination) as handle:
        csv.writer(handle).writerows(rows)


@dataclass(frozen=True)
class TrainStep:
    step: int
    task_loss: float
    lb_loss: float
    loads: tuple[float, ...]


@dataclass
class TrainLog:
    steps: list[TrainStep] = field(default_factory=list)

    @property
    def num_experts(self) -> int:
        return len(self.steps[0].loads)

    def to_csv(self, destination) -> None:
        rows = [["step", "task_loss", "lb_loss"]
                + [f"load_e{i}" for i in range(1, self.num_experts + 1)]]
        for s in self.steps:
            rows.append([str(s.step), f"{s.task_loss:.12e}", f"{s.lb_loss:.12e}"]
                        + [f"{v:.12e}" for v in s.loads])
        with output_file(destination) as handle:
            csv.writer(handle).writerows(rows)


LOAD_SUM_TOLERANCE = 1e-9


def train_log_from_csv(source) -> TrainLog:
    """Parse a training log; every row needs one cell per header column, an
    integer step, finite losses, and loads in [0, 1] that sum to one within
    LOAD_SUM_TOLERANCE."""
    with text_file(source) as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:3] != ["step", "task_loss", "lb_loss"] or len(rows[0]) < 4:
        raise InvalidConfig("not a training log CSV (bad header)")
    log = TrainLog()
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise InvalidConfig(f"training log row {number} has {len(row)} cells "
                                f"for {len(rows[0])} columns")
        try:
            step = TrainStep(step=int(row[0]), task_loss=float(row[1]),
                             lb_loss=float(row[2]), loads=tuple(float(v) for v in row[3:]))
        except ValueError as exc:
            raise InvalidConfig(f"training log row {number} is malformed: {exc}") from exc
        if not all(map(math.isfinite, (step.task_loss, step.lb_loss, *step.loads))):
            raise InvalidConfig(f"training log row {number} has a non-finite value: {row}")
        if not (all(0.0 <= v <= 1.0 for v in step.loads)
                and abs(math.fsum(step.loads) - 1.0) <= LOAD_SUM_TOLERANCE):
            raise InvalidConfig(f"training log row {number} has loads outside [0, 1] "
                                f"or not summing to 1: {row}")
        log.steps.append(step)
    if not log.steps:
        raise InvalidConfig("training log has no data rows")
    return log
