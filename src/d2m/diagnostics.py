"""Winner-takes-all routing diagnostics.

A layer's load profile is the distribution of hard top-1 assignments over its
experts (``nanomodel.load_profiles`` counts them for a model); the summary
aggregates per-layer profiles into the six standard concentration metrics
(mean dominant load, threshold exceedances, dominance ratio against uniform,
top-bottom gap, and natural-log entropy). The toy
trainer's log lives here too, so that ``diagnose`` loads no toy model. The
module works in plain Python floats, so ``diagnose`` starts without numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

from .config import output_file, text_file
from .errors import DimensionMismatch, EmptyRecord, InvalidConfig

DEFAULT_THRESHOLDS = (0.4, 0.5)


@dataclass(frozen=True)
class LayerLoadProfile:
    """Per-expert top-1 load fractions of one layer."""

    layer: int
    loads: tuple[float, ...]

    @property
    def winner(self) -> int:
        """The 1-based expert of the largest load; a tie goes to the smaller index."""
        return self.loads.index(max(self.loads)) + 1

    @property
    def top_load(self) -> float:
        return max(self.loads)


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


def profile_entropy(profile: LayerLoadProfile) -> float:
    """Natural-log entropy with the 0*ln(0) := 0 convention."""
    return -sum((p * math.log(p) for p in profile.loads if p > 0), 0.0)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def wta_metrics(profiles: Sequence[LayerLoadProfile], num_experts: int) -> WtaSummary:
    """Aggregate the six winner-takes-all metrics over layers, counting the
    layers whose top load exceeds each of DEFAULT_THRESHOLDS."""
    if not profiles:
        raise EmptyRecord("wta_metrics needs at least one layer profile")
    for p in profiles:
        if len(p.loads) != num_experts:
            raise DimensionMismatch(
                f"layer {p.layer} profile has {len(p.loads)} experts, expected {num_experts}"
            )
    tops = [p.top_load for p in profiles]
    layers_above = tuple(
        (th, sum(top > th for top in tops)) for th in DEFAULT_THRESHOLDS
    )
    return WtaSummary(
        num_layers=len(profiles),
        num_experts=num_experts,
        mean_top_load=_mean(tops),
        layers_above=layers_above,
        mean_top_uniform_ratio=_mean([top * num_experts for top in tops]),
        mean_top_bottom_gap=_mean([p.top_load - min(p.loads) for p in profiles]),
        mean_entropy=_mean([profile_entropy(p) for p in profiles]),
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
