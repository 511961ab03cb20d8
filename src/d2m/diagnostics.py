"""Winner-takes-all routing diagnostics.

A layer's load profile is a plain tuple of its experts' top-1 load fractions,
the share of tokens whose largest routing probability picks each expert
(``nanomodel.load_profiles`` counts them for each MoE layer of a model, keyed
by layer; a training log row holds them for the trainer's one MoE layer). The
summary aggregates a sequence of profiles, one per layer, into the six
standard concentration metrics (mean dominant load, threshold exceedances,
dominance ratio against uniform, top-bottom gap, and natural-log entropy).
The toy trainer's log lives here too, so that ``diagnose`` loads no toy
model. The module works in plain Python floats, so ``diagnose`` starts
without numpy.
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
class WtaSummary:
    """Aggregate concentration metrics over per-layer profiles."""

    mean_top_load: float
    layers_above: tuple[tuple[float, int], ...]
    mean_top_uniform_ratio: float
    mean_top_bottom_gap: float
    mean_entropy: float


def profile_entropy(loads: Sequence[float]) -> float:
    """Natural-log entropy with the 0*ln(0) := 0 convention."""
    return -sum((p * math.log(p) for p in loads if p > 0), 0.0)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def wta_metrics(profiles: Sequence[Sequence[float]]) -> WtaSummary:
    """Aggregate the six winner-takes-all metrics over layers, one load
    profile each, counting the layers whose top load exceeds each of
    DEFAULT_THRESHOLDS. The first profile sets the expert count."""
    if not profiles:
        raise EmptyRecord("wta_metrics needs at least one layer profile")
    num_experts = len(profiles[0])
    for position, loads in enumerate(profiles):
        if len(loads) != num_experts:
            raise DimensionMismatch(f"profile {position} has {len(loads)} experts, "
                                    f"profile 0 has {num_experts}")
    tops = [max(loads) for loads in profiles]
    layers_above = tuple(
        (th, sum(top > th for top in tops)) for th in DEFAULT_THRESHOLDS
    )
    return WtaSummary(
        mean_top_load=_mean(tops),
        layers_above=layers_above,
        mean_top_uniform_ratio=_mean([top * num_experts for top in tops]),
        mean_top_bottom_gap=_mean([top - min(loads) for top, loads in zip(tops, profiles)]),
        mean_entropy=_mean([profile_entropy(loads) for loads in profiles]),
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
