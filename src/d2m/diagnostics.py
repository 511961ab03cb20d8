"""Winner-takes-all routing diagnostics.

A layer's load profile is the distribution of hard top-1 assignments over its
experts; the summary aggregates per-layer profiles into the six standard
concentration metrics (mean dominant load, threshold exceedances, dominance
ratio against uniform, top-bottom gap, and natural-log entropy).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import text_file
from .errors import EmptyAssignments, InvalidConfig, LayerCountMismatch
from .nanomodel import RoutingRecord

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
    per_layer_top: tuple[float, ...]


def load_profile(record_or_assignments, num_experts: int, layer: int = 1) -> LayerLoadProfile:
    """Count hard top-1 assignments; winner ties resolve to the smaller index."""
    if isinstance(record_or_assignments, RoutingRecord):
        assignments = np.argmax(record_or_assignments.probabilities, axis=1)
    else:
        assignments = np.asarray(record_or_assignments, dtype=np.int64)
    if assignments.size == 0:
        raise EmptyAssignments("load_profile needs at least one token")
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
        raise EmptyAssignments("wta_metrics needs at least one layer profile")
    for p in profiles:
        if len(p.loads) != num_experts:
            raise LayerCountMismatch(
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
        per_layer_top=tuple(float(v) for v in tops),
    )


@dataclass(frozen=True)
class RunComparison:
    """Per-metric deltas (first minus second) and per-layer load differences."""

    mean_top_load: float
    layers_above: tuple[tuple[float, int], ...]
    mean_top_uniform_ratio: float
    mean_top_bottom_gap: float
    mean_entropy: float
    per_layer_top_diff: tuple[float, ...]


def compare_runs(a: WtaSummary, b: WtaSummary) -> RunComparison:
    """Elementwise a - b across metrics and per-layer top loads."""
    if a.num_layers != b.num_layers:
        raise LayerCountMismatch(
            f"cannot compare {a.num_layers}-layer and {b.num_layers}-layer runs"
        )
    thresholds_a = tuple(th for th, _ in a.layers_above)
    thresholds_b = tuple(th for th, _ in b.layers_above)
    if thresholds_a != thresholds_b:
        raise LayerCountMismatch("summaries use different threshold sets")
    return RunComparison(
        mean_top_load=a.mean_top_load - b.mean_top_load,
        layers_above=tuple(
            (th, ca - cb) for (th, ca), (_, cb) in zip(a.layers_above, b.layers_above)
        ),
        mean_top_uniform_ratio=a.mean_top_uniform_ratio - b.mean_top_uniform_ratio,
        mean_top_bottom_gap=a.mean_top_bottom_gap - b.mean_top_bottom_gap,
        mean_entropy=a.mean_entropy - b.mean_entropy,
        per_layer_top_diff=tuple(
            ta - tb for ta, tb in zip(a.per_layer_top, b.per_layer_top)
        ),
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
    with text_file(destination, "w") as handle:
        csv.writer(handle).writerows(rows)


def write_per_layer_csv(profiles: Sequence[LayerLoadProfile], destination) -> None:
    if not profiles:
        raise EmptyAssignments("no profiles to write")
    num_experts = len(profiles[0].loads)
    rows = [["layer", "winner", "top_load"]
            + [f"p_{i}" for i in range(1, num_experts + 1)]]
    for p in profiles:
        rows.append([str(p.layer), str(p.winner), f"{p.top_load:.6f}"]
                    + [f"{v:.6f}" for v in p.loads])
    with text_file(destination, "w") as handle:
        csv.writer(handle).writerows(rows)
