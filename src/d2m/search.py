"""Greedy global search for redundant layer blocks, plus the threshold-to-depth
sweep used to pick a pruning depth.

A block (base l, size n) is valid when every offset k in 1..n clears the
cosine thresholds against the base and stays inside the norm tolerance; valid
blocks are scored, sorted, and accepted greedily so that no layer is claimed
twice (the base counts as claimed, so it can never double as another block's
redundant member). Ties are broken by smaller base, then smaller size, which
makes the result independent of enumeration order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import (
    FusionBlock,
    FusionPlan,
    SearchThresholds,
    output_file,
    validate_plan,
    validate_score_penalty,
    validate_thresholds,
)
from .errors import DepthUnreachable, OutOfRange
from .similarity import SimilarityMatrices


@dataclass(frozen=True)
class SweepCell:
    """One (delta, epsilon) grid cell of the threshold sweep."""

    cos_threshold: float
    norm_tolerance: float
    pruned_count: int
    plan: FusionPlan


@dataclass(frozen=True)
class _BlockTable:
    """Every (base, size) block that fits, sorted once by (-score, base, size).

    ``low`` is the least of both cosines over a block's offsets and ``high``
    its largest norm gap, so a block clears the thresholds iff ``low`` and
    ``high`` do: a minimum above a bar means every value is above it, and a
    NaN anywhere in the block carries through and fails both tests.
    """

    num_layers: int
    base: np.ndarray
    size: np.ndarray
    low: np.ndarray
    high: np.ndarray
    score: np.ndarray

    def valid(self, cos_threshold: float, norm_tolerance: float) -> np.ndarray:
        return (self.low > 1.0 - cos_threshold) & (self.high < norm_tolerance)


def _block_table(matrices: SimilarityMatrices, score_penalty: float,
                 block_sizes: Iterable[int]) -> _BlockTable:
    num_layers = matrices.num_layers
    sizes = sorted(set(block_sizes))
    if sizes and sizes[0] < 1:
        raise OutOfRange(f"block sizes must be positive, got {sizes[0]}")
    # Column k - 1 of row i holds offset k from base i + 1; columns past the
    # end of the stack repeat the last layer and are never read, because
    # every statistic below is a prefix along the row.
    rows = np.arange(num_layers)[:, None]
    cols = np.minimum(rows + np.arange(1, num_layers), num_layers - 1)
    s_out, s_mlp, gap = (m[rows, cols] for m in (matrices.s_out, matrices.s_mlp,
                                                 matrices.delta_norm))
    low = np.minimum.accumulate(np.minimum(s_out, s_mlp), axis=1)
    high = np.maximum.accumulate(gap, axis=1)
    # mean over offsets of the two cosines' average minus the penalized gap;
    # cumsum adds in offset order
    total = np.cumsum((s_out + s_mlp) / 2.0 - score_penalty * gap, axis=1)

    base, size = np.array([(b, n) for b in range(1, num_layers + 1) for n in sizes
                           if b + n <= num_layers], dtype=np.int64).reshape(-1, 2).T
    i, k = base - 1, size - 1
    score = total[i, k] / size
    order = np.lexsort((size, base, -score))
    return _BlockTable(num_layers, base[order], size[order], low[i, k][order],
                       high[i, k][order], score[order])


def _search_raw(table: _BlockTable, cos_threshold: float,
                norm_tolerance: float) -> FusionPlan:
    num_layers = table.num_layers
    accept = table.valid(cos_threshold, norm_tolerance)
    occupied: set[int] = set()
    blocks: list[FusionBlock] = []
    for base, size in zip(table.base[accept].tolist(), table.size[accept].tolist()):
        span = set(range(base, base + size + 1))
        if span & occupied:
            continue
        occupied |= span
        blocks.append(FusionBlock(base=base, redundant=tuple(range(base + 1, base + size + 1))))
    blocks.sort(key=lambda b: b.base)
    prune = frozenset(i for b in blocks for i in b.redundant)
    keep = tuple(i for i in range(1, num_layers + 1) if i not in prune)
    plan = FusionPlan(keep_layers=keep, prune_layers=prune, blocks=tuple(blocks))
    return validate_plan(plan, num_layers)


def search(matrices: SimilarityMatrices, thresholds: SearchThresholds) -> FusionPlan:
    """Run the full greedy block search with validated thresholds."""
    validate_thresholds(thresholds)
    table = _block_table(matrices, thresholds.score_penalty, thresholds.block_sizes)
    return _search_raw(table, thresholds.cos_threshold, thresholds.norm_tolerance)


def threshold_sweep(matrices: SimilarityMatrices,
                    cos_grid: Sequence[float], norm_grid: Sequence[float],
                    score_penalty: float = 1.0,
                    block_sizes: Sequence[int] = (1, 2, 3)) -> list[SweepCell]:
    """Run the search over the grid and record each cell's pruned-layer count.

    Grid values outside (0, 1) are legal here (a zero cosine threshold simply
    prunes nothing); cells are returned row-major in the given grid order.
    Blocks are scored and sorted once for the whole grid, since neither
    depends on the thresholds.
    """
    if not len(cos_grid) or not len(norm_grid):
        raise OutOfRange("sweep grids must be non-empty")
    validate_score_penalty(score_penalty)
    table = _block_table(matrices, score_penalty, block_sizes)
    cells = []
    for d in cos_grid:
        for e in norm_grid:
            plan = _search_raw(table, d, e)
            cells.append(SweepCell(d, e, len(plan.prune_layers), plan))
    return cells


def plan_from_depth(cells: Iterable[SweepCell], target_kept: int) -> tuple[float, float, FusionPlan]:
    """Pick the tightest sweep cell (smallest delta, then epsilon) whose plan
    keeps exactly ``target_kept`` layers."""
    best: SweepCell | None = None
    for cell in cells:
        kept = len(cell.plan.keep_layers)
        if kept != target_kept:
            continue
        if best is None or (cell.cos_threshold, cell.norm_tolerance) < (
                best.cos_threshold, best.norm_tolerance):
            best = cell
    if best is None:
        raise DepthUnreachable(f"no sweep cell keeps exactly {target_kept} layers")
    return best.cos_threshold, best.norm_tolerance, best.plan


def write_sweep_csv(cells: Sequence[SweepCell], path: str | Path) -> None:
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["delta", "epsilon", "pruned_count"])
        for cell in cells:
            writer.writerow([f"{cell.cos_threshold:.8e}", f"{cell.norm_tolerance:.8e}",
                             str(cell.pruned_count)])
