"""Greedy global search for redundant layer blocks, plus the threshold-to-depth
sweep used to pick a pruning depth.

A block (base l, size n) is valid when every offset k in 1..n clears the
cosine thresholds against the base and stays inside the norm tolerance; valid
blocks are scored, sorted, and accepted greedily so that no layer is claimed
twice (the base counts as claimed, so it can never double as another block's
redundant member). Ties are broken by smaller base, then smaller size, which
makes the result independent of enumeration order.

The search reads each matrix only as ``m[i][j]`` and works in plain Python
floats, so it runs alike on the numpy matrices ``similarity`` builds and on
the float rows of a matrices cache, and the ``search`` stage never imports
numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config import (
    FusionBlock,
    FusionPlan,
    SearchThresholds,
    SimilarityMatrices,
    _is_count,
    output_file,
    validate_plan,
    validate_thresholds,
)
from .errors import DepthUnreachable, InvalidConfig


@dataclass(frozen=True)
class SweepCell:
    """One (delta, epsilon) grid cell of the threshold sweep."""

    cos_threshold: float
    norm_tolerance: float
    pruned_count: int
    plan: FusionPlan


# One candidate block: (base, size, score, low, high).
Block = tuple[int, int, float, float, float]


def _least(a: float, b: float) -> float:
    """The smaller of ``a`` and ``b``, or NaN if either is one."""
    return a if a <= b or a != a else b


def _greatest(a: float, b: float) -> float:
    """The larger of ``a`` and ``b``, or NaN if either is one."""
    return a if a >= b or a != a else b


def _block_table(matrices: SimilarityMatrices, score_penalty: float,
                 block_sizes: Iterable[int]) -> list[Block]:
    """Every (base, size) block that fits, sorted once by (-score, base, size),
    after the one check of the scoring knobs, for search and sweep alike:
    ``score_penalty`` finite and non-negative, ``block_sizes`` a non-empty set
    of positive counts (no bool or float); a refusal is an ``InvalidConfig``
    naming the knob.

    ``score`` is the mean over the block's offsets of the two cosines'
    average minus the penalized norm gap, summed in offset order. ``low`` is
    the least of both cosines over the offsets and ``high`` the largest norm
    gap, so a block clears the thresholds iff ``low`` and ``high`` do: a
    minimum above a bar means every value is above it, and a NaN anywhere in
    the block carries through and fails both tests.
    """
    if not (math.isfinite(score_penalty) and score_penalty >= 0):
        raise InvalidConfig(f"score_penalty must be finite and non-negative, got {score_penalty}")
    sizes = tuple(block_sizes)
    if not sizes or not all(map(_is_count, sizes)):
        raise InvalidConfig(f"block_sizes must be a non-empty set of positive counts, got {sizes}")
    num_layers, largest = matrices.num_layers, max(sizes)
    s_out, s_mlp, gaps = matrices.s_out, matrices.s_mlp, matrices.delta_norm
    table = []
    for base in range(1, num_layers + 1):
        row = base - 1
        # -0.0 adds nothing to any float, so the sum starts at its first term
        total, low, high = -0.0, math.inf, -math.inf
        for size in range(1, min(largest, num_layers - base) + 1):
            col = row + size
            out, mlp, gap = float(s_out[row][col]), float(s_mlp[row][col]), float(gaps[row][col])
            total += (out + mlp) / 2.0 - score_penalty * gap
            low = _least(low, _least(out, mlp))
            high = _greatest(high, gap)
            if size in sizes:
                table.append((base, size, total / size, low, high))
    # a stable sort of blocks built in (base, size) order; a NaN score sorts
    # last, as numpy sorts it
    table.sort(key=lambda block: (block[2] != block[2], -block[2]))
    return table


def _valid(table: list[Block], cos_threshold: float, norm_tolerance: float) -> list[Block]:
    """The blocks of ``table`` that clear both thresholds, in table order."""
    bar = 1.0 - cos_threshold
    return [block for block in table if block[3] > bar and block[4] < norm_tolerance]


def _accept(valid: Sequence[Block], num_layers: int) -> FusionPlan:
    """The plan of the valid blocks, taken greedily in order: each block is
    accepted unless it shares a layer with one accepted before it."""
    occupied: set[int] = set()
    blocks: list[FusionBlock] = []
    for base, size, *_ in valid:
        span = range(base, base + size + 1)
        if occupied.isdisjoint(span):
            occupied.update(span)
            blocks.append(FusionBlock(base=base, redundant=tuple(span[1:])))
    blocks.sort(key=lambda b: b.base)
    prune = frozenset(i for b in blocks for i in b.redundant)
    keep = tuple(i for i in range(1, num_layers + 1) if i not in prune)
    plan = FusionPlan(keep_layers=keep, prune_layers=prune, blocks=tuple(blocks))
    return validate_plan(plan, num_layers)


def search(matrices: SimilarityMatrices, thresholds: SearchThresholds) -> FusionPlan:
    """Run the full greedy block search with validated thresholds."""
    validate_thresholds(thresholds)
    table = _block_table(matrices, thresholds.score_penalty, thresholds.block_sizes)
    return _accept(_valid(table, thresholds.cos_threshold, thresholds.norm_tolerance),
                   matrices.num_layers)


def threshold_sweep(matrices: SimilarityMatrices,
                    cos_grid: Sequence[float], norm_grid: Sequence[float],
                    score_penalty: float = SearchThresholds.score_penalty,
                    block_sizes: Sequence[int] = SearchThresholds.block_sizes
                    ) -> list[SweepCell]:
    """Run the search over the grid and record each cell's pruned-layer count.

    Each grid must be a non-empty list of finite values, checked here for
    the library and the CLI alike; a refusal is an ``InvalidConfig`` naming
    the grid. Finite values outside (0, 1) are legal (a zero cosine
    threshold simply prunes nothing); cells are returned row-major in the
    given grid order. The scoring knobs default to ``SearchThresholds``' and
    are checked by ``_block_table``, as ``search``'s are. Blocks are scored
    and sorted once for the whole grid, since neither depends on the
    thresholds, and cells whose thresholds pass the same blocks share one
    plan.
    """
    for name, grid in (("cos_grid", cos_grid), ("norm_grid", norm_grid)):
        if not len(grid) or not all(map(math.isfinite, grid)):
            raise InvalidConfig(
                f"{name} must be a non-empty list of finite values, got {list(grid)}")
    table = _block_table(matrices, score_penalty, block_sizes)
    plans: dict[tuple[Block, ...], FusionPlan] = {}
    cells = []
    for d in cos_grid:
        for e in norm_grid:
            valid = tuple(_valid(table, d, e))
            if valid not in plans:
                plans[valid] = _accept(valid, matrices.num_layers)
            plan = plans[valid]
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
