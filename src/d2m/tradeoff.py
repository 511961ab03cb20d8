"""Hardware-aware reward, penalty-exponent calibration, and Pareto filtering
over (latency, score) candidates.

The reward multiplies a candidate's benchmark score by (latency / base)^w
with w < 0 penalizing slow candidates; w is calibrated from the deployment
platform's empirical rule "scaling latency by f buys a relative gain g" so
that such trades leave the reward unchanged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .config import output_file, text_file
from .errors import (D2mError, DegenerateCalibration, EmptyRecord, InvalidConfig,
                     NonPositiveLatency, OutOfRange)


@dataclass(frozen=True)
class CandidateEvaluation:
    """(depth, latency, score) of one candidate, with its filled-in reward."""

    config_id: str
    retained_depth: int
    latency_ms: float
    score: float
    reward: float | None = None


def reward(score: float, latency_ms: float, base_latency_ms: float,
           exponent: float) -> float:
    """score * (latency / base)^exponent, refused unless finite."""
    if not all(math.isfinite(v) and v > 0 for v in (latency_ms, base_latency_ms)):
        raise NonPositiveLatency(
            f"latencies must be finite and positive, got {latency_ms} and {base_latency_ms}"
        )
    if not (math.isfinite(score) and math.isfinite(exponent)):
        raise InvalidConfig(f"score and exponent must be finite, got {score} and {exponent}")
    try:
        value = score * (latency_ms / base_latency_ms) ** exponent
    except (OverflowError, ZeroDivisionError):  # a power beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise OutOfRange(f"reward of score {score} at latency {latency_ms} against "
                         f"{base_latency_ms} with exponent {exponent} is not finite")
    return value


def calibrate_w(latency_factor: float, relative_gain: float) -> float:
    """The exponent making score*gain at latency*factor reward-neutral:
    w = -ln(gain) / ln(factor)."""
    if not (math.isfinite(latency_factor) and math.isfinite(relative_gain)):
        raise DegenerateCalibration(
            f"latency_factor and relative_gain must be finite, got "
            f"{latency_factor} and {relative_gain}"
        )
    if latency_factor <= 1.0:
        raise DegenerateCalibration(
            f"latency_factor must exceed 1, got {latency_factor}"
        )
    if relative_gain <= 0.0:
        raise DegenerateCalibration(f"relative_gain must be positive, got {relative_gain}")
    return -math.log(relative_gain) / math.log(latency_factor)


def evaluate_candidates(candidates: Sequence[CandidateEvaluation],
                        base_latency_ms: float, exponent: float,
                        ) -> tuple[list[CandidateEvaluation], CandidateEvaluation]:
    """Fill in rewards and report the argmax (ties go to lower latency)."""
    if not candidates:
        raise EmptyRecord("evaluate_candidates needs at least one candidate")
    evaluated = []
    for c in candidates:
        try:
            evaluated.append(replace(c, reward=reward(c.score, c.latency_ms,
                                                      base_latency_ms, exponent)))
        except D2mError as exc:
            raise type(exc)(f"candidate {c.config_id}: {exc}") from None
    best = min(evaluated, key=lambda c: (-c.reward, c.latency_ms))
    return evaluated, best


def pareto_frontier(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated subset of (latency, score) points, latency ascending.

    q dominates p when q is no slower and no worse with at least one strict
    inequality; exact duplicates never dominate each other, so both survive.
    """
    if not points:
        raise EmptyRecord("pareto_frontier needs at least one point")
    survivors = []
    for i, (lat_p, score_p) in enumerate(points):
        dominated = False
        for j, (lat_q, score_q) in enumerate(points):
            if j == i:
                continue
            if (lat_q <= lat_p and score_q >= score_p
                    and (lat_q < lat_p or score_q > score_p)):
                dominated = True
                break
        if not dominated:
            survivors.append((i, lat_p, score_p))
    survivors.sort(key=lambda t: (t[1], t[2], t[0]))
    return [(lat, score) for _, lat, score in survivors]


# --- CSV interchange -----------------------------------------------------------

_HEADER = ["config_id", "depth", "latency_ms", "score", "reward"]


def read_candidates_csv(source) -> list[CandidateEvaluation]:
    """Parse a candidate CSV; the reward column is optional and may be blank.
    Leading '#' comment lines are skipped."""
    with text_file(source) as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
        if not rows or [c.strip() for c in rows[0][:4]] != _HEADER[:4]:
            raise InvalidConfig("candidate CSV must start with header "
                                "config_id,depth,latency_ms,score[,reward]")
        out = []
        for row in rows[1:]:
            if len(row) < 4:
                raise InvalidConfig(f"candidate row too short: {row}")
            try:
                rew = float(row[4]) if len(row) > 4 and row[4].strip() else None
                candidate = CandidateEvaluation(config_id=row[0], retained_depth=int(row[1]),
                                                latency_ms=float(row[2]), score=float(row[3]),
                                                reward=rew)
            except ValueError as exc:
                raise InvalidConfig(f"candidate row {row} is malformed: {exc}") from exc
            if not (0 < candidate.latency_ms < math.inf and math.isfinite(candidate.score)):
                raise InvalidConfig(f"candidate row {row} needs a finite positive latency "
                                    "and a finite score")
            out.append(candidate)
        if not out:
            raise EmptyRecord("candidate CSV has no data rows")
        return out


def write_candidates_csv(candidates: Iterable[CandidateEvaluation], destination,
                         header_comment: str | None = None) -> None:
    """Emit candidates with rewards rounded to two decimals (presentation
    precision; recompute for anything downstream)."""
    rows: list[list[str]] = []
    if header_comment:
        rows.append([f"# {header_comment}"])
    rows.append(_HEADER)
    for c in candidates:
        rew = "" if c.reward is None else f"{c.reward:.2f}"
        rows.append([c.config_id, str(c.retained_depth), f"{c.latency_ms:.6g}",
                     f"{c.score:.6g}", rew])
    with output_file(destination) as handle:
        csv.writer(handle).writerows(rows)
