"""First-principles latency and memory accounting for dense and MoE decoders.

Prefill is compute-bound and decode memory-bound, so the two phases reduce to
closed forms over the layer shape: a compute coefficient 4 + 4/gqa + 6r for
prefill FLOPs and a weight-traffic coefficient 2 + 2/gqa + 3r plus KV reload
for decode bytes, where r is the active FFN expansion ratio (top-k experts
times mlp_dim/hidden_dim). Expert count never appears in either phase --
inactive experts cost static memory only. The formulas cover decoder layers
only; embeddings and the LM head are excluded by construction.

Static memory counts weights only, per layer: attention projections
(n_h + 2*n_kv)*d_h*d + d**2, the two per-head q/k norms, two layer norms, a
router N*d, and N GLU expert triples, plus the token embedding and final
norm. Dense shapes drop the router and use a single expert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .config import (
    HardwareProfile,
    ModelShape,
    Workload,
    gqa_ratio,
    validate_hardware,
    validate_shape,
)
from .errors import InvalidConfig

COMPUTE_BOUND = "compute-bound"
MEMORY_BOUND = "memory-bound"


@dataclass(frozen=True)
class LatencyBreakdown:
    prefill_s: float
    decode_s: float
    prefill_bound: str = COMPUTE_BOUND
    decode_bound: str = MEMORY_BOUND

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s


def expansion_ratio(shape: ModelShape) -> float:
    """Effective FFN expansion ratio: active experts times mlp_dim/hidden_dim."""
    validate_shape(shape)
    active = shape.moe.top_k if shape.moe is not None else 1
    return active * shape.mlp_dim / shape.hidden_dim


def _check_lengths(wl: Workload) -> None:
    # the formulas admit a zero-length phase (zero seconds) even though
    # configured workloads require at least one token per phase
    if wl.prompt_len < 0 or wl.gen_len < 0 or wl.batch < 1:
        raise InvalidConfig("workload lengths must be non-negative, batch at least 1")


def _finite(what: str, compute: Callable[[], float]) -> float:
    """``compute()``, which must be a finite float: an ``OverflowError`` or an
    infinite result raises ``InvalidConfig`` naming ``what``."""
    try:
        value = compute()
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float, or a float power
        finite = False
    if not finite:
        raise InvalidConfig(f"{what} overflows a float")
    return value


def prefill_latency(shape: ModelShape, hw: HardwareProfile, wl: Workload) -> float:
    """Seconds to process the prompt: L * S_in * d^2 * (4 + 4/gqa + 6r) / peak."""
    validate_hardware(hw)
    _check_lengths(wl)
    flops = _finite("prefill FLOP count of the model and workload", lambda: (
        shape.num_layers * wl.prompt_len * shape.hidden_dim ** 2
        * (4.0 + 4.0 / gqa_ratio(shape) + 6.0 * expansion_ratio(shape))))
    return _finite(f"prefill time at hardware.peak_flops={hw.peak_flops!r}",
                   lambda: flops / hw.peak_flops)


def decode_latency(shape: ModelShape, hw: HardwareProfile, wl: Workload) -> float:
    """Seconds to generate: per step the weights (2 + 2/gqa + 3r) * d^2 * b_w
    plus the average-context KV reload 2 * S_bar * d * b_kv / gqa."""
    validate_hardware(hw)
    _check_lengths(wl)

    def traffic() -> float:
        gqa = gqa_ratio(shape)
        xi_w = 2.0 + 2.0 / gqa + 3.0 * expansion_ratio(shape)
        s_bar = wl.prompt_len + (wl.gen_len + 1) / 2.0
        per_step_bytes = (xi_w * shape.hidden_dim ** 2 * hw.weight_bytes
                          + 2.0 * s_bar * shape.hidden_dim * hw.kv_bytes / gqa)
        return shape.num_layers * wl.gen_len * per_step_bytes

    moved = _finite("decode byte count of the model, workload and hardware byte widths", traffic)
    return _finite(f"decode time at hardware.mem_bandwidth={hw.mem_bandwidth!r}",
                   lambda: moved / hw.mem_bandwidth)


def total_latency(shape: ModelShape, hw: HardwareProfile, wl: Workload) -> LatencyBreakdown:
    breakdown = LatencyBreakdown(
        prefill_s=prefill_latency(shape, hw, wl),
        decode_s=decode_latency(shape, hw, wl),
    )
    _finite("total latency of the model on this hardware", lambda: breakdown.total_s)
    return breakdown


def _weights_per_layer(shape: ModelShape, experts: int, with_router: bool) -> int:
    d = shape.hidden_dim
    attn = (shape.num_heads + 2 * shape.num_kv_heads) * shape.head_dim * d + d * d
    qk_norms = 2 * shape.head_dim
    layer_norms = 2 * d
    router = shape.moe.num_experts * d if with_router else 0
    expert_mlps = 3 * experts * d * shape.mlp_dim
    return attn + qk_norms + layer_norms + router + expert_mlps


def _embedding_params(shape: ModelShape) -> int:
    once = shape.vocab_size * shape.hidden_dim
    return once if shape.tied_embedding else 2 * once


def static_memory(shape: ModelShape, bytes_per_param: float = 2.0) -> tuple[int, float]:
    """(total static parameter count, bytes at the given precision).

    MoE shapes count all N experts plus the router; dense shapes count one
    MLP and no router. 1 GB convention: 1e9 bytes.
    """
    validate_shape(shape)
    if shape.moe is not None:
        per_layer = _weights_per_layer(shape, shape.moe.num_experts, with_router=True)
    else:
        per_layer = _weights_per_layer(shape, 1, with_router=False)
    params = _embedding_params(shape) + shape.num_layers * per_layer + shape.hidden_dim
    return params, _finite("static memory in bytes of the model",
                           lambda: params * bytes_per_param)


def active_params(shape: ModelShape) -> int:
    """Per-token active parameters: the static count with only the top-k
    experts' MLPs in the expert term (the full router stays active)."""
    validate_shape(shape)
    if shape.moe is not None:
        per_layer = _weights_per_layer(shape, shape.moe.top_k, with_router=True)
    else:
        per_layer = _weights_per_layer(shape, 1, with_router=False)
    return _embedding_params(shape) + shape.num_layers * per_layer + shape.hidden_dim
