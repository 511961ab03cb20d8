"""First-principles latency and memory accounting for dense and MoE decoders.

Every cost sums the layers, each dense or MoE(N_l, k) by the shape's expert
map. One function, ``total_latency``, gives all four roofline sides in one
pass, under the config's workload rule (at least one token per phase). Each
phase's latency is the paper's closed form per layer, which takes prefill's
compute side and decode's memory side: a compute coefficient 4 + 4/gqa + 6r
for prefill FLOPs per token and a weight-traffic coefficient 2 + 2/gqa + 3r
plus KV reload for decode bytes, where r is k (1 for a dense layer) times
mlp_dim/hidden_dim. The same two coefficients give each phase's other side:
prefill reads the layer weights once, and decode runs prefill's FLOPs per
token for each generated token. The roofline labels name the larger side of
each phase, so they hold for any shape, hardware and workload. Each form is
evaluated once per distinct r, times its layer count, so a model of one width
is the closed form of L layers. Expert count never appears in either phase --
inactive experts cost static memory only. The formulas cover decoder layers
only; embeddings and the LM head are excluded by construction.

Static memory counts weights only, from ``tensor_schema``: per layer the
attention projections (2*n_h + 2*n_kv)*d_h*d, the two per-head q/k norms, two
layer norms, and one GLU triple for a dense layer or a router N_l*d and N_l
expert triples for a MoE layer, plus the token embedding, final norm and
untied LM head. Active parameters keep the whole router but k triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .config import (
    HardwareProfile,
    ModelShape,
    MoEShape,
    Workload,
    gqa_ratio,
    tensor_schema,
    validate_hardware,
    validate_shape,
    validate_workload,
)
from .errors import InvalidConfig

COMPUTE_BOUND = "compute-bound"
MEMORY_BOUND = "memory-bound"


def _bound(compute_s: float, memory_s: float) -> str:
    """The roofline side that takes longer; a tie is compute-bound."""
    return COMPUTE_BOUND if compute_s >= memory_s else MEMORY_BOUND


@dataclass(frozen=True)
class LatencyBreakdown:
    """Each phase's latency (its closed form) and its other roofline side."""

    prefill_s: float
    decode_s: float
    prefill_memory_s: float
    decode_compute_s: float

    @property
    def total_s(self) -> float:
        return self.prefill_s + self.decode_s

    @property
    def prefill_bound(self) -> str:
        return _bound(self.prefill_s, self.prefill_memory_s)

    @property
    def decode_bound(self) -> str:
        return _bound(self.decode_compute_s, self.decode_s)


def _widths(shape: ModelShape) -> list[tuple[int, float]]:
    """(layer count, FFN expansion ratio) of each distinct active MLP width,
    the widest last. A MoE layer runs top-k MLPs and a dense layer one, so
    with top-1 every layer has the same width and the list has one entry."""
    validate_shape(shape)
    sparse, k = len(shape.experts), shape.moe.top_k if shape.moe is not None else 1
    layers = {1: shape.num_layers - sparse}
    layers[k] = layers.get(k, 0) + sparse
    return [(count, active * shape.mlp_dim / shape.hidden_dim)
            for active, count in layers.items() if count]


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


def total_latency(shape: ModelShape, hw: HardwareProfile, wl: Workload) -> LatencyBreakdown:
    """The four roofline sides in one pass over ``_widths``, each width's
    layer count L_r with xi_f = 4 + 4/gqa + 6r and xi_w = 2 + 2/gqa + 3r.
    Over peak: prefill's L_r * S_in * d^2 * xi_f FLOPs and decode's gen_len
    times L_r * d^2 * xi_f. Over bandwidth: the layer weights
    L_r * xi_w * d^2 * b_w, read once in prefill, and per decode step and
    layer those weights plus the average-context KV reload
    2 * S_bar * d * b_kv / gqa, times L_r * gen_len."""
    validate_hardware(hw)
    validate_workload(wl)
    gqa, d = gqa_ratio(shape), shape.hidden_dim
    widths = [(layers, 4.0 + 4.0 / gqa + 6.0 * ratio, 2.0 + 2.0 / gqa + 3.0 * ratio)
              for layers, ratio in _widths(shape)]

    def seconds(count: str, amount: Callable[[], float], side: str, knob: str) -> float:
        total, rate = _finite(count, amount), getattr(hw, knob)
        return _finite(f"{side} at hardware.{knob}={rate!r}", lambda: total / rate)

    def traffic(layers: int, xi_w: float) -> float:
        s_bar = wl.prompt_len + (wl.gen_len + 1) / 2.0
        per_step_bytes = xi_w * d ** 2 * hw.weight_bytes + 2.0 * s_bar * d * hw.kv_bytes / gqa
        return layers * wl.gen_len * per_step_bytes

    breakdown = LatencyBreakdown(
        prefill_s=seconds(
            "prefill FLOP count of the model and workload",
            lambda: sum(layers * wl.prompt_len * d ** 2 * xi_f for layers, xi_f, _ in widths),
            "prefill time", "peak_flops"),
        decode_s=seconds(
            "decode byte count of the model, workload and hardware byte widths",
            lambda: sum(traffic(layers, xi_w) for layers, _, xi_w in widths),
            "decode time", "mem_bandwidth"),
        prefill_memory_s=seconds(
            "layer weight byte count of the model and hardware byte width",
            lambda: sum(layers * xi_w * d ** 2 * hw.weight_bytes for layers, _, xi_w in widths),
            "prefill weight-read time", "mem_bandwidth"),
        decode_compute_s=seconds(
            "decode FLOP count of the model and workload",
            lambda: wl.gen_len * sum(layers * d ** 2 * xi_f for layers, xi_f, _ in widths),
            "decode compute time", "peak_flops"),
    )
    _finite("total latency of the model on this hardware", lambda: breakdown.total_s)
    return breakdown


def _param_count(shape: ModelShape, top_k: int | None = None) -> int:
    """The schema's global tensors plus each layer's, dense or MoE(N_l),
    keeping only top_k expert triples when given. The parts are differences
    of schema counts at one or two layers and zero to two experts, so the
    count walks neither num_layers nor any N_l, nor reads names."""
    validate_shape(shape)

    def count(layers: int, experts: int = 0) -> int:
        moe = MoEShape({1: experts}, top_k=1) if experts else None
        return sum(math.prod(dims) for _, dims in tensor_schema(
            replace(shape, num_layers=layers, moe=moe)))

    dense_layer = count(2) - count(1)
    total = count(1) + (shape.num_layers - 1) * dense_layer
    if shape.moe is not None:  # the whole router stays active
        column = count(1, 1) - count(1)
        triple = count(1, 2) - count(1, 1) - column
        for pool in shape.moe.experts.values():  # in place of one dense MLP
            kept = pool if top_k is None else top_k
            total += pool * column + (kept - 1) * triple
    return total


def static_memory(shape: ModelShape, bytes_per_param: float = 2.0) -> tuple[int, float]:
    """(total static parameter count, bytes at the given precision).

    A MoE layer counts all N_l experts plus the router; a dense layer one
    MLP and no router. 1 GB convention: 1e9 bytes.
    """
    params = _param_count(shape)
    return params, _finite("static memory in bytes of the model",
                           lambda: params * bytes_per_param)


def active_params(shape: ModelShape) -> int:
    """Per-token active parameters: the static count with only the top-k
    experts' MLPs in the expert term (the full router stays active)."""
    return _param_count(shape, shape.moe.top_k if shape.moe is not None else None)
