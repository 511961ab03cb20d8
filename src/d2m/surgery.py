"""Layer-fusion surgery: turn a dense model plus a fusion plan into a sparse
MoE model.

Each block's base layer keeps its attention and both norm scales and gains an
expert pool: K bit-exact copies of its own MLP followed by M copies of each
redundant layer's MLP, in source order. The redundant layers' attention and
norm tensors are dropped entirely; the router starts at zero, which makes the
initial routing exactly uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .config import FusionPlan, MoEShape, validate_plan
from .errors import PlanModelMismatch, VerificationFailure
from .nanomodel import forward_trace
from .traceio import (
    WeightContainer,
    attention_tensor_names,
    validate_container,
)


@dataclass(frozen=True)
class ExpertSource:
    """Where one expert's weights came from: `base` or `redundant` copy."""

    kind: str
    source_layer: int
    copy_index: int


ExpertProvenance = dict[int, tuple[ExpertSource, ...]]


@dataclass(frozen=True)
class FusionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FusionReport:
    checks: tuple[FusionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def fuse(container: WeightContainer, plan: FusionPlan, base_copies: int,
         supp_copies: int, top_k: int) -> tuple[WeightContainer, ExpertProvenance]:
    """Apply a fusion plan to a dense container.

    Kept layers appear in their original order under new 1-based indices;
    every block base becomes a MoE layer with N = K + n*M experts. Routers
    are zero-initialized, the least-biased start for the balancing loss.
    Pure function of its arguments.
    """
    validate_container(container)
    if container.moe_layers:
        raise PlanModelMismatch("fuse requires a dense source model")
    num_layers = container.shape.num_layers
    try:
        validate_plan(plan, num_layers)
    except Exception as exc:
        raise PlanModelMismatch(f"plan invalid for a {num_layers}-layer model: {exc}") from exc
    if base_copies < 1 or supp_copies < 1:
        raise PlanModelMismatch("base_copies and supp_copies must be at least 1")

    block_by_base = {b.base: b for b in plan.blocks}
    expert_counts = {
        b.base: base_copies + len(b.redundant) * supp_copies for b in plan.blocks
    }
    if plan.blocks and top_k > min(expert_counts.values()):
        raise PlanModelMismatch(
            f"top_k {top_k} exceeds the smallest fused expert pool "
            f"({min(expert_counts.values())})"
        )

    d = container.shape.hidden_dim
    src = container.tensors
    tensors: dict[str, np.ndarray] = {"embed": src["embed"].copy()}
    if not container.shape.tied_embedding:
        tensors["lm_head"] = src["lm_head"].copy()
    tensors["final_norm"] = src["final_norm"].copy()

    provenance: ExpertProvenance = {}
    moe_layers: dict[int, int] = {}
    for new_idx, old_idx in enumerate(plan.keep_layers, start=1):
        for name in attention_tensor_names(old_idx):
            suffix = name.split(".", 2)[2]
            tensors[f"layer.{new_idx}.{suffix}"] = src[name].copy()
        tensors[f"layer.{new_idx}.mlp_norm"] = src[f"layer.{old_idx}.mlp_norm"].copy()
        block = block_by_base.get(old_idx)
        if block is None:
            for part in ("up", "gate", "down"):
                tensors[f"layer.{new_idx}.mlp.{part}"] = src[f"layer.{old_idx}.mlp.{part}"].copy()
            continue
        sources: list[ExpertSource] = []
        for copy_idx in range(1, base_copies + 1):
            sources.append(ExpertSource("base", old_idx, copy_idx))
        for red in block.redundant:
            for copy_idx in range(1, supp_copies + 1):
                sources.append(ExpertSource("redundant", red, copy_idx))
        n_experts = len(sources)
        moe_layers[new_idx] = n_experts
        tensors[f"layer.{new_idx}.router"] = np.zeros((d, n_experts))
        for e, source in enumerate(sources, start=1):
            for part in ("up", "gate", "down"):
                tensors[f"layer.{new_idx}.moe.expert.{e}.{part}"] = \
                    src[f"layer.{source.source_layer}.mlp.{part}"].copy()
        provenance[new_idx] = tuple(sources)

    moe_meta = None
    if moe_layers:
        moe_meta = MoEShape(num_experts=max(moe_layers.values()), top_k=top_k,
                            base_copies=base_copies, supplementary_copies=supp_copies)
    fused_shape = replace(container.shape, num_layers=len(plan.keep_layers), moe=moe_meta)
    fused = WeightContainer(shape=fused_shape, tensors=tensors, moe_layers=moe_layers)
    return validate_container(fused), provenance


def provenance_to_dict(provenance: ExpertProvenance) -> dict[str, Any]:
    return {
        str(layer): [
            {"kind": s.kind, "source_layer": s.source_layer, "copy_index": s.copy_index}
            for s in sources
        ]
        for layer, sources in sorted(provenance.items())
    }


def verify_fusion(dense: WeightContainer, fused: WeightContainer, plan: FusionPlan,
                  provenance: ExpertProvenance) -> FusionReport:
    """Audit a fused model against its source, plan, and provenance.

    Checks (all listed in the report): layer count, untouched global tensors,
    bit-exact attention/norm/MLP tensors of kept layers, absence of pruned
    layers' attention, bit-exact expert copies per provenance, zero routers,
    and a single shared mlp norm per fused layer (no per-expert norm
    tensors). Every fused tensor is covered by some check. Raises
    VerificationFailure naming the first failing check; the full report rides
    on the exception.
    """
    checks: list[FusionCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(FusionCheck(name=name, passed=passed, detail=detail))

    expected_layers = len(plan.keep_layers)
    add("layer_count", fused.shape.num_layers == expected_layers,
        f"fused has {fused.shape.num_layers} layers, plan keeps {expected_layers}")

    global_names = ["embed", "final_norm"]
    if not dense.shape.tied_embedding:
        global_names.append("lm_head")
    for name in global_names:
        same = name in fused.tensors and np.array_equal(fused.tensors[name],
                                                        dense.tensors[name])
        add(f"global_copy:{name}", same, f"{name} must pass through unchanged")

    attn_blocks = sum(1 for n in fused.tensors if n.endswith(".attn.q"))
    add("pruned_attention_absent", attn_blocks == expected_layers,
        f"{attn_blocks} attention blocks present, expected one per kept layer "
        f"({expected_layers})")

    for new_idx, old_idx in enumerate(plan.keep_layers, start=1):
        for name in attention_tensor_names(old_idx):
            suffix = name.split(".", 2)[2]
            fused_name = f"layer.{new_idx}.{suffix}"
            same = fused_name in fused.tensors and np.array_equal(
                fused.tensors[fused_name], dense.tensors[name])
            add(f"attention_copy:{fused_name}", same,
                f"{fused_name} must equal dense {name}")
        norm_name = f"layer.{new_idx}.mlp_norm"
        same = norm_name in fused.tensors and np.array_equal(
            fused.tensors[norm_name], dense.tensors[f"layer.{old_idx}.mlp_norm"])
        add(f"shared_norm_copy:{norm_name}", same,
            f"{norm_name} must equal dense layer {old_idx} mlp_norm")

    base_to_new = {old: new for new, old in enumerate(plan.keep_layers, start=1)}
    bases = {b.base for b in plan.blocks}
    for new_idx, old_idx in enumerate(plan.keep_layers, start=1):
        if old_idx in bases:
            continue
        for part in ("up", "gate", "down"):
            fused_name = f"layer.{new_idx}.mlp.{part}"
            same = fused_name in fused.tensors and np.array_equal(
                fused.tensors[fused_name], dense.tensors[f"layer.{old_idx}.mlp.{part}"])
            add(f"dense_mlp_copy:{fused_name}", same,
                f"{fused_name} must equal dense layer {old_idx} mlp.{part}")
    for block in plan.blocks:
        new_idx = base_to_new[block.base]
        sources = provenance.get(new_idx)
        n_experts = fused.moe_layers.get(new_idx, 0)
        add(f"provenance_present:layer.{new_idx}", sources is not None and len(sources) == n_experts,
            f"layer {new_idx} needs provenance for {n_experts} experts")
        if sources is None:
            continue
        router_name = f"layer.{new_idx}.router"
        router_ok = router_name in fused.tensors and not np.any(fused.tensors[router_name])
        add(f"zero_router:{router_name}", router_ok, "router must be all zeros")
        per_expert_norms = sorted(
            n for n in fused.tensors
            if n.startswith(f"layer.{new_idx}.moe.expert.") and n.endswith("norm")
        )
        add(f"single_shared_norm:layer.{new_idx}", not per_expert_norms,
            f"per-expert norm tensors present: {per_expert_norms}" if per_expert_norms
            else "experts share the layer's single mlp_norm")
        for e, source in enumerate(sources, start=1):
            for part in ("up", "gate", "down"):
                fused_name = f"layer.{new_idx}.moe.expert.{e}.{part}"
                src_name = f"layer.{source.source_layer}.mlp.{part}"
                same = fused_name in fused.tensors and np.array_equal(
                    fused.tensors[fused_name], dense.tensors[src_name])
                add(f"expert_copy:{fused_name}", same,
                    f"{fused_name} must be a bit-exact copy of dense {src_name}")

    report = FusionReport(checks=tuple(checks))
    if not report.ok:
        first = next(c for c in checks if not c.passed)
        raise VerificationFailure(f"{first.name}: {first.detail}", report=report)
    return report


def reference_pruned_model(dense: WeightContainer, plan: FusionPlan) -> WeightContainer:
    """Dense model with the plan's redundant layers deleted outright."""
    validate_container(dense)
    validate_plan(plan, dense.shape.num_layers)
    tensors: dict[str, np.ndarray] = {"embed": dense.tensors["embed"].copy()}
    if not dense.shape.tied_embedding:
        tensors["lm_head"] = dense.tensors["lm_head"].copy()
    tensors["final_norm"] = dense.tensors["final_norm"].copy()
    for new_idx, old_idx in enumerate(plan.keep_layers, start=1):
        prefix = f"layer.{old_idx}."
        for name, tensor in dense.tensors.items():
            if name.startswith(prefix):
                tensors[f"layer.{new_idx}.{name[len(prefix):]}"] = tensor.copy()
    shape = replace(dense.shape, num_layers=len(plan.keep_layers))
    return validate_container(WeightContainer(shape=shape, tensors=tensors))


def functional_equivalence_check(dense: WeightContainer, fused: WeightContainer,
                                 plan: FusionPlan, probe: np.ndarray) -> float:
    """Max |deviation| between the fused model (router forced to a base-copy
    expert with gate one) and the plan-pruned dense reference on a probe."""
    reference = reference_pruned_model(dense, plan)
    ref_out, _, _ = forward_trace(reference, probe)
    # expert 1 is always a base copy (base_copies >= 1)
    fused_out, _, _ = forward_trace(fused, probe, forced_expert=1)
    return float(np.max(np.abs(fused_out - ref_out)))
