"""Layer-fusion surgery: turn a dense model plus a fusion plan into a sparse
MoE model.

Each block's base layer keeps its attention and both norm scales and gains an
expert pool: K bit-exact copies of its own MLP followed by M copies of each
redundant layer's MLP, in source order. The redundant layers' attention and
norm tensors are dropped entirely; the router starts at zero, which makes the
initial routing exactly uniform. ``fuse`` builds that layout from the fused
``tensor_schema``; ``verify_fusion`` checks it against the plan-pruned dense
reference, a second derivation that shares no code with the first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .config import FusionPlan, MoEShape, tensor_schema, validate_plan
from .errors import InvalidPlan, PlanModelMismatch, VerificationFailure
from .nanomodel import forward_trace
from .traceio import WeightContainer, validate_container


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

    Kept layers keep their order under new 1-based indices; each block base
    becomes a MoE layer of N = K + n*M experts (K ``base_copies``, then M
    ``supp_copies`` of each of its n redundant layers), as the provenance
    records. The container is built by walking its ``tensor_schema``: a
    router is zeros, the least-biased start for the balancing loss; an expert
    copies its provenance source's dense MLP; any other tensor copies the
    same tensor of the dense layer it renumbers. Pure function of its arguments.
    """
    validate_container(container)
    if container.shape.moe is not None:
        raise PlanModelMismatch("fuse requires a dense source model")
    num_layers = container.shape.num_layers
    try:
        validate_plan(plan, num_layers)
    except InvalidPlan as exc:
        raise PlanModelMismatch(f"plan invalid for a {num_layers}-layer model: {exc}") from exc
    if base_copies < 1 or supp_copies < 1:
        raise PlanModelMismatch("base_copies and supp_copies must be at least 1")

    keep = plan.keep_layers
    provenance: ExpertProvenance = {
        keep.index(block.base) + 1:
            tuple(ExpertSource("base", block.base, c) for c in range(1, base_copies + 1))
            + tuple(ExpertSource("redundant", red, c)
                    for red in block.redundant for c in range(1, supp_copies + 1))
        for block in plan.blocks
    }
    moe = (MoEShape({layer: len(sources) for layer, sources in provenance.items()}, top_k)
           if provenance else None)
    fused_shape = replace(container.shape, num_layers=len(keep), moe=moe)

    src = container.tensors
    tensors: dict[str, np.ndarray] = {}
    for name, dims in tensor_schema(fused_shape):
        if not name.startswith("layer."):
            tensors[name] = src[name].copy()
            continue
        _, layer, rest = name.split(".", 2)
        if rest == "router":
            tensors[name] = np.zeros(dims)
        elif rest.startswith("moe.expert."):
            _, _, expert, part = rest.split(".")
            source = provenance[int(layer)][int(expert) - 1].source_layer
            tensors[name] = src[f"layer.{source}.mlp.{part}"].copy()
        else:
            tensors[name] = src[f"layer.{keep[int(layer) - 1]}.{rest}"].copy()
    fused = WeightContainer(shape=fused_shape, tensors=tensors)
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

    Checks (all listed in the report): layer count, absence of pruned layers'
    attention, a bit-exact ``copy:{name}`` of every tensor of the plan-pruned
    dense reference except a block base's MLP triple, and per block: its
    provenance, a zero router, one shared mlp norm (no per-expert norm
    tensors), and bit-exact expert copies per provenance. Every fused tensor
    is named by exactly one check. The expectations come from
    ``reference_pruned_model``, never from ``fuse``'s own renaming. Raises
    VerificationFailure naming the first failing check; the full report rides
    on the exception.
    """
    checks: list[FusionCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(FusionCheck(name=name, passed=passed, detail=detail))

    def same(name: str, expected: np.ndarray) -> bool:
        return name in fused.tensors and np.array_equal(fused.tensors[name], expected)

    expected_layers = len(plan.keep_layers)
    add("layer_count", fused.shape.num_layers == expected_layers,
        f"fused has {fused.shape.num_layers} layers, plan keeps {expected_layers}")

    attn_blocks = sum(1 for n in fused.tensors if n.endswith(".attn.q"))
    add("pruned_attention_absent", attn_blocks == expected_layers,
        f"{attn_blocks} attention blocks present, expected one per kept layer "
        f"({expected_layers})")

    base_to_new = {old: new for new, old in enumerate(plan.keep_layers, start=1)}
    replaced = {f"layer.{base_to_new[b.base]}.mlp.{part}"
                for b in plan.blocks for part in ("up", "gate", "down")}
    reference = reference_pruned_model(dense, plan)
    for name, tensor in reference.tensors.items():
        if name not in replaced:
            add(f"copy:{name}", same(name, tensor),
                f"{name} must equal the plan-pruned dense model's {name}")

    for block in plan.blocks:
        new_idx = base_to_new[block.base]
        sources = provenance.get(new_idx)
        n_experts = fused.shape.experts.get(new_idx, 0)
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
                add(f"expert_copy:{fused_name}", same(fused_name, dense.tensors[src_name]),
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
