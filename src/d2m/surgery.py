"""Layer-fusion surgery: turn a dense model plus a fusion plan into a sparse
MoE model.

Each block's base layer keeps its attention and both norm scales and gains an
expert pool: K bit-exact copies of its own MLP followed by M copies of each
redundant layer's MLP, in source order. The redundant layers' attention and
norm tensors are dropped entirely; the router starts at zero, which makes the
initial routing exactly uniform. ``fuse`` builds that layout from the fused
``tensor_schema``, once, and carries it out on the bytes of a weights file,
one tensor at a time; ``verify_fusion`` checks the new file byte for byte
against the plan-pruned dense reference, a second derivation that shares no
code with the first. Only the functional check on containers, with its
``reference_pruned_model``, loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .config import (FusionPlan, ModelShape, MoEShape, _is_count, check_free_space, output_file,
                     tensor_schema, validate_plan, validate_shape)
from .costmodel import static_memory
from .errors import InvalidPlan, PlanModelMismatch, VerificationFailure
from .weightfile import WeightsFile, open_weights, write_entry, write_weights_header

if TYPE_CHECKING:
    import numpy as np

    from .traceio import WeightContainer


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


# each fused tensor, in on-disk order: (name, dims, the dense tensor it
# copies, or None for a router, which is all zero bytes)
Layout = Iterator[tuple[str, tuple[int, ...], "str | None"]]


def fused_shape(shape: ModelShape, plan: FusionPlan, base_copies: int, supp_copies: int,
                top_k: int) -> ModelShape:
    """The shape ``fuse`` makes of the dense ``shape``, in closed form: each
    block base's pool holds K + n*M experts. Checked against ``shape`` alone,
    so a refusal touches no tensor. The three counts have one rule, whatever
    the plan: each is a positive int, and ``top_k`` fits every fused pool; a
    refusal names the count."""
    if not all(map(_is_count, (base_copies, supp_copies, top_k))):
        raise PlanModelMismatch("base_copies, supp_copies and top_k must be positive counts, "
                                f"got {base_copies!r}, {supp_copies!r}, {top_k!r}")
    if shape.moe is not None:
        raise PlanModelMismatch("fuse requires a dense source model")
    num_layers = shape.num_layers
    try:
        validate_plan(plan, num_layers)
    except InvalidPlan as exc:
        raise PlanModelMismatch(f"plan invalid for a {num_layers}-layer model: {exc}") from exc

    keep = plan.keep_layers
    pools = {keep.index(block.base) + 1: base_copies + len(block.redundant) * supp_copies
             for block in plan.blocks}
    smallest = min(pools.values(), default=top_k)
    if top_k > smallest:
        raise PlanModelMismatch(f"top_k {top_k} exceeds the {smallest} experts of a fused layer")
    return validate_shape(replace(shape, num_layers=len(keep),
                                  moe=MoEShape(pools, top_k) if pools else None))


def _layout(shape: ModelShape, plan: FusionPlan, base_copies: int,
            supp_copies: int) -> tuple[ExpertProvenance, Layout]:
    """The experts' provenance and the tensor layout of ``shape``, the
    ``fused_shape`` of the plan and the two copy counts."""
    keep = plan.keep_layers
    provenance: ExpertProvenance = {
        keep.index(block.base) + 1:
            tuple(ExpertSource("base", block.base, c) for c in range(1, base_copies + 1))
            + tuple(ExpertSource("redundant", red, c)
                    for red in block.redundant for c in range(1, supp_copies + 1))
        for block in plan.blocks
    }

    def layout() -> Layout:
        for name, dims in tensor_schema(shape):
            if not name.startswith("layer."):
                yield name, dims, name
                continue
            _, layer, rest = name.split(".", 2)
            if rest == "router":
                yield name, dims, None
            elif rest.startswith("moe.expert."):
                _, _, expert, part = rest.split(".")
                source = provenance[int(layer)][int(expert) - 1].source_layer
                yield name, dims, f"layer.{source}.mlp.{part}"
            else:
                yield name, dims, f"layer.{keep[int(layer) - 1]}.{rest}"

    return provenance, layout()


def fuse(model, plan: FusionPlan, base_copies: int, supp_copies: int, top_k: int,
         destination) -> tuple[ExpertProvenance, FusionReport]:
    """Apply a fusion plan to the dense weights file at the path ``model``,
    writing the verified fused model to the path ``destination``.

    Kept layers keep their order under new 1-based indices; each block base
    becomes a MoE layer of N = K + n*M experts (K ``base_copies``, then M
    ``supp_copies`` of each of its n redundant layers), as the provenance
    records. The fused model is laid out by walking its ``tensor_schema``
    once: a router is zeros, the least-biased start for the balancing loss;
    an expert copies its provenance source's dense MLP; any other tensor
    copies the same tensor of the dense layer it renumbers. The plan and the
    copy counts are checked against the model's header, a fused model larger
    than the free space at ``destination`` (at least 4 bytes a parameter)
    is refused before any provenance is built, and every dense tensor is
    checked finite, all before anything is written. The fused float32
    bytes are copied one tensor at a time into a new file that
    ``verify_fusion`` reads back before it replaces ``destination``, so a
    failed check leaves ``destination`` as it was.
    """
    with open_weights(model) as dense:
        shape = fused_shape(dense.shape, plan, base_copies, supp_copies, top_k)
        check_free_space(destination, 4 * static_memory(shape)[0])
        provenance, layout = _layout(shape, plan, base_copies, supp_copies)
        for name in dense.tensors:  # all of them, in file order, before any is written
            dense.read(name, finite=True)
        with output_file(destination, binary=True) as out:
            write_weights_header(out, shape)
            for name, dims, source in layout:
                write_entry(out, name, dims,
                            bytes(4 * math.prod(dims)) if source is None else dense.read(source))
            out.flush()
            with open_weights(out.name) as fused:
                report = verify_fusion(dense, fused, plan, provenance)
    return provenance, report


def provenance_to_dict(provenance: ExpertProvenance) -> dict[str, Any]:
    return {
        str(layer): [
            {"kind": s.kind, "source_layer": s.source_layer, "copy_index": s.copy_index}
            for s in sources
        ]
        for layer, sources in sorted(provenance.items())
    }


def verify_fusion(dense: WeightsFile, fused: WeightsFile, plan: FusionPlan,
                  provenance: ExpertProvenance) -> FusionReport:
    """Audit a fused weights file against its dense source, plan, and
    provenance, byte for byte.

    Tensors are compared by dims and float32 bytes, so a copy passes only
    when it is bit-exact: -0.0 is not 0.0. Checks (all listed in the
    report): the layer count, a bit-exact ``copy:{name}`` of every tensor of
    the plan-pruned dense reference except a block base's MLP triple, and
    per block: its provenance, a zero router (every byte zero) and
    bit-exact expert copies per provenance. Every fused tensor is named by
    exactly one check, and every check can fail. What the fused file's
    header walker decides is not checked again: ``WeightsFile.tensors``
    refuses a file whose tensors are not exactly its shape's schema, so no
    pruned layer's attention and no per-expert norm can be present. The
    expectations come from the renumbering of ``reference_pruned_model``,
    never from ``fuse``'s own layout. Raises VerificationFailure naming the
    first failing check; the full report rides on the exception.
    """
    validate_plan(plan, dense.shape.num_layers)
    checks: list[FusionCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(FusionCheck(name=name, passed=passed, detail=detail))

    def same(name: str, source: str) -> bool:
        return (name in fused.tensors and fused.tensors[name][0] == dense.tensors[source][0]
                and fused.read(name) == dense.read(source))

    expected_layers = len(plan.keep_layers)
    add("layer_count", fused.shape.num_layers == expected_layers,
        f"fused has {fused.shape.num_layers} layers, plan keeps {expected_layers}")

    base_to_new = {old: new for new, old in enumerate(plan.keep_layers, start=1)}
    replaced = {f"layer.{base_to_new[b.base]}.mlp.{part}"
                for b in plan.blocks for part in ("up", "gate", "down")}
    for name, source in _pruned_names(dense.tensors, plan).items():
        if name not in replaced:
            add(f"copy:{name}", same(name, source),
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
        router = fused.read(router_name) if router_name in fused.tensors else None
        add(f"zero_router:{router_name}", router is not None and router.count(0) == len(router),
            "router must be all zero bytes")
        for e, source in enumerate(sources, start=1):
            for part in ("up", "gate", "down"):
                fused_name = f"layer.{new_idx}.moe.expert.{e}.{part}"
                src_name = f"layer.{source.source_layer}.mlp.{part}"
                add(f"expert_copy:{fused_name}", same(fused_name, src_name),
                    f"{fused_name} must be a bit-exact copy of dense {src_name}")

    report = FusionReport(checks=tuple(checks))
    if not report.ok:
        first = next(c for c in checks if not c.passed)
        raise VerificationFailure(f"{first.name}: {first.detail}", report=report)
    return report


def _pruned_names(dense_names: Iterable[str], plan: FusionPlan) -> dict[str, str]:
    """Each tensor name of the dense model with the plan's redundant layers
    deleted outright, and its kept layers renumbered in order, to the dense
    tensor it is."""
    new_index = {old: new for new, old in enumerate(plan.keep_layers, start=1)}
    names: dict[str, str] = {}
    for name in dense_names:
        if not name.startswith("layer."):
            names[name] = name
            continue
        _, layer, rest = name.split(".", 2)
        if int(layer) in new_index:
            names[f"layer.{new_index[int(layer)]}.{rest}"] = name
    return names


def reference_pruned_model(dense: WeightContainer, plan: FusionPlan) -> WeightContainer:
    """Dense model with the plan's redundant layers deleted outright."""
    from .traceio import WeightContainer, validate_container

    validate_container(dense)
    validate_plan(plan, dense.shape.num_layers)
    tensors = {name: dense.tensors[source].copy()
               for name, source in _pruned_names(dense.tensors, plan).items()}
    shape = replace(dense.shape, num_layers=len(plan.keep_layers))
    return validate_container(WeightContainer(shape=shape, tensors=tensors))


def functional_equivalence_check(dense: WeightContainer, fused: WeightContainer,
                                 plan: FusionPlan, probe: np.ndarray) -> float:
    """Max |deviation| between the fused model, every token on a base-copy
    expert with gate one, and the plan-pruned dense reference on a probe. The
    fused model runs with each MoE layer cut to expert 1, always a base copy
    (``base_copies`` >= 1), and its router column, under top-1 routing."""
    import numpy as np

    from .nanomodel import forward_trace
    from .traceio import WeightContainer, validate_container

    reference = reference_pruned_model(dense, plan)
    ref_out, _, _ = forward_trace(reference, probe)
    experts = dict.fromkeys(fused.shape.experts, 1)
    shape = replace(fused.shape, moe=MoEShape(experts, top_k=1) if experts else None)
    view = validate_container(WeightContainer(shape, {
        name: fused.tensors[name][:, :1] if name.endswith(".router") else fused.tensors[name]
        for name, _ in tensor_schema(shape)}))
    fused_out, _, _ = forward_trace(view, probe)
    return float(np.max(np.abs(fused_out - ref_out)))
