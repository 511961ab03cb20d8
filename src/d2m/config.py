"""Shared domain types: model shapes, hardware profiles, workloads, search
thresholds, fusion plans, and router settings; and ``text_file``, through
which every JSON and CSV input or output of the toolkit is opened.

All types are immutable value objects; layer indices are 1-based everywhere,
including serialized files. Validation lives in explicit ``validate_*``
functions so that deliberately broken values can be constructed in tests.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

from .errors import InvalidConfig, InvalidPlan, InvalidShape, IoFailure


@contextmanager
def text_file(source, mode: str = "r") -> Iterator[TextIO]:
    """The open stream itself, or the UTF-8 file at that path (``mode`` "r"
    or "w", no newline translation, so the csv module controls line ends).

    An ``OSError`` while opening, reading or writing raises ``IoFailure``;
    undecodable bytes raise ``InvalidConfig``; both name the file.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, mode, newline="", encoding="utf-8") as handle:
                yield handle
        else:
            yield source
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise IoFailure(f"cannot {verb} {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{source} is not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class MoEShape:
    """Expert-pool geometry of a sparse layer.

    ``num_experts`` is the pool size N; a layer fused from ``n`` redundant
    sources satisfies N = base_copies + n * supplementary_copies.
    """

    num_experts: int
    top_k: int
    base_copies: int = 1
    supplementary_copies: int = 1


@dataclass(frozen=True)
class ModelShape:
    """All architectural dimensions of a (possibly MoE) decoder-only model."""

    num_layers: int
    hidden_dim: int
    mlp_dim: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    vocab_size: int
    tied_embedding: bool = True
    moe: MoEShape | None = None


@dataclass(frozen=True)
class HardwareProfile:
    """Peak compute throughput and memory bandwidth of a target device."""

    peak_flops: float
    mem_bandwidth: float
    weight_bytes: float = 2.0
    kv_bytes: float = 2.0


@dataclass(frozen=True)
class Workload:
    """Inference workload: batch size, prompt length, generated length."""

    batch: int = 1
    prompt_len: int = 1000
    gen_len: int = 50


@dataclass(frozen=True)
class SearchThresholds:
    """Similarity/norm thresholds and scoring knobs for the block search."""

    cos_threshold: float
    norm_tolerance: float
    score_penalty: float = 1.0
    block_sizes: tuple[int, ...] = (1, 2, 3)


@dataclass(frozen=True)
class RouterConfig:
    """Routing behaviour of a MoE layer."""

    temperature: float = 1.0
    aux_loss_weight: float = 1e-3
    renormalize_top_k: bool = False


@dataclass(frozen=True)
class FusionBlock:
    """One fused block: a kept base layer and its redundant followers."""

    base: int
    redundant: tuple[int, ...]


@dataclass(frozen=True)
class FusionPlan:
    """Output of the redundancy search: kept/pruned layers and block map."""

    keep_layers: tuple[int, ...]
    prune_layers: frozenset[int]
    blocks: tuple[FusionBlock, ...]


# Reference shape used throughout the cost-model examples (Qwen2.5-0.5B) and
# the automotive SoC profile it is evaluated against (Jetson Thor-U).
QWEN25_0_5B = ModelShape(
    num_layers=24,
    hidden_dim=896,
    mlp_dim=4864,
    num_heads=14,
    num_kv_heads=2,
    head_dim=64,
    vocab_size=151936,
    tied_embedding=True,
)
THOR_U = HardwareProfile(peak_flops=350e12, mem_bandwidth=273e9)
DEFAULT_WORKLOAD = Workload(batch=1, prompt_len=1000, gen_len=50)


def validate_shape(shape: ModelShape) -> ModelShape:
    """Check every ModelShape invariant; return the shape unchanged.

    Idempotent: validating an already-validated shape is a no-op.
    """
    counts = {
        "num_layers": shape.num_layers,
        "hidden_dim": shape.hidden_dim,
        "mlp_dim": shape.mlp_dim,
        "num_heads": shape.num_heads,
        "num_kv_heads": shape.num_kv_heads,
        "head_dim": shape.head_dim,
        "vocab_size": shape.vocab_size,
    }
    for name, value in counts.items():
        if not isinstance(value, int) or value <= 0:
            raise InvalidShape(f"{name} must be a positive count, got {value!r}")
    if shape.num_heads % shape.num_kv_heads != 0:
        raise InvalidShape(
            "num_heads must be divisible by num_kv_heads "
            f"(got {shape.num_heads} / {shape.num_kv_heads})"
        )
    if shape.moe is not None:
        validate_moe_shape(shape.moe)
    return shape


def validate_moe_shape(moe: MoEShape) -> MoEShape:
    for name in ("num_experts", "top_k", "base_copies", "supplementary_copies"):
        value = getattr(moe, name)
        if not isinstance(value, int) or value <= 0:
            raise InvalidShape(f"{name} must be a positive count, got {value!r}")
    if moe.top_k > moe.num_experts:
        raise InvalidShape(
            f"top_k ({moe.top_k}) must not exceed num_experts ({moe.num_experts})"
        )
    return moe


def gqa_ratio(shape: ModelShape) -> int:
    """Query heads per key/value head (1 for plain multi-head attention)."""
    validate_shape(shape)
    return shape.num_heads // shape.num_kv_heads


def validate_hardware(hw: HardwareProfile) -> HardwareProfile:
    for name in ("peak_flops", "mem_bandwidth", "weight_bytes", "kv_bytes"):
        value = getattr(hw, name)
        if not value > 0:
            raise InvalidConfig(f"hardware.{name} must be strictly positive")
    return hw


def validate_workload(wl: Workload) -> Workload:
    if wl.batch < 1:
        raise InvalidConfig("workload.batch must be at least 1")
    if wl.prompt_len < 1 or wl.gen_len < 1:
        raise InvalidConfig("workload prompt_len and gen_len must be at least 1")
    return wl


def validate_score_penalty(score_penalty: float) -> float:
    if not (math.isfinite(score_penalty) and score_penalty >= 0):
        raise InvalidConfig(
            f"thresholds.score_penalty must be finite and non-negative, got {score_penalty}")
    return score_penalty


def validate_thresholds(th: SearchThresholds) -> SearchThresholds:
    if not 0.0 < th.cos_threshold < 1.0:
        raise InvalidConfig("thresholds.cos_threshold must lie in (0, 1)")
    if not 0.0 < th.norm_tolerance < 1.0:
        raise InvalidConfig("thresholds.norm_tolerance must lie in (0, 1)")
    validate_score_penalty(th.score_penalty)
    if not th.block_sizes:
        raise InvalidConfig("thresholds.block_sizes must be non-empty")
    if any((not isinstance(n, int)) or n < 1 for n in th.block_sizes):
        raise InvalidConfig("thresholds.block_sizes must be positive counts")
    return th


def validate_router(rc: RouterConfig) -> RouterConfig:
    if not rc.temperature > 0:
        raise InvalidConfig("router.temperature must be strictly positive")
    if rc.aux_loss_weight < 0:
        raise InvalidConfig("router.aux_loss_weight must be non-negative")
    return rc


# --- fusion plans -------------------------------------------------------------


def validate_plan(plan: FusionPlan, num_layers: int) -> FusionPlan:
    """Check coverage, disjointness, and contiguity in O(L)."""
    keep = set(plan.keep_layers)
    prune = set(plan.prune_layers)
    universe = set(range(1, num_layers + 1))
    if keep & prune:
        raise InvalidPlan(f"keep and prune overlap: {sorted(keep & prune)}")
    if keep | prune != universe:
        raise InvalidPlan("keep and prune do not cover layers 1..L exactly")
    if list(plan.keep_layers) != sorted(keep):
        raise InvalidPlan("keep_layers must be ordered ascending")
    seen: set[int] = set()
    covered_prune: set[int] = set()
    for block in plan.blocks:
        if not block.redundant:
            raise InvalidPlan(f"block at base {block.base} has no redundant layers")
        members = {block.base, *block.redundant}
        if members & seen:
            raise InvalidPlan(f"blocks overlap at layers {sorted(members & seen)}")
        seen |= members
        expected = tuple(range(block.base + 1, block.base + 1 + len(block.redundant)))
        if tuple(block.redundant) != expected:
            raise InvalidPlan(
                f"redundant set of base {block.base} must be the contiguous run "
                f"{expected}, got {block.redundant}"
            )
        if block.base < 1 or block.redundant[-1] > num_layers:
            raise InvalidPlan(f"block ({block.base}, {block.redundant}) exceeds 1..{num_layers}")
        if block.base in prune:
            raise InvalidPlan(f"base layer {block.base} cannot be pruned")
        covered_prune |= set(block.redundant)
    if covered_prune != prune:
        raise InvalidPlan("prune_layers must equal the union of block redundant sets")
    return plan


def plan_to_dict(plan: FusionPlan) -> dict[str, Any]:
    return {
        "keep": list(plan.keep_layers),
        "prune": sorted(plan.prune_layers),
        "blocks": [
            {"base": b.base, "redundant": list(b.redundant)} for b in plan.blocks
        ],
    }


def plan_from_dict(doc: Mapping[str, Any]) -> FusionPlan:
    unknown = set(doc) - {"keep", "prune", "blocks"}
    if unknown:
        raise InvalidPlan(f"unknown plan keys: {sorted(unknown)}")
    try:
        blocks = tuple(
            FusionBlock(base=int(b["base"]), redundant=tuple(int(r) for r in b["redundant"]))
            for b in doc["blocks"]
        )
        return FusionPlan(
            keep_layers=tuple(int(x) for x in doc["keep"]),
            prune_layers=frozenset(int(x) for x in doc["prune"]),
            blocks=blocks,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPlan(f"malformed plan document: {exc}") from exc


def plan_to_json(plan: FusionPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True) + "\n"


def plan_from_json(text: str) -> FusionPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidPlan(f"plan is not valid JSON: {exc}") from exc
    return plan_from_dict(doc)


def load_plan(path: str | Path) -> FusionPlan:
    with text_file(path) as handle:
        text = handle.read()
    return plan_from_json(text)


# --- pipeline configuration file ----------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed contents of the single-JSON pipeline configuration."""

    model: ModelShape
    hardware: HardwareProfile = THOR_U
    workload: Workload = DEFAULT_WORKLOAD
    thresholds: SearchThresholds | None = None
    router: RouterConfig = RouterConfig()


def _take(section: Mapping[str, Any], name: str, allowed: Iterable[str]) -> dict[str, Any]:
    if not isinstance(section, Mapping):
        raise InvalidConfig(f"config section {name!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise InvalidConfig(f"unknown keys in {name!r}: {sorted(unknown)}")
    return dict(section)


def shape_from_dict(doc: Mapping[str, Any]) -> ModelShape:
    fields = (
        "num_layers", "hidden_dim", "mlp_dim", "num_heads", "num_kv_heads",
        "head_dim", "vocab_size", "tied_embedding", "moe",
    )
    data = _take(doc, "model", fields)
    moe_doc = data.pop("moe", None)
    moe = None
    if moe_doc is not None:
        moe_fields = ("num_experts", "top_k", "base_copies", "supplementary_copies")
        moe = MoEShape(**_take(moe_doc, "model.moe", moe_fields))
    try:
        shape = ModelShape(moe=moe, **data)
    except TypeError as exc:
        raise InvalidConfig(f"model section incomplete: {exc}") from exc
    return validate_shape(shape)


def shape_to_dict(shape: ModelShape) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "num_layers": shape.num_layers,
        "hidden_dim": shape.hidden_dim,
        "mlp_dim": shape.mlp_dim,
        "num_heads": shape.num_heads,
        "num_kv_heads": shape.num_kv_heads,
        "head_dim": shape.head_dim,
        "vocab_size": shape.vocab_size,
        "tied_embedding": shape.tied_embedding,
        "moe": None,
    }
    if shape.moe is not None:
        doc["moe"] = {
            "num_experts": shape.moe.num_experts,
            "top_k": shape.moe.top_k,
            "base_copies": shape.moe.base_copies,
            "supplementary_copies": shape.moe.supplementary_copies,
        }
    return doc


def parse_config(doc: Mapping[str, Any]) -> PipelineConfig:
    """Parse the pipeline configuration document; unknown keys are rejected."""
    sections = _take(doc, "<top level>", ("model", "hardware", "workload", "thresholds", "router"))
    if "model" not in sections:
        raise InvalidConfig("config requires a 'model' section")
    model = shape_from_dict(sections["model"])

    hardware = THOR_U
    if "hardware" in sections:
        hw_fields = ("peak_flops", "mem_bandwidth", "weight_bytes", "kv_bytes")
        hardware = HardwareProfile(**_take(sections["hardware"], "hardware", hw_fields))
    validate_hardware(hardware)

    workload = DEFAULT_WORKLOAD
    if "workload" in sections:
        wl_fields = ("batch", "prompt_len", "gen_len")
        workload = Workload(**_take(sections["workload"], "workload", wl_fields))
    validate_workload(workload)

    thresholds = None
    if "thresholds" in sections:
        th_fields = ("cos_threshold", "norm_tolerance", "score_penalty", "block_sizes")
        data = _take(sections["thresholds"], "thresholds", th_fields)
        if "block_sizes" in data:
            data["block_sizes"] = tuple(int(n) for n in data["block_sizes"])
        try:
            thresholds = SearchThresholds(**data)
        except TypeError as exc:
            raise InvalidConfig(f"thresholds section incomplete: {exc}") from exc
        validate_thresholds(thresholds)

    router = RouterConfig()
    if "router" in sections:
        rc_fields = ("temperature", "aux_loss_weight", "renormalize_top_k")
        router = RouterConfig(**_take(sections["router"], "router", rc_fields))
    validate_router(router)

    return PipelineConfig(model=model, hardware=hardware, workload=workload,
                          thresholds=thresholds, router=router)


def load_config(path: str | Path) -> PipelineConfig:
    with text_file(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
