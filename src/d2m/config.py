"""Shared domain types: model shapes, hardware profiles, workloads, search
thresholds and fusion plans; ``tensor_schema``, the one description of the
tensors a model of a shape holds; ``section_from_dict``, which builds any of
them from a JSON object; ``text_file``, through which every JSON and CSV input
file is opened by its path; ``json_document``, through which every JSON input
is parsed; and ``output_file``, through which every file the toolkit writes is
written beside its destination path and renamed into place.

All types are immutable value objects; layer indices are 1-based everywhere,
including serialized files. Validation lives in explicit ``validate_*``
functions so that deliberately broken values can be constructed in tests.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, TextIO

from .errors import D2mError, InvalidConfig, InvalidPlan, InvalidShape, IoFailure


@contextmanager
def text_file(path) -> Iterator[TextIO]:
    """The UTF-8 file at ``path`` opened for reading without newline
    translation, so the csv module sees line ends.

    An ``OSError`` while opening or reading raises ``IoFailure``; undecodable
    bytes raise ``InvalidConfig``; both name the file.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path} is not UTF-8 text: {exc}") from exc


def json_document(text: str | bytes, source) -> Any:
    """The JSON value in ``text`` (bytes must be UTF-8). Anything the parser
    refuses, an integer too long to convert and nesting too deep to parse
    included, raises ``InvalidConfig`` naming ``source``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # ValueError covers the decoding
        raise InvalidConfig(f"{source} is not valid JSON: {exc}") from exc


@contextmanager
def output_file(destination, binary: bool = False) -> Iterator[IO]:
    """A new file beside the path ``destination`` (binary, or UTF-8 text
    without newline translation) that replaces it only when the block
    completes; on any exception the file is removed and the destination left
    as it was. An ``OSError`` raises ``IoFailure`` naming the destination.
    """
    path = Path(destination)
    # random, so a killed writer's leftover blocks no one; created exclusively,
    # so it gets the umask's permissions and no other file is truncated
    temp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        handle = (open(temp, "xb") if binary
                  else open(temp, "x", newline="", encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(temp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def write_json(destination, doc: Any) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with output_file(destination) as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class MoEShape:
    """Expert-pool geometry of a sparse layer: pool size N and the top-k
    experts each token runs."""

    num_experts: int
    top_k: int


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


def _check_fields(value: Any, section: str, error: type[D2mError]) -> None:
    """Check the int, float and bool fields of a dataclass: an int is a
    positive count, a float a finite positive number (a bool is neither), a
    bool a bool. Annotations are strings under ``from __future__ import
    annotations``, so the field types compare as names."""
    for f in fields(value):
        item = getattr(value, f.name)
        number = isinstance(item, (int, float)) and not isinstance(item, bool)
        if f.type == "int":
            ok, want = number and isinstance(item, int) and item > 0, "a positive count"
        elif f.type == "float":
            ok, want = number and 0 < item <= sys.float_info.max, "a finite positive number"
        elif f.type == "bool":
            ok, want = isinstance(item, bool), "true or false"
        else:
            continue
        if not ok:
            raise error(f"{section}.{f.name} must be {want}, got {item!r}")


def validate_shape(shape: ModelShape) -> ModelShape:
    """Check every ModelShape invariant; return the shape unchanged.

    Idempotent: validating an already-validated shape is a no-op.
    """
    _check_fields(shape, "model", InvalidShape)
    if shape.num_heads % shape.num_kv_heads != 0:
        raise InvalidShape(
            "num_heads must be divisible by num_kv_heads "
            f"(got {shape.num_heads} / {shape.num_kv_heads})"
        )
    moe = shape.moe
    if moe is not None:
        _check_fields(moe, "model.moe", InvalidShape)
        if moe.top_k > moe.num_experts:
            raise InvalidShape(
                f"top_k ({moe.top_k}) must not exceed num_experts ({moe.num_experts})")
    return shape


def attention_tensor_names(layer: int) -> tuple[str, ...]:
    p = f"layer.{layer}.attn"
    return (f"layer.{layer}.attn_norm", f"{p}.q", f"{p}.k", f"{p}.v", f"{p}.o",
            f"{p}.q_norm", f"{p}.k_norm")


def tensor_schema(shape: ModelShape, moe_layers: Mapping[int, int] | None = None
                  ) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The canonical (name, dims) pairs of a container of this shape, in
    on-disk order and one at a time, so a caller that stops early never
    builds the whole schema a header declares.

    Per layer one attention block (q/k/v/o plus per-head q/k norms), two
    layer-norm scales, and either a dense GLU triple or a router plus N
    expert triples; globally the token embedding, the final norm, and an LM
    head only when untied. The cost model counts parameters from it.
    """
    validate_shape(shape)
    moe_layers = moe_layers or {}
    d, d_mid = shape.hidden_dim, shape.mlp_dim
    qdim = shape.num_heads * shape.head_dim
    kvdim = shape.num_kv_heads * shape.head_dim
    yield "embed", (shape.vocab_size, d)
    if not shape.tied_embedding:
        yield "lm_head", (d, shape.vocab_size)
    yield "final_norm", (d,)
    for layer in range(1, shape.num_layers + 1):
        yield f"layer.{layer}.attn_norm", (d,)
        yield f"layer.{layer}.attn.q", (d, qdim)
        yield f"layer.{layer}.attn.k", (d, kvdim)
        yield f"layer.{layer}.attn.v", (d, kvdim)
        yield f"layer.{layer}.attn.o", (qdim, d)
        yield f"layer.{layer}.attn.q_norm", (shape.head_dim,)
        yield f"layer.{layer}.attn.k_norm", (shape.head_dim,)
        yield f"layer.{layer}.mlp_norm", (d,)
        if layer in moe_layers:
            n_experts = moe_layers[layer]
            yield f"layer.{layer}.router", (d, n_experts)
            for e in range(1, n_experts + 1):
                yield f"layer.{layer}.moe.expert.{e}.up", (d, d_mid)
                yield f"layer.{layer}.moe.expert.{e}.gate", (d, d_mid)
                yield f"layer.{layer}.moe.expert.{e}.down", (d_mid, d)
        else:
            yield f"layer.{layer}.mlp.up", (d, d_mid)
            yield f"layer.{layer}.mlp.gate", (d, d_mid)
            yield f"layer.{layer}.mlp.down", (d_mid, d)


def gqa_ratio(shape: ModelShape) -> int:
    """Query heads per key/value head (1 for plain multi-head attention)."""
    validate_shape(shape)
    return shape.num_heads // shape.num_kv_heads


def validate_hardware(hw: HardwareProfile) -> HardwareProfile:
    _check_fields(hw, "hardware", InvalidConfig)
    return hw


def validate_workload(wl: Workload) -> Workload:
    _check_fields(wl, "workload", InvalidConfig)
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


def _layer_index(value: Any, key: str) -> int:
    """A plan's layer index, which must be a JSON integer: anything else, a
    bool included, raises ``InvalidPlan`` naming the key and the value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidPlan(f"plan {key}: {value!r} is not a layer index")
    return value


def plan_from_dict(doc: Mapping[str, Any]) -> FusionPlan:
    if not isinstance(doc, Mapping):
        raise InvalidPlan(f"a plan must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {"keep", "prune", "blocks"}
    if unknown:
        raise InvalidPlan(f"unknown plan keys: {sorted(unknown)}")
    try:
        blocks = tuple(
            FusionBlock(base=_layer_index(b["base"], "base"),
                        redundant=tuple(_layer_index(r, "redundant") for r in b["redundant"]))
            for b in doc["blocks"]
        )
        return FusionPlan(
            keep_layers=tuple(_layer_index(x, "keep") for x in doc["keep"]),
            prune_layers=frozenset(_layer_index(x, "prune") for x in doc["prune"]),
            blocks=blocks,
        )
    except (KeyError, TypeError) as exc:
        raise InvalidPlan(f"malformed plan document: {exc}") from exc


def plan_from_json(text: str) -> FusionPlan:
    return plan_from_dict(json_document(text, "plan"))


def load_plan(path: str | Path) -> FusionPlan:
    with text_file(path) as handle:
        text = handle.read()
    return plan_from_dict(json_document(text, path))


# --- pipeline configuration file ----------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed contents of the single-JSON pipeline configuration; written with
    ``dataclasses.asdict``."""

    model: ModelShape
    hardware: HardwareProfile = THOR_U
    workload: Workload = DEFAULT_WORKLOAD


def section_from_dict(cls: type, doc: Any, section: str) -> Any:
    """Build the frozen dataclass ``cls`` from the JSON object ``doc``, taking
    its keys from the dataclass fields; fields with a default may be left
    out. Values are not checked here: that is the ``validate_*`` functions'
    job. Raises ``InvalidConfig`` naming ``section`` for anything but an
    object, and for unknown or missing keys."""
    if not isinstance(doc, Mapping):
        raise InvalidConfig(f"config section {section!r} must be an object, "
                            f"got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfig(f"unknown keys in {section!r}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.name not in doc and f.default is MISSING]
    if missing:
        raise InvalidConfig(f"missing keys in {section!r}: {missing}")
    return cls(**doc)


def shape_from_dict(doc: Any) -> ModelShape:
    shape = section_from_dict(ModelShape, doc, "model")
    if shape.moe is not None:
        shape = replace(shape, moe=section_from_dict(MoEShape, shape.moe, "model.moe"))
    return validate_shape(shape)


def parse_config(doc: Any) -> PipelineConfig:
    """Parse the pipeline configuration document; unknown keys are rejected."""
    top = section_from_dict(PipelineConfig, doc, "config")
    hardware, workload = top.hardware, top.workload
    if "hardware" in doc:
        hardware = section_from_dict(HardwareProfile, doc["hardware"], "hardware")
    if "workload" in doc:
        workload = section_from_dict(Workload, doc["workload"], "workload")
    return PipelineConfig(model=shape_from_dict(top.model),
                          hardware=validate_hardware(hardware),
                          workload=validate_workload(workload))


def load_config(path: str | Path) -> PipelineConfig:
    with text_file(path) as handle:
        text = handle.read()
    return parse_config(json_document(text, f"config {path}"))
