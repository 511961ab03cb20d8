"""Shared domain types: model shapes, hardware profiles, workloads, search
thresholds, fusion plans and similarity matrices; ``tensor_schema``, the one
description of the tensors a model of a shape holds; ``section_from_dict``,
which builds any of them from a JSON object; ``input_file``, through which
every input file, text or binary, is opened by its path: a regular file or
nothing, and every refusal names it; ``text_file``, through which every JSON
and CSV input is read; ``json_document``, through which every JSON input is
parsed; ``output_file``, through which every file the toolkit writes is
written beside its destination path and renamed into place by
``staged_outputs``, which renames several together; and ``_read``, the one
bounds-checked cursor through which every binary file is read by positioned
reads (``weightfile`` walks a weights file's header through it).

Nothing here imports numpy, so the stages that read only JSON, CSV and the
similarity matrices cache start without it.

All types are immutable value objects; layer indices are 1-based everywhere,
including serialized files. Validation lives in explicit ``validate_*``
functions so that deliberately broken values can be constructed in tests.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import struct
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import IO, Any, BinaryIO, Iterator, Mapping, Sequence, TextIO

from .errors import (
    BadMagic,
    D2mError,
    FormatError,
    InvalidConfig,
    InvalidPlan,
    InvalidShape,
    InvalidTrace,
    IoFailure,
    NonFiniteValue,
    PlanModelMismatch,
    TruncatedPayload,
    VerificationFailure,
    VersionMismatch,
)


def json_document(text: str | bytes, source) -> Any:
    """The JSON value in ``text`` (bytes must be UTF-8). Anything the parser
    refuses, an integer too long to convert and nesting too deep to parse
    included, raises ``InvalidConfig`` naming ``source``."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # ValueError covers the decoding
        raise InvalidConfig(f"{source} is not valid JSON: {exc}") from exc


@contextmanager
def staged_outputs(*destinations) -> Iterator[list[Path]]:
    """A new path beside each of the paths ``destinations`` for the block to
    write; each replaces its destination only once the block completes, so a
    failure replaces none of them. A destination that is a directory, which
    no rename can replace, is refused before the first rename. On any
    exception the new files are removed and the destinations left as they
    were; an ``OSError`` raises ``IoFailure`` naming the destinations, or
    the one whose rename failed."""
    paths = [Path(d) for d in destinations]
    # random, so a killed writer's leftover blocks no one
    temps = [path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp") for path in paths]
    named = paths  # what an OSError names
    try:
        yield temps
        for path in paths:
            with suppress(FileNotFoundError):  # lstat: a symlink is replaced, not followed
                if stat.S_ISDIR(os.lstat(path).st_mode):
                    raise IoFailure(f"cannot write {path}: it is a directory")
        for temp, path in zip(temps, paths):
            named = [path]
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            with suppress(OSError):
                os.unlink(temp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {', '.join(map(str, named))}: {exc}") from exc
        raise


@contextmanager
def output_file(destination, binary: bool = False) -> Iterator[IO]:
    """A new file beside the path ``destination`` (binary, or UTF-8 text
    without newline translation), open for the block and then renamed over
    it by ``staged_outputs``."""
    with staged_outputs(destination) as (temp,):
        # created exclusively, so it gets the umask's permissions and no
        # other file is truncated
        with (open(temp, "xb") if binary
              else open(temp, "x", newline="", encoding="utf-8")) as handle:
            yield handle


def write_json(destination, doc: Any) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with output_file(destination) as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- binary files ---------------------------------------------------------------


def _write_header(handle: BinaryIO, magic: bytes, version: int, *fields: int) -> int:
    return handle.write(magic + struct.pack(f"<{len(fields) + 1}I", version, *fields))


class _Reader:
    """Bounds-checked cursor over one open regular file of ``size`` bytes.

    Every read compares its declared length with the bytes that remain
    before it allocates anything, so a tampered header raises
    ``TruncatedPayload`` instead of asking for a header-sized buffer.
    """

    def __init__(self, fd: int, size: int):
        self.fd, self.size = fd, size
        self._pos = 0

    def remaining(self) -> int:
        return self.size - self._pos

    def skip(self, count: int, what: str) -> int:
        """Step past ``count`` bytes; returns the offset where they start."""
        if count > self.remaining():
            raise TruncatedPayload(
                f"expected {count} bytes for {what}, got {self.remaining()}")
        start = self._pos
        self._pos += count
        return start

    def read_into(self, buf, offset: int, what: str):
        """``buf``, a writable buffer, filled by positioned reads from the
        file's ``offset`` on. A file that ends first, because it shrank under
        the reader, raises ``TruncatedPayload``."""
        view = memoryview(buf)
        done = os.preadv(self.fd, [view], offset)
        while done < view.nbytes:  # Linux returns at most about 2 GiB a read
            got = os.preadv(self.fd, [view.cast("B")[done:]], offset + done)
            if not got:
                raise TruncatedPayload(f"expected {view.nbytes} bytes for {what} "
                                       f"at offset {offset}, got {done}")
            done += got
        return buf

    def take(self, count: int, what: str) -> bytes:
        start = self.skip(count, what)  # first: a tampered count sizes no buffer
        return bytes(self.read_into(bytearray(count), start, what))

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count, what))

    def f64s(self, count: int, what: str) -> tuple[float, ...]:
        return struct.unpack(f"<{count}d", self.take(8 * count, what))

    def end(self) -> None:
        if self.remaining():
            raise FormatError(f"{self.remaining()} trailing bytes after the payload")


# What a block that reads a file may raise about something else: a fusion, a
# file it writes, or a plan the model's header refuses. Each names its own
# subject, so it passes as is.
_NOT_THE_FILE = (IoFailure, PlanModelMismatch, VerificationFailure)


@contextmanager
def input_file(path) -> Iterator[_Reader]:
    """A reader over the file at ``path``, which stays open for the block.

    The file is opened non-blocking, so a pipe with no writer is refused at
    once, as is any file that is not a regular file, with ``IoFailure``; an
    ``OSError`` while it is read raises ``IoFailure`` too. A toolkit error
    raised in the block names the path, unless it is about something else.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise IoFailure(f"{path}: not a regular file")
        yield _Reader(fd, info.st_size)
    except OSError as exc:  # the reader's reads
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except _NOT_THE_FILE:
        raise
    except D2mError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    finally:
        os.close(fd)


@contextmanager
def text_file(path) -> Iterator[TextIO]:
    """The UTF-8 text of the file at ``path``, read whole through
    ``input_file`` and given to the block as a stream without newline
    translation, so the csv module sees line ends. Undecodable bytes raise
    ``InvalidConfig``; a toolkit error raised while the block parses the
    text names the file, as ``input_file`` names it.
    """
    with input_file(path) as reader:
        try:
            text = reader.take(reader.size, "text").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"not UTF-8 text: {exc}") from exc
        yield io.StringIO(text, newline="")


@contextmanager
def _read(path, magic: bytes, version: int) -> Iterator[_Reader]:
    """A reader past the checked magic and version of the file at ``path``,
    opened by ``input_file``."""
    with input_file(path) as reader:
        got = reader.take(4, "magic")
        if got != magic:
            raise BadMagic(f"expected magic {magic!r}, got {got!r}")
        (got_version,) = reader.u32s(1, "version")
        if got_version != version:
            raise VersionMismatch(f"unsupported {magic.decode()} format version "
                                  f"{got_version}, expected {version}")
        yield reader


@dataclass(frozen=True)
class MoEShape:
    """The expert pools of a model: ``experts`` maps each MoE layer (1-based)
    to its pool size N_l, and every token runs the top-k experts of a pool.
    A layer the map does not name is dense."""

    experts: dict[int, int]
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

    @property
    def experts(self) -> Mapping[int, int]:
        """Layer to pool size of each MoE layer; empty for a dense model."""
        return self.moe.experts if self.moe is not None else {}


@dataclass(frozen=True)
class HardwareProfile:
    """Peak compute throughput and memory bandwidth of a target device."""

    peak_flops: float
    mem_bandwidth: float
    weight_bytes: float = 2.0
    kv_bytes: float = 2.0


@dataclass(frozen=True)
class Workload:
    """Inference workload: prompt length and generated length."""

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
DEFAULT_WORKLOAD = Workload(prompt_len=1000, gen_len=50)


def _is_count(value: Any) -> bool:
    """A positive int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _check_fields(value: Any, section: str, error: type[D2mError]) -> None:
    """Check the int, float and bool fields of a dataclass: an int is a
    positive count, a float a finite positive number (a bool is neither), a
    bool a bool. Annotations are strings under ``from __future__ import
    annotations``, so the field types compare as names."""
    for f in fields(value):
        item = getattr(value, f.name)
        number = isinstance(item, (int, float)) and not isinstance(item, bool)
        if f.type == "int":
            ok, want = _is_count(item), "a positive count"
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
        if not isinstance(moe.experts, Mapping) or not moe.experts:
            raise InvalidShape(f"model.moe.experts must map layers to counts: {moe.experts!r}")
        for layer, count in moe.experts.items():
            if not (_is_count(layer) and layer <= shape.num_layers):
                raise InvalidShape(f"model.moe.experts layer {layer!r} not in 1..{shape.num_layers}")
            if not _is_count(count):
                raise InvalidShape(f"model.moe.experts[{layer}] must be a count, got {count!r}")
            if moe.top_k > count:
                raise InvalidShape(f"model.moe.top_k {moe.top_k} > {count} experts of layer {layer}")
    return shape


def tensor_schema(shape: ModelShape) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The canonical (name, dims) pairs of a container of this shape, in
    on-disk order and one at a time, so a caller that stops early never
    builds the whole schema a header declares.

    Per layer one attention block (q/k/v/o plus per-head q/k norms), two
    layer-norm scales, and either a dense GLU triple or a router plus N
    expert triples; globally the token embedding, the final norm, and an LM
    head only when untied. The cost model counts parameters from it.
    """
    validate_shape(shape)
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
        n_experts = shape.experts.get(layer)
        if n_experts:
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


def validate_thresholds(th: SearchThresholds) -> SearchThresholds:
    """Check the two bars; the scoring knobs are ``search._block_table``'s."""
    if not 0.0 < th.cos_threshold < 1.0:
        raise InvalidConfig("thresholds.cos_threshold must lie in (0, 1)")
    if not 0.0 < th.norm_tolerance < 1.0:
        raise InvalidConfig("thresholds.norm_tolerance must lie in (0, 1)")
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
        raise InvalidPlan(f"keep and prune do not cover layers 1..{num_layers} exactly")
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


def _plan_object(doc: Any, keys: tuple[str, ...], what: str) -> Mapping[str, Any]:
    """``doc``, once it is a JSON object with no key but ``keys``: the one
    rule of a plan's objects, the plan and each of its blocks."""
    if not isinstance(doc, Mapping):
        raise InvalidPlan(f"a {what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise InvalidPlan(f"unknown {what} keys: {sorted(unknown)}")
    return doc


def _plan_block(doc: Any) -> FusionBlock:
    block = _plan_object(doc, ("base", "redundant"), "plan block")
    return FusionBlock(base=_layer_index(block["base"], "base"),
                       redundant=tuple(_layer_index(r, "redundant") for r in block["redundant"]))


def plan_from_dict(doc: Mapping[str, Any]) -> FusionPlan:
    doc = _plan_object(doc, ("keep", "prune", "blocks"), "plan")
    try:
        blocks = tuple(map(_plan_block, doc["blocks"]))
        return FusionPlan(
            keep_layers=tuple(_layer_index(x, "keep") for x in doc["keep"]),
            prune_layers=frozenset(_layer_index(x, "prune") for x in doc["prune"]),
            blocks=blocks,
        )
    except (KeyError, TypeError) as exc:
        raise InvalidPlan(f"malformed plan document: {exc}") from exc


def plan_from_json(text: str) -> FusionPlan:
    return plan_from_dict(json_document(text, "plan"))


def load_plan(path: str | Path, num_layers: int) -> FusionPlan:
    """The plan in the JSON file at ``path``, validated for a model of
    ``num_layers`` layers."""
    with text_file(path) as handle:
        return validate_plan(plan_from_json(handle.read()), num_layers)


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
    """The validated shape in the JSON object ``doc``, a config's ``model``
    section or a weights header. Each key of ``moe.experts`` must be a layer
    index in canonical decimal (no sign, padding or leading zero)."""
    shape = section_from_dict(ModelShape, doc, "model")
    if shape.moe is not None:
        moe = section_from_dict(MoEShape, shape.moe, "model.moe")
        if not isinstance(moe.experts, Mapping):
            raise InvalidConfig("model.moe.experts must be an object, "
                                f"got {type(moe.experts).__name__}")
        for key in moe.experts:
            try:
                canonical = key.isdigit() and str(int(key)) == key
            except ValueError:  # a digit int() does not read, or too many of them
                canonical = False
            if not canonical:
                raise InvalidConfig(f"model.moe.experts key {key!r} is not a layer index")
        experts = {int(key): count for key, count in moe.experts.items()}
        shape = replace(shape, moe=replace(moe, experts=experts))
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
        return parse_config(json_document(handle.read(), "config"))


# --- similarity matrices ---------------------------------------------------------


@dataclass(frozen=True)
class SimilarityMatrices:
    """L x L statistics over all layer pairs.

    Cosine matrices are symmetric; ``delta_norm[i][j]`` always places the
    later of the two layers in the denominator, so it too is stored
    symmetrically. Row/column ``i`` (0-based) refers to layer ``i + 1``.
    Each matrix is read only as ``m[i][j]``, so the float64 arrays that
    ``similarity`` builds and the float rows that ``read_matrices`` returns
    serve alike.
    """

    s_out: Sequence[Sequence[float]]
    s_mlp: Sequence[Sequence[float]]
    delta_norm: Sequence[Sequence[float]]

    @property
    def num_layers(self) -> int:
        return len(self.s_out)


# Binary cache so the search stage can re-load matrices at full precision:
# magic D2MS | version u32=1 | L u32 | s_out, s_mlp, delta_norm as L*L f64-LE.
CACHE_MAGIC = b"D2MS"
CACHE_VERSION = 1
MATRIX_NAMES = ("s_out", "s_mlp", "delta_norm")


def write_matrices(matrices: SimilarityMatrices, path: str | Path) -> None:
    values = [value for name in MATRIX_NAMES
              for row in getattr(matrices, name) for value in row]
    with output_file(path, binary=True) as handle:
        _write_header(handle, CACHE_MAGIC, CACHE_VERSION, matrices.num_layers)
        handle.write(struct.pack(f"<{len(values)}d", *values))


def read_matrices(path: str | Path) -> SimilarityMatrices:
    """The matrices cache at ``path``, each matrix a tuple of float rows."""
    with _read(path, CACHE_MAGIC, CACHE_VERSION) as reader:
        (num_layers,) = reader.u32s(1, "layer count")
        if num_layers < 1:
            raise InvalidTrace(f"degenerate matrices header L={num_layers}")
        size = num_layers * num_layers
        values = reader.f64s(3 * size, "matrices")
        reader.end()
        for index, name in enumerate(MATRIX_NAMES):
            if not all(map(math.isfinite, values[index * size:(index + 1) * size])):
                raise NonFiniteValue(f"matrices cache {name} contains non-finite values")
    rows = [values[start:start + num_layers] for start in range(0, 3 * size, num_layers)]
    return SimilarityMatrices(*(tuple(rows[start:start + num_layers])
                                for start in range(0, 3 * num_layers, num_layers)))
