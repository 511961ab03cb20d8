"""Activation traces, weight containers, and their binary formats.

On-disk precision is 32-bit little-endian floats; in-memory analysis runs in
float64. Files therefore round-trip bit-exactly, while writing arbitrary
float64 data truncates it to float32 once (synthesized fixtures are generated
float32-representable so every write is lossless in practice). Every writer
checks each block after that cast: a value that is not finite, or that
overflows float32, raises ``NonFiniteValue`` naming the layer or tensor, so no
writer leaves a file that its reader rejects, and the destination is left as
it was. Every reader and writer takes a file path: a writer writes a new file
beside its destination and renames it into place (``config.output_file``).

Formats (all integers little-endian u32):

  trace   magic ``D2MT`` | version=1 | L | T | d |
          h^(1..L) row-major T*d f32 | y^(1..L) row-major T*d f32
  weights magic ``D2MW`` | version=2 | config-length | UTF-8 JSON shape doc |
          entries: name-length | UTF-8 name | ndim | dims u32*ndim | f32 data

These two and the similarity matrices cache are read through one cursor that
checks every header-declared length against the bytes present before it
slices or allocates, and rejects bytes left over after the payload.

``read_trace`` loads a whole trace. ``trace_chunks`` checks a trace file's
header by the same rules and then reads its states a token chunk at a time
into one reused buffer of at most ``CHUNK_BYTES``, so a pass over a trace
never holds more of it than one chunk.

``write_trace`` writes each (half, layer) block at its slot's offset in the
new file. An in-memory trace goes out in file order. A ``SyntheticTrace`` is
drawn as it is written: each layer goes to its slot as soon as it is drawn,
only the layers that a redundancy entry reads as its base are kept, and each
entry's target slot is then overwritten in place before the file is renamed
into place. That pass holds one layer plus the kept bases, never the trace.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import ModelShape, json_document, output_file, shape_from_dict, tensor_schema
from .errors import (
    BadMagic,
    D2mError,
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    InvalidTrace,
    IoFailure,
    MissingTensor,
    NonFiniteValue,
    OutOfRange,
    TruncatedPayload,
    VersionMismatch,
)

HALVES = ("mlp_inputs", "layer_outputs")  # trace halves, in file order
TRACE_MAGIC = b"D2MT"
TRACE_VERSION = 1
WEIGHTS_MAGIC = b"D2MW"
WEIGHTS_VERSION = 2


@dataclass(frozen=True)
class ActivationTrace:
    """Per-layer, per-token hidden states captured from a forward pass.

    Each half is one float64 (L, T, d) array, in file order:
    ``mlp_inputs[l-1]`` is the post-attention residual state entering layer
    l's MLP branch; ``layer_outputs[l-1]`` is layer l's final output.
    """

    mlp_inputs: np.ndarray
    layer_outputs: np.ndarray

    @property
    def num_layers(self) -> int:
        return self.mlp_inputs.shape[0]

    @property
    def seq_len(self) -> int:
        return self.mlp_inputs.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.mlp_inputs.shape[2]


def make_trace(mlp_inputs: Sequence[np.ndarray],
               layer_outputs: Sequence[np.ndarray]) -> ActivationTrace:
    """Build a validated trace from per-layer matrices or (L, T, d) arrays."""
    if len(mlp_inputs) == 0 or len(mlp_inputs) != len(layer_outputs):
        raise InvalidTrace(
            f"need equal non-zero layer counts, got {len(mlp_inputs)} mlp inputs "
            f"and {len(layer_outputs)} outputs"
        )
    first = np.shape(mlp_inputs[0])
    if len(first) != 2:
        raise InvalidTrace(f"mlp_inputs layer 1 has shape {first}, expected (T, d)")
    t, d = first
    if t < 1 or d < 1:
        raise InvalidTrace(f"degenerate trace dimensions T={t}, d={d}")
    for label, mats in (("mlp_inputs", mlp_inputs), ("layer_outputs", layer_outputs)):
        for idx, m in enumerate(mats, start=1):
            if np.shape(m) != (t, d):
                raise InvalidTrace(
                    f"{label} layer {idx} has shape {np.shape(m)}, expected {(t, d)}"
                )
            if not np.isfinite(m).all():
                raise NonFiniteValue(f"{label} layer {idx} contains non-finite values")
    return ActivationTrace(mlp_inputs=np.asarray(mlp_inputs, dtype=np.float64),
                           layer_outputs=np.asarray(layer_outputs, dtype=np.float64))


# --- low-level file helpers ----------------------------------------------------


def _float32(values: np.ndarray, what: str) -> memoryview:
    """``values`` as the bytes of little-endian float32s, checked finite after
    the cast, so a value beyond float32 range raises as a NaN does."""
    with np.errstate(over="ignore"):  # the check below reports an overflow
        block = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(block).all():
        raise NonFiniteValue(f"{what} contains values that are not finite as float32")
    return memoryview(block).cast("B")


def _write_header(handle: BinaryIO, magic: bytes, version: int, *fields: int) -> int:
    return handle.write(magic + struct.pack(f"<{len(fields) + 1}I", version, *fields))


class _Reader:
    """Bounds-checked cursor over the bytes of one binary file.

    Every read compares its declared length with the bytes that remain
    before it slices or allocates anything, so a tampered header raises
    ``TruncatedPayload`` instead of asking for a header-sized buffer.
    """

    def __init__(self, buf):
        self._buf = buf
        self._pos = 0

    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def skip(self, count: int, what: str) -> int:
        """Step past ``count`` bytes; returns the offset where they start."""
        if count > self.remaining():
            raise TruncatedPayload(
                f"expected {count} bytes for {what}, got {self.remaining()}")
        start = self._pos
        self._pos += count
        return start

    def take(self, count: int, what: str) -> bytes:
        start = self.skip(count, what)
        return self._buf[start:self._pos]

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack_from(f"<{count}I", self._buf, self.skip(4 * count, what))

    def floats(self, dtype: str, dims: Sequence[int], what: str) -> np.ndarray:
        """The next prod(dims) little-endian floats, as a float64 array of shape dims."""
        count = math.prod(dims)
        start = self.skip(count * np.dtype(dtype).itemsize, what)
        # one expression, so no view of the buffer outlives the call
        return (np.frombuffer(self._buf, dtype=dtype, count=count, offset=start)
                .astype(np.float64).reshape(dims))

    def end(self) -> None:
        if self.remaining():
            raise FormatError(f"{self.remaining()} trailing bytes after the payload")


@contextmanager
def _read(path, magic: bytes, version: int) -> Iterator[_Reader]:
    """A reader past the checked magic and version of the file at ``path``.

    The file is memory-mapped read-only. A toolkit error raised while it is
    parsed, in the block too, names the path.
    """
    try:
        with open(path, "rb") as handle:
            # an empty file cannot be mapped; a pipe reports size 0 too
            buf = (mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                   if os.fstat(handle.fileno()).st_size else handle.read())
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        reader = _Reader(buf)
        got = reader.take(4, "magic")
        if got != magic:
            raise BadMagic(f"expected magic {magic!r}, got {got!r}")
        (got_version,) = reader.u32s(1, "version")
        if got_version != version:
            raise VersionMismatch(f"unsupported {magic.decode()} format version "
                                  f"{got_version}, expected {version}")
        yield reader
    except D2mError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    finally:
        if isinstance(buf, mmap.mmap):
            buf.close()


# --- trace format ---------------------------------------------------------------


def write_trace(trace: ActivationTrace | SyntheticTrace, destination) -> int:
    """Serialize a trace, in memory or synthetic, to the file at the path
    ``destination``; returns its size in bytes.

    Each (half, layer) block is cast to float32, checked, and written at its
    slot's offset in the new file. A ``SyntheticTrace`` is drawn one layer at
    a time as it is written, so the trace is never held whole.
    """
    num_layers, seq_len, hidden = trace.num_layers, trace.seq_len, trace.hidden_dim
    slots = (_synth_slots(trace) if isinstance(trace, SyntheticTrace)
             else enumerate(itertools.chain(trace.mlp_inputs, trace.layer_outputs)))
    layer_bytes = 4 * seq_len * hidden
    with output_file(destination, binary=True) as handle:
        start = _write_header(handle, TRACE_MAGIC, TRACE_VERSION, num_layers, seq_len, hidden)
        for slot, layer in slots:
            half, index = divmod(slot, num_layers)
            block = _float32(layer, f"{HALVES[half]} layer {index + 1}")
            handle.seek(start + slot * layer_bytes)
            handle.write(block)
    return start + 2 * num_layers * layer_bytes


def _trace_dims(reader: _Reader) -> tuple[int, int, int]:
    num_layers, seq_len, hidden = reader.u32s(3, "trace dimensions")
    if num_layers < 1 or seq_len < 1 or hidden < 1:
        raise InvalidTrace(
            f"degenerate header L={num_layers}, T={seq_len}, d={hidden}"
        )
    return num_layers, seq_len, hidden


def read_trace(source) -> ActivationTrace:
    """Deserialize the trace file at the path ``source``, re-validating
    finiteness and dimensions."""
    with _read(source, TRACE_MAGIC, TRACE_VERSION) as reader:
        dims = _trace_dims(reader)
        halves = reader.floats("<f4", (2, *dims), "trace payload")
        reader.end()
        return make_trace(halves[0], halves[1])


# float32 bytes of one token chunk of both halves; its float64 working copies
# take about twice that. On the reference trace (L=24, d=896, 6 tokens a
# chunk) budgets from 0.5 to 8 MiB ran equally fast while peak RSS grew with
# the budget.
CHUNK_BYTES = 1 << 20


def chunk_tokens(num_layers: int, seq_len: int, hidden_dim: int) -> int:
    """Tokens per chunk: as many as fit in ``CHUNK_BYTES``, at least one and
    at most the whole sequence."""
    return max(1, min(seq_len, CHUNK_BYTES // (2 * num_layers * hidden_dim * 4)))


@contextmanager
def trace_chunks(path: str | Path) -> Iterator[Iterator[np.ndarray]]:
    """The states of the trace file at ``path``, one token chunk at a time.

    The header is checked as ``read_trace`` checks it, payload length against
    the file size and trailing bytes included, before anything sized by it is
    allocated. The block gets an iterator over consecutive chunks in token
    order: float32 (2, L, n, d) views, halves in file order, of one reused
    buffer that the next chunk overwrites. A file that shrinks under the
    reader raises ``TruncatedPayload``. A toolkit error raised in the block,
    by the chunks' consumer too, names the path.
    """
    with _read(path, TRACE_MAGIC, TRACE_VERSION) as reader:
        num_layers, seq_len, hidden = _trace_dims(reader)
        start = reader.skip(2 * num_layers * seq_len * hidden * 4, "trace payload")
        reader.end()
        try:
            handle = open(path, "rb", buffering=0)
        except OSError as exc:
            raise IoFailure(f"cannot read: {exc}") from exc
        with handle:
            yield _read_chunks(handle.fileno(), start, num_layers, seq_len, hidden)


def _read_chunks(fd: int, start: int, num_layers: int, seq_len: int,
                 hidden: int) -> Iterator[np.ndarray]:
    step = chunk_tokens(num_layers, seq_len, hidden)
    buf = np.empty((2, num_layers, step, hidden), dtype="<f4")
    for first in range(0, seq_len, step):
        chunk = buf[:, :, :min(step, seq_len - first)]
        # the file holds each (half, layer) as T contiguous rows of d floats
        for index in range(2 * num_layers):
            rows = chunk[divmod(index, num_layers)]  # a view: reads land in buf
            offset = start + 4 * hidden * (index * seq_len + first)
            try:
                got = os.preadv(fd, [rows], offset)
            except OSError as exc:
                raise IoFailure(f"read failed: {exc}") from exc
            if got != rows.nbytes:
                raise TruncatedPayload(
                    f"expected {rows.nbytes} bytes at offset {offset}, got {got}")
        yield chunk


class SyntheticTrace:
    """A deterministic random trace with controllable layer redundancy, not
    yet drawn: ``write_trace`` draws it one layer at a time as it writes it,
    ``synth_trace`` draws it whole. Its arguments are checked when it is
    built, so a caller can refuse them before it creates anything.

    Each ``(base, offset, noise_scale)`` entry rewrites layer ``base+offset``
    as layer ``base`` plus seeded Gaussian noise of the given scale, in both
    the MLP-input and output states, so cosine similarity and norm error of
    that pair are directly controlled. Entries apply in order against the
    current contents of the base layer. Values pass through float32 so the
    trace serializes losslessly.
    """

    # a plain class: a frozen dataclass would add about 0.7 ms to the import
    # of this module, which every CLI stage but estimate and pareto pays
    def __init__(self, num_layers: int, seq_len: int, hidden_dim: int,
                 redundancy_spec: Iterable[tuple[int, int, float]] = (), seed: int = 0):
        if num_layers < 1 or seq_len < 1 or hidden_dim < 1:
            raise InvalidTrace("num_layers, seq_len, and hidden_dim must be positive")
        self.redundancy_spec = tuple(redundancy_spec)
        for base, offset, scale in self.redundancy_spec:
            if base < 1 or offset < 1 or base + offset > num_layers:
                raise OutOfRange(f"redundancy entry (base={base}, offset={offset}) "
                                 f"outside 1..{num_layers}")
            if scale < 0:
                raise OutOfRange(f"noise_scale must be non-negative, got {scale}")
        self.num_layers, self.seq_len, self.hidden_dim = num_layers, seq_len, hidden_dim
        self.seed = seed


def _synth_slots(trace: SyntheticTrace) -> Iterator[tuple[int, np.ndarray]]:
    """The (slot, float32 layer) pairs of a synthetic trace, in its RNG order.

    Slot ``half * L + layer - 1`` is a layer of the MLP inputs (half 0) or of
    the outputs (half 1). Every slot is drawn once, in slot order, as float64
    normals cast to float32. Then each entry, for each half, draws its noise
    and yields its target slot rewritten, so a slot can come twice and the
    last one counts. Only base layers are kept, in their current form. A
    yielded layer is overwritten by the next one.
    """
    num_layers, shape = trace.num_layers, (trace.seq_len, trace.hidden_dim)
    rng = np.random.default_rng(trace.seed)
    bases = {base - 1 for base, _, _ in trace.redundancy_spec}
    kept: dict[int, np.ndarray] = {}
    draw = np.empty(shape)
    layer = np.empty(shape, dtype=np.float32)
    for slot in range(2 * num_layers):
        rng.standard_normal(out=draw)
        np.copyto(layer, draw, casting="same_kind")
        if slot % num_layers in bases:
            kept[slot] = layer.copy()
        yield slot, layer
    for base, offset, scale in trace.redundancy_spec:
        for first in (0, num_layers):  # the first slot of each half
            rng.standard_normal(out=draw)
            np.multiply(draw, scale, out=draw)
            np.add(draw, kept[first + base - 1], out=draw)
            np.copyto(layer, draw, casting="same_kind")
            if base + offset - 1 in bases:
                kept[first + base + offset - 1] = layer.copy()
            yield first + base + offset - 1, layer


def synth_trace(num_layers: int, seq_len: int, hidden_dim: int,
                redundancy_spec: Iterable[tuple[int, int, float]] = (),
                seed: int = 0) -> ActivationTrace:
    """The ``SyntheticTrace`` of these arguments, drawn whole into memory."""
    trace = SyntheticTrace(num_layers, seq_len, hidden_dim, redundancy_spec, seed)
    states = np.empty((2 * num_layers, seq_len, hidden_dim))
    for slot, layer in _synth_slots(trace):
        states[slot] = layer
    return make_trace(states[:num_layers], states[num_layers:])


# --- weight containers ------------------------------------------------------------


@dataclass
class WeightContainer:
    """A named-tensor map plus the shape that dictates its schema.

    ``moe_layers`` maps 1-based layer index to that layer's expert count; it
    is empty for dense models. Tensor insertion order is preserved and is the
    on-disk order.
    """

    shape: ModelShape
    tensors: dict[str, np.ndarray]
    moe_layers: dict[int, int] = field(default_factory=dict)


def validate_container(container: WeightContainer) -> WeightContainer:
    """Every schema tensor present with matching dims, and nothing extra.

    The schema is walked lazily and stops at the first tensor that is absent,
    so the work is bounded by the tensors present, whatever the shape claims.
    """
    for layer in container.moe_layers:
        if not 1 <= layer <= container.shape.num_layers:
            raise DimensionMismatch(f"moe layer index {layer} outside 1..{container.shape.num_layers}")
    if container.moe_layers and container.shape.moe is None:
        raise DimensionMismatch("container has MoE layers but shape.moe is unset")
    if container.shape.moe is not None:
        k = container.shape.moe.top_k
        for layer, n_experts in container.moe_layers.items():
            if k > n_experts:
                raise DimensionMismatch(
                    f"top_k {k} exceeds expert count {n_experts} of layer {layer}"
                )
    seen: set[str] = set()
    for name, dims in tensor_schema(container.shape, container.moe_layers):
        if name not in container.tensors:
            raise MissingTensor(f"tensor {name!r} is required but absent")
        got = tuple(container.tensors[name].shape)
        if got != dims:
            raise DimensionMismatch(f"tensor {name!r} has dims {got}, expected {dims}")
        seen.add(name)
    extras = container.tensors.keys() - seen
    if extras:
        raise DimensionMismatch(f"unexpected tensors not in schema: {sorted(extras)}")
    return container


def param_count(container: WeightContainer) -> int:
    return sum(int(t.size) for t in container.tensors.values())


def copy_container(container: WeightContainer) -> WeightContainer:
    return WeightContainer(
        shape=container.shape,
        tensors={name: t.copy() for name, t in container.tensors.items()},
        moe_layers=dict(container.moe_layers),
    )


def _container_doc(container: WeightContainer) -> dict[str, Any]:
    doc = asdict(container.shape)
    doc["moe_layers"] = {str(k): v for k, v in sorted(container.moe_layers.items())}
    return doc


def _container_meta(doc: Mapping[str, Any]) -> tuple[ModelShape, dict[int, int]]:
    data = dict(doc)
    moe_layers_doc = data.pop("moe_layers", {})
    shape = shape_from_dict(data)
    if not isinstance(moe_layers_doc, Mapping):
        raise InvalidConfig("moe_layers must be an object, "
                            f"got {type(moe_layers_doc).__name__}")
    for key, count in moe_layers_doc.items():
        try:  # canonical decimal, as written: no sign, padding or leading zero
            canonical = key.isdigit() and str(int(key)) == key
        except ValueError:  # a digit int() does not read, or too many of them
            canonical = False
        if not canonical:
            raise InvalidConfig(f"moe_layers key {key!r} is not a layer index")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise InvalidConfig(f"moe_layers[{key!r}] must be an expert count of "
                                f"at least 1, got {count!r}")
    return shape, {int(key): count for key, count in moe_layers_doc.items()}


def _check_finite(tensors: Mapping[str, np.ndarray]) -> None:
    for name, tensor in tensors.items():
        if not np.isfinite(tensor).all():
            raise NonFiniteValue(f"tensor {name!r} contains non-finite values")


def write_weights(container: WeightContainer, destination) -> int:
    """Serialize a validated container, finite as float32, to the file at the
    path ``destination``; returns the number of bytes emitted. Every tensor
    is cast and checked before anything is written."""
    validate_container(container)
    blocks = {name: _float32(tensor, f"tensor {name!r}")
              for name, tensor in container.tensors.items()}
    config = json.dumps(_container_doc(container), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with output_file(destination, binary=True) as handle:
        n = _write_header(handle, WEIGHTS_MAGIC, WEIGHTS_VERSION, len(config))
        n += handle.write(config)
        for name, block in blocks.items():
            encoded, dims = name.encode("utf-8"), container.tensors[name].shape
            n += handle.write(struct.pack(f"<I{len(encoded)}sI{len(dims)}I", len(encoded),
                                          encoded, len(dims), *dims))
            n += handle.write(block)
        return n


def read_weights(source) -> WeightContainer:
    """Deserialize and re-validate the weight container file at the path
    ``source``, rejecting non-finite values."""
    tensors: dict[str, np.ndarray] = {}
    with _read(source, WEIGHTS_MAGIC, WEIGHTS_VERSION) as reader:
        (config_len,) = reader.u32s(1, "config length")
        raw_config = reader.take(config_len, "config document")
        shape, moe_layers = _container_meta(json_document(raw_config, "config document"))
        while reader.remaining():
            (name_len,) = reader.u32s(1, "tensor name length")
            try:
                name = reader.take(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"tensor name is not UTF-8: {exc}") from exc
            (ndim,) = reader.u32s(1, f"ndim of {name!r}")
            if ndim < 1 or ndim > 8:
                raise TruncatedPayload(f"implausible ndim {ndim} for tensor {name!r}")
            dims = reader.u32s(ndim, f"dims of {name!r}")
            if name in tensors:
                raise DimensionMismatch(f"duplicate tensor {name!r} in stream")
            tensors[name] = reader.floats("<f4", dims, f"data of {name!r}")
        _check_finite(tensors)
        return validate_container(WeightContainer(shape=shape, tensors=tensors,
                                                  moe_layers=moe_layers))
