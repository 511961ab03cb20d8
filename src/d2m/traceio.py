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
  weights magic ``D2MW`` | version=3 | config-length | UTF-8 JSON shape doc |
          entries: name-length | UTF-8 name | ndim | dims u32*ndim | f32 data

The shape document is ``asdict(shape)``, read back by ``config.shape_from_dict``:
its ``moe`` is null for a dense model, or ``{"experts": {"4": 2}, "top_k": 1}``,
the pool size of each MoE layer and the top-k every pool runs.

These two and the similarity matrices cache are read through one cursor,
``config._read``, that checks every header-declared length against the file
size before it allocates, rejects bytes left over after the payload, and
reads every byte by a positioned read into a given buffer (``read_into``).
A weights file's header is walked by one numpy-free walker,
``weightfile.WeightsFile``: its shape document first, then each entry's header,
stepping past the data, into an index that is checked against the schema.
``read_weights`` reads the tensors of that index into float64 arrays;
``surgery.fuse`` copies their bytes without numpy.

A trace file has one reader, ``trace_chunks``. It checks the header by the
same rules and then reads the states through the same cursor one half at a
time: all of ``mlp_inputs``, then all of ``layer_outputs``, each a token
chunk at a time into one reused buffer. ``CHUNK_BYTES`` budgets one half's
chunk (at least one token), so a pass holds no more than that.
``read_trace`` collects those chunks into a whole float64 trace, so it holds
that trace plus one chunk.

``write_trace`` writes an in-memory trace or a stream of ``(slot, layer)``
pairs alike, each block at its slot's offset in the new file. An in-memory
trace goes out in file order. ``synthetic_trace``'s stream is drawn as it is
written: each layer goes to its slot as soon as it is drawn, only the layers
that a redundancy entry reads as its base are kept, and each entry's target
slot is then overwritten in place before the file is renamed into place.
That pass holds one layer plus the kept bases, never the trace;
``synth_trace`` collects the same stream into an in-memory trace.

``write_weights`` writes a container or a stream of ``(name, tensor)`` pairs
alike, tensor by tensor, so a stream is never held whole.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import (
    ModelShape,
    _read,
    _Reader,
    _write_header,
    output_file,
    tensor_schema,
)
from .errors import DimensionMismatch, InvalidTrace, NonFiniteValue, OutOfRange
from .weightfile import check_tensors, open_weights, write_entry, write_weights_header

HALVES = ("mlp_inputs", "layer_outputs")  # trace halves, in file order
TRACE_MAGIC = b"D2MT"
TRACE_VERSION = 1


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
    """Build a validated trace from per-layer matrices or (L, T, d) arrays,
    every value finite as float32, the precision of a trace file."""
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
            extremes = np.array([np.min(m), np.max(m)])  # NaN and inf show here too
            if not np.isfinite(extremes).all():
                raise NonFiniteValue(f"{label} layer {idx} contains non-finite values")
            with np.errstate(over="ignore"):  # the check below reports an overflow
                if not np.isfinite(extremes.astype(np.float32)).all():
                    raise NonFiniteValue(
                        f"{label} layer {idx} contains values that are not finite as float32")
    return ActivationTrace(mlp_inputs=np.asarray(mlp_inputs, dtype=np.float64),
                           layer_outputs=np.asarray(layer_outputs, dtype=np.float64))


# --- low-level file helpers ----------------------------------------------------


def _float32(values: np.ndarray, what: str) -> memoryview:
    """``values`` as the bytes of little-endian float32s, checked finite after
    the cast, so a value beyond float32 range raises as a NaN does; the check
    reads the block's extremes, not a mask the size of the block."""
    with np.errstate(over="ignore"):  # the check below reports an overflow
        block = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite([block.min(initial=0.0), block.max(initial=0.0)]).all():
        raise NonFiniteValue(f"{what} contains values that are not finite as float32")
    return memoryview(block).cast("B")


# --- trace format ---------------------------------------------------------------


TraceStream = tuple[tuple[int, int, int], Iterator[tuple[int, np.ndarray]]]


def write_trace(trace: ActivationTrace | TraceStream, destination) -> int:
    """Serialize a trace to the file at the path ``destination``; returns its
    size in bytes. ``trace`` is an ``ActivationTrace`` or a stream: its
    (L, T, d) and ``(slot, layer)`` pairs, slot ``half * L + layer - 1``, a
    slot perhaps more than once, the last one counting.

    Each block is cast to float32, checked, and written at its slot's offset
    in the new file, so a stream is never held whole.
    """
    (num_layers, seq_len, hidden), slots = trace if isinstance(trace, tuple) else (
        (trace.num_layers, trace.seq_len, trace.hidden_dim),
        enumerate(itertools.chain(trace.mlp_inputs, trace.layer_outputs)))
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
    """Deserialize the trace file at the path ``source``, collected from
    ``trace_chunks`` into float64 halves, re-validating finiteness."""
    with trace_chunks(source) as (dims, chunks):
        halves = np.empty((len(HALVES), *dims))
        for half, tokens, states in chunks:
            halves[half][:, tokens] = states
        return make_trace(halves[0], halves[1])


# float32 bytes of one token chunk of one half: 6 tokens a chunk on the
# reference trace (L=24, d=896). The matrices copy one token at a time to
# float64 and sum cosines token by token, so their bits do not depend on it.
CHUNK_BYTES = 1 << 19
Chunk = tuple[int, slice, np.ndarray]  # (half, token slice, (L, n, d) states)


def chunk_tokens(num_layers: int, seq_len: int, hidden_dim: int) -> int:
    """Tokens per chunk: as many as fit one half's (L, n, d) float32 states
    in ``CHUNK_BYTES``, at least one and at most the whole sequence."""
    return max(1, min(seq_len, CHUNK_BYTES // (num_layers * hidden_dim * 4)))


def chunk_slices(num_layers: int, seq_len: int, hidden_dim: int) -> Iterator[tuple[int, slice]]:
    """The order of a chunked pass: (half, token slice) of every chunk of
    ``mlp_inputs`` in token order, then of every chunk of ``layer_outputs``."""
    step = chunk_tokens(num_layers, seq_len, hidden_dim)
    for half in range(len(HALVES)):
        for first in range(0, seq_len, step):
            yield half, slice(first, min(first + step, seq_len))


@contextmanager
def trace_chunks(path: str | Path) -> Iterator[tuple[tuple[int, int, int], Iterator[Chunk]]]:
    """The states of the trace file at ``path``, one half's token chunk at a
    time.

    The header is checked, payload length against the file size and
    trailing bytes included, before anything sized by it is allocated. The
    block gets the trace's (L, T, d) and an iterator over
    ``(half, tokens, states)`` in ``chunk_slices`` order: ``states`` is the
    float32 (L, n, d) view of the half's rows ``tokens``, in one reused
    buffer of one half's chunk that the next chunk overwrites. A file that
    shrinks under the reader raises ``TruncatedPayload``. A toolkit error
    raised in the block, by the chunks' consumer too, names the path.
    """
    with _read(path, TRACE_MAGIC, TRACE_VERSION) as reader:
        dims = _trace_dims(reader)
        start = reader.skip(2 * math.prod(dims) * 4, "trace payload")
        reader.end()
        yield dims, _read_chunks(reader, start, dims)


def _read_chunks(reader: _Reader, start: int, dims: tuple[int, int, int]) -> Iterator[Chunk]:
    num_layers, seq_len, hidden = dims
    buf = np.empty((num_layers, chunk_tokens(*dims), hidden), dtype="<f4")
    for half, tokens in chunk_slices(*dims):
        states = buf[:, :tokens.stop - tokens.start]
        for layer, rows in enumerate(states):  # views: reads land in buf
            # the file holds each (half, layer) as T contiguous rows of d floats
            offset = start + 4 * hidden * ((half * num_layers + layer) * seq_len + tokens.start)
            reader.read_into(rows, offset, "trace payload")
        yield half, tokens, states


def check_redundancy(num_layers: int, entries: Iterable[tuple]) -> tuple[tuple, ...]:
    """The entries, each ``(base, offset)`` or ``(base, offset, noise_scale)``,
    as a tuple once each names a later layer ``base+offset`` of
    ``1..num_layers`` and a finite, non-negative noise scale: the one rule of
    a redundancy entry, for toy weights, synthetic traces and ``synth``'s
    ``--redundant`` alike."""
    entries = tuple(entries)
    for base, offset, *noise in entries:
        if noise and not 0 <= noise[0] < math.inf:  # NaN fails both comparisons
            raise OutOfRange(f"noise_scale must be finite and non-negative, got {noise[0]}")
        if base < 1 or offset < 1 or base + offset > num_layers:
            raise OutOfRange(f"redundancy entry (base={base}, offset={offset}) "
                             f"outside 1..{num_layers}")
    return entries


def synthetic_trace(num_layers: int, seq_len: int, hidden_dim: int,
                    redundancy_spec: Iterable[tuple[int, int, float]] = (),
                    seed: int = 0) -> TraceStream:
    """A deterministic random trace with controllable layer redundancy, as
    the stream ``write_trace`` writes: its (L, T, d) and its ``(slot, float32
    layer)`` pairs, drawn as they are taken. The arguments are checked before
    this returns, so a caller can refuse them before it creates anything.

    Each ``(base, offset, noise_scale)`` entry rewrites layer ``base+offset``
    as layer ``base`` plus seeded Gaussian noise of the given scale, in both
    the MLP-input and output states, so cosine similarity and norm error of
    that pair are directly controlled. Entries apply in order against the
    current contents of the base layer. Values pass through float32 so the
    trace serializes losslessly.
    """
    if num_layers < 1 or seq_len < 1 or hidden_dim < 1:
        raise InvalidTrace("num_layers, seq_len, and hidden_dim must be positive")
    dims = (num_layers, seq_len, hidden_dim)
    return dims, _synth_slots(dims, check_redundancy(num_layers, redundancy_spec), seed)


def _synth_slots(dims: tuple[int, int, int], spec: tuple,
                 seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """The (slot, float32 layer) pairs of a synthetic trace, in its RNG order.

    Slot ``half * L + layer - 1`` is a layer of the MLP inputs (half 0) or of
    the outputs (half 1). Every slot is drawn once, in slot order, as float64
    normals cast to float32. Then each entry, for each half, draws its noise
    and yields its target slot rewritten, so a slot can come twice and the
    last one counts. Only base layers are kept, in their current form. A
    yielded layer is overwritten by the next one.
    """
    num_layers, shape = dims[0], dims[1:]
    rng = np.random.default_rng(seed)
    bases = {base - 1 for base, _, _ in spec}
    kept: dict[int, np.ndarray] = {}
    draw = np.empty(shape)
    layer = np.empty(shape, dtype=np.float32)
    for slot in range(2 * num_layers):
        rng.standard_normal(out=draw)
        np.copyto(layer, draw, casting="same_kind")
        if slot % num_layers in bases:
            kept[slot] = layer.copy()
        yield slot, layer
    for base, offset, scale in spec:
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
    """The ``synthetic_trace`` of these arguments, collected into memory."""
    _, slots = synthetic_trace(num_layers, seq_len, hidden_dim, redundancy_spec, seed)
    states = np.empty((2 * num_layers, seq_len, hidden_dim))
    for slot, layer in slots:
        states[slot] = layer
    return make_trace(states[:num_layers], states[num_layers:])


# --- weight containers ------------------------------------------------------------


@dataclass
class WeightContainer:
    """A named-tensor map plus the shape that dictates its schema; a writer
    writes its tensors in schema order."""

    shape: ModelShape
    tensors: dict[str, np.ndarray]


def validate_container(container: WeightContainer) -> WeightContainer:
    """Every schema tensor present with matching dims, and nothing extra
    (``weightfile.check_tensors``)."""
    check_tensors(container.shape, {name: t.shape for name, t in container.tensors.items()})
    return container


def copy_container(container: WeightContainer) -> WeightContainer:
    return WeightContainer(container.shape,
                           {name: t.copy() for name, t in container.tensors.items()})


def write_weights(container: WeightContainer | tuple[ModelShape, Iterable[tuple[str, np.ndarray]]],
                  destination) -> int:
    """Serialize a model, finite as float32, to the file at the path
    ``destination``; returns the number of bytes emitted. ``container`` is a
    ``WeightContainer``, validated first, or a stream: a shape and its
    ``(name, tensor)`` pairs, a tensor perhaps in consecutive row blocks under
    its name. Either is written in schema order, checked against the schema
    as it is written, one block's float32 copy at a time; a failed check
    leaves ``destination`` as it was."""
    shape, pairs = container if isinstance(container, tuple) else (
        validate_container(container).shape,
        ((name, container.tensors[name]) for name, _ in tensor_schema(container.shape)))
    pairs = iter(pairs)
    with output_file(destination, binary=True) as handle:
        n = write_weights_header(handle, shape)
        for name, dims in tensor_schema(shape):
            n += write_entry(handle, name, dims, b"")  # the data follows, block by block
            rows = 0
            while rows < dims[0]:
                got, block = next(pairs, (None, None))
                if got != name or block.shape[1:] != dims[1:] or rows + len(block) > dims[0]:
                    raise DimensionMismatch(f"tensor {name!r} of dims {dims} is due at row "
                                            f"{rows}, got {got!r} of dims {np.shape(block)}")
                n += handle.write(_float32(block, f"tensor {name!r}"))
                rows += len(block)
        if (extra := next(pairs, None)) is not None:
            raise DimensionMismatch(f"unexpected tensors not in schema: [{extra[0]!r}]")
        return n


def read_weights(source) -> WeightContainer:
    """Deserialize the weight container file at the path ``source``, its
    index checked by ``weightfile.WeightsFile``, rejecting non-finite values."""
    tensors: dict[str, np.ndarray] = {}
    with open_weights(source) as weights:
        for name, (dims, _) in weights.tensors.items():
            block = np.frombuffer(weights.read(name, finite=True), dtype="<f4")
            tensors[name] = block.astype(np.float64).reshape(dims)
    return WeightContainer(shape=weights.shape, tensors=tensors)
