"""The ``.d2mw`` weights file without numpy: its format, its one header
walker and its entry writer.

``WeightsFile`` walks a weights file open through ``config._read``: the shape
document first, so a caller can refuse a file from it, then each entry's
header, stepping past the data with ``skip``, into an index of name to dims
and data offset, checked against the shape's ``tensor_schema``. ``read``
reads one tensor's float32 bytes. ``traceio.read_weights`` decodes them into
float64 arrays; ``surgery.fuse`` copies them as they are into a new weights
file and ``surgery.verify_fusion`` compares them.

A module of its own, not part of ``config``: every CLI stage loads
``config``, and only the stages that take a weights file load this one.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import asdict
from functools import cached_property
from typing import BinaryIO, Iterator, Mapping, Sequence

from .config import (
    ModelShape,
    _read,
    _Reader,
    _write_header,
    json_document,
    shape_from_dict,
    tensor_schema,
)
from .errors import DimensionMismatch, FormatError, MissingTensor, NonFiniteValue, TruncatedPayload

# magic D2MW | version u32=3 | config-length u32 | UTF-8 JSON shape document |
# entries: name-length u32 | UTF-8 name | ndim u32 | dims u32*ndim | f32-LE data
WEIGHTS_MAGIC = b"D2MW"
WEIGHTS_VERSION = 3


def check_tensors(shape: ModelShape, dims: Mapping[str, Sequence[int]]) -> None:
    """Every tensor of ``shape``'s schema present in ``dims`` (name to dims)
    with its schema dims, and nothing extra.

    The schema is walked lazily and stops at the first tensor that is absent,
    so the work is bounded by the tensors present, whatever the shape claims.
    """
    seen: set[str] = set()
    for name, want in tensor_schema(shape):
        if name not in dims:
            raise MissingTensor(f"tensor {name!r} is required but absent")
        got = tuple(dims[name])
        if got != want:
            raise DimensionMismatch(f"tensor {name!r} has dims {got}, expected {want}")
        seen.add(name)
    extras = dims.keys() - seen
    if extras:
        raise DimensionMismatch(f"unexpected tensors not in schema: {sorted(extras)}")


def write_weights_header(handle: BinaryIO, shape: ModelShape) -> int:
    """The magic, version and shape document of a weights file."""
    doc = json.dumps(asdict(shape), sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _write_header(handle, WEIGHTS_MAGIC, WEIGHTS_VERSION, len(doc)) + handle.write(doc)


def write_entry(handle: BinaryIO, name: str, dims: Sequence[int], data) -> int:
    """One tensor entry: its name, its dims and ``data``, its float32 bytes."""
    encoded = name.encode("utf-8")
    n = handle.write(struct.pack(f"<I{len(encoded)}sI{len(dims)}I", len(encoded), encoded,
                                 len(dims), *dims))
    return n + handle.write(data)


# a float32 is not finite when its eight exponent bits are all set: the low
# seven bits of its last byte and the top bit of the one before
_NOT_TOP = bytes(b for b in range(256) if b & 0x7F != 0x7F)
_TOP_SET = bytes(int(b & 0x7F == 0x7F) for b in range(256))
_LOW_SET = bytes(b >> 7 for b in range(256))


def _finite_f32(data: bytearray) -> bool:
    """Whether every little-endian float32 in ``data`` is finite, by strided
    scans of exponent bytes with ``bytes.translate`` rather than a loop over
    floats: most floats are cleared by their last byte alone."""
    top = data[3::4]
    if not top.translate(None, _NOT_TOP):
        return True
    low = data[2::4].translate(_LOW_SET)
    return not (int.from_bytes(top.translate(_TOP_SET), "little")
                & int.from_bytes(low, "little"))


class WeightsFile:
    """A ``.d2mw`` weights file open for reading, without numpy.

    ``shape`` is its shape document, read when this is built, so a caller can
    refuse the file from it before any tensor is walked. ``tensors`` is the
    index of its entries in file order, name to (dims, offset of the float32
    data), walked on first use: each entry's header is read, its data stepped
    past with ``skip``, and the whole checked against the shape's schema
    (``check_tensors``), duplicates too. ``read`` reads one tensor's bytes.
    """

    def __init__(self, reader: _Reader):
        self.reader = reader
        (length,) = reader.u32s(1, "config length")
        raw = reader.take(length, "config document")
        self.shape = shape_from_dict(json_document(raw, "config document"))

    @cached_property
    def tensors(self) -> dict[str, tuple[tuple[int, ...], int]]:
        reader, index = self.reader, {}
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
            if name in index:
                raise DimensionMismatch(f"duplicate tensor {name!r} in stream")
            index[name] = dims, reader.skip(4 * math.prod(dims), f"data of {name!r}")
        check_tensors(self.shape, {name: dims for name, (dims, _) in index.items()})
        return index

    def read(self, name: str, finite: bool = False) -> bytearray:
        """The little-endian float32 bytes of the tensor ``name``; with
        ``finite``, a value that is not raises ``NonFiniteValue``."""
        dims, offset = self.tensors[name]
        data = self.reader.read_into(bytearray(4 * math.prod(dims)), offset,
                                     f"data of {name!r}")
        if finite and not _finite_f32(data):
            raise NonFiniteValue(f"tensor {name!r} contains non-finite values")
        return data


@contextmanager
def open_weights(path) -> Iterator[WeightsFile]:
    """The weights file at ``path``, open for the block through ``_read``."""
    with _read(path, WEIGHTS_MAGIC, WEIGHTS_VERSION) as reader:
        yield WeightsFile(reader)
