"""Binary trace/weights formats: byte accounting, round trips, error taxonomy,
tampered headers and mutated files of all three formats, and the synthetic
trace generator."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import d2m
from d2m.cli import main
from d2m.config import ModelShape, MoEShape, tensor_schema
from d2m.errors import (
    BadMagic,
    D2mError,
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    InvalidShape,
    InvalidTrace,
    IoFailure,
    MissingTensor,
    NonFiniteValue,
    OutOfRange,
    TruncatedPayload,
    VersionMismatch,
)
from d2m.nanomodel import build_toy_container
from d2m.similarity import (
    build_matrices,
    norm_mismatch,
    read_matrices,
    seq_avg_cosine,
    write_matrices,
)
from d2m.traceio import (
    CHUNK_BYTES,
    SyntheticTrace,
    chunk_tokens,
    make_trace,
    param_count,
    read_trace,
    read_weights,
    synth_trace,
    validate_container,
    write_trace,
    write_weights,
)
from d2m.weightfile import open_weights

TOY_SHAPE = ModelShape(num_layers=2, hidden_dim=16, mlp_dim=32, num_heads=2,
                       num_kv_heads=1, head_dim=8, vocab_size=24)


def random_trace(rng, num_layers=3, seq_len=5, hidden=4):
    def mats():
        return [rng.standard_normal((seq_len, hidden)).astype(np.float32).astype(np.float64)
                for _ in range(num_layers)]

    return make_trace(mats(), mats())


def written_bytes(write, value) -> bytes:
    """The bytes of the file that ``write(value, path)`` leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(value, path)
        return path.read_bytes()


class TestTraceFormat:
    def test_byte_accounting(self, tmp_path):
        # 4 magic + 4*4 header words + 2 halves * L*T*d f32 payload
        trace = synth_trace(2, 3, 4, seed=0)
        path = tmp_path / "t.d2mt"
        written = write_trace(trace, path)
        assert written == 20 + 2 * 2 * 3 * 4 * 4 == 212
        assert len(path.read_bytes()) == written

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "t.d2mt"
        for _ in range(100):
            num_layers = int(rng.integers(1, 5))
            seq_len = int(rng.integers(1, 7))
            hidden = int(rng.integers(1, 9))
            trace = random_trace(rng, num_layers, seq_len, hidden)
            write_trace(trace, path)
            back = read_trace(path)
            assert np.array_equal(back.mlp_inputs, trace.mlp_inputs)
            assert np.array_equal(back.layer_outputs, trace.layer_outputs)

    def test_file_round_trip_is_fixed_point(self, tmp_path):
        trace = synth_trace(3, 4, 6, [(1, 1, 0.05)], seed=9)
        first = tmp_path / "a.d2mt"
        second = tmp_path / "b.d2mt"
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_read_holds_one_float64_copy(self, tmp_path):
        # three chunks a half, collected into the float64 trace in place
        dims = (2, 5000, 32)
        assert 2 * chunk_tokens(*dims) < dims[1] <= 3 * chunk_tokens(*dims)
        path = tmp_path / "t.d2mt"
        write_trace(SyntheticTrace(*dims, [(1, 1, 0.5)], seed=3), path)
        tracemalloc.start()
        try:
            back = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = back.mlp_inputs.nbytes + back.layer_outputs.nbytes
        assert peak <= size + 2 * CHUNK_BYTES + (64 << 10), (peak, size)
        trace = synth_trace(*dims, [(1, 1, 0.5)], seed=3)
        assert np.array_equal(back.mlp_inputs, trace.mlp_inputs)
        assert np.array_equal(back.layer_outputs, trace.layer_outputs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.d2mt"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            read_trace(path)

    def test_version_mismatch(self, tmp_path):
        payload = b"D2MT" + struct.pack("<IIII", 9, 1, 1, 1) + b"\x00" * 8
        path = tmp_path / "t.d2mt"
        path.write_bytes(payload)
        with pytest.raises(VersionMismatch):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        trace = synth_trace(2, 3, 4, seed=0)
        path = tmp_path / "t.d2mt"
        write_trace(trace, path)
        clipped = path.read_bytes()[:-5]
        path.write_bytes(clipped)
        with pytest.raises(TruncatedPayload):
            read_trace(path)

    def test_non_finite_value(self, tmp_path):
        trace = synth_trace(1, 2, 2, seed=0)
        path = tmp_path / "t.d2mt"
        write_trace(trace, path)
        raw = bytearray(path.read_bytes())
        raw[20:24] = struct.pack("<f", float("nan"))
        path.write_bytes(raw)
        with pytest.raises(NonFiniteValue):
            read_trace(path)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            read_trace(tmp_path / "absent.d2mt")

    def test_layer_beyond_float32_is_refused_before_the_matrices(self):
        # a trace file holds float32; squared in float64, 1e200 would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="^mlp_inputs layer 1 contains values "
                                                     "that are not finite as float32$"):
                build_matrices(make_trace([np.full((3, 4), 1e200)] * 2,
                                          [np.ones((3, 4))] * 2))

    def test_layer_at_the_float32_maximum_is_accepted(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        trace = make_trace([np.full((3, 4), top), np.full((3, 4), -top)],
                           [np.ones((3, 4))] * 2)
        path = tmp_path / "t.d2mt"
        write_trace(trace, path)
        assert np.array_equal(read_trace(path).mlp_inputs, trace.mlp_inputs)
        assert build_matrices(trace).s_mlp[0, 1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("first", [np.ones(3), np.ones((2, 3, 4)), np.float64(1.0)],
                             ids=["vector", "3-d", "scalar"])
    def test_first_layer_not_a_matrix_is_invalid_trace(self, first):
        with pytest.raises(InvalidTrace, match="mlp_inputs layer 1 has shape"):
            make_trace([first], [first])


class TestSynthTrace:
    def test_exact_duplicate(self):
        trace = synth_trace(4, 6, 8, [(2, 1, 0.0)], seed=3)
        assert np.array_equal(trace.mlp_inputs[1], trace.mlp_inputs[2])
        assert seq_avg_cosine(trace.mlp_inputs[1], trace.mlp_inputs[2]) == pytest.approx(1.0, abs=1e-12)
        assert norm_mismatch(trace.mlp_inputs[1], trace.mlp_inputs[2]) == 0.0
        assert np.array_equal(trace.layer_outputs[1], trace.layer_outputs[2])

    def test_determinism(self):
        a = synth_trace(3, 5, 7, [(1, 2, 0.2)], seed=42)
        b = synth_trace(3, 5, 7, [(1, 2, 0.2)], seed=42)
        assert np.array_equal(a.mlp_inputs, b.mlp_inputs)
        assert np.array_equal(a.layer_outputs, b.layer_outputs)

    def test_noise_scale_regression(self):
        # frozen from the pinned generator stream (d=64, T=256, seed 7, noise 0.1)
        trace = synth_trace(4, 256, 64, [(2, 1, 0.1)], seed=7)
        mean_cos = seq_avg_cosine(trace.mlp_inputs[1], trace.mlp_inputs[2])
        assert mean_cos == pytest.approx(0.9948788821198062, abs=1e-9)

    def test_one_array_per_half_in_draw_order(self):
        # every h layer, then every y layer, then per entry one noise draw
        # for h and one for y, each value rounded through float32
        trace = synth_trace(3, 4, 5, [(1, 2, 0.3), (1, 1, 0.1)], seed=6)
        rng = np.random.default_rng(6)
        want = rng.standard_normal((2, 3, 4, 5)).astype(np.float32).astype(np.float64)
        for base, offset, scale in [(1, 2, 0.3), (1, 1, 0.1)]:
            for half in want:
                noise = rng.standard_normal((4, 5))
                half[base + offset - 1] = (half[base - 1] + scale * noise).astype(np.float32)
        for got, expected in zip((trace.mlp_inputs, trace.layer_outputs), want):
            assert got.dtype == np.float64 and got.shape == (3, 4, 5)
            assert np.array_equal(got, expected)

    def test_out_of_range_offset(self):
        with pytest.raises(OutOfRange):
            synth_trace(3, 4, 4, [(2, 2, 0.1)], seed=0)
        with pytest.raises(OutOfRange):
            synth_trace(3, 4, 4, [(1, 1, -0.5)], seed=0)


def whole_trace_bytes(num_layers, seq_len, hidden, spec, seed) -> bytes:
    """The trace file as the whole-trace writer made it: every state drawn into
    one float64 (2, L, T, d) block, the entries applied in place, then written."""
    rng = np.random.default_rng(seed)
    states = np.empty((2, num_layers, seq_len, hidden))
    for layer in states.reshape(-1, seq_len, hidden):
        layer[...] = rng.standard_normal((seq_len, hidden)).astype(np.float32)
    for base, offset, scale in spec:
        for half in states:
            noise = rng.standard_normal((seq_len, hidden))
            half[base + offset - 1] = (half[base - 1] + scale * noise).astype(np.float32)
    return (b"D2MT" + struct.pack("<4I", 1, num_layers, seq_len, hidden)
            + states.astype("<f4").tobytes())


@st.composite
def synth_specs(draw):
    num_layers = draw(st.integers(2, 6))
    entry = st.integers(1, num_layers - 1).flatmap(lambda base: st.tuples(
        st.just(base), st.integers(1, num_layers - base),
        st.sampled_from([0.0, 0.01, 0.5, 3.0])))
    return (num_layers, draw(st.integers(1, 4)), draw(st.integers(1, 5)),
            tuple(draw(st.lists(entry, max_size=5))), draw(st.integers(0, 2**32 - 1)))


class TestStreamedSynth:
    """``write_trace`` of a ``SyntheticTrace`` draws each layer as it writes
    it and overwrites each entry's target slot in place."""

    @settings(max_examples=60)
    @given(synth_specs())
    @example((4, 3, 2, ((1, 1, 0.5), (2, 1, 0.5), (3, 1, 0.01)), 1))  # a chain
    @example((4, 3, 2, ((1, 2, 0.5), (2, 1, 3.0)), 2))  # one target planted twice
    @example((4, 3, 2, ((2, 1, 0.5), (1, 1, 0.5), (2, 2, 0.01)), 3))  # base overwritten first
    def test_streamed_bytes_equal_the_whole_trace_writer(self, case):
        num_layers, seq_len, hidden, spec, seed = case
        with tempfile.TemporaryDirectory() as tmp:
            streamed, whole = Path(tmp) / "streamed.d2mt", Path(tmp) / "whole.d2mt"
            size = write_trace(SyntheticTrace(num_layers, seq_len, hidden, spec, seed),
                               streamed)
            write_trace(synth_trace(num_layers, seq_len, hidden, spec, seed), whole)
            assert streamed.read_bytes() == whole.read_bytes() == whole_trace_bytes(*case)
            assert size == len(streamed.read_bytes())

    def test_peak_memory_is_one_layer_plus_kept_bases_not_the_trace(self, tmp_path):
        seq_len, hidden = 64, 256
        spec = ((1, 1, 0.1), (3, 2, 0.1), (2, 3, 0.2))  # bases 1, 2, 3 in both halves
        kept = 2 * 3
        write_trace(SyntheticTrace(2, 2, 2, spec[:1]), tmp_path / "warm.d2mt")  # imports
        peaks = {}
        for num_layers in (8, 32):
            tracemalloc.start()
            try:
                write_trace(SyntheticTrace(num_layers, seq_len, hidden, spec, 5),
                            tmp_path / f"{num_layers}.d2mt")
                peaks[num_layers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        layer32 = 4 * seq_len * hidden
        # a float64 draw, a float32 layer, the kept bases and a mask, whatever L is
        bound = 2 * layer32 + layer32 * (kept + 1) + seq_len * hidden + (64 << 10)
        assert peaks[8] < bound and peaks[32] < bound
        assert abs(peaks[32] - peaks[8]) < layer32  # four times the layers, not the memory
        assert peaks[32] < 2 * 32 * layer32 / 4  # a quarter of the float32 trace


class TestWritersRefuseWhatTheirReaderRejects:
    """A value that overflows float32 would be written as inf, which the
    reader rejects; both writers raise instead and leave the destination."""

    def test_trace_writer_names_the_layer_and_keeps_the_file(self, tmp_path):
        path = tmp_path / "t.d2mt"
        write_trace(synth_trace(3, 4, 5, seed=1), path)
        before = path.read_bytes()
        states = np.zeros((3, 4, 5))
        states[1, 2, 3] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(NonFiniteValue, match="mlp_inputs layer 2"):
                write_trace(make_trace(states, np.zeros((3, 4, 5))), path)
            with pytest.raises(NonFiniteValue, match="layer_outputs layer 2"):
                write_trace(make_trace(np.zeros((3, 4, 5)), states), path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.glob("*.tmp")) == []

    def test_weights_writer_names_the_tensor_and_writes_nothing(self, tmp_path):
        path = tmp_path / "m.d2mw"
        container = build_toy_container(TOY_SHAPE, seed=3)
        write_weights(container, path)
        before = path.read_bytes()
        container.tensors["layer.2.mlp.down"][0, 0] = -1e39
        fresh = tmp_path / "fresh.d2mw"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="layer.2.mlp.down"):
                write_weights(container, fresh)
            with pytest.raises(NonFiniteValue, match="layer.2.mlp.down"):
                write_weights(container, path)
        assert not fresh.exists()
        assert path.read_bytes() == before
        assert sorted(tmp_path.glob("*.tmp")) == []

    def test_weights_writer_holds_one_tensor_in_float32_not_the_model(self, tmp_path):
        shape = ModelShape(num_layers=8, hidden_dim=64, mlp_dim=256, num_heads=4,
                           num_kv_heads=2, head_dim=16, vocab_size=64)
        container = build_toy_container(shape, seed=5)
        write_weights(build_toy_container(TOY_SHAPE, seed=0), tmp_path / "warm.d2mw")
        tracemalloc.start()
        try:
            write_weights(container, tmp_path / "m.d2mw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(4 * t.size for t in container.tensors.values())
        # one tensor's float32 copy and finiteness mask, the shape document
        # and the file object
        bound = 2 * largest + (64 << 10)
        assert bound < 4 * param_count(container) / 2
        assert peak <= bound, peak


def repeat_entry(path: Path, name: str, destination: Path) -> None:
    """The weights file at ``path`` with the entry of tensor ``name`` written
    twice in a row, at ``destination``."""
    with open_weights(path) as weights:
        dims, offset = weights.tensors[name]
    start = offset - 4 * (2 + len(dims)) - len(name.encode("utf-8"))
    end = offset + 4 * math.prod(dims)
    data = path.read_bytes()
    destination.write_bytes(data[:end] + data[start:end] + data[end:])


class TestWeightsFormat:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "m.d2mw"
        for i in range(100):
            shape = (replace(TOY_SHAPE, moe=MoEShape({2: 3}, top_k=1)) if i % 3 == 0
                     else TOY_SHAPE)
            container = build_toy_container(shape, seed=i)
            write_weights(container, path)
            back = read_weights(path)
            assert list(back.tensors) == list(container.tensors)
            assert back.shape == container.shape
            for name in container.tensors:
                assert np.array_equal(container.tensors[name], back.tensors[name])

    def test_missing_tensor(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        del container.tensors["layer.1.mlp.down"]
        with pytest.raises(MissingTensor, match="layer.1.mlp.down"):
            validate_container(container)

    def test_dimension_mismatch(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        container.tensors["layer.1.mlp.up"] = np.zeros((3, 3))
        with pytest.raises(DimensionMismatch, match="layer.1.mlp.up"):
            validate_container(container)

    def test_unexpected_tensor_rejected(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        container.tensors["layer.1.bias"] = np.zeros(4)
        with pytest.raises(DimensionMismatch, match="unexpected"):
            validate_container(container)

    def test_read_rejects_tampered_dims(self, tmp_path):
        container = build_toy_container(TOY_SHAPE, seed=1)
        container.tensors["layer.2.mlp.down"] = np.zeros((4, 4))
        with pytest.raises(DimensionMismatch):
            write_weights(container, tmp_path / "m.d2mw")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.d2mw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            read_weights(path)

    def test_truncated_entry(self, tmp_path):
        container = build_toy_container(TOY_SHAPE, seed=2)
        path = tmp_path / "m.d2mw"
        write_weights(container, path)
        clipped = path.read_bytes()[:-9]
        path.write_bytes(clipped)
        with pytest.raises(TruncatedPayload):
            read_weights(path)

    def test_a_repeated_entry_is_refused_naming_the_file_and_the_tensor(self, tmp_path):
        # the names of a file with one entry twice are still the schema's, so
        # only the walker's duplicate check can refuse it
        path, repeated = tmp_path / "m.d2mw", tmp_path / "repeated.d2mw"
        container = build_toy_container(TOY_SHAPE, seed=4)
        write_weights(container, path)
        for name in container.tensors:
            repeat_entry(path, name, repeated)
            with pytest.raises(DimensionMismatch, match=re.escape(
                    f"{repeated}: duplicate tensor {name!r} in stream")):
                read_weights(repeated)

    def test_write_rejects_non_finite_before_writing(self, tmp_path):
        container = build_toy_container(TOY_SHAPE, seed=3)
        container.tensors["layer.1.mlp.up"][0, 0] = np.nan
        path = tmp_path / "m.d2mw"
        with pytest.raises(NonFiniteValue, match="layer.1.mlp.up"):
            write_weights(container, path)
        assert not path.exists()

    def test_read_rejects_non_finite(self, tmp_path):
        container = build_toy_container(TOY_SHAPE, seed=3)
        path = tmp_path / "m.d2mw"
        write_weights(container, path)
        raw = bytearray(path.read_bytes())
        last = list(container.tensors)[-1]
        raw[-4:] = struct.pack("<f", float("nan"))
        path.write_bytes(raw)
        with pytest.raises(NonFiniteValue, match=last):
            read_weights(path)

    def test_non_utf8_tensor_name_is_format_error(self, tmp_path):
        container = build_toy_container(TOY_SHAPE, seed=3)
        path = tmp_path / "m.d2mw"
        write_weights(container, path)
        raw = bytearray(path.read_bytes())
        (config_len,) = struct.unpack("<I", raw[8:12])
        raw[12 + config_len + 4] = 0xFF  # first byte of the first tensor name
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="UTF-8"):
            read_weights(path)

    def test_schema_matches_memory_accounting(self):
        schema = dict(tensor_schema(TOY_SHAPE))
        d, d_mid = TOY_SHAPE.hidden_dim, TOY_SHAPE.mlp_dim
        assert schema["layer.1.mlp.up"] == (d, d_mid)
        assert schema["layer.1.mlp.gate"] == (d, d_mid)
        assert schema["layer.1.mlp.down"] == (d_mid, d)
        moe_schema = dict(tensor_schema(replace(TOY_SHAPE, moe=MoEShape({2: 4}, top_k=1))))
        assert moe_schema["layer.2.router"] == (d, 4)
        assert moe_schema["layer.2.moe.expert.4.down"] == (d_mid, d)
        assert "layer.2.mlp.up" not in moe_schema

    def test_param_count(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        assert param_count(container) == sum(t.size for t in container.tensors.values())


# --- tampered headers and mutated files ------------------------------------------

MOE_SHAPE = ModelShape(num_layers=2, hidden_dim=8, mlp_dim=8, num_heads=2, num_kv_heads=1,
                       head_dim=4, vocab_size=8, moe=MoEShape({2: 2}, top_k=1))


def valid_files() -> dict[str, bytes]:
    """One small valid file per format; the weights are a trainable MoE model."""
    return {name: written_bytes(write, value) for name, write, value in (
            ("d2mt", write_trace, synth_trace(2, 3, 4, seed=0)),
            ("d2ms", write_matrices, build_matrices(synth_trace(3, 4, 5, seed=1))),
            ("d2mw", write_weights, build_toy_container(MOE_SHAPE, seed=2)))}


VALID = valid_files()
READERS = {"d2mt": read_trace, "d2ms": read_matrices, "d2mw": read_weights}
(_CONFIG_LEN,) = struct.unpack_from("<I", VALID["d2mw"], 8)
WEIGHTS_PREFIX = VALID["d2mw"][:12 + _CONFIG_LEN]  # magic, version, config length, config


def header_u32_offsets(fmt: str) -> list[int]:
    """Offsets of the header words: version and dimensions, and for weights the
    config length and the first entry's name length, ndim and dims."""
    if fmt == "d2mt":
        return [4, 8, 12, 16]
    if fmt == "d2ms":
        return [4, 8]
    entry = len(WEIGHTS_PREFIX)
    (name_len,) = struct.unpack_from("<I", VALID["d2mw"], entry)
    ndim_at = entry + 4 + name_len
    (ndim,) = struct.unpack_from("<I", VALID["d2mw"], ndim_at)
    return [4, 8, entry, ndim_at] + [ndim_at + 4 * (i + 1) for i in range(ndim)]


def traced_read(fmt: str, source) -> tuple[D2mError | None, int]:
    """Read through the format's reader; return its D2mError, if any, and the
    tracemalloc peak."""
    tracemalloc.start()
    try:
        READERS[fmt](source)
        error = None
    except D2mError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return error, peak


def weights_entry(name: bytes, dims: tuple[int, ...]) -> bytes:
    return struct.pack(f"<I{len(name)}sI{len(dims)}I", len(name), name, len(dims), *dims)



class TestTamperedHeaders:
    @pytest.mark.parametrize("fmt, data", [
        # the element count overflows int64 to 0, and to a negative number
        ("d2mw", WEIGHTS_PREFIX + weights_entry(b"embed", (65536,) * 4) + bytes(64)),
        ("d2mw", WEIGHTS_PREFIX + weights_entry(b"embed", (65536,) * 3 + (32768,)) + bytes(64)),
        ("d2mw", WEIGHTS_PREFIX[:8] + struct.pack("<I", 0xFFFFFFF0) + bytes(64)),
        ("d2mw", WEIGHTS_PREFIX + struct.pack("<I", 0xFFFFFFF0) + bytes(64)),
        ("d2mt", b"D2MT" + struct.pack("<IIII", 1, 2, 2**32 - 1, 2**32 - 1) + bytes(64)),
        ("d2mt", b"D2MT" + struct.pack("<IIII", 1, 1, 2**20, 2**18) + bytes(64)),  # 1 TiB a layer
    ], ids=["count-wraps-to-0", "count-wraps-negative", "config-length", "name-length",
            "trace-dims-overflow", "trace-1TiB-layer"])
    def test_raises_truncated_payload_without_allocating(self, tmp_path, fmt, data):
        path = tmp_path / f"tampered.{fmt}"
        path.write_bytes(data)
        error, peak = traced_read(fmt, path)
        assert isinstance(error, TruncatedPayload)
        assert peak < 1 << 20

    @pytest.mark.parametrize("with_tensors, first_missing", [
        (False, "embed"),
        (True, "layer.3.attn_norm"),  # after every tensor of the two layers present
    ], ids=["header-only", "two-layers-present"])
    def test_declared_layer_count_does_not_size_the_schema(self, tmp_path, with_tensors,
                                                           first_missing):
        doc = json.loads(WEIGHTS_PREFIX[12:])
        doc["num_layers"] = 200_000
        config = json.dumps(doc).encode("utf-8")
        data = WEIGHTS_PREFIX[:8] + struct.pack("<I", len(config)) + config
        if with_tensors:
            data += VALID["d2mw"][len(WEIGHTS_PREFIX):]
        path = tmp_path / "tampered.d2mw"
        path.write_bytes(data)
        error, peak = traced_read("d2mw", path)
        assert isinstance(error, MissingTensor)
        assert f"{first_missing!r} is required" in str(error)
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", ["d2mt", "d2ms"])
    def test_trailing_bytes_are_format_error(self, tmp_path, fmt):
        path = tmp_path / f"padded.{fmt}"
        path.write_bytes(VALID[fmt] + bytes(8))
        with pytest.raises(FormatError, match="trailing"):
            READERS[fmt](path)


def with_header(data: bytes, version: int | None = None, **entries) -> bytes:
    """The weights file ``data`` with its version word, if given, and the
    given entries of its header document replaced."""
    (config_len,) = struct.unpack_from("<I", data, 8)
    doc = json.loads(data[12:12 + config_len])
    doc.update(entries)
    config = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    word = data[4:8] if version is None else struct.pack("<I", version)
    return data[:4] + word + struct.pack("<I", len(config)) + config + data[12 + config_len:]


def with_experts(data: bytes, experts) -> bytes:
    """The weights file ``data`` with a top-1 ``moe`` of ``experts`` in its
    header document."""
    return with_header(data, moe={"experts": experts, "top_k": 1})


# one MoE layer of one expert, so a count or key that coerces to 1 or 2 fits it
ONE_EXPERT = written_bytes(write_weights, build_toy_container(
    replace(MOE_SHAPE, moe=MoEShape({2: 1}, top_k=1)), seed=4))
ONE_EXPERT_DOC = json.loads(ONE_EXPERT[12:12 + struct.unpack_from("<I", ONE_EXPERT, 8)[0]])


class TestMoeLayersMap:
    """The ``moe.experts`` map of a header: anything but an object of plain
    decimal layer keys and integer counts fails, as InvalidConfig (a key) or
    InvalidShape (a count), naming the map and the file."""

    def test_canonical_map_reads(self, tmp_path):
        path = tmp_path / "one.d2mw"
        path.write_bytes(with_experts(ONE_EXPERT, {"2": 1}))
        assert read_weights(path).shape.moe == MoEShape({2: 1}, top_k=1)

    @pytest.mark.parametrize("experts", [
        {"2": 1.5}, {"2": True}, {"2": "1"}, {"2": 0}, {"2": None},
        {"02": 1}, {" 2": 1}, {"+2": 1}, {"2.0": 1}, {"x": 1}, [["2", 1]],
    ], ids=["count-1.5", "count-true", "count-string", "count-0", "count-null",
            "key-02", "key-space", "key-plus", "key-2.0", "key-x", "not-an-object"])
    def test_non_canonical_map_is_invalid_config(self, tmp_path, capsys, experts):
        path = tmp_path / "bad.d2mw"
        path.write_bytes(with_experts(ONE_EXPERT, experts))
        with pytest.raises((InvalidConfig, InvalidShape),
                           match=f"^{re.escape(str(path))}: model.moe.experts"):
            read_weights(path)
        assert main(CLI_ARGS["d2mw"](str(path), tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: model.moe.experts")

    @pytest.mark.parametrize("moe, extra, message", [
        ({"experts": {"3": 1}, "top_k": 1}, {}, "layer 3 not in 1..2"),
        ({"experts": {"0": 1}, "top_k": 1}, {}, "layer 0 not in 1..2"),
        ({"experts": {}, "top_k": 1}, {}, "must map layers to counts"),
        ({"experts": {"2": 1}, "top_k": 2}, {}, "top_k 2 > 1 experts of layer 2"),
        ({"experts": {"2": 1}, "top_k": 1}, {"moe_layers": {"2": 1}}, "moe_layers"),
        ({"experts": {"2": 1}, "top_k": 1, "num_experts": 1}, {}, "num_experts"),
        ({"num_experts": 1, "top_k": 1}, {}, "num_experts"),
    ], ids=["key-beyond-L", "key-0", "empty", "top-k-over-a-pool", "leftover-moe_layers",
            "leftover-num_experts", "old-moe-object"])
    def test_inconsistent_shape_exits_2_from_header_and_config(self, tmp_path, capsys,
                                                               moe, extra, message):
        # the header document is the config's model section: one check for both
        model = dict(ONE_EXPERT_DOC, moe=moe, **extra)
        path = tmp_path / "bad.d2mw"
        path.write_bytes(with_header(ONE_EXPERT, **model))
        with pytest.raises(D2mError, match=message):
            read_weights(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": model}))
        (tmp_path / "plan.json").write_text('{"keep": [1, 2], "prune": [], "blocks": []}')
        for argv in (CLI_ARGS["d2mw"](str(path), tmp_path),
                     ["fuse", "--model", str(path), "--plan", str(tmp_path / "plan.json"),
                      "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                      "--out", str(tmp_path / "f.d2mw"),
                      "--provenance-out", str(tmp_path / "p.json")],
                     ["estimate", "--config", str(config), "--out", str(tmp_path / "c.json")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert re.search(message, err) and "Traceback" not in err
        assert not any((tmp_path / name).exists()
                       for name in ("trained.d2mw", "f.d2mw", "c.json"))


class TestWeightsVersion:
    # a version-1 file: the moe object also held the two copy counts
    V1_MOE = with_header(VALID["d2mw"], version=1, moe={
        "num_experts": 2, "top_k": 1, "base_copies": 1, "supplementary_copies": 1})

    def test_version_1_names_the_path(self, tmp_path):
        path = tmp_path / "old.d2mw"
        path.write_bytes(self.V1_MOE)
        message = f"^{re.escape(str(path))}: unsupported D2MW format version 1, expected 3$"
        with pytest.raises(VersionMismatch, match=message):
            read_weights(path)

    def test_fuse_of_a_version_1_model_exits_2(self, tmp_path, capsys):
        self.assert_fuse_refuses(tmp_path, capsys, version=1)

    def test_fuse_of_a_version_2_model_exits_2(self, tmp_path, capsys):
        # a version-2 header: the largest pool in moe, the per-layer map beside it
        self.assert_fuse_refuses(tmp_path, capsys, version=2, moe_layers={})

    def assert_fuse_refuses(self, tmp_path, capsys, version, **header):
        model = tmp_path / "old.d2mw"
        write_weights(build_toy_container(TOY_SHAPE, seed=0), model)
        model.write_bytes(with_header(model.read_bytes(), version=version, **header))
        with pytest.raises(VersionMismatch, match=f"format version {version}, expected 3$"):
            read_weights(model)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"keep": [1, 2], "prune": [], "blocks": []}))
        assert main(["fuse", "--model", str(model), "--plan", str(plan),
                     "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                     "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: unsupported D2MW")
        assert not (tmp_path / "f.d2mw").exists()


CLI_ARGS = {
    "d2mt": lambda f, out: ["analyze", "--trace", f, "--out-dir", str(out / "analysis")],
    "d2ms": lambda f, out: ["search", "--matrices", f, "--delta", "0.05", "--epsilon", "0.1",
                            "--plan-out", str(out / "plan.json")],
    "d2mw": lambda f, out: ["train-toy", "--model", f, "--steps", "2", "--seq-len", "4",
                            "--sequences", "1", "--log-out", str(out / "log.csv"),
                            "--model-out", str(out / "trained.d2mw")],
}


@st.composite
def mutated_files(draw) -> tuple[str, bytes]:
    fmt = draw(st.sampled_from(sorted(VALID)))
    data = bytearray(VALID[fmt])
    kind = draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data[bit // 8] ^= 1 << (bit % 8)
    else:
        offset = draw(st.sampled_from(header_u32_offsets(fmt)))
        data[offset:offset + 4] = struct.pack("<I", draw(st.sampled_from([0, 1, 2**16, 2**32 - 1])))
    return fmt, bytes(data)


# Reads the file argv[2] with the reader of format argv[1], after cutting the
# file to its first page inside the reader's block, once the header is
# checked; prints the error. Run apart: a reader that mapped the file dies of
# SIGBUS on the pages past the new end.
SHRINK_WHILE_READING = """
import os, sys
from contextlib import contextmanager
from d2m import config, traceio, weightfile

opened = config._read

@contextmanager
def shrinking(path, magic, version):
    with opened(path, magic, version) as reader:
        os.truncate(path, 4096)
        yield reader

config._read = traceio._read = weightfile._read = shrinking
read = {"d2mt": traceio.read_trace, "d2ms": config.read_matrices,
        "d2mw": traceio.read_weights}[sys.argv[1]]
try:
    read(sys.argv[2])
except Exception as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("fmt, value", [
    ("d2mt", synth_trace(2, 64, 32, seed=5)),  # 32 KiB: several pages each
    ("d2ms", build_matrices(synth_trace(24, 4, 5, seed=6))),
    ("d2mw", build_toy_container(TOY_SHAPE, seed=7)),
], ids=["d2mt", "d2ms", "d2mw"])
def test_file_shrinking_under_each_reader_is_truncated_payload(tmp_path, fmt, value):
    path = tmp_path / f"shrinking.{fmt}"
    {"d2mt": write_trace, "d2ms": write_matrices, "d2mw": write_weights}[fmt](value, path)
    assert path.stat().st_size > 3 * 4096
    src = str(Path(d2m.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", SHRINK_WHILE_READING, fmt, str(path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"TruncatedPayload {path}: expected "), done.stdout


class TestMutatedFiles:
    def test_valid_files_read_and_run(self, tmp_path):
        for fmt, data in VALID.items():
            path = tmp_path / f"valid.{fmt}"
            path.write_bytes(data)
            assert traced_read(fmt, path)[0] is None
            assert main(CLI_ARGS[fmt](str(path), tmp_path)) == 0

    @settings(max_examples=300)
    @given(mutated_files())
    def test_reads_fail_cleanly_in_bounded_memory(self, case):
        fmt, data = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            path = out / f"mutated.{fmt}"
            path.write_bytes(data)
            _, peak = traced_read(fmt, path)
            assert peak < 8 * len(data) + (32 << 10)
            assert main(CLI_ARGS[fmt](str(path), out)) in (0, 2, 3, 4)
