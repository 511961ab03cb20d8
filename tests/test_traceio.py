"""Binary trace/weights formats: byte accounting, round trips, error taxonomy,
tampered headers and mutated files of all three formats, and the synthetic
trace generator."""

import io
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2m.cli import main
from d2m.config import ModelShape, MoEShape
from d2m.errors import (
    BadMagic,
    D2mError,
    DimensionMismatch,
    FormatError,
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
    make_trace,
    param_count,
    read_trace,
    read_weights,
    synth_trace,
    tensor_schema,
    validate_container,
    write_trace,
    write_weights,
)

TOY_SHAPE = ModelShape(num_layers=2, hidden_dim=16, mlp_dim=32, num_heads=2,
                       num_kv_heads=1, head_dim=8, vocab_size=24)


def random_trace(rng, num_layers=3, seq_len=5, hidden=4):
    def mats():
        return [rng.standard_normal((seq_len, hidden)).astype(np.float32).astype(np.float64)
                for _ in range(num_layers)]

    return make_trace(mats(), mats())


class TestTraceFormat:
    def test_byte_accounting(self):
        # 4 magic + 4*4 header words + 2 halves * L*T*d f32 payload
        trace = synth_trace(2, 3, 4, seed=0)
        buf = io.BytesIO()
        written = write_trace(trace, buf)
        assert written == 20 + 2 * 2 * 3 * 4 * 4 == 212
        assert len(buf.getvalue()) == written

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            num_layers = int(rng.integers(1, 5))
            seq_len = int(rng.integers(1, 7))
            hidden = int(rng.integers(1, 9))
            trace = random_trace(rng, num_layers, seq_len, hidden)
            buf = io.BytesIO()
            write_trace(trace, buf)
            buf.seek(0)
            back = read_trace(buf)
            assert np.array_equal(back.mlp_inputs, trace.mlp_inputs)
            assert np.array_equal(back.layer_outputs, trace.layer_outputs)

    def test_file_round_trip_is_fixed_point(self, tmp_path):
        trace = synth_trace(3, 4, 6, [(1, 1, 0.05)], seed=9)
        first = tmp_path / "a.d2mt"
        second = tmp_path / "b.d2mt"
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_trace(io.BytesIO(b"XXXX" + b"\x00" * 32))

    def test_version_mismatch(self):
        payload = b"D2MT" + struct.pack("<IIII", 9, 1, 1, 1) + b"\x00" * 8
        with pytest.raises(VersionMismatch):
            read_trace(io.BytesIO(payload))

    def test_truncated_payload(self):
        trace = synth_trace(2, 3, 4, seed=0)
        buf = io.BytesIO()
        write_trace(trace, buf)
        clipped = buf.getvalue()[:-5]
        with pytest.raises(TruncatedPayload):
            read_trace(io.BytesIO(clipped))

    def test_non_finite_value(self):
        trace = synth_trace(1, 2, 2, seed=0)
        buf = io.BytesIO()
        write_trace(trace, buf)
        raw = bytearray(buf.getvalue())
        raw[20:24] = struct.pack("<f", float("nan"))
        with pytest.raises(NonFiniteValue):
            read_trace(io.BytesIO(raw))

    def test_closed_sink_is_io_failure(self, tmp_path):
        trace = synth_trace(1, 2, 2, seed=0)
        handle = open(tmp_path / "t.d2mt", "wb")
        handle.close()
        with pytest.raises(IoFailure):
            write_trace(trace, handle)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            read_trace(tmp_path / "absent.d2mt")


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


class TestWeightsFormat:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for i in range(100):
            moe = {2: 3} if i % 3 == 0 else None
            shape = TOY_SHAPE if moe is None else ModelShape(
                num_layers=2, hidden_dim=16, mlp_dim=32, num_heads=2, num_kv_heads=1,
                head_dim=8, vocab_size=24, moe=MoEShape(num_experts=3, top_k=1))
            container = build_toy_container(shape, seed=i, moe_layers=moe)
            buf = io.BytesIO()
            write_weights(container, buf)
            buf.seek(0)
            back = read_weights(buf)
            assert list(back.tensors) == list(container.tensors)
            assert back.moe_layers == container.moe_layers
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

    def test_read_rejects_tampered_dims(self):
        container = build_toy_container(TOY_SHAPE, seed=1)
        container.tensors["layer.2.mlp.down"] = np.zeros((4, 4))
        buf = io.BytesIO()
        with pytest.raises(DimensionMismatch):
            write_weights(container, buf)

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_weights(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_truncated_entry(self):
        container = build_toy_container(TOY_SHAPE, seed=2)
        buf = io.BytesIO()
        write_weights(container, buf)
        clipped = buf.getvalue()[:-9]
        with pytest.raises(TruncatedPayload):
            read_weights(io.BytesIO(clipped))

    def test_write_rejects_non_finite_before_writing(self):
        container = build_toy_container(TOY_SHAPE, seed=3)
        container.tensors["layer.1.mlp.up"][0, 0] = np.nan
        buf = io.BytesIO()
        with pytest.raises(NonFiniteValue, match="layer.1.mlp.up"):
            write_weights(container, buf)
        assert buf.getvalue() == b""

    def test_read_rejects_non_finite(self):
        container = build_toy_container(TOY_SHAPE, seed=3)
        buf = io.BytesIO()
        write_weights(container, buf)
        raw = bytearray(buf.getvalue())
        last = list(container.tensors)[-1]
        raw[-4:] = struct.pack("<f", float("nan"))
        with pytest.raises(NonFiniteValue, match=last):
            read_weights(io.BytesIO(raw))

    def test_non_utf8_tensor_name_is_format_error(self):
        container = build_toy_container(TOY_SHAPE, seed=3)
        buf = io.BytesIO()
        write_weights(container, buf)
        raw = bytearray(buf.getvalue())
        (config_len,) = struct.unpack("<I", raw[8:12])
        raw[12 + config_len + 4] = 0xFF  # first byte of the first tensor name
        with pytest.raises(FormatError, match="UTF-8"):
            read_weights(io.BytesIO(raw))

    def test_schema_matches_memory_accounting(self):
        schema = dict(tensor_schema(TOY_SHAPE))
        d, d_mid = TOY_SHAPE.hidden_dim, TOY_SHAPE.mlp_dim
        assert schema["layer.1.mlp.up"] == (d, d_mid)
        assert schema["layer.1.mlp.gate"] == (d, d_mid)
        assert schema["layer.1.mlp.down"] == (d_mid, d)
        moe_schema = dict(tensor_schema(TOY_SHAPE, {2: 4}))
        assert moe_schema["layer.2.router"] == (d, 4)
        assert moe_schema["layer.2.moe.expert.4.down"] == (d_mid, d)
        assert "layer.2.mlp.up" not in moe_schema

    def test_param_count(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        assert param_count(container) == sum(t.size for t in container.tensors.values())


# --- tampered headers and mutated files ------------------------------------------

MOE_SHAPE = ModelShape(num_layers=2, hidden_dim=8, mlp_dim=8, num_heads=2, num_kv_heads=1,
                       head_dim=4, vocab_size=8, moe=MoEShape(num_experts=2, top_k=1))


def valid_files() -> dict[str, bytes]:
    """One small valid file per format; the weights are a trainable MoE model."""
    files = {}
    for name, write, value in (
            ("d2mt", write_trace, synth_trace(2, 3, 4, seed=0)),
            ("d2ms", write_matrices, build_matrices(synth_trace(3, 4, 5, seed=1))),
            ("d2mw", write_weights, build_toy_container(MOE_SHAPE, seed=2, moe_layers={2: 2}))):
        buf = io.BytesIO()
        write(value, buf)
        files[name] = buf.getvalue()
    return files


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
        ("d2mw", b"D2MW" + struct.pack("<II", 1, 0xFFFFFFF0) + bytes(64)),
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
        data = b"D2MW" + struct.pack("<II", 1, len(config)) + config
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
        with pytest.raises(FormatError, match="trailing"):
            READERS[fmt](io.BytesIO(VALID[fmt] + bytes(8)))


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
            for source in (path, io.BytesIO(data)):
                _, peak = traced_read(fmt, source)
                assert peak < 8 * len(data) + (32 << 10)
            assert main(CLI_ARGS[fmt](str(path), out)) in (0, 2, 3, 4)
