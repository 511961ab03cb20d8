"""Binary trace/weights formats: byte accounting, round trips, error taxonomy,
and the synthetic trace generator."""

import io
import struct

import numpy as np
import pytest

from d2m.config import ModelShape, MoEShape
from d2m.errors import (
    BadMagic,
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
from d2m.similarity import norm_mismatch, seq_avg_cosine
from d2m.traceio import (
    make_trace,
    param_count,
    read_trace,
    read_weights,
    synth_trace,
    tensor_schema,
    trace_byte_size,
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
        assert written == trace_byte_size(2, 3, 4) == 20 + 2 * 2 * 3 * 4 * 4 == 212
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
            for a, b in zip(trace.mlp_inputs + trace.layer_outputs,
                            back.mlp_inputs + back.layer_outputs):
                assert np.array_equal(a, b)

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
        for x, y in zip(a.mlp_inputs + a.layer_outputs, b.mlp_inputs + b.layer_outputs):
            assert np.array_equal(x, y)

    def test_noise_scale_regression(self):
        # frozen from the pinned generator stream (d=64, T=256, seed 7, noise 0.1)
        trace = synth_trace(4, 256, 64, [(2, 1, 0.1)], seed=7)
        mean_cos = seq_avg_cosine(trace.mlp_inputs[1], trace.mlp_inputs[2])
        assert mean_cos == pytest.approx(0.9948788821198062, abs=1e-9)

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
        schema = tensor_schema(TOY_SHAPE)
        d, d_mid = TOY_SHAPE.hidden_dim, TOY_SHAPE.mlp_dim
        assert schema["layer.1.mlp.up"] == (d, d_mid)
        assert schema["layer.1.mlp.gate"] == (d, d_mid)
        assert schema["layer.1.mlp.down"] == (d_mid, d)
        moe_schema = tensor_schema(TOY_SHAPE, {2: 4})
        assert moe_schema["layer.2.router"] == (d, 4)
        assert moe_schema["layer.2.moe.expert.4.down"] == (d_mid, d)
        assert "layer.2.mlp.up" not in moe_schema

    def test_param_count(self):
        container = build_toy_container(TOY_SHAPE, seed=0)
        assert param_count(container) == sum(t.size for t in container.tensors.values())
