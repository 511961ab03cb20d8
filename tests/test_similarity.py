"""Similarity statistics against a per-token double-loop oracle, plus the
exact identities (duplicates, scaling asymmetry, diagonals), the chunked
pass over a trace file: chunk boundaries, malformed files and its memory,
and the matrices cache: its bytes, its values and the plans searched on it."""

import math
import os
import re
import struct
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from d2m import traceio
from d2m.cli import main
from d2m.config import SearchThresholds
from d2m.errors import D2mError, DimensionMismatch, NonFiniteValue, TruncatedPayload, ZeroVector
from d2m.search import search, threshold_sweep
from d2m.similarity import (
    SimilarityMatrices,
    build_matrices,
    export_heatmap,
    norm_mismatch,
    read_matrices,
    seq_avg_cosine,
    stream_matrices,
    write_matrices,
)
from d2m.traceio import HALVES, make_trace, read_trace, synth_trace, trace_chunks, write_trace


def oracle_cosine(a, b):
    """Straight per-token loop over the cosine definition."""
    total = 0.0
    for t in range(a.shape[0]):
        dot = sum(float(a[t, i]) * float(b[t, i]) for i in range(a.shape[1]))
        na = math.sqrt(sum(float(a[t, i]) ** 2 for i in range(a.shape[1])))
        nb = math.sqrt(sum(float(b[t, i]) ** 2 for i in range(b.shape[1])))
        total += dot / (na * nb)
    return total / a.shape[0]


def oracle_norm_mismatch(a, b):
    total = 0.0
    for t in range(a.shape[0]):
        na = math.sqrt(sum(float(a[t, i]) ** 2 for i in range(a.shape[1])))
        nb = math.sqrt(sum(float(b[t, i]) ** 2 for i in range(b.shape[1])))
        total += abs(na - nb) / nb
    return total / a.shape[0]


class TestSeqAvgCosine:
    def test_identical_inputs(self):
        a = np.random.default_rng(0).standard_normal((7, 5))
        assert seq_avg_cosine(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_and_identical_rows_average(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert seq_avg_cosine(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_antiparallel(self):
        a = np.random.default_rng(1).standard_normal((4, 6))
        assert seq_avg_cosine(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            scales = rng.uniform(0.1, 10.0, size=(6, 1))
            assert seq_avg_cosine(a, b) == pytest.approx(seq_avg_cosine(b, a), abs=1e-12)
            assert seq_avg_cosine(a * scales, b) == pytest.approx(
                seq_avg_cosine(a, b), abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((8, 5))
        assert seq_avg_cosine(a, b) == pytest.approx(oracle_cosine(a, b), abs=1e-12)

    def test_zero_row_reports_token(self):
        a = np.ones((3, 2))
        a[1] = 0.0
        with pytest.raises(ZeroVector, match="index 1"):
            seq_avg_cosine(a, np.ones((3, 2)))

    @pytest.mark.parametrize("b_shape", [(3, 3), (4, 2), (3, 2, 1)])
    def test_shape_mismatch_is_a_dimension_mismatch(self, b_shape):
        with pytest.raises(DimensionMismatch, match="T x d"):
            seq_avg_cosine(np.ones((3, 2)), np.ones(b_shape))


class TestNormMismatch:
    def test_equal_inputs(self):
        a = np.random.default_rng(4).standard_normal((5, 3))
        assert norm_mismatch(a, a) == 0.0

    def test_first_argument_doubled(self):
        b = np.random.default_rng(5).standard_normal((5, 3))
        assert norm_mismatch(2 * b, b) == pytest.approx(1.0, abs=1e-12)

    def test_denominator_asymmetry(self):
        a = np.random.default_rng(6).standard_normal((5, 3))
        assert norm_mismatch(a, 2 * a) == pytest.approx(0.5, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 4))
        # a random orthogonal matrix preserves all row norms
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert norm_mismatch(a @ q, b @ q) == pytest.approx(norm_mismatch(a, b), abs=1e-10)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((9, 4))
        assert norm_mismatch(a, b) == pytest.approx(oracle_norm_mismatch(a, b), abs=1e-12)

    @pytest.mark.parametrize("b_shape", [(3, 3), (4, 2), (3, 2, 1)])
    def test_shape_mismatch_is_a_dimension_mismatch(self, b_shape):
        with pytest.raises(DimensionMismatch, match="T x d"):
            norm_mismatch(np.ones((3, 2)), np.ones(b_shape))


class TestBuildMatrices:
    def test_exact_duplicate_entries(self):
        trace = synth_trace(4, 8, 6, [(2, 1, 0.0)], seed=1)
        mats = build_matrices(trace)
        assert mats.s_out[1, 2] == pytest.approx(1.0, abs=1e-12)
        assert mats.s_mlp[1, 2] == pytest.approx(1.0, abs=1e-12)
        assert mats.delta_norm[1, 2] == 0.0

    def test_diagonals(self):
        mats = build_matrices(synth_trace(5, 6, 7, seed=2))
        for i in range(5):
            assert mats.s_out[i, i] == pytest.approx(1.0, abs=1e-12)
            assert mats.s_mlp[i, i] == pytest.approx(1.0, abs=1e-12)
            assert mats.delta_norm[i, i] == 0.0

    def test_value_ranges(self):
        mats = build_matrices(synth_trace(6, 5, 8, seed=3))
        assert np.all(mats.s_out <= 1.0) and np.all(mats.s_out >= -1.0)
        assert np.all(mats.s_mlp <= 1.0) and np.all(mats.s_mlp >= -1.0)
        assert np.all(mats.delta_norm >= 0.0)

    def test_matches_double_loop_oracle(self):
        trace = synth_trace(3, 4, 8, seed=11)
        mats = build_matrices(trace)
        num_layers = trace.num_layers
        for i in range(num_layers):
            for j in range(num_layers):
                if i == j:
                    continue
                lo, hi = min(i, j), max(i, j)
                assert mats.s_out[i, j] == pytest.approx(
                    oracle_cosine(trace.layer_outputs[i], trace.layer_outputs[j]), abs=1e-9)
                assert mats.s_mlp[i, j] == pytest.approx(
                    oracle_cosine(trace.mlp_inputs[i], trace.mlp_inputs[j]), abs=1e-9)
                # the later layer is always the denominator
                assert mats.delta_norm[i, j] == pytest.approx(
                    oracle_norm_mismatch(trace.mlp_inputs[lo], trace.mlp_inputs[hi]), abs=1e-9)

    def test_oracle_agreement_on_many_random_traces(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            num_layers = int(rng.integers(2, 5))
            seq_len = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 7))
            trace = synth_trace(num_layers, seq_len, hidden, seed=1000 + trial)
            mats = build_matrices(trace)
            i, j = sorted(rng.choice(num_layers, size=2, replace=False))
            assert mats.s_out[i, j] == pytest.approx(
                oracle_cosine(trace.layer_outputs[i], trace.layer_outputs[j]), abs=1e-9)
            assert mats.delta_norm[i, j] == pytest.approx(
                oracle_norm_mismatch(trace.mlp_inputs[i], trace.mlp_inputs[j]), abs=1e-9)

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 6), st.data())
    def test_agrees_with_pairwise_functions(self, num_layers, seq_len, hidden, data):
        states = data.draw(arrays(np.float64, (2, num_layers, seq_len, hidden),
                                  elements=st.floats(-10, 10, allow_subnormal=False)))
        assume(np.all(np.linalg.norm(states, axis=3) > 0.0))
        h, y = states
        mats = build_matrices(make_trace(list(h), list(y)))
        for i in range(num_layers):
            for j in range(i, num_layers):
                assert abs(mats.s_out[i, j] - seq_avg_cosine(y[i], y[j])) <= 1e-12
                assert abs(mats.s_mlp[i, j] - seq_avg_cosine(h[i], h[j])) <= 1e-12
                # the later layer is the norm-mismatch denominator
                assert abs(mats.delta_norm[i, j] - norm_mismatch(h[i], h[j])) <= 1e-12
                assert mats.s_out[j, i] == mats.s_out[i, j]
                assert mats.s_mlp[j, i] == mats.s_mlp[i, j]
                assert mats.delta_norm[j, i] == mats.delta_norm[i, j]

    def test_zero_token_aborts(self):
        h = [np.ones((3, 2)), np.ones((3, 2))]
        y = [np.ones((3, 2)), np.ones((3, 2))]
        h[1][0] = 0.0
        h[0][2] = 0.0
        # the first zero row in layer order, not in token order, is reported
        with pytest.raises(ZeroVector,
                           match="mlp_inputs layer 1 has zero-norm token row at index 2"):
            build_matrices(make_trace(h, y))

    def test_traced_peak_stays_one_half(self):
        # the states are divided and the norms squared one half at a time,
        # so nothing the size of both halves is ever allocated
        num_layers, seq_len, hidden = 24, 256, 128
        trace = synth_trace(num_layers, seq_len, hidden, seed=8)
        half_bytes = num_layers * seq_len * hidden * 8
        tracemalloc.start()
        try:
            build_matrices(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * half_bytes, f"peak {peak / half_bytes:.2f} halves"


def chunk_budget(num_layers, hidden, tokens):
    """A ``CHUNK_BYTES`` that makes chunks of ``tokens`` tokens."""
    return tokens * num_layers * hidden * 4


@st.composite
def chunked_traces(draw):
    """float32 states whose T sits on or beside a chunk boundary, or anywhere,
    and the chunk length in tokens."""
    num_layers, hidden, chunk = (draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                                 draw(st.integers(1, 4)))
    seq_len = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1])
                   | st.integers(1, 3 * chunk + 2))
    assume(seq_len >= 1)
    states = draw(arrays(np.float32, (2, num_layers, seq_len, hidden),
                         elements=st.floats(-10, 10, width=32, allow_subnormal=False)))
    assume(np.all(np.linalg.norm(states, axis=3) > 0.0))
    return states.astype(np.float64), chunk


@st.composite
def malformed_traces(draw):
    """A small trace file with up to three non-finite values or zero rows,
    then at most one of: truncation, trailing bytes, a tampered L, T or d;
    and a ``CHUNK_BYTES`` of one to three tokens, or None to keep the
    module's."""
    num_layers, seq_len, hidden = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                                   draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    states = rng.uniform(0.5, 2.0, (2, num_layers, seq_len, hidden)).astype(np.float32)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["nonfinite", "zero"]))
        row = states[draw(st.integers(0, 1)), draw(st.integers(0, num_layers - 1)),
                     draw(st.integers(0, seq_len - 1))]
        if kind == "zero":
            row[:] = 0.0
        else:
            row[draw(st.integers(0, hidden - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    data = bytearray(b"D2MT" + struct.pack("<4I", 1, num_layers, seq_len, hidden)
                     + states.astype("<f4").tobytes())
    kind = draw(st.sampled_from([None, None, None, "truncate", "trailing", "dims"]))
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "trailing":
        data += bytes(draw(st.integers(1, 8)))
    elif kind == "dims":
        offset = draw(st.sampled_from([8, 12, 16]))
        (old,) = struct.unpack_from("<I", data, offset)
        new = draw(st.sampled_from([0, old - 1, old + 1, 2 * old, 2**16, 2**32 - 1]))
        struct.pack_into("<I", data, offset, new)
    tokens = draw(st.sampled_from([None, 1, 2, 3]))
    return bytes(data), tokens and chunk_budget(num_layers, hidden, tokens)


@st.composite
def planted_defects(draw):
    """The bytes of a small trace file whose states are all positive but for
    at most one planted defect: a NaN or an infinity in one row, or one
    all-zero row, at a random (half, layer, token); and the error that
    defect must raise, without the path, or None."""
    num_layers, seq_len, hidden = (draw(st.integers(1, 4)), draw(st.integers(1, 7)),
                                   draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    states = rng.uniform(0.5, 2.0, (2, num_layers, seq_len, hidden)).astype(np.float32)
    want = None
    kind = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, 0.0]))
    if kind is not None:
        half, layer, token = (draw(st.integers(0, 1)), draw(st.integers(0, num_layers - 1)),
                              draw(st.integers(0, seq_len - 1)))
        where = f"{HALVES[half]} layer {layer + 1}"
        if kind == 0.0:
            states[half, layer, token] = 0.0
            want = ZeroVector(f"{where} has zero-norm token row at index {token}")
        else:
            states[half, layer, token, draw(st.integers(0, hidden - 1))] = kind
            want = NonFiniteValue(f"{where} contains non-finite values")
    data = (b"D2MT" + struct.pack("<4I", 1, num_layers, seq_len, hidden)
            + states.astype("<f4").tobytes())
    return data, states.astype(np.float64), want


def expected_failure(path: Path) -> D2mError | None:
    """The error of a whole-file read followed by the pairwise definitions:
    ``read_trace`` judges the format and finiteness, then the first zero row
    of ``layer_outputs``, then of ``mlp_inputs``, by layer, then token. The
    message leaves out the path that ``read_trace`` puts first."""
    try:
        trace = read_trace(path)
    except D2mError as exc:
        return type(exc)(str(exc).removeprefix(f"{path}: "))
    for label, half in (("layer_outputs", trace.layer_outputs),
                        ("mlp_inputs", trace.mlp_inputs)):
        for layer, states in enumerate(half, start=1):
            for token, row in enumerate(states):
                if not row.any():
                    return ZeroVector(
                        f"{label} layer {layer} has zero-norm token row at index {token}")
    return None


class TestStreamMatrices:
    @given(chunked_traces())
    def test_chunk_boundaries_agree_with_memory_and_oracle(self, case):
        states, chunk = case
        h, y = states
        num_layers, hidden = h.shape[0], h.shape[2]
        trace = make_trace(list(h), list(y))
        in_memory = build_matrices(trace)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.d2mt"
            write_trace(trace, path)
            with mock.patch.object(traceio, "CHUNK_BYTES",
                                   chunk_budget(num_layers, hidden, chunk)):
                streamed = stream_matrices(path)
        for name in ("s_out", "s_mlp", "delta_norm"):
            assert np.abs(getattr(streamed, name) - getattr(in_memory, name)).max() <= 1e-12
            assert np.array_equal(getattr(streamed, name), getattr(streamed, name).T)
        for i in range(num_layers):
            for j in range(i, num_layers):
                for mats in (streamed, in_memory):
                    assert abs(mats.s_out[i, j] - seq_avg_cosine(y[i], y[j])) <= 1e-12
                    assert abs(mats.s_mlp[i, j] - seq_avg_cosine(h[i], h[j])) <= 1e-12
                    assert abs(mats.delta_norm[i, j] - norm_mismatch(h[i], h[j])) <= 1e-12

    @settings(max_examples=200)
    @given(malformed_traces())
    def test_malformed_files_fail_as_a_whole_read_would(self, case):
        data, budget = case
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = Path(tmp)
            path = out / "trace.d2mt"
            path.write_bytes(data)
            want = expected_failure(path)
            with mock.patch.object(traceio, "CHUNK_BYTES", budget or traceio.CHUNK_BYTES):
                tracemalloc.start()
                try:
                    stream_matrices(path)
                    got = None
                except D2mError as exc:
                    got = exc
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                code = main(["analyze", "--trace", str(path), "--out-dir", str(out / "a")])
        # nothing sized by a header the file does not back is allocated, and
        # no chunk buffer is larger than the trace
        assert peak < 8 * len(data) + (64 << 10)
        if want is None:
            assert got is None and code == 0
        else:
            assert type(got) is type(want)
            assert str(got) == f"{path}: {want}"
            assert code == 2

    @given(planted_defects())
    def test_every_chunk_budget_gives_the_same_error_and_norm_bits(self, case):
        # the pass reads one half at a time, so the error is judged from the
        # norms after it, never from the chunk in which the defect was met
        data, states, want = case
        num_layers, seq_len, hidden = states.shape[1:]
        budgets = [chunk_budget(num_layers, hidden, tokens) for tokens in range(1, seq_len + 1)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.d2mt"
            path.write_bytes(data)
            results = []
            for budget in budgets + [traceio.CHUNK_BYTES]:
                with mock.patch.object(traceio, "CHUNK_BYTES", budget):
                    try:
                        results.append(stream_matrices(path))
                    except (NonFiniteValue, ZeroVector) as exc:
                        results.append(exc)
        if want is not None:
            for got in results:
                assert type(got) is type(want)
                assert str(got) == f"{path}: {want}"
            return
        h, y = states
        for mats in results:
            assert np.array_equal(mats.delta_norm, results[0].delta_norm)
            for i in range(num_layers):
                for j in range(i, num_layers):
                    assert abs(mats.s_out[i, j] - seq_avg_cosine(y[i], y[j])) <= 1e-12
                    assert abs(mats.s_mlp[i, j] - seq_avg_cosine(h[i], h[j])) <= 1e-12

    def test_file_shrinking_under_the_reader_is_truncated_payload(self, tmp_path):
        path = tmp_path / "trace.d2mt"
        write_trace(synth_trace(2, 5, 3, seed=1), path)
        with pytest.raises(TruncatedPayload, match=re.escape(f"{path}: expected")):
            with trace_chunks(path) as (_, chunks):
                os.truncate(path, 40)
                for _ in chunks:
                    pass

    def test_traced_peak_grows_with_the_chunk_not_the_trace(self, tmp_path):
        # one half's float32 chunk buffer and its float64 working copy do not
        # grow with T; only the (2, L, T) token norms do
        num_layers, hidden = 4, 128
        chunk = traceio.chunk_tokens(num_layers, 4096, hidden)
        assert chunk < 1024
        peaks = {}
        for seq_len in (1024, 4096):
            path = tmp_path / f"trace{seq_len}.d2mt"
            write_trace(synth_trace(num_layers, seq_len, hidden, seed=seq_len), path)
            tracemalloc.start()
            try:
                stream_matrices(path)
                peaks[seq_len] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        half_bytes = num_layers * 4096 * hidden * 8
        norm_bytes = 2 * num_layers * 4096 * 8
        half_chunk = num_layers * chunk * hidden
        # numpy's casting buffer (8192 float64s) and the Gram products and
        # masks
        slack = 128 << 10
        assert peaks[4096] - peaks[1024] <= 4 * norm_bytes < half_bytes / 8, peaks
        assert peaks[4096] <= 4 * half_chunk + 8 * half_chunk + norm_bytes + slack, peaks


class TestHeatmapExport:
    def test_three_files_with_headers(self, tmp_path):
        mats = build_matrices(synth_trace(2, 3, 4, seed=4))
        paths = export_heatmap(mats, tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "delta_norm.csv", "s_mlp.csv", "s_out.csv"]
        lines = paths["s_out"].read_text().strip().splitlines()
        assert lines[0] == "layer,1,2"
        assert len(lines) == 3

    def test_round_trip_precision(self, tmp_path):
        mats = build_matrices(synth_trace(4, 5, 6, seed=5))
        paths = export_heatmap(mats, tmp_path)
        rows = [line.split(",")[1:] for line in
                paths["s_mlp"].read_text().strip().splitlines()[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert np.allclose(parsed, mats.s_mlp, atol=1e-8)

    def test_binary_cache_round_trip(self, tmp_path):
        mats = build_matrices(synth_trace(3, 4, 5, seed=6))
        path = tmp_path / "matrices.d2ms"
        write_matrices(mats, path)
        back = read_matrices(path)
        assert np.array_equal(back.s_out, mats.s_out)
        assert np.array_equal(back.s_mlp, mats.s_mlp)
        assert np.array_equal(back.delta_norm, mats.delta_norm)


# --- the matrices cache: exact bytes, exact values, same plans ----------------------

# every finite float64, with the signed zeros, subnormals and extremes drawn
# often; half the entries sit on or around the search bars, so that plans
# are not all empty
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from((0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
                                    sys.float_info.max, -sys.float_info.max)))
NEAR_COSINES = st.sampled_from((1.0, 0.999, 0.99, 0.95, 0.9, 0.5))
NEAR_GAPS = st.sampled_from((0.0, -0.0, 0.005, 0.01, 0.05, 0.1))
CACHE_GRID = (0.0, 0.01, 0.05, 0.1, 0.5)


@st.composite
def cache_matrices(draw, cosines=st.one_of(FINITE, NEAR_COSINES),
                   gaps=st.one_of(FINITE, NEAR_GAPS)):
    num_layers = draw(st.integers(1, 6))
    cells = num_layers * num_layers
    return [np.array(draw(st.lists(values, min_size=cells, max_size=cells)),
                     dtype=np.float64).reshape(num_layers, num_layers)
            for values in (cosines, cosines, gaps)]


class TestMatricesCache:
    @settings(max_examples=150)
    @given(mats=cache_matrices(), lam=st.sampled_from((0.0, 1.0, 2.5)),
           sizes=st.sets(st.integers(1, 4), min_size=1))
    def test_bytes_values_and_plans_survive_the_cache(self, mats, lam, sizes):
        matrices = SimilarityMatrices(*mats)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.d2ms"
            write_matrices(matrices, path)
            data = path.read_bytes()
            back = read_matrices(path)
        num_layers = len(mats[0])
        assert data == b"D2MS" + struct.pack("<II", 1, num_layers) + b"".join(
            np.ascontiguousarray(m, "<f8").tobytes() for m in mats)
        assert back.num_layers == num_layers
        for name, m in zip(("s_out", "s_mlp", "delta_norm"), mats):
            rows = getattr(back, name)
            assert all(type(v) is float for row in rows for v in row)
            assert np.array(rows, dtype="<f8").tobytes() == m.tobytes()  # signed zeros too

        cells = threshold_sweep(matrices, CACHE_GRID, CACHE_GRID, lam, tuple(sizes))
        assert threshold_sweep(back, CACHE_GRID, CACHE_GRID, lam, tuple(sizes)) == cells
        for cell in cells:
            if cell.cos_threshold > 0 and cell.norm_tolerance > 0:
                thresholds = SearchThresholds(cos_threshold=cell.cos_threshold,
                                              norm_tolerance=cell.norm_tolerance,
                                              score_penalty=lam, block_sizes=tuple(sizes))
                assert search(back, thresholds) == search(matrices, thresholds) == cell.plan

    @settings(max_examples=100)
    @given(mats=cache_matrices(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
           data=st.data())
    def test_non_finite_value_is_refused_naming_its_matrix(self, mats, data):
        index = data.draw(st.integers(0, 2))
        num_layers = len(mats[0])
        row, col = (data.draw(st.integers(0, num_layers - 1)) for _ in range(2))
        mats[index][row, col] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        name = ("s_out", "s_mlp", "delta_norm")[index]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.d2ms"
            write_matrices(SimilarityMatrices(*mats), path)
            message = f"^{re.escape(str(path))}: matrices cache {name} contains non-finite values$"
            with pytest.raises(NonFiniteValue, match=message):
                read_matrices(path)
