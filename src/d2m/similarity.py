"""Inter-layer similarity statistics: sequence-averaged cosine similarity of
layer outputs and MLP inputs, and the mean relative norm mismatch that guards
against scale shifts when distant MLPs are reused as experts.

All three matrices come from one pass over the trace in token chunks, so the
same code serves a trace in memory (``build_matrices``) and a trace file
(``stream_matrices``), and a file is never loaded whole. ``seq_avg_cosine``
and ``norm_mismatch`` define the statistics pair by pair and are the oracle
the matrices are tested against. Every reader and writer here takes a file
path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import output_file
from .errors import DimensionMismatch, InvalidTrace, IoFailure, NonFiniteValue, ZeroVector
from .traceio import HALVES, ActivationTrace, _read, _write_header, chunk_tokens, trace_chunks


@dataclass(frozen=True)
class SimilarityMatrices:
    """L x L statistics over all layer pairs.

    Cosine matrices are symmetric; ``delta_norm[i, j]`` always places the
    later of the two layers in the denominator, so it too is stored
    symmetrically. Row/column ``i`` (0-based) refers to layer ``i + 1``.
    """

    s_out: np.ndarray
    s_mlp: np.ndarray
    delta_norm: np.ndarray

    @property
    def num_layers(self) -> int:
        return self.s_out.shape[0]


def _row_norms(mat: np.ndarray, label: str) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVector(f"{label} has zero-norm token row at index {int(zero[0])}")
    return norms


def seq_avg_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over tokens of the cosine similarity between paired rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatch(
            f"inputs must share a T x d shape, got {a.shape} and {b.shape}")
    na = _row_norms(a, "first argument")
    nb = _row_norms(b, "second argument")
    cos = np.einsum("td,td->t", a, b) / (na * nb)
    return float(np.mean(np.clip(cos, -1.0, 1.0)))


def norm_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over tokens of |norm(a_t) - norm(b_t)| / norm(b_t).

    Deliberately asymmetric: the second argument is the denominator.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise DimensionMismatch(
            f"inputs must share a T x d shape, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = _row_norms(b, "denominator argument")
    return float(np.mean(np.abs(na - nb) / nb))


def build_matrices(trace: ActivationTrace) -> SimilarityMatrices:
    """Compute all pairwise statistics of a trace.

    Output cosine comes from the per-layer outputs, MLP cosine and the norm
    mismatch from the MLP-input states; the mismatch denominator for a pair
    is the later layer's per-token norm. The halves are fed to the same
    chunked pass as a trace file, a slice of ``chunk_tokens`` tokens at a
    time, so the temporaries stay one chunk in size.
    """
    step = chunk_tokens(trace.num_layers, trace.seq_len, trace.hidden_dim)
    return _accumulate((trace.mlp_inputs[:, t:t + step], trace.layer_outputs[:, t:t + step])
                       for t in range(0, trace.seq_len, step))


def stream_matrices(path: str | Path) -> SimilarityMatrices:
    """``build_matrices`` of the trace file at ``path``, read a token chunk at
    a time; an error names the path."""
    with trace_chunks(path) as chunks:
        return _accumulate(chunks)


def _accumulate(chunks: Iterable[Sequence[np.ndarray]]) -> SimilarityMatrices:
    """The matrices of a trace fed as consecutive token chunks, each a pair of
    (L, n, d) halves in file order.

    Each cosine matrix is the Gram matrix ``U @ U.T / T`` of the unit token
    rows viewed as (L, T*d), summed one chunk at a time; the (2, L, T) token
    norms are kept. The trace is judged after the pass, from the norms, so
    the error names the same place whatever the chunking: ``NonFiniteValue``
    the first half, then layer, holding a NaN or infinity; ``ZeroVector``
    the first zero-norm row in ``layer_outputs``, then ``mlp_inputs``, by
    layer, then token.
    """
    grams = None
    kept = []
    clean = True
    for chunk in chunks:
        num_layers, width = chunk[0].shape[:2]
        if grams is None:
            grams = np.zeros((2, num_layers, num_layers))
        norms = np.empty((2, num_layers, width))
        for half, gram, half_norms in zip(chunk, grams, norms):
            units = np.array(half, dtype=np.float64)  # a copy, normalised in place
            half_norms[...] = np.linalg.norm(units, axis=2)
            # a non-finite or zero row fails the trace below; the Grams are
            # then never used, so skip them rather than divide by it
            clean = clean and np.isfinite(half_norms).all() and half_norms.all()
            if clean:
                units /= half_norms[:, :, None]
                units = units.reshape(num_layers, -1)
                gram += units @ units.T
        kept.append(norms)
    norms = np.concatenate(kept, axis=2)

    finite = np.isfinite(norms).all(axis=2)
    if not finite.all():
        half, layer = np.argwhere(~finite)[0]
        raise NonFiniteValue(f"{HALVES[half]} layer {layer + 1} contains non-finite values")
    for half in (1, 0):
        zero = np.argwhere(norms[half] == 0.0)
        if zero.size:
            layer, token = zero[0]
            raise ZeroVector(
                f"{HALVES[half]} layer {layer + 1} has zero-norm token row at index {token}"
            )

    s_mlp, s_out = np.clip(grams / norms.shape[2], -1.0, 1.0)
    # upper[i, j] averages |n_i - n_j| / n_j over tokens for i < j, putting
    # the later layer in the denominator; mirror for symmetric storage
    h_norms = norms[0]
    upper = np.zeros_like(s_mlp)
    for j in range(1, len(h_norms)):
        upper[:j, j] = np.mean(np.abs(h_norms[:j] - h_norms[j]) / h_norms[j], axis=1)
    return SimilarityMatrices(s_out=s_out, s_mlp=s_mlp, delta_norm=upper + upper.T)


def export_heatmap(matrices: SimilarityMatrices, out_dir: str | Path) -> dict[str, Path]:
    """Write s_out.csv, s_mlp.csv, and delta_norm.csv (9 significant digits)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    paths = {name: out / f"{name}.csv" for name in ("s_out", "s_mlp", "delta_norm")}
    for name, path in paths.items():
        with output_file(path) as handle:
            writer = csv.writer(handle)
            writer.writerow(["layer"] + [str(i) for i in range(1, matrices.num_layers + 1)])
            for i, row in enumerate(getattr(matrices, name), start=1):
                writer.writerow([str(i)] + [f"{v:.8e}" for v in row])
    return paths


# Binary cache so the search stage can re-load matrices at full precision:
# magic D2MS | version u32=1 | L u32 | s_out, s_mlp, delta_norm as L*L f64-LE.
CACHE_MAGIC = b"D2MS"
CACHE_VERSION = 1


def write_matrices(matrices: SimilarityMatrices, path: str | Path) -> None:
    with output_file(path, binary=True) as handle:
        _write_header(handle, CACHE_MAGIC, CACHE_VERSION, matrices.num_layers)
        for mat in (matrices.s_out, matrices.s_mlp, matrices.delta_norm):
            handle.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def read_matrices(path: str | Path) -> SimilarityMatrices:
    with _read(path, CACHE_MAGIC, CACHE_VERSION) as reader:
        (num_layers,) = reader.u32s(1, "layer count")
        if num_layers < 1:
            raise InvalidTrace(f"degenerate matrices header L={num_layers}")
        mats = reader.floats("<f8", (3, num_layers, num_layers), "matrices")
        reader.end()
        for name, mat in zip(("s_out", "s_mlp", "delta_norm"), mats):
            if not np.isfinite(mat).all():
                raise NonFiniteValue(f"matrices cache {name} contains non-finite values")
    return SimilarityMatrices(*mats)
