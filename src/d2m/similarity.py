"""Inter-layer similarity statistics: sequence-averaged cosine similarity of
layer outputs and MLP inputs, and the mean relative norm mismatch that guards
against scale shifts when distant MLPs are reused as experts.

All three matrices come from one pass over the trace, one half's token chunk
at a time, so the same code serves a trace in memory (``build_matrices``) and
a trace file (``stream_matrices``), and a file is never loaded whole. ``seq_avg_cosine``
and ``norm_mismatch`` define the statistics pair by pair and are the oracle
the matrices are tested against. Every reader and writer here takes a file
path. ``SimilarityMatrices`` and its binary cache (``write_matrices``,
``read_matrices``) are defined in ``config``, which imports no numpy.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

# the matrices and their cache live in config, so search reads them without
# numpy; they are re-exported here, where the matrices are built
from .config import (MATRIX_NAMES, SimilarityMatrices, output_file,  # noqa: F401
                     read_matrices, write_matrices)
from .errors import DimensionMismatch, IoFailure, NonFiniteValue, ZeroVector
from .traceio import HALVES, ActivationTrace, Chunk, chunk_slices, chunk_tokens, trace_chunks


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
    chunked pass as a trace file, one half's ``chunk_tokens`` tokens at a
    time, so the temporaries stay one chunk in size.
    """
    halves = (trace.mlp_inputs, trace.layer_outputs)
    dims = halves[0].shape
    return _accumulate(dims, ((half, tokens, halves[half][:, tokens])
                              for half, tokens in chunk_slices(*dims)))


def stream_matrices(path: str | Path) -> SimilarityMatrices:
    """``build_matrices`` of the trace file at ``path``, read one half's token
    chunk at a time; an error names the path."""
    with trace_chunks(path) as (dims, chunks):
        return _accumulate(dims, chunks)


def _accumulate(dims: tuple[int, int, int], chunks: Iterable[Chunk]) -> SimilarityMatrices:
    """The matrices of an (L, T, d) trace fed as ``(half, tokens, states)``
    chunks in ``chunk_slices`` order: the (L, n, d) states of one half over
    the token slice ``tokens``.

    Each cosine matrix is the Gram matrix ``U @ U.T / T`` of the half's unit
    token rows viewed as (L, T*d), summed one chunk at a time. A chunk is
    copied into one float64 working buffer, allocated once, and squared in
    place; the squares are summed over d into the chunk's slice of one
    (2, L, T) array of token norms. The chunk is then copied in again and
    divided in place by those norms. The trace is judged after the pass,
    from the norms, so the error names the same place whatever the chunking
    and order: ``NonFiniteValue`` the first half, then layer, holding a NaN
    or infinity; ``ZeroVector`` the first zero-norm row in
    ``layer_outputs``, then ``mlp_inputs``, by layer, then token.
    """
    num_layers, seq_len, hidden = dims
    grams = np.zeros((2, num_layers, num_layers))
    norms = np.empty((2, num_layers, seq_len))
    work = np.empty(num_layers * chunk_tokens(*dims) * hidden)
    clean = True
    for half, tokens, states in chunks:
        units = work[:states.size].reshape(states.shape)
        chunk_norms = norms[half, :, tokens]
        # sqrt(add.reduce(x * x)) over d is np.linalg.norm's arithmetic, so
        # these are its bits, without its two chunk-sized temporaries; the
        # copy comes first because a ufunc that casts float32 inputs runs
        # through numpy's small cast buffers, 2.5x slower than copy and square
        np.copyto(units, states)
        np.multiply(units, units, out=units)
        np.add.reduce(units, axis=2, out=chunk_norms)
        np.sqrt(chunk_norms, out=chunk_norms)
        # a non-finite or zero row fails the trace below; the Grams are
        # then never used, so skip them rather than divide by it
        clean = clean and np.isfinite(chunk_norms).all() and chunk_norms.all()
        if clean:
            np.copyto(units, states)
            units /= chunk_norms[:, :, None]
            units = units.reshape(num_layers, -1)
            grams[half] += units @ units.T
    # free the buffers behind the last chunk's views before the matrices'
    # temporaries are made
    del states, units, work

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

    s_mlp, s_out = np.clip(grams / seq_len, -1.0, 1.0)
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
    paths = {name: out / f"{name}.csv" for name in MATRIX_NAMES}
    for name, path in paths.items():
        with output_file(path) as handle:
            writer = csv.writer(handle)
            writer.writerow(["layer"] + [str(i) for i in range(1, matrices.num_layers + 1)])
            for i, row in enumerate(getattr(matrices, name), start=1):
                writer.writerow([str(i)] + [f"{v:.8e}" for v in row])
    return paths
