"""Inter-layer similarity statistics: sequence-averaged cosine similarity of
layer outputs and MLP inputs, and the mean relative norm mismatch that guards
against scale shifts when distant MLPs are reused as experts.

All three matrices come from one pass over the trace, one half's token chunk
at a time, so the same code serves a trace in memory (``build_matrices``) and
a trace file (``stream_matrices``), and a file is never loaded whole. The
cosines are taken token by token, each token's Gram matrix of layer states
divided by its norms, and summed in token order, so the matrices' bits do not
depend on how the tokens are chunked, and only one token is copied to float64.
No token is tested: the trace is judged once, from its norms, after the pass.
``seq_avg_cosine`` and ``norm_mismatch`` define the statistics pair by pair
and are the oracle the matrices are tested against. Every reader and writer
here takes a file path. ``SimilarityMatrices`` and its binary cache
(``write_matrices``, ``read_matrices``) are defined in ``config``, which
imports no numpy.
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
from .errors import DimensionMismatch, NonFiniteValue, ZeroVector
from .traceio import HALVES, ActivationTrace, Chunk, chunk_slices, trace_chunks


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

    Each cosine matrix sums, over tokens, the L x L cosines of one token's
    layer states: its Gram matrix divided by ``n_i * n_j``, the pairwise
    definition's own formula. Each token's (L, d) states are copied into one
    float64 buffer, allocated once; its Gram is taken from it, then it is
    squared in place and the squares are summed over d into the token's
    column of one (2, L, T) array of token norms. The cosines are added in
    token order and the matrices symmetrised after the pass, so their bits do
    not depend on the chunk length. The pass tests no token: it runs whole
    under one ``np.errstate`` that silences invalid and divide, so a NaN,
    infinity or zero row only makes cosines that are never used. The trace
    is judged once, after the pass, from the norms, so the error names the
    same place whatever the chunking and order: ``NonFiniteValue`` the first
    half, then layer, holding a NaN or infinity; ``ZeroVector`` the first
    zero-norm row in ``layer_outputs``, then ``mlp_inputs``, by layer, then
    token.
    """
    num_layers, seq_len, hidden = dims
    grams = np.zeros((2, num_layers, num_layers))
    norms = np.empty((2, num_layers, seq_len))
    unit = np.empty((num_layers, hidden))
    gram, denom = np.empty((2, num_layers, num_layers))
    with np.errstate(invalid="ignore", divide="ignore"):
        for half, tokens, states in chunks:
            total = grams[half]
            for token, token_norms in enumerate(norms[half, :, tokens].T):
                # the copy comes first: a ufunc that casts float32 inputs runs
                # through numpy's small cast buffers, 2.5x slower than copy and square
                np.copyto(unit, states[:, token])
                np.matmul(unit, unit.T, out=gram)
                # sqrt(add.reduce(x * x)) over d is np.linalg.norm's arithmetic,
                # so these are its bits, without its temporaries
                np.multiply(unit, unit, out=unit)
                np.add.reduce(unit, axis=1, out=token_norms)
                np.sqrt(token_norms, out=token_norms)
                np.multiply.outer(token_norms, token_norms, out=denom)
                gram /= denom
                total += gram
    # free the chunk buffer and the token's rows before the temporaries below
    del states, unit

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

    # a Gram's two triangles may differ in their last bit; the mean of the
    # two makes each matrix exactly symmetric
    grams += grams.transpose(0, 2, 1)
    s_mlp, s_out = np.clip(grams / (2 * seq_len), -1.0, 1.0)
    # upper[i, j] averages |n_i - n_j| / n_j over tokens for i < j, putting
    # the later layer in the denominator; mirror for symmetric storage. The
    # outputs' norms are spent, so their rows hold each j's ratios in place
    h_norms, ratios = norms
    upper = np.zeros_like(s_mlp)
    for j in range(1, len(h_norms)):
        np.subtract(h_norms[:j], h_norms[j], out=ratios[:j])
        np.abs(ratios[:j], out=ratios[:j])
        ratios[:j] /= h_norms[j]
        upper[:j, j] = np.mean(ratios[:j], axis=1)
    return SimilarityMatrices(s_out=s_out, s_mlp=s_mlp, delta_norm=upper + upper.T)


def export_heatmap(matrices: SimilarityMatrices, *paths: str | Path) -> None:
    """Write the matrices named by ``MATRIX_NAMES`` (s_out, s_mlp, delta_norm)
    as CSV with 9 significant digits, one to each path of ``paths``, in that
    order."""
    for name, path in zip(MATRIX_NAMES, paths, strict=True):
        with output_file(path) as handle:
            writer = csv.writer(handle)
            writer.writerow(["layer"] + [str(i) for i in range(1, matrices.num_layers + 1)])
            for i, row in enumerate(getattr(matrices, name), start=1):
                writer.writerow([str(i)] + [f"{v:.8e}" for v in row])
