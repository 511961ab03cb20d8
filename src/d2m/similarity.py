"""Inter-layer similarity statistics: sequence-averaged cosine similarity of
layer outputs and MLP inputs, and the mean relative norm mismatch that guards
against scale shifts when distant MLPs are reused as experts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import text_file
from .errors import IoFailure, NonFiniteValue, ZeroVector
from .traceio import ActivationTrace, _as_sink, _read, _write, _write_header


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
        raise ZeroVector(f"inputs must share a T x d shape, got {a.shape} and {b.shape}")
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
        raise ZeroVector(f"inputs must share a T x d shape, got {a.shape} and {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = _row_norms(b, "denominator argument")
    return float(np.mean(np.abs(na - nb) / nb))


def build_matrices(trace: ActivationTrace) -> SimilarityMatrices:
    """Compute all pairwise statistics of a trace.

    Output cosine comes from the per-layer outputs, MLP cosine and the norm
    mismatch from the MLP-input states; the mismatch denominator for a pair
    is the later layer's per-token norm. Each cosine matrix is one Gram
    matrix ``U @ U.T / T`` of the unit-normalised states viewed as (L, T*d).
    """
    num_layers = trace.num_layers
    seq_len = trace.seq_len

    def cosine_matrix(mats: tuple[np.ndarray, ...], label: str) -> np.ndarray:
        stack = np.stack(mats)
        norms = np.linalg.norm(stack, axis=2)
        zero = np.argwhere(norms == 0.0)
        if zero.size:
            layer, token = zero[0]
            raise ZeroVector(
                f"{label} layer {layer + 1} has zero-norm token row at index {token}"
            )
        units = (stack / norms[:, :, None]).reshape(num_layers, -1)
        return np.clip(units @ units.T / seq_len, -1.0, 1.0)

    def norm_matrix() -> np.ndarray:
        h_norms = np.linalg.norm(np.stack(trace.mlp_inputs), axis=2)
        # pairwise[i, j] averages |n_i - n_j| / n_j; keeping only i < j puts
        # the later layer in the denominator, then mirror for symmetric storage
        pairwise = np.mean(
            np.abs(h_norms[:, None, :] - h_norms[None, :, :]) / h_norms[None, :, :], axis=2
        )
        upper = np.triu(pairwise, k=1)
        return upper + upper.T

    return SimilarityMatrices(s_out=cosine_matrix(trace.layer_outputs, "layer_outputs"),
                              s_mlp=cosine_matrix(trace.mlp_inputs, "mlp_inputs"),
                              delta_norm=norm_matrix())


def _write_matrix_csv(matrix: np.ndarray, path: Path) -> None:
    num_layers = matrix.shape[0]
    with text_file(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer"] + [str(i) for i in range(1, num_layers + 1)])
        for i in range(num_layers):
            writer.writerow([str(i + 1)] + [f"{v:.8e}" for v in matrix[i]])


def export_heatmap(matrices: SimilarityMatrices, out_dir: str | Path) -> dict[str, Path]:
    """Write s_out.csv, s_mlp.csv, and delta_norm.csv (9 significant digits)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    paths = {name: out / f"{name}.csv" for name in ("s_out", "s_mlp", "delta_norm")}
    for name, path in paths.items():
        _write_matrix_csv(getattr(matrices, name), path)
    return paths


# Binary cache so the search stage can re-load matrices at full precision:
# magic D2MS | version u32=1 | L u32 | s_out, s_mlp, delta_norm as L*L f64-LE.
CACHE_MAGIC = b"D2MS"


def write_matrices(matrices: SimilarityMatrices, path: str | Path) -> None:
    with _as_sink(path) as stream:
        _write_header(stream, CACHE_MAGIC, matrices.num_layers)
        for mat in (matrices.s_out, matrices.s_mlp, matrices.delta_norm):
            _write(stream, np.ascontiguousarray(mat, dtype="<f8").tobytes())


def read_matrices(path: str | Path) -> SimilarityMatrices:
    with _read(path, CACHE_MAGIC) as reader:
        (num_layers,) = reader.u32s(1, "layer count")
        mats = reader.floats("<f8", (3, num_layers, num_layers), "matrices")
        reader.end()
    for name, mat in zip(("s_out", "s_mlp", "delta_norm"), mats):
        if not np.isfinite(mat).all():
            raise NonFiniteValue(f"matrices cache {name} contains non-finite values")
    return SimilarityMatrices(*mats)
