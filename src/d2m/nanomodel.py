"""Deterministic desk-scale decoder-only transformer.

Everything runs in float64 numpy: causal GQA attention with per-head q/k
norms, GLU MLPs, top-k expert routing, the load-balancing auxiliary loss,
analytic gradients for router and expert weights, and a full-batch SGD toy
trainer. Positions enter as fixed sinusoidal offsets added to the token
embeddings; attention and embeddings are never trained, so no gradient ever
flows through the attention stack, and the trainer takes each step on the
whole token batch through ``moe_param_grads``, the gradient ``grad_check``
compares against central differences.

One builder makes every toy model, ``build_toy_container``; one function runs
a layer, ``layer_forward``; one GLU forward, ``_glu``, serves a dense MLP and
every routed expert, and keeps the values the expert's backward reuses; and
one count, ``top1_fractions``, gives both ``load_profiles`` and a routing
record's ``loads``, which a training step counts once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .config import ModelShape, tensor_schema, validate_shape
from .diagnostics import TrainLog, TrainStep
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyRecord,
    InvalidConfig,
    NonFiniteActivation,
    NonFiniteGradient,
    OutOfRange,
    UnsupportedTopology,
)
from .traceio import (
    ActivationTrace,
    WeightContainer,
    check_redundancy,
    copy_container,
    make_trace,
    validate_container,
)

RMS_EPS = 1e-6


# --- numeric primitives --------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows, on either branch
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def rms_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    ms = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(ms + RMS_EPS) * scale


def rms_norm_input_grad(x: np.ndarray, scale: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient of rms_norm w.r.t. its input (scale held constant)."""
    ms = np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS
    inv = 1.0 / np.sqrt(ms)
    gy = d_out * scale
    dot = np.sum(gy * x, axis=-1, keepdims=True)
    return gy * inv - x * (dot * inv ** 3 / x.shape[-1])


POSITION_SCALE = 0.1


def sinusoid_positions(seq_len: int, dim: int) -> np.ndarray:
    """Fixed additive positional offsets, scaled by ``POSITION_SCALE``: column
    c at position t is the sine (c even) or cosine (c odd) of
    t / 10000^(2 * (c // 2) / dim), at any width, odd ones included."""
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    idx = np.arange((dim + 1) // 2, dtype=np.float64)
    ang = pos / np.power(10000.0, 2.0 * idx / dim)
    enc = np.zeros((seq_len, dim))
    enc[:, 0::2] = np.sin(ang)
    enc[:, 1 ::2] = np.cos(ang[:, : enc[:, 1::2].shape[1]])
    return enc * POSITION_SCALE


def embed_tokens(container: WeightContainer, tokens: np.ndarray) -> np.ndarray:
    """The (T, d) input states of the token ids ``tokens``: their embeddings
    plus the sinusoidal positions. Every id must lie in [0, vocab_size)."""
    if tokens.min() < 0 or tokens.max() >= container.shape.vocab_size:
        raise OutOfRange("token ids must lie in [0, vocab_size)")
    return (container.tensors["embed"][tokens]
            + sinusoid_positions(len(tokens), container.shape.hidden_dim))


# --- layer views ----------------------------------------------------------------


@dataclass(frozen=True)
class AttentionParams:
    norm: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    q_norm: np.ndarray
    k_norm: np.ndarray
    n_heads: int
    n_kv_heads: int
    head_dim: int


@dataclass(frozen=True)
class GluMlp:
    up: np.ndarray
    gate: np.ndarray
    down: np.ndarray


@dataclass(frozen=True)
class DenseLayer:
    attn: AttentionParams
    mlp_norm: np.ndarray
    mlp: GluMlp


@dataclass(frozen=True)
class MoELayer:
    """Shared attention and one mlp norm, a router, and N expert GLU triples."""

    attn: AttentionParams
    mlp_norm: np.ndarray
    experts: tuple[GluMlp, ...]
    router: np.ndarray
    top_k: int


@dataclass(frozen=True)
class RoutingRecord:
    """Per-token routing outcome: full probabilities, top-k picks, gates."""

    probabilities: np.ndarray
    selected: np.ndarray
    gates: np.ndarray

    @property
    def num_experts(self) -> int:
        return self.probabilities.shape[1]

    @cached_property
    def loads(self) -> np.ndarray:
        """The top-1 load fractions, counted once per record."""
        return top1_fractions(self.probabilities)


def top1_fractions(probabilities: np.ndarray) -> np.ndarray:
    """Fraction of tokens (rows) whose highest-probability expert is i."""
    counts = np.bincount(np.argmax(probabilities, axis=1), minlength=probabilities.shape[1])
    return counts / probabilities.shape[0]


# --- forward ops ---------------------------------------------------------------


def _glu(mlp: GluMlp, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """GLU feed-forward of a checked input, with the values its gradient
    reads: the output and ``(x, u, v, sigmoid(u), silu(u))``, where u and v
    are x's up and gate projections."""
    u = x @ mlp.up
    v = x @ mlp.gate
    sig = sigmoid(u)
    act = u * sig
    return (act * v) @ mlp.down, (x, u, v, sig, act)


def mlp_apply(mlp: GluMlp, x: np.ndarray) -> np.ndarray:
    """GLU feed-forward: (silu(x @ up) * (x @ gate)) @ down."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.up.shape[0]:
        raise DimensionMismatch(
            f"mlp input has shape {x.shape}, expected (T, {mlp.up.shape[0]})"
        )
    if mlp.gate.shape != mlp.up.shape or mlp.down.shape != mlp.up.shape[::-1]:
        raise DimensionMismatch(
            f"inconsistent GLU triple: up {mlp.up.shape}, gate {mlp.gate.shape}, "
            f"down {mlp.down.shape}"
        )
    return _glu(mlp, x)[0]


def attention_forward(attn: AttentionParams, x: np.ndarray) -> np.ndarray:
    """Causal grouped-query attention over one sequence."""
    seq_len = x.shape[0]
    z = rms_norm(x, attn.norm)
    q = (z @ attn.q).reshape(seq_len, attn.n_heads, attn.head_dim)
    k = (z @ attn.k).reshape(seq_len, attn.n_kv_heads, attn.head_dim)
    v = (z @ attn.v).reshape(seq_len, attn.n_kv_heads, attn.head_dim)
    q = rms_norm(q, attn.q_norm)
    k = rms_norm(k, attn.k_norm)
    group = attn.n_heads // attn.n_kv_heads
    k = np.repeat(k, group, axis=1)
    v = np.repeat(v, group, axis=1)
    scores = np.einsum("thd,shd->hts", q, k) / math.sqrt(attn.head_dim)
    causal = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    scores = np.where(causal[None, :, :], -np.inf, scores)
    weights = softmax(scores, axis=-1)
    ctx = np.einsum("hts,shd->thd", weights, v)
    return ctx.reshape(seq_len, attn.n_heads * attn.head_dim) @ attn.o


def route(router: np.ndarray, h: np.ndarray, top_k: int) -> RoutingRecord:
    """Softmax routing; picks the top_k largest probabilities.

    Gates are the raw selected probabilities. Probability ties resolve to the
    smaller expert index.
    """
    n_experts = router.shape[1]
    if not 1 <= top_k <= n_experts:
        raise OutOfRange(f"top_k {top_k} outside 1..{n_experts}")
    probs = softmax(h @ router, axis=1)
    order = np.argsort(-probs, axis=1, kind="stable")
    selected = order[:, :top_k]
    gates = np.take_along_axis(probs, selected, axis=1)
    return RoutingRecord(probabilities=probs, selected=selected, gates=gates)


def _moe_from_h(layer: MoELayer, h: np.ndarray) -> tuple[np.ndarray, RoutingRecord, list]:
    """The layer's output, its routing record, and one ``(e, rows, gates,
    outputs, values)`` entry per routed expert e, where ``values`` are its
    ``_glu`` values, which the backward reuses."""
    record = route(layer.router, h, layer.top_k)
    z = rms_norm(h, layer.mlp_norm)
    y = h.copy()
    routed = []
    for e, expert in enumerate(layer.experts):
        rows, slots = np.nonzero(record.selected == e)
        if rows.size == 0:
            continue
        outputs, values = _glu(expert, z[rows])
        gates = record.gates[rows, slots]
        y[rows] += gates[:, None] * outputs
        routed.append((e, rows, gates, outputs, values))
    return y, record, routed


def pre_mlp_state(layer: DenseLayer | MoELayer, x: np.ndarray) -> np.ndarray:
    """Residual state after attention: the routing input of a MoE layer."""
    h = x + attention_forward(layer.attn, x)
    if not np.isfinite(h).all():
        raise NonFiniteActivation("attention produced non-finite values")
    return h


def layer_forward(layer: DenseLayer | MoELayer,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray, RoutingRecord | None]:
    """One decoder layer: its MLP input h, its output y, and the routing
    record of a MoE layer (None for a dense one). A MoE layer of one expert
    under top-1 routing gives every token that expert with gate exactly 1.0.
    """
    h = pre_mlp_state(layer, x)
    if isinstance(layer, MoELayer):
        y, record, _ = _moe_from_h(layer, h)
    else:
        y, record = h + mlp_apply(layer.mlp, rms_norm(h, layer.mlp_norm)), None
    if not np.isfinite(y).all():
        raise NonFiniteActivation("layer output contains non-finite values")
    return h, y, record


# --- whole-model forward ---------------------------------------------------------


def layers_of(container: WeightContainer) -> list[DenseLayer | MoELayer]:
    """Materialize layer views over the container's tensors (no copies)."""
    shape = container.shape
    t = container.tensors
    out: list[DenseLayer | MoELayer] = []
    for l in range(1, shape.num_layers + 1):
        attn = AttentionParams(
            norm=t[f"layer.{l}.attn_norm"],
            q=t[f"layer.{l}.attn.q"],
            k=t[f"layer.{l}.attn.k"],
            v=t[f"layer.{l}.attn.v"],
            o=t[f"layer.{l}.attn.o"],
            q_norm=t[f"layer.{l}.attn.q_norm"],
            k_norm=t[f"layer.{l}.attn.k_norm"],
            n_heads=shape.num_heads,
            n_kv_heads=shape.num_kv_heads,
            head_dim=shape.head_dim,
        )
        mlp_norm = t[f"layer.{l}.mlp_norm"]
        if l in shape.experts:
            experts = tuple(
                GluMlp(
                    up=t[f"layer.{l}.moe.expert.{e}.up"],
                    gate=t[f"layer.{l}.moe.expert.{e}.gate"],
                    down=t[f"layer.{l}.moe.expert.{e}.down"],
                )
                for e in range(1, shape.experts[l] + 1)
            )
            out.append(MoELayer(attn=attn, mlp_norm=mlp_norm, experts=experts,
                                router=t[f"layer.{l}.router"],
                                top_k=shape.moe.top_k))
        else:
            mlp = GluMlp(up=t[f"layer.{l}.mlp.up"], gate=t[f"layer.{l}.mlp.gate"],
                         down=t[f"layer.{l}.mlp.down"])
            out.append(DenseLayer(attn=attn, mlp_norm=mlp_norm, mlp=mlp))
    return out


def forward_trace(container: WeightContainer,
                  x: np.ndarray) -> tuple[np.ndarray, ActivationTrace, dict[int, RoutingRecord]]:
    """Run all layers on embedded input, capturing h/y per layer.

    Returns the final layer output (which equals the last captured y), the
    trace, and the routing record of every MoE layer.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != container.shape.hidden_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected (T, {container.shape.hidden_dim})"
        )
    if not np.isfinite(x).all():
        raise NonFiniteActivation("embedded input contains non-finite values")
    records: dict[int, RoutingRecord] = {}
    h_states, y_states = [], []
    state = x
    for idx, layer in enumerate(layers_of(container), start=1):
        try:
            h, state, record = layer_forward(layer, state)
        except NonFiniteActivation as exc:
            raise NonFiniteActivation(f"layer {idx}: {exc}") from None
        if record is not None:
            records[idx] = record
        h_states.append(h)
        y_states.append(state)
    return state, make_trace(h_states, y_states), records


# --- load balancing ---------------------------------------------------------------


def load_balance_loss(record: RoutingRecord) -> float:
    """Switch-style balance term N * sum_i f_i * P_i of one routing record,
    unweighted: f_i is the hard top-1 assignment fraction (no gradient), P_i
    the mean routing probability of expert i. The training objective weights
    it by ``moe_param_grads``' ``lb_alpha``.
    """
    return record.num_experts * float(record.loads @ record.probabilities.mean(axis=0))


# --- gradients ----------------------------------------------------------------------


@dataclass
class MoeGrads:
    router: np.ndarray
    experts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def moe_param_grads(layer: MoELayer, h: np.ndarray, record: RoutingRecord,
                    routed: list, d_output: np.ndarray,
                    lb_alpha: float) -> MoeGrads:
    """Analytic gradients w.r.t. router and expert weights for a loss whose
    gradient on the layer output is d_output, plus the lb_alpha-weighted
    balancing term (top-1 fractions treated as constants). ``routed`` is
    ``_moe_from_h``'s list, so each expert's gradients come from the values
    its forward kept; an expert no token chose gets zeros.

    The routing input h is held fixed (no gradient flows back through
    attention), matching the trainer's frozen-attention regime.
    """
    n_experts = len(layer.experts)
    num_tokens = h.shape[0]
    d_probs = np.zeros_like(record.probabilities)
    expert_grads = [(np.zeros_like(mlp.up), np.zeros_like(mlp.gate), np.zeros_like(mlp.down))
                    for mlp in layer.experts]
    for e, rows, gates, outputs, (z, u, v, sig, act) in routed:
        dy_rows = d_output[rows]
        d_probs[rows, e] += np.einsum("td,td->t", dy_rows, outputs)
        upstream = gates[:, None] * dy_rows
        d_pre = upstream @ layer.experts[e].down.T
        d_u = d_pre * v * (sig * (1.0 + u * (1.0 - sig)))
        expert_grads[e] = (z.T @ d_u, z.T @ (d_pre * act), (act * v).T @ upstream)
    if lb_alpha:
        d_probs += lb_alpha * n_experts * record.loads[None, :] / num_tokens
    inner = np.einsum("tn,tn->t", d_probs, record.probabilities)
    d_logits = record.probabilities * (d_probs - inner[:, None])
    router_grad = h.T @ d_logits
    return MoeGrads(router=router_grad, experts=expert_grads)


def _named_layer_params(layer: MoELayer, grads: MoeGrads):
    yield "router", layer.router, grads.router
    for e, mlp in enumerate(layer.experts, start=1):
        g_up, g_gate, g_down = grads.experts[e - 1]
        yield f"expert.{e}.up", mlp.up, g_up
        yield f"expert.{e}.gate", mlp.gate, g_gate
        yield f"expert.{e}.down", mlp.down, g_down


GRAD_DENOM_FLOOR = 1e-3
GRAD_CHECK_ALPHA = 1e-3
GRAD_CHECK_STEP = 1e-5


def grad_check(layer: MoELayer, x: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients,
    each difference taken over +-GRAD_CHECK_STEP.

    Loss = mean(output**2) + load-balancing term weighted GRAD_CHECK_ALPHA,
    with assignment fractions frozen at the unperturbed routing (stop-gradient
    semantics). Covers the router and every expert tensor. The relative-error
    denominator is floored at GRAD_DENOM_FLOOR: float64 central differences
    carry ~1e-10 absolute roundoff, so entries below the floor are held to a
    ~1e-9 absolute bound instead of a meaningless relative one.
    """
    x = np.asarray(x, dtype=np.float64)
    h = pre_mlp_state(layer, x)
    y, record, routed = _moe_from_h(layer, h)
    n_experts = len(layer.experts)
    d_y = (2.0 / y.size) * y
    grads = moe_param_grads(layer, h, record, routed, d_y, GRAD_CHECK_ALPHA)
    frozen_f = record.loads

    def loss() -> float:
        y2, rec2, _ = _moe_from_h(layer, h)
        mean_prob = rec2.probabilities.mean(axis=0)
        return float(np.mean(y2 ** 2)) + GRAD_CHECK_ALPHA * n_experts * float(frozen_f @ mean_prob)

    worst = 0.0
    for name, tensor, grad in _named_layer_params(layer, grads):
        flat_t = tensor.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_t.size):
            original = flat_t[i]
            flat_t[i] = original + GRAD_CHECK_STEP
            up = loss()
            flat_t[i] = original - GRAD_CHECK_STEP
            down = loss()
            flat_t[i] = original
            fd = (up - down) / (2.0 * GRAD_CHECK_STEP)
            analytic = flat_g[i]
            if not (np.isfinite(fd) and np.isfinite(analytic)):
                raise NonFiniteGradient(f"non-finite gradient in {name}[{i}]")
            err = abs(fd - analytic) / max(abs(fd), abs(analytic), GRAD_DENOM_FLOOR)
            worst = max(worst, err)
    return worst


# --- toy models and training ----------------------------------------------------------


def build_toy_container(shape: ModelShape, seed: int, weight_scale: float = 0.02,
                        duplicate_from: Iterable[tuple[int, int]] = ()) -> WeightContainer:
    """Seeded Gaussian toy weights (norm scales start at one).

    ``duplicate_from`` entries (base, offset) copy every tensor of layer
    ``base`` onto layer ``base+offset``, producing exactly redundant layers.
    Values pass through float32 so containers serialize losslessly. The
    entries and a finite ``weight_scale`` are checked before any weight is
    drawn.
    """
    duplicate_from = check_redundancy(validate_shape(shape).num_layers, duplicate_from)
    if not math.isfinite(weight_scale):
        raise InvalidConfig(f"weight_scale must be finite, got {weight_scale}")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, dims in tensor_schema(shape):
        if name.endswith("norm"):
            tensors[name] = np.ones(dims)
        else:
            raw = rng.standard_normal(dims) * weight_scale
            tensors[name] = raw.astype(np.float32).astype(np.float64)
    for base, offset in duplicate_from:
        src_prefix = f"layer.{base}."
        for name in list(tensors):
            if name.startswith(src_prefix):
                tensors[f"layer.{base + offset}.{name[len(src_prefix):]}"] = tensors[name].copy()
    return validate_container(WeightContainer(shape=shape, tensors=tensors))


def make_copy_stream(vocab_size: int, seq_len: int, num_sequences: int,
                     seed: int) -> np.ndarray:
    """Random token sequences for the copy task (target equals input)."""
    if vocab_size < 1 or seq_len < 1 or num_sequences < 1:
        raise OutOfRange(f"copy stream needs positive vocab_size, seq_len and num_sequences, "
                         f"got {vocab_size}, {seq_len}, {num_sequences}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab_size, size=(num_sequences, seq_len), dtype=np.int64)


def _softmax_xent(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_p = shifted - log_z
    rows = np.arange(len(targets))
    loss = -float(np.mean(log_p[rows, targets]))
    grad = np.exp(log_p)
    grad[rows, targets] -= 1.0
    return loss, grad / len(targets)


def check_topology(shape: ModelShape) -> None:
    """The toy trainer's one topology: exactly one MoE layer, the last. A
    shape alone decides it, so a weights file is refused from its header."""
    if list(shape.experts) != [shape.num_layers]:
        raise UnsupportedTopology(
            "train_toy requires exactly one MoE layer, at the final position "
            f"(got MoE layers {sorted(shape.experts)} of {shape.num_layers})"
        )


def train_toy(container: WeightContainer, data: np.ndarray, steps: int,
              lr: float, alpha: float) -> tuple[TrainLog, WeightContainer]:
    """Full-batch SGD on router and expert weights of a fused toy model.

    Supports models whose single MoE layer sits last in the stack, so exact
    gradients never have to cross an attention module. Nothing upstream of the
    router is trained, so each sequence's routing input (embedding, dense
    layers, MoE attention) is computed once. Routing, the experts and the loss
    act on one token at a time, so every step then runs the whole stream as
    one (S*T, d) token batch: one routing, one expert pass and one
    ``moe_param_grads`` call, whose balancing term (pooled top-1 fractions
    held constant) is the one ``grad_check`` covers. Loads are the pooled
    top-1 fractions over all tokens. The logged lb_loss is the unweighted
    balance term (alpha scales it in the training objective only).
    """
    validate_container(container)
    if steps < 1:
        raise OutOfRange("steps must be at least 1")
    if not math.isfinite(lr):
        raise InvalidConfig(f"lr must be finite, got {lr}")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise InvalidConfig(f"alpha must be finite and non-negative, got {alpha}")
    check_topology(container.shape)
    work = copy_container(container)
    shape = work.shape
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 2 or data.size == 0:
        raise OutOfRange("data must be a non-empty (num_sequences, seq_len) array")

    layers = layers_of(work)
    moe_layer = layers[-1]
    embed = work.tensors["embed"]
    final_norm = work.tensors["final_norm"]
    head = embed.T if shape.tied_embedding else work.tensors["lm_head"]
    # the frozen prefix: routing inputs stay fixed while router and experts train
    routing_inputs = []
    for seq in data:
        state = embed_tokens(work, seq)
        for layer in layers[:-1]:
            _, state, _ = layer_forward(layer, state)
        routing_inputs.append(pre_mlp_state(moe_layer, state))
    h = np.concatenate(routing_inputs)
    targets = data.reshape(-1)

    log = TrainLog()
    for step in range(1, steps + 1):
        y, record, routed = _moe_from_h(moe_layer, h)
        task_loss, d_logits = _softmax_xent(rms_norm(y, final_norm) @ head, targets)
        d_y = rms_norm_input_grad(y, final_norm, d_logits @ head.T)
        grads = moe_param_grads(moe_layer, h, record, routed, d_y, lb_alpha=alpha)
        lb_raw = load_balance_loss(record)
        if not (np.isfinite(task_loss) and np.isfinite(lb_raw)):
            raise DivergenceDetected(f"loss became non-finite at step {step}")
        log.steps.append(TrainStep(step=step, task_loss=task_loss, lb_loss=lb_raw,
                                   loads=tuple(record.loads)))
        for _, tensor, grad in _named_layer_params(moe_layer, grads):
            tensor -= lr * grad
    return log, work


def load_profiles(container: WeightContainer, data: np.ndarray) -> dict[int, tuple[float, ...]]:
    """Each MoE layer's top-1 load fractions, pooled over a token stream and
    keyed by layer, ascending."""
    data = np.asarray(data, dtype=np.int64)
    if data.ndim != 2 or data.size == 0:
        raise EmptyRecord("load_profiles needs a non-empty (num_sequences, seq_len) array")
    probabilities: dict[int, list[np.ndarray]] = {l: [] for l in container.shape.experts}
    for seq in data:
        _, _, records = forward_trace(container, embed_tokens(container, seq))
        for l, record in records.items():
            probabilities[l].append(record.probabilities)
    return {l: tuple(top1_fractions(np.concatenate(p)).tolist())
            for l, p in sorted(probabilities.items())}
