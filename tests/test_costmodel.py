"""Latency and memory formulas against independent arithmetic, plus their
structural properties (affinity in depth, invariance in expert count)."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from d2m.config import (
    DEFAULT_WORKLOAD,
    ModelShape,
    MoEShape,
    QWEN25_0_5B,
    THOR_U,
    Workload,
    attention_tensor_names,
)
from d2m.costmodel import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    active_params,
    decode_latency,
    expansion_ratio,
    prefill_latency,
    static_memory,
    total_latency,
)
from d2m.errors import InvalidConfig, InvalidShape
from d2m.nanomodel import build_toy_container
from d2m.traceio import param_count


def moe_reference(num_layers=19, num_experts=6, top_k=1):
    return replace(QWEN25_0_5B, num_layers=num_layers,
                   moe=MoEShape(num_experts=num_experts, top_k=top_k))


def exact_prefill_seconds():
    """Independent exact-rational evaluation for the reference shape."""
    r = Fraction(4864, 896)
    xi_f = 4 + Fraction(4, 7) + 6 * r
    return Fraction(24) * 1000 * 896 ** 2 * xi_f / Fraction(int(350e12))


def exact_decode_seconds():
    r = Fraction(4864, 896)
    xi_w = 2 + Fraction(2, 7) + 3 * r
    s_bar = 1000 + Fraction(51, 2)
    per_step = xi_w * 896 ** 2 * 2 + 2 * s_bar * 896 * 2 / Fraction(7)
    return Fraction(24) * 50 * per_step / Fraction(int(273e9))


class TestExpansionRatio:
    def test_dense_reference(self):
        assert expansion_ratio(QWEN25_0_5B) == pytest.approx(4864 / 896, abs=1e-12)

    def test_top1_moe_equals_dense(self):
        assert expansion_ratio(moe_reference(top_k=1)) == expansion_ratio(QWEN25_0_5B)

    def test_top2_doubles(self):
        assert expansion_ratio(moe_reference(top_k=2)) == pytest.approx(
            2 * expansion_ratio(QWEN25_0_5B), abs=1e-12)


class TestLatency:
    def test_prefill_matches_exact_rational(self):
        expected = float(exact_prefill_seconds())
        got = prefill_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.0447e-3, rel=5e-3)

    def test_decode_matches_exact_rational(self):
        expected = float(exact_decode_seconds())
        got = decode_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(133.4e-3, rel=5e-3)

    def test_depth_linearity_zero_intercept(self):
        for layers in (1, 7, 19, 24, 48):
            shape = replace(QWEN25_0_5B, num_layers=layers)
            breakdown = total_latency(shape, THOR_U, DEFAULT_WORKLOAD)
            per_layer = total_latency(replace(QWEN25_0_5B, num_layers=1),
                                      THOR_U, DEFAULT_WORKLOAD)
            assert breakdown.total_s == pytest.approx(layers * per_layer.total_s, rel=1e-12)

    def test_doubling_layers_doubles_prefill_exactly(self):
        one = prefill_latency(replace(QWEN25_0_5B, num_layers=12), THOR_U, DEFAULT_WORKLOAD)
        two = prefill_latency(replace(QWEN25_0_5B, num_layers=24), THOR_U, DEFAULT_WORKLOAD)
        assert two == 2 * one

    def test_zero_length_phases_cost_nothing(self):
        no_prompt = Workload(batch=1, prompt_len=0, gen_len=50)
        no_gen = Workload(batch=1, prompt_len=1000, gen_len=0)
        assert prefill_latency(QWEN25_0_5B, THOR_U, no_prompt) == 0.0
        assert decode_latency(QWEN25_0_5B, THOR_U, no_gen) == 0.0

    def test_phases_that_each_fit_a_float_but_not_their_sum_are_rejected(self):
        # each phase takes 1.5e308 s, just under the largest float
        scale = 1.5e308
        hw = replace(THOR_U,
                     peak_flops=prefill_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
                     * THOR_U.peak_flops / scale,
                     mem_bandwidth=decode_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
                     * THOR_U.mem_bandwidth / scale)
        assert prefill_latency(QWEN25_0_5B, hw, DEFAULT_WORKLOAD) == pytest.approx(scale)
        assert decode_latency(QWEN25_0_5B, hw, DEFAULT_WORKLOAD) == pytest.approx(scale)
        with pytest.raises(InvalidConfig, match="total latency"):
            total_latency(QWEN25_0_5B, hw, DEFAULT_WORKLOAD)

    def test_halving_bandwidth_doubles_decode_exactly(self):
        slow = replace(THOR_U, mem_bandwidth=THOR_U.mem_bandwidth / 2)
        assert decode_latency(QWEN25_0_5B, slow, DEFAULT_WORKLOAD) == \
            2 * decode_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)

    def test_expert_count_never_changes_latency(self):
        baseline = total_latency(moe_reference(num_experts=2), THOR_U, DEFAULT_WORKLOAD)
        for n in (6, 10, 60):
            other = total_latency(moe_reference(num_experts=n), THOR_U, DEFAULT_WORKLOAD)
            assert other.prefill_s == baseline.prefill_s
            assert other.decode_s == baseline.decode_s

    def test_depth_reduction_strictly_faster(self):
        full = total_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
        pruned = total_latency(replace(QWEN25_0_5B, num_layers=19), THOR_U, DEFAULT_WORKLOAD)
        assert pruned.total_s < full.total_s

    def test_boundedness_tags(self):
        breakdown = total_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
        assert breakdown.prefill_bound == COMPUTE_BOUND
        assert breakdown.decode_bound == MEMORY_BOUND
        assert breakdown.total_s == breakdown.prefill_s + breakdown.decode_s


class TestStaticMemory:
    def test_reference_moe_19_layers_6_experts(self):
        params, size = static_memory(moe_reference())
        assert params == 1_661_624_576
        assert params == pytest.approx(1.66e9, rel=6e-3)
        assert size / 1e9 == pytest.approx(3.32, abs=0.01)

    def test_reference_moe_10_experts(self):
        _, size = static_memory(moe_reference(num_experts=10))
        assert size / 1e9 == pytest.approx(5.31, abs=0.01)

    def test_memory_affine_in_expert_count(self):
        sizes = {n: static_memory(moe_reference(num_experts=n))[0] for n in (2, 4, 6, 8)}
        step = sizes[4] - sizes[2]
        assert sizes[6] - sizes[4] == step
        assert sizes[8] - sizes[6] == step
        assert step > 0

    def test_zero_expert_shape_rejected(self):
        with pytest.raises(InvalidShape):
            static_memory(moe_reference(num_experts=0))

    def test_dense_formula_matches_toy_container_exactly(self):
        # the accounting identity holds tensor-for-tensor when heads tile the
        # hidden dim, as in the reference shape
        shape = ModelShape(num_layers=3, hidden_dim=16, mlp_dim=40, num_heads=4,
                           num_kv_heads=2, head_dim=4, vocab_size=50)
        container = build_toy_container(shape, seed=0)
        params, _ = static_memory(shape)
        assert params == param_count(container)

    def test_moe_formula_matches_toy_container_exactly(self):
        shape = ModelShape(num_layers=3, hidden_dim=16, mlp_dim=40, num_heads=4,
                           num_kv_heads=2, head_dim=4, vocab_size=50,
                           moe=MoEShape(num_experts=5, top_k=2))
        container = build_toy_container(shape, seed=1,
                                        moe_layers={1: 5, 2: 5, 3: 5})
        params, _ = static_memory(shape)
        assert params == param_count(container)

    def test_untied_embedding_counts_twice(self):
        tied, _ = static_memory(QWEN25_0_5B)
        untied, _ = static_memory(replace(QWEN25_0_5B, tied_embedding=False))
        assert untied - tied == QWEN25_0_5B.vocab_size * QWEN25_0_5B.hidden_dim


@st.composite
def small_shapes(draw):
    """Shapes whose query heads tile the hidden size or not, tied or untied,
    dense or with a uniform MoE(N, k) in every layer."""
    num_kv_heads = draw(st.integers(min_value=1, max_value=3))
    num_heads = num_kv_heads * draw(st.integers(min_value=1, max_value=3))
    head_dim = draw(st.integers(min_value=1, max_value=6))
    tiled = num_heads * head_dim
    hidden_dim = draw(st.just(tiled) | st.integers(min_value=1, max_value=20)
                      .filter(lambda d: d != tiled))
    num_experts = draw(st.integers(min_value=1, max_value=4))
    moe = draw(st.none() | st.builds(MoEShape, st.just(num_experts),
                                     st.integers(min_value=1, max_value=num_experts)))
    return ModelShape(num_layers=draw(st.integers(min_value=1, max_value=3)),
                      hidden_dim=hidden_dim, mlp_dim=draw(st.integers(min_value=1, max_value=12)),
                      num_heads=num_heads, num_kv_heads=num_kv_heads, head_dim=head_dim,
                      vocab_size=draw(st.integers(min_value=1, max_value=20)),
                      tied_embedding=draw(st.booleans()), moe=moe)


def top_k_path(shape):
    """Names of the tensors one token's top-k path reads: the globals, and in
    every layer attention, norms, and the MLP, or the router and experts 1..k."""
    names = ["embed", "final_norm"] + ([] if shape.tied_embedding else ["lm_head"])
    for layer in range(1, shape.num_layers + 1):
        names += [*attention_tensor_names(layer), f"layer.{layer}.mlp_norm"]
        if shape.moe is None:
            names += [f"layer.{layer}.mlp.{part}" for part in ("up", "gate", "down")]
            continue
        names.append(f"layer.{layer}.router")
        names += [f"layer.{layer}.moe.expert.{e}.{part}"
                  for e in range(1, shape.moe.top_k + 1) for part in ("up", "gate", "down")]
    return names


@given(small_shapes())
@example(ModelShape(num_layers=3, hidden_dim=16, mlp_dim=8, num_heads=1, num_kv_heads=1,
                    head_dim=8, vocab_size=8))
def test_counts_equal_the_toy_container(shape):
    moe_layers = ({layer: shape.moe.num_experts for layer in range(1, shape.num_layers + 1)}
                  if shape.moe is not None else None)
    container = build_toy_container(shape, seed=0, moe_layers=moe_layers)
    assert static_memory(shape)[0] == param_count(container)
    assert active_params(shape) == sum(container.tensors[name].size
                                       for name in top_k_path(shape))


class TestActiveParams:
    def test_reference_moe_active(self):
        assert active_params(moe_reference()) == pytest.approx(0.42e9, abs=0.01e9)

    def test_dense_seed_active(self):
        assert active_params(QWEN25_0_5B) == pytest.approx(0.50e9, abs=0.01e9)

    def test_full_activation_equals_static(self):
        shape = moe_reference(num_experts=6, top_k=6)
        assert active_params(shape) == static_memory(shape)[0]

    def test_dense_active_equals_static(self):
        assert active_params(QWEN25_0_5B) == static_memory(QWEN25_0_5B)[0]
