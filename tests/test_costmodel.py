"""Latency and memory formulas against independent arithmetic, plus their
structural properties (affinity in depth, invariance in expert count), and
the per-layer counts against toy and fused containers."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2m.config import (
    DEFAULT_WORKLOAD,
    FusionBlock,
    FusionPlan,
    HardwareProfile,
    ModelShape,
    MoEShape,
    QWEN25_0_5B,
    THOR_U,
    Workload,
)
from d2m.costmodel import (
    COMPUTE_BOUND,
    MEMORY_BOUND,
    _widths,
    active_params,
    decode_latency,
    prefill_latency,
    static_memory,
    total_latency,
)
from d2m.errors import InvalidConfig, InvalidShape
from d2m.nanomodel import build_toy_container
from d2m.surgery import reference_pruned_model
from d2m.traceio import param_count

from test_surgery import fused_model, fusion_cases


def moe_reference(num_layers=19, num_experts=6, top_k=1):
    """The reference shape cut to ``num_layers``, every layer MoE(N, k)."""
    return replace(QWEN25_0_5B, num_layers=num_layers,
                   moe=MoEShape(dict.fromkeys(range(1, num_layers + 1), num_experts), top_k))


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


def widest_ratio(shape):
    """The FFN expansion ratio of the model's widest layer."""
    return _widths(shape)[-1][1]


class TestExpansionRatio:
    def test_dense_reference(self):
        assert widest_ratio(QWEN25_0_5B) == pytest.approx(4864 / 896, abs=1e-12)

    def test_top1_moe_equals_dense(self):
        assert widest_ratio(moe_reference(top_k=1)) == widest_ratio(QWEN25_0_5B)

    def test_top2_doubles(self):
        assert widest_ratio(moe_reference(top_k=2)) == pytest.approx(
            2 * widest_ratio(QWEN25_0_5B), abs=1e-12)


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
        no_prompt = Workload(prompt_len=0, gen_len=50)
        no_gen = Workload(prompt_len=1000, gen_len=0)
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
        # prefill's 2.0447 ms of compute is shorter than reading the
        # 715.65 MB of layer weights once at 273 GB/s
        assert breakdown.prefill_s == pytest.approx(2.0447e-3, rel=5e-5)
        assert breakdown.prefill_memory_s == pytest.approx(715_653_120 / 273e9, rel=1e-12)
        assert breakdown.prefill_bound == MEMORY_BOUND
        # decode moves 133.38 ms of bytes against 0.102 ms of FLOPs
        assert breakdown.decode_s == pytest.approx(133.38e-3, rel=5e-5)
        assert breakdown.decode_compute_s == pytest.approx(0.10223616e-3, rel=1e-12)
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
                           moe=MoEShape({1: 5, 2: 5, 3: 5}, top_k=2))
        container = build_toy_container(shape, seed=1)
        params, _ = static_memory(shape)
        assert params == param_count(container)

    def test_untied_embedding_counts_twice(self):
        tied, _ = static_memory(QWEN25_0_5B)
        untied, _ = static_memory(replace(QWEN25_0_5B, tied_embedding=False))
        assert untied - tied == QWEN25_0_5B.vocab_size * QWEN25_0_5B.hidden_dim


@st.composite
def small_shapes(draw):
    """Shapes whose query heads tile the hidden size or not, tied or untied,
    dense or with MoE layers at a random subset of layers, each with a pool
    size of its own, and a top-k no larger than the smallest pool."""
    num_kv_heads = draw(st.integers(min_value=1, max_value=3))
    num_heads = num_kv_heads * draw(st.integers(min_value=1, max_value=3))
    head_dim = draw(st.integers(min_value=1, max_value=6))
    tiled = num_heads * head_dim
    hidden_dim = draw(st.just(tiled) | st.integers(min_value=1, max_value=20)
                      .filter(lambda d: d != tiled))
    num_layers = draw(st.integers(min_value=1, max_value=4))
    experts = draw(st.dictionaries(st.integers(min_value=1, max_value=num_layers),
                                   st.integers(min_value=1, max_value=4)))
    moe = (MoEShape(experts, draw(st.integers(min_value=1, max_value=min(experts.values()))))
           if experts else None)
    return ModelShape(num_layers=num_layers,
                      hidden_dim=hidden_dim, mlp_dim=draw(st.integers(min_value=1, max_value=12)),
                      num_heads=num_heads, num_kv_heads=num_kv_heads, head_dim=head_dim,
                      vocab_size=draw(st.integers(min_value=1, max_value=20)),
                      tied_embedding=draw(st.booleans()), moe=moe)


def top_k_path(shape):
    """Names of the tensors one token's top-k path reads: the globals, and in
    every layer attention, norms, and the MLP, or the router and experts 1..k."""
    names = ["embed", "final_norm"] + ([] if shape.tied_embedding else ["lm_head"])
    for layer in range(1, shape.num_layers + 1):
        names += [f"layer.{layer}.attn_norm",
                  *(f"layer.{layer}.attn.{part}"
                    for part in ("q", "k", "v", "o", "q_norm", "k_norm")),
                  f"layer.{layer}.mlp_norm"]
        if layer not in shape.experts:
            names += [f"layer.{layer}.mlp.{part}" for part in ("up", "gate", "down")]
            continue
        names.append(f"layer.{layer}.router")
        names += [f"layer.{layer}.moe.expert.{e}.{part}"
                  for e in range(1, shape.moe.top_k + 1) for part in ("up", "gate", "down")]
    return names


def assert_counts_match(shape, container):
    assert static_memory(shape)[0] == param_count(container)
    assert active_params(shape) == sum(container.tensors[name].size
                                       for name in top_k_path(shape))


@given(small_shapes())
@example(ModelShape(num_layers=3, hidden_dim=16, mlp_dim=8, num_heads=1, num_kv_heads=1,
                    head_dim=8, vocab_size=8))
def test_counts_equal_the_toy_container(shape):
    assert_counts_match(shape, build_toy_container(shape, seed=0))


@settings(max_examples=40, deadline=None)
@given(fusion_cases())
def test_counts_equal_the_fused_container(case):
    dense, plan, base_copies, supp_copies, top_k = case
    fused, _ = fused_model(dense, plan, base_copies, supp_copies, top_k)
    assert_counts_match(fused.shape, fused)


@st.composite
def hardware(draw):
    return HardwareProfile(peak_flops=draw(st.floats(1e9, 1e16)),
                           mem_bandwidth=draw(st.floats(1e8, 1e13)),
                           weight_bytes=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))),
                           kv_bytes=draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))))


@given(shape=small_shapes(), hw=hardware(),
       wl=st.builds(Workload, prompt_len=st.integers(0, 4096), gen_len=st.integers(0, 512)))
@example(shape=QWEN25_0_5B, hw=THOR_U, wl=Workload(prompt_len=0, gen_len=0))
@example(shape=QWEN25_0_5B, hw=replace(THOR_U, peak_flops=1e9), wl=DEFAULT_WORKLOAD)
def test_each_roofline_label_names_the_larger_side(shape, hw, wl):
    breakdown = total_latency(shape, hw, wl)
    assert breakdown.prefill_s == prefill_latency(shape, hw, wl)
    assert breakdown.decode_s == decode_latency(shape, hw, wl)
    # a token costs two FLOPs per layer weight, in either phase, and a
    # prompt of any length reads each layer weight once
    if wl.prompt_len:
        flops_per_token = breakdown.prefill_s * hw.peak_flops / wl.prompt_len
        assert breakdown.prefill_memory_s == pytest.approx(
            flops_per_token / 2 * hw.weight_bytes / hw.mem_bandwidth, rel=1e-9)
        assert breakdown.decode_compute_s == pytest.approx(
            wl.gen_len * flops_per_token / hw.peak_flops, rel=1e-9)
    else:
        assert breakdown.prefill_memory_s == breakdown.prefill_s == 0.0
    sides = {"prefill": (breakdown.prefill_s, breakdown.prefill_memory_s),
             "decode": (breakdown.decode_compute_s, breakdown.decode_s)}
    for phase, (compute_s, memory_s) in sides.items():
        larger = COMPUTE_BOUND if compute_s >= memory_s else MEMORY_BOUND  # a tie computes
        assert getattr(breakdown, f"{phase}_bound") == larger, phase


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


class TestReadmeFusedModel:
    """The README pipeline's fused model (synth seed 11, layer 5 fused into
    layer 4 with K = M = 1): three dense layers and one MoE layer of two
    experts."""

    SHAPE = ModelShape(num_layers=5, hidden_dim=16, mlp_dim=32, num_heads=2,
                       num_kv_heads=1, head_dim=8, vocab_size=32)
    PLAN = FusionPlan(keep_layers=(1, 2, 3, 4), prune_layers=frozenset({5}),
                      blocks=(FusionBlock(base=4, redundant=(5,)),))

    def fused(self, top_k):
        dense = build_toy_container(self.SHAPE, seed=11, duplicate_from=[(4, 1)])
        return dense, fused_model(dense, self.PLAN, base_copies=1, supp_copies=1, top_k=top_k)[0]

    def test_top1_counts(self):
        _, fused = self.fused(top_k=1)
        assert fused.shape.experts == {4: 2}
        assert static_memory(fused.shape)[0] == param_count(fused) == 11504
        # all but expert 2's GLU triple
        assert active_params(fused.shape) == 11504 - 3 * 16 * 32 == 9968

    def test_top2_prefill_sums_three_dense_layers_and_one_moe_layer(self):
        _, fused = self.fused(top_k=2)
        # S_in * d^2 * (4 + 4/gqa + 6r) per layer, r = 2 dense and 4 at top-2
        dense_layer, moe_layer = 1000 * 16 ** 2 * 18, 1000 * 16 ** 2 * 30
        prefill = prefill_latency(fused.shape, THOR_U, DEFAULT_WORKLOAD)
        assert prefill == (3 * dense_layer + moe_layer) / THOR_U.peak_flops
        assert prefill == pytest.approx(6.144e-08, rel=1e-12)

    def test_top1_latency_equals_the_plan_pruned_dense_model(self):
        dense, fused = self.fused(top_k=1)
        pruned = reference_pruned_model(dense, self.PLAN)
        assert total_latency(fused.shape, THOR_U, DEFAULT_WORKLOAD) == \
            total_latency(pruned.shape, THOR_U, DEFAULT_WORKLOAD)
