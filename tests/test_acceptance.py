"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else; the expected numbers come from
independent hand/oracle computations, published tables, or pinned first-run
regressions, never from the code under test.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import d2m.nanomodel as nano
from d2m.config import (
    DEFAULT_WORKLOAD,
    FusionBlock,
    FusionPlan,
    ModelShape,
    MoEShape,
    QWEN25_0_5B,
    SearchThresholds,
    THOR_U,
    validate_plan,
)
from d2m.costmodel import active_params, decode_latency, prefill_latency, static_memory, total_latency
from d2m.diagnostics import LayerLoadProfile, wta_metrics
from d2m.errors import BadMagic, DimensionMismatch, MissingTensor, TruncatedPayload, VerificationFailure
from d2m.nanomodel import (
    build_toy_container,
    grad_check,
    load_profiles,
    make_copy_stream,
    train_toy,
)
from d2m.search import search, threshold_sweep
from d2m.similarity import build_matrices, norm_mismatch, seq_avg_cosine
from d2m.surgery import functional_equivalence_check
from d2m.traceio import (
    make_trace,
    param_count,
    read_trace,
    read_weights,
    synth_trace,
    validate_container,
    write_trace,
    write_weights,
)
from d2m.tradeoff import CandidateEvaluation, calibrate_w, evaluate_candidates

from test_nanomodel import toy_moe_layer
from test_search import random_matrices, reference_search
from test_surgery import ULP, fused_files, fused_model


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] C{criterion:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def test_c01_reward_reproduction():
    table = [("L13", 13, 135.78, 29.85), ("L15", 15, 148.84, 39.06),
             ("L17", 17, 161.89, 42.76), ("L19", 19, 174.95, 47.31),
             ("L21", 21, 188.00, 47.50), ("L23", 23, 201.05, 47.93)]
    expected = [31.54, 40.70, 44.00, 48.12, 47.79, 47.74]
    candidates = [CandidateEvaluation(cid, d, lat, s) for cid, d, lat, s in table]
    evaluated, best = evaluate_candidates(candidates, 195.87, -0.15)
    ok = all(abs(c.reward - e) <= 0.02 for c, e in zip(evaluated, expected))
    ok = ok and best.retained_depth == 19
    report(1, ok, f"rewards {[round(c.reward, 2) for c in evaluated]}, argmax {best.config_id}")
    assert ok


def test_c02_calibration():
    w = calibrate_w(2, 1.11)
    ok = -0.1516 <= w <= -0.1496
    report(2, ok, f"calibrate_w(2, 1.11) = {w:.6f}")
    assert ok


def every_layer(num_layers, num_experts):
    """The expert map of a model whose every layer is MoE(num_experts)."""
    return dict.fromkeys(range(1, num_layers + 1), num_experts)


def test_c03_memory_formula():
    moe6 = replace(QWEN25_0_5B, num_layers=19,
                   moe=MoEShape(every_layer(19, 6), top_k=1))
    moe10 = replace(moe6, moe=MoEShape(every_layer(19, 10), top_k=1))
    params6, bytes6 = static_memory(moe6)
    _, bytes10 = static_memory(moe10)
    active6 = active_params(moe6)
    active_dense = active_params(QWEN25_0_5B)
    checks = [
        abs(params6 - 1.66e9) / 1.66e9 <= 0.006,
        abs(bytes6 / 1e9 - 3.32) <= 0.01,
        abs(bytes10 / 1e9 - 5.31) <= 0.01,
        abs(active6 - 0.42e9) <= 0.01e9,
        abs(active_dense - 0.50e9) <= 0.01e9,
    ]
    report(3, all(checks),
           f"params {params6/1e9:.4f}B, {bytes6/1e9:.4f}/{bytes10/1e9:.4f} GB, "
           f"active {active6/1e9:.4f}/{active_dense/1e9:.4f}B")
    assert all(checks)


def test_c04_roofline_fidelity():
    # independent exact-rational evaluation of both phase formulas
    r = Fraction(4864, 896)
    xi_f = 4 + Fraction(4, 7) + 6 * r
    hand_prefill = Fraction(24) * 1000 * 896 ** 2 * xi_f / Fraction(int(350e12))
    xi_w = 2 + Fraction(2, 7) + 3 * r
    s_bar = 1000 + Fraction(51, 2)
    per_step = xi_w * 896 ** 2 * 2 + 2 * s_bar * 896 * 2 / Fraction(7)
    hand_decode = Fraction(24) * 50 * per_step / Fraction(int(273e9))

    prefill = prefill_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
    decode = decode_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
    checks = [
        abs(prefill - float(hand_prefill)) / float(hand_prefill) < 0.005,
        abs(decode - float(hand_decode)) / float(hand_decode) < 0.005,
        abs(prefill - 2.05e-3) / 2.05e-3 < 0.005,
        abs(decode - 133.4e-3) / 133.4e-3 < 0.005,
    ]

    # exactly affine in depth with zero intercept
    per_layer = total_latency(replace(QWEN25_0_5B, num_layers=1), THOR_U, DEFAULT_WORKLOAD)
    for layers in (3, 19, 24):
        shape = replace(QWEN25_0_5B, num_layers=layers)
        got = total_latency(shape, THOR_U, DEFAULT_WORKLOAD).total_s
        checks.append(abs(got - layers * per_layer.total_s) <= 1e-12 * got)

    # bit-identical across expert counts at top-1
    def moe_total(n):
        shape = replace(QWEN25_0_5B, num_layers=19,
                        moe=MoEShape(every_layer(19, n), top_k=1))
        b = total_latency(shape, THOR_U, DEFAULT_WORKLOAD)
        return (b.prefill_s, b.decode_s)

    baseline = moe_total(2)
    checks.append(all(moe_total(n) == baseline for n in (6, 10, 60)))

    pruned = total_latency(replace(QWEN25_0_5B, num_layers=19), THOR_U, DEFAULT_WORKLOAD)
    full = total_latency(QWEN25_0_5B, THOR_U, DEFAULT_WORKLOAD)
    checks.append(pruned.total_s < full.total_s)

    report(4, all(checks),
           f"prefill {prefill*1e3:.4f} ms, decode {decode*1e3:.4f} ms, affine+invariant ok")
    assert all(checks)


def test_c05_search_correctness():
    rng = np.random.default_rng(505)
    mismatches = 0
    for trial in range(200):
        num_layers = int(rng.integers(2, 11))
        mats = random_matrices(rng, num_layers, quantize=trial % 5 == 0)
        delta = float(rng.uniform(0.05, 0.5))
        epsilon = float(rng.uniform(0.02, 0.3))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        plan = search(mats, SearchThresholds(cos_threshold=delta, norm_tolerance=epsilon,
                                             score_penalty=lam))
        validate_plan(plan, num_layers)
        kept, pruned, mapping = reference_search(
            mats.s_out.tolist(), mats.s_mlp.tolist(), mats.delta_norm.tolist(),
            delta, epsilon, lam, (1, 2, 3))
        if (list(plan.keep_layers) != kept or sorted(plan.prune_layers) != pruned
                or {b.base: list(b.redundant) for b in plan.blocks} != mapping):
            mismatches += 1

    # monotone sweep on both bundled fixtures
    monotone = True
    fixtures = [
        synth_trace(8, 32, 16, [(2, 1, 0.01), (5, 1, 0.05), (5, 2, 0.03)], seed=13),
        synth_trace(24, 128, 64,
                    [(5, 1, 0.04), (10, 1, 0.02), (10, 2, 0.01),
                     (17, 1, 0.006), (17, 2, 0.003), (17, 3, 0.0015)], seed=40),
    ]
    deltas = [1e-5, 1e-4, 5e-4, 2e-3, 1e-2]
    epsilons = [1e-4, 1e-3, 5e-3, 2e-2, 1e-1]
    for trace in fixtures:
        cells = threshold_sweep(build_matrices(trace), deltas, epsilons)
        grid = {(c.cos_threshold, c.norm_tolerance): c.pruned_count for c in cells}
        for d_lo, d_hi in zip(deltas, deltas[1:]):
            for e in epsilons:
                monotone &= grid[(d_lo, e)] <= grid[(d_hi, e)]
        for e_lo, e_hi in zip(epsilons, epsilons[1:]):
            for d in deltas:
                monotone &= grid[(d, e_lo)] <= grid[(d, e_hi)]

    ok = mismatches == 0 and monotone
    report(5, ok, f"{mismatches}/200 reference mismatches, sweep monotone={monotone}")
    assert ok


def test_c06_similarity_oracle():
    def loop_cosine(a, b):
        total = 0.0
        for t in range(a.shape[0]):
            dot = sum(float(a[t, i]) * float(b[t, i]) for i in range(a.shape[1]))
            na = math.sqrt(sum(float(v) ** 2 for v in a[t]))
            nb = math.sqrt(sum(float(v) ** 2 for v in b[t]))
            total += dot / (na * nb)
        return total / a.shape[0]

    def loop_mismatch(a, b):
        total = 0.0
        for t in range(a.shape[0]):
            na = math.sqrt(sum(float(v) ** 2 for v in a[t]))
            nb = math.sqrt(sum(float(v) ** 2 for v in b[t]))
            total += abs(na - nb) / nb
        return total / a.shape[0]

    worst = 0.0
    rng = np.random.default_rng(606)
    for trial in range(50):
        num_layers = int(rng.integers(2, 5))
        trace = synth_trace(num_layers, int(rng.integers(2, 6)), int(rng.integers(2, 8)),
                            seed=3000 + trial)
        mats = build_matrices(trace)
        for i in range(num_layers):
            for j in range(i + 1, num_layers):
                worst = max(worst, abs(mats.s_out[i, j]
                                       - loop_cosine(trace.layer_outputs[i], trace.layer_outputs[j])))
                worst = max(worst, abs(mats.s_mlp[i, j]
                                       - loop_cosine(trace.mlp_inputs[i], trace.mlp_inputs[j])))
                worst = max(worst, abs(mats.delta_norm[i, j]
                                       - loop_mismatch(trace.mlp_inputs[i], trace.mlp_inputs[j])))

    dup = synth_trace(3, 6, 8, [(1, 1, 0.0)], seed=7)
    dup_mats = build_matrices(dup)
    a = np.random.default_rng(8).standard_normal((5, 4))
    identities = [
        abs(dup_mats.s_out[0, 1] - 1.0) <= 1e-12,
        abs(dup_mats.s_mlp[0, 1] - 1.0) <= 1e-12,
        dup_mats.delta_norm[0, 1] == 0.0,
        norm_mismatch(2 * a, a) == pytest.approx(1.0, abs=1e-12),
        norm_mismatch(a, 2 * a) == pytest.approx(0.5, abs=1e-12),
        seq_avg_cosine(a, a) == pytest.approx(1.0, abs=1e-12),
    ]
    ok = worst <= 1e-9 and all(identities)
    report(6, ok, f"worst oracle deviation {worst:.2e}, identities {all(identities)}")
    assert ok


ACCEPT_SHAPE = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                          num_kv_heads=1, head_dim=8, vocab_size=32)


def test_c07_fusion_equivalence(tmp_path):
    plan = FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                      blocks=(FusionBlock(base=2, redundant=(3,)),))
    worst = 0.0
    for seed in range(20):
        dense = build_toy_container(ACCEPT_SHAPE, seed=seed, weight_scale=0.3,
                                    duplicate_from=[(2, 1)])
        # fuse runs verify_fusion on the file it writes
        fused, _ = fused_model(dense, plan, base_copies=2, supp_copies=2, top_k=1)
        probe = np.random.default_rng(7000 + seed).standard_normal((5, 16))
        worst = max(worst, functional_equivalence_check(dense, fused, plan, probe))

    # every single-tensor tampering, one ulp in the fused file, must trip the
    # verifier
    dense = build_toy_container(ACCEPT_SHAPE, seed=99, weight_scale=0.3)
    undetected = []
    with fused_files(tmp_path, dense, plan, base_copies=2, supp_copies=2, top_k=1) as f:
        for name in f.fused.tensors:
            f.flip(name, 0, ULP)
            try:
                f.verify(plan)
                undetected.append(name)
            except VerificationFailure:
                pass
            f.flip(name, 0, ULP)
    fused = read_weights(f.path)

    # exact parameter accounting against tensor-size sums
    attn = sum(dense.tensors[n].size for n in
               ("layer.3.attn.q", "layer.3.attn.k", "layer.3.attn.v", "layer.3.attn.o",
                "layer.3.attn.q_norm", "layer.3.attn.k_norm"))
    norms = dense.tensors["layer.3.attn_norm"].size + dense.tensors["layer.3.mlp_norm"].size
    mlp_params = sum(dense.tensors[f"layer.3.mlp.{p}"].size for p in ("up", "gate", "down"))
    n_experts = 2 + 1 * 2
    expected = (param_count(dense) - attn - norms
                + (n_experts - 1 - 1) * mlp_params + n_experts * 16)
    accounting = param_count(fused) == expected

    ok = worst < 1e-12 and not undetected and accounting
    report(7, ok, f"max deviation {worst:.2e}, undetected tampering {undetected}, "
                  f"accounting {accounting}")
    assert ok


def test_c08_gradient_correctness():
    worst = 0.0
    for seed in range(10):
        top_k = 1 if seed % 2 == 0 else 2
        layer = toy_moe_layer(8, 16, 3 + seed % 3, seed=800 + seed, top_k=top_k)
        x = np.random.default_rng(900 + seed).standard_normal((5, 8))
        worst = max(worst, grad_check(layer, x, step=1e-5))

    # a never-selected expert gets an exactly zero output-loss gradient
    layer = toy_moe_layer(8, 16, 3, seed=42, top_k=1)
    layer.router[:, 2] = layer.router[:, 0]  # ties resolve away from expert 3
    x = np.random.default_rng(43).standard_normal((6, 8))
    h = nano.pre_mlp_state(layer, x)
    y, record, cache = nano._moe_from_h(layer, h)
    grads = nano.moe_param_grads(layer, h, record, cache, (2.0 / y.size) * y, lb_alpha=0.0)
    zero_ok = (2 not in set(record.selected.ravel())
               and all(np.array_equal(g, np.zeros_like(g)) for g in grads.experts[2]))

    ok = worst < 1e-6 and zero_ok
    report(8, ok, f"max relative gradient error {worst:.2e}, conditional-zero {zero_ok}")
    assert ok


def test_c09_routing_health():
    plan = FusionPlan(keep_layers=(1, 2, 3), prune_layers=frozenset({4}),
                      blocks=(FusionBlock(base=3, redundant=(4,)),))
    dense = build_toy_container(ACCEPT_SHAPE, seed=11, weight_scale=0.3)
    fused, _ = fused_model(dense, plan, base_copies=2, supp_copies=2, top_k=1)
    data = make_copy_stream(32, seq_len=64, num_sequences=4, seed=23)

    log_lb, trained_lb = train_toy(fused, data, steps=500, lr=5.0, alpha=1e-3)
    log_0, trained_0 = train_toy(fused, data, steps=500, lr=5.0, alpha=0.0)

    finite = all(math.isfinite(s.task_loss) and math.isfinite(s.lb_loss)
                 for s in log_lb.steps + log_0.steps)
    min_load = min(log_lb.steps[-1].loads)

    def mean_top(container):
        return wta_metrics(load_profiles(container, data), 4).mean_top_load

    top_lb = mean_top(trained_lb)
    top_0 = mean_top(trained_0)

    # published-table identity and analytic bounds
    profiles = [LayerLoadProfile(layer=i + 1, loads=(0.48, 0.2, 0.12, 0.1, 0.06, 0.04))
                for i in range(19)]
    summary = wta_metrics(profiles, 6)
    identity = abs(summary.mean_top_load * 6 - 2.88) <= 1e-12 and \
        abs(summary.mean_top_uniform_ratio - 2.88) <= 1e-12
    rng = np.random.default_rng(909)
    bounds = True
    for _ in range(100):
        loads = rng.dirichlet(np.ones(6))
        s = wta_metrics([LayerLoadProfile(1, tuple(loads))], 6)
        bounds &= 0.0 <= s.mean_entropy <= math.log(6) + 1e-12

    checks = [finite, min_load >= 0.02, top_lb < top_0, identity, bounds]
    report(9, all(checks),
           f"finite={finite}, final min load {min_load:.4f}, "
           f"mean top load {top_lb:.4f} (balanced) vs {top_0:.4f} (unregularized), "
           f"ratio identity {identity}, entropy bounds {bounds}")
    assert all(checks)


def test_c10_format_round_trips(tmp_path):
    rng = np.random.default_rng(1010)
    trace_path, weights_path = tmp_path / "t.d2mt", tmp_path / "m.d2mw"
    for _ in range(100):
        num_layers = int(rng.integers(1, 4))
        seq_len = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 8))
        mats = [rng.standard_normal((seq_len, hidden)).astype(np.float32).astype(np.float64)
                for _ in range(2 * num_layers)]
        trace = make_trace(mats[:num_layers], mats[num_layers:])
        write_trace(trace, trace_path)
        back = read_trace(trace_path)
        assert np.array_equal(back.mlp_inputs, trace.mlp_inputs)
        assert np.array_equal(back.layer_outputs, trace.layer_outputs)

    shape = ModelShape(num_layers=2, hidden_dim=8, mlp_dim=12, num_heads=2,
                       num_kv_heads=1, head_dim=4, vocab_size=16,
                       moe=MoEShape({2: 3}, top_k=1))
    for seed in range(100):
        container = build_toy_container(shape if seed % 2 else replace(shape, moe=None),
                                        seed=seed)
        write_weights(container, weights_path)
        back = read_weights(weights_path)
        assert list(back.tensors) == list(container.tensors)
        for name in container.tensors:
            assert np.array_equal(container.tensors[name], back.tensors[name])

    # error taxonomy
    trace_path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_trace(trace_path)
    write_trace(synth_trace(1, 2, 2, seed=0), trace_path)
    trace_path.write_bytes(trace_path.read_bytes()[:-3])
    with pytest.raises(TruncatedPayload):
        read_trace(trace_path)
    container = build_toy_container(replace(shape, moe=None), seed=0)
    del container.tensors["layer.1.mlp.down"]
    with pytest.raises(MissingTensor):
        validate_container(container)
    container = build_toy_container(replace(shape, moe=None), seed=0)
    container.tensors["layer.1.mlp.up"] = np.zeros((2, 2))
    with pytest.raises(DimensionMismatch):
        validate_container(container)

    report(10, True, "100+100 bit-exact round trips, error taxonomy exercised")
