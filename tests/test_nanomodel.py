"""Toy transformer: forward passes against straight-line scalar oracles,
routing behaviour, the balancing loss, gradient checks, and the toy trainer."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import d2m.nanomodel as nano
from d2m.config import ModelShape, MoEShape, FusionPlan, FusionBlock
from d2m.diagnostics import TrainLog, TrainStep, train_log_from_csv
from d2m.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidConfig,
    NonFiniteActivation,
    NonFiniteGradient,
    OutOfRange,
    UnsupportedTopology,
)
from d2m.nanomodel import (
    GluMlp,
    MoELayer,
    RMS_EPS,
    RoutingRecord,
    build_toy_container,
    forward_trace,
    grad_check,
    layer_forward,
    layers_of,
    load_balance_loss,
    make_copy_stream,
    mlp_apply,
    moe_param_grads,
    route,
    toy_tensors,
    train_toy,
)
from d2m.traceio import read_trace, write_trace

from test_surgery import fused_model

TOY = ModelShape(num_layers=1, hidden_dim=4, mlp_dim=6, num_heads=2, num_kv_heads=1,
                 head_dim=2, vocab_size=8)


def toy_moe_layer(hidden_dim, mlp_dim, n_experts, seed, top_k=1):
    """The MoE layer of a seeded one-layer toy model: two query heads over one
    key/value head, weights drawn at scale 0.5. The layer's arrays are the
    container's tensors, so editing them in place edits the model."""
    shape = ModelShape(num_layers=1, hidden_dim=hidden_dim, mlp_dim=mlp_dim, num_heads=2,
                       num_kv_heads=1, head_dim=hidden_dim // 2, vocab_size=8,
                       moe=MoEShape({1: n_experts}, top_k=top_k))
    return layers_of(build_toy_container(shape, seed, weight_scale=0.5))[0]


def scalar_rms(row, scale):
    ms = sum(v * v for v in row) / len(row)
    return [v / math.sqrt(ms + RMS_EPS) * s for v, s in zip(row, scale)]


def scalar_matvec(row, mat):
    return [sum(row[j] * mat[j][c] for j in range(len(row))) for c in range(len(mat[0]))]


def scalar_glu(mlp, row):
    u = scalar_matvec(row, mlp.up.tolist())
    v = scalar_matvec(row, mlp.gate.tolist())
    act = [ui / (1 + math.exp(-ui)) * vi for ui, vi in zip(u, v)]
    return scalar_matvec(act, mlp.down.tolist())


def scalar_dense_layer(layer, x):
    """Loop-only re-statement of one decoder layer: h = x + attn(norm(x)),
    y = h + glu(norm(h))."""
    attn = layer.attn
    seq_len, dim = x.shape
    group = attn.n_heads // attn.n_kv_heads
    z = [scalar_rms(list(x[t]), attn.norm.tolist()) for t in range(seq_len)]
    q = [scalar_matvec(z[t], attn.q.tolist()) for t in range(seq_len)]
    k = [scalar_matvec(z[t], attn.k.tolist()) for t in range(seq_len)]
    v = [scalar_matvec(z[t], attn.v.tolist()) for t in range(seq_len)]

    def head_slice(flat, head, width):
        return flat[head * width:(head + 1) * width]

    h_state = []
    for t in range(seq_len):
        concat = []
        for head in range(attn.n_heads):
            qh = scalar_rms(head_slice(q[t], head, attn.head_dim), attn.q_norm.tolist())
            scores = []
            for s in range(t + 1):
                kh = scalar_rms(head_slice(k[s], head // group, attn.head_dim),
                                attn.k_norm.tolist())
                scores.append(sum(a * b for a, b in zip(qh, kh)) / math.sqrt(attn.head_dim))
            peak = max(scores)
            weights = [math.exp(sc - peak) for sc in scores]
            total = sum(weights)
            weights = [w / total for w in weights]
            ctx = [0.0] * attn.head_dim
            for s in range(t + 1):
                vh = head_slice(v[s], head // group, attn.head_dim)
                for i in range(attn.head_dim):
                    ctx[i] += weights[s] * vh[i]
            concat.extend(ctx)
        out = scalar_matvec(concat, attn.o.tolist())
        h_state.append([x[t, i] + out[i] for i in range(dim)])

    y_state = []
    for t in range(seq_len):
        normed = scalar_rms(h_state[t], layer.mlp_norm.tolist())
        delta = scalar_glu(layer.mlp, normed)
        y_state.append([h_state[t][i] + delta[i] for i in range(dim)])
    return np.array(h_state), np.array(y_state)


class TestSinusoidPositions:
    @given(seq_len=st.integers(1, 16), dim=st.integers(1, 40))
    def test_each_column_is_its_closed_form(self, seq_len, dim):
        enc = nano.sinusoid_positions(seq_len, dim)
        assert enc.shape == (seq_len, dim)
        for t in range(seq_len):
            for c in range(dim):
                wave = math.sin if c % 2 == 0 else math.cos
                expected = nano.POSITION_SCALE * wave(t / 10000.0 ** (2 * (c // 2) / dim))
                assert enc[t, c] == pytest.approx(expected, rel=1e-12, abs=1e-15), (t, c)


class TestMlpApply:
    def test_zero_input(self):
        mlp = GluMlp(*(np.random.default_rng(0).standard_normal(s)
                       for s in [(4, 6), (4, 6), (6, 4)]))
        assert np.array_equal(mlp_apply(mlp, np.zeros((3, 4))), np.zeros((3, 4)))

    def test_zero_down_projection(self):
        rng = np.random.default_rng(1)
        mlp = GluMlp(rng.standard_normal((4, 6)), rng.standard_normal((4, 6)),
                     np.zeros((6, 4)))
        assert np.array_equal(mlp_apply(mlp, rng.standard_normal((5, 4))), np.zeros((5, 4)))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        mlp = GluMlp(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)),
                     rng.standard_normal((5, 3)))
        x = rng.standard_normal((2, 3))
        expected = np.array([scalar_glu(mlp, list(row)) for row in x])
        np.testing.assert_allclose(mlp_apply(mlp, x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        mlp = GluMlp(np.zeros((4, 6)), np.zeros((4, 6)), np.zeros((6, 4)))
        with pytest.raises(DimensionMismatch):
            mlp_apply(mlp, np.zeros((2, 5)))

    @pytest.mark.parametrize("gate, down", [((4, 5), (6, 4)), ((4, 6), (6, 3)),
                                            ((4, 6), (4, 6))],
                             ids=["gate", "down-width", "down-transposed"])
    def test_inconsistent_glu_triple(self, gate, down):
        mlp = GluMlp(np.zeros((4, 6)), np.zeros(gate), np.zeros(down))
        message = f"inconsistent GLU triple: up (4, 6), gate {gate}, down {down}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            mlp_apply(mlp, np.zeros((2, 4)))


class TestToyTensors:
    SHAPE = ModelShape(num_layers=4, hidden_dim=8, mlp_dim=12, num_heads=2, num_kv_heads=1,
                       head_dim=4, vocab_size=8, moe=MoEShape({2: 3, 3: 3}, top_k=1))

    @pytest.mark.parametrize("copies, message", [
        ([(1, 1)], "layer 2 cannot hold a copy of layer 1: their expert counts differ"),
        ([(2, 2)], "layer 4 cannot hold a copy of layer 2: their expert counts differ"),
        # layer 3 ends up holding drawn layer 1, a dense one
        ([(2, 1), (1, 2)], "layer 3 cannot hold a copy of layer 1: their expert counts differ"),
    ], ids=["dense-onto-moe", "moe-onto-dense", "chained"])
    def test_a_copy_between_unlike_layers_is_refused_before_any_draw(self, copies, message):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            toy_tensors(self.SHAPE, seed=0, duplicate_from=copies)

    def test_a_copy_between_like_moe_layers_holds_the_drawn_base(self):
        container = build_toy_container(self.SHAPE, seed=0, duplicate_from=[(2, 1)])
        for name, tensor in container.tensors.items():
            if name.startswith("layer.3."):
                base = container.tensors[name.replace("layer.3.", "layer.2.", 1)]
                assert tensor.tobytes() == base.tobytes(), name


class TestDenseForward:
    def test_residual_passthrough_with_zero_projections(self):
        container = build_toy_container(
            ModelShape(num_layers=3, hidden_dim=8, mlp_dim=12, num_heads=2,
                       num_kv_heads=1, head_dim=4, vocab_size=8), seed=2)
        for l in range(1, 4):
            container.tensors[f"layer.{l}.attn.o"][:] = 0.0
            container.tensors[f"layer.{l}.mlp.down"][:] = 0.0
        x = np.random.default_rng(3).standard_normal((5, 8))
        _, trace, _ = forward_trace(container, x)
        for y in trace.layer_outputs:
            np.testing.assert_allclose(y, x, atol=0)

    def test_single_layer_matches_scalar_oracle(self):
        container = build_toy_container(TOY, seed=7, weight_scale=0.4)
        layer = layers_of(container)[0]
        x = np.random.default_rng(11).standard_normal((3, 4))
        final, trace, _ = forward_trace(container, x)
        h_ref, y_ref = scalar_dense_layer(layer, x)
        np.testing.assert_allclose(trace.mlp_inputs[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(trace.layer_outputs[0], y_ref, atol=1e-12)
        np.testing.assert_allclose(final, y_ref, atol=1e-12)

    def test_trace_round_trips(self, tmp_path):
        container = build_toy_container(TOY, seed=8)
        x = np.random.default_rng(4).standard_normal((4, 4))
        _, trace, _ = forward_trace(container, x)
        path = tmp_path / "t.d2mt"
        write_trace(trace, path)
        back = read_trace(path)
        np.testing.assert_allclose(back.layer_outputs[0], trace.layer_outputs[0],
                                   atol=1e-6)

    @given(width=st.integers(0, 9).filter(lambda w: w != TOY.hidden_dim))
    def test_wrong_input_width_rejected(self, width):
        container = build_toy_container(TOY, seed=9)
        with pytest.raises(DimensionMismatch, match=re.escape(f"expected (T, {TOY.hidden_dim})")):
            forward_trace(container, np.zeros((2, width)))

    def test_non_finite_input_rejected(self):
        container = build_toy_container(TOY, seed=9)
        x = np.zeros((2, 4))
        x[0, 0] = np.inf
        with pytest.raises(NonFiniteActivation):
            forward_trace(container, x)


class TestLayerForward:
    @pytest.mark.parametrize("moe", [None, MoEShape({2: 3}, top_k=2)], ids=["dense", "moe"])
    def test_non_finite_output_rejected_naming_the_layer(self, moe):
        shape = ModelShape(num_layers=3, hidden_dim=8, mlp_dim=12, num_heads=2,
                           num_kv_heads=1, head_dim=4, vocab_size=8, moe=moe)
        container = build_toy_container(shape, seed=3, weight_scale=0.3)
        for name, tensor in container.tensors.items():
            if name.startswith("layer.2.") and name.endswith("down"):
                tensor[:] = np.inf
        x = np.random.default_rng(4).standard_normal((5, 8))
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteActivation, match="non-finite"):
                layer_forward(layers_of(container)[1], x)
            with pytest.raises(NonFiniteActivation, match="^layer 2: "):
                forward_trace(container, x)

    def test_non_finite_attention_rejected_before_the_mlp(self):
        layer = toy_moe_layer(8, 12, 3, seed=10)
        layer.attn.o[0, 0] = np.inf
        x = np.random.default_rng(5).standard_normal((4, 8))
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteActivation,
                               match="^attention produced non-finite values$"):
                layer_forward(layer, x)


class TestRoute:
    @given(n_experts=st.integers(1, 5), top_k=st.integers(-2, 8))
    def test_top_k_outside_the_pool_rejected(self, n_experts, top_k):
        assume(not 1 <= top_k <= n_experts)
        with pytest.raises(OutOfRange, match=f"^top_k {top_k} outside 1..{n_experts}$"):
            route(np.zeros((4, n_experts)), np.ones((3, 4)), top_k)

    def test_zero_router_uniform(self):
        h = np.random.default_rng(5).standard_normal((6, 4))
        record = route(np.zeros((4, 5)), h, top_k=2)
        np.testing.assert_allclose(record.probabilities, 0.2, atol=1e-15)

    def test_full_top_k_gates_sum_to_one(self):
        rng = np.random.default_rng(6)
        record = route(rng.standard_normal((4, 5)), rng.standard_normal((7, 4)), top_k=5)
        np.testing.assert_allclose(record.gates.sum(axis=1), 1.0, atol=1e-9)
        assert sorted(record.selected[0]) == [0, 1, 2, 3, 4]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        record = route(rng.standard_normal((5, 7)), rng.standard_normal((11, 5)), top_k=3)
        np.testing.assert_allclose(record.probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert record.selected.shape == (11, 3)


class TestMoeForward:
    def identical_expert_layer(self, top_k, n_experts=3, seed=20):
        layer = toy_moe_layer(8, 12, n_experts, seed=seed, top_k=top_k)
        clone = layer.experts[0]
        experts = tuple(GluMlp(clone.up.copy(), clone.gate.copy(), clone.down.copy())
                        for _ in range(n_experts))
        return MoELayer(attn=layer.attn, mlp_norm=layer.mlp_norm, experts=experts,
                        router=layer.router, top_k=top_k)

    def test_identical_experts_full_k_equals_dense(self):
        layer = self.identical_expert_layer(top_k=3)
        x = np.random.default_rng(21).standard_normal((5, 8))
        _, y, _ = layer_forward(layer, x)
        from d2m.nanomodel import DenseLayer

        dense = DenseLayer(attn=layer.attn, mlp_norm=layer.mlp_norm, mlp=layer.experts[0])
        _, y_ref, _ = layer_forward(dense, x)
        np.testing.assert_allclose(y, y_ref, atol=1e-12)

    def test_forced_expert_copy_semantics(self):
        layer = toy_moe_layer(8, 12, 4, seed=22, top_k=1)
        x = np.random.default_rng(23).standard_normal((6, 8))
        # a view of the layer holding only expert 3 routes every token there
        # with gate one
        one = MoELayer(attn=layer.attn, mlp_norm=layer.mlp_norm, experts=(layer.experts[2],),
                       router=layer.router[:, 2:3], top_k=1)
        _, y, record = layer_forward(one, x)
        h = nano.pre_mlp_state(layer, x)
        expected = h + mlp_apply(layer.experts[2], nano.rms_norm(h, layer.mlp_norm))
        np.testing.assert_allclose(y, expected, atol=0)
        assert np.all(record.selected == 0)
        assert np.all(record.gates == 1.0)

    def test_top1_matches_scalar_loop_oracle(self):
        layer = toy_moe_layer(6, 9, 4, seed=24, top_k=1)
        x = np.random.default_rng(25).standard_normal((5, 6))
        _, y, record = layer_forward(layer, x)
        h = nano.pre_mlp_state(layer, x)
        for t in range(5):
            logits = scalar_matvec(list(h[t]), layer.router.tolist())
            peak = max(logits)
            exps = [math.exp(v - peak) for v in logits]
            probs = [e / sum(exps) for e in exps]
            winner = probs.index(max(probs))
            z = scalar_rms(list(h[t]), layer.mlp_norm.tolist())
            delta = scalar_glu(layer.experts[winner], z)
            expected = [h[t, i] + probs[winner] * delta[i] for i in range(6)]
            np.testing.assert_allclose(y[t], expected, atol=1e-12)
            assert record.selected[t, 0] == winner

    def test_top1_touches_one_expert_per_token(self, monkeypatch):
        layer = toy_moe_layer(8, 12, 4, seed=26, top_k=1)
        x = np.random.default_rng(27).standard_normal((16, 8))
        calls = []
        real = nano._glu

        def counting(mlp, rows):
            calls.append(rows.shape[0])
            return real(mlp, rows)

        monkeypatch.setattr(nano, "_glu", counting)
        _, _, record = layer_forward(layer, x)
        assert sum(calls) == 16
        assert len(calls) == len(np.unique(record.selected))

    def test_expert_permutation_symmetry(self):
        layer = toy_moe_layer(8, 12, 4, seed=28, top_k=2)
        x = np.random.default_rng(29).standard_normal((7, 8))
        _, y, _ = layer_forward(layer, x)
        perm = [2, 0, 3, 1]
        permuted = MoELayer(
            attn=layer.attn, mlp_norm=layer.mlp_norm,
            experts=tuple(layer.experts[p] for p in perm),
            router=layer.router[:, perm], top_k=2)
        _, y_perm, _ = layer_forward(permuted, x)
        np.testing.assert_allclose(y_perm, y, atol=1e-12)


class TestLoadBalanceLoss:
    def uniform_record(self, n_experts, tokens):
        probs = np.full((tokens, n_experts), 1.0 / n_experts)
        # spread hard assignments evenly so f_i = 1/N as well
        probs[np.arange(tokens), np.arange(tokens) % n_experts] += 1e-9
        probs /= probs.sum(axis=1, keepdims=True)
        selected = np.argmax(probs, axis=1)[:, None]
        return RoutingRecord(probs, selected, np.take_along_axis(probs, selected, 1))

    def test_uniform_routing_gives_alpha(self):
        record = self.uniform_record(4, 8)
        assert load_balance_loss(record) == pytest.approx(1.0, rel=1e-6)

    def test_collapse_gives_alpha_times_n(self):
        probs = np.zeros((6, 4))
        probs[:, 2] = 1.0
        record = RoutingRecord(probs, np.full((6, 1), 2), np.ones((6, 1)))
        assert load_balance_loss(record) == pytest.approx(4.0, abs=1e-12)

    def test_matches_hand_double_sum(self):
        rng = np.random.default_rng(30)
        probs = rng.dirichlet(np.ones(4), size=8)
        selected = np.argmax(probs, axis=1)[:, None]
        record = RoutingRecord(probs, selected, np.take_along_axis(probs, selected, 1))
        by_hand = 0.0
        for i in range(4):
            f_i = sum(1 for t in range(8) if np.argmax(probs[t]) == i) / 8
            p_i = sum(probs[t, i] for t in range(8)) / 8
            by_hand += f_i * p_i
        by_hand *= 4
        assert load_balance_loss(record) == pytest.approx(by_hand, abs=1e-15)


class TestGradCheck:
    def test_reference_layer_under_tolerance(self):
        layer = toy_moe_layer(8, 16, 3, seed=5, top_k=1)
        x = np.random.default_rng(0).standard_normal((5, 8))
        assert grad_check(layer, x) < 1e-6

    def test_top2_layer_under_tolerance(self):
        layer = toy_moe_layer(8, 12, 4, seed=6, top_k=2)
        x = np.random.default_rng(1).standard_normal((4, 8))
        assert grad_check(layer, x) < 1e-6

    def test_zero_input_zero_router_balance_gradient_vanishes(self):
        layer = toy_moe_layer(8, 12, 3, seed=7, top_k=1)
        layer.router[:] = 0.0
        x = np.zeros((5, 8))
        h = nano.pre_mlp_state(layer, x)
        assert np.array_equal(h, np.zeros((5, 8)))
        y, record, cache = nano._moe_from_h(layer, h)
        grads = moe_param_grads(layer, h, record, cache, np.zeros_like(y), lb_alpha=1e-3)
        assert np.array_equal(grads.router, np.zeros_like(layer.router))

    def test_never_selected_expert_has_zero_output_gradient(self):
        layer = toy_moe_layer(8, 12, 3, seed=8, top_k=1)
        # a logit tie resolves to the smaller index, so a column equal to
        # column 0 can never win
        layer.router[:, 2] = layer.router[:, 0]
        x = np.random.default_rng(2).standard_normal((6, 8))
        h = nano.pre_mlp_state(layer, x)
        y, record, cache = nano._moe_from_h(layer, h)
        assert 2 not in set(record.selected.ravel())
        grads = moe_param_grads(layer, h, record, cache, (2.0 / y.size) * y, lb_alpha=0.0)
        for g in grads.experts[2]:
            assert np.array_equal(g, np.zeros_like(g))

    def test_overflowing_loss_is_a_non_finite_gradient(self):
        # the forward pass stays finite, but its squares overflow the loss
        layer = toy_moe_layer(8, 12, 3, seed=9)
        for expert in layer.experts:
            expert.down[:] *= 1e160
        x = np.random.default_rng(3).standard_normal((4, 8))
        assert np.isfinite(layer_forward(layer, x)[1]).all()
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteGradient, match=r"^non-finite gradient in \S+\[0\]$"):
                grad_check(layer, x)


class TestRmsNormBackward:
    def test_input_gradient_matches_central_differences(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal((4, 6))
        scale = rng.uniform(0.5, 1.5, size=6)
        v = rng.standard_normal((4, 6))  # loss = sum(v * rms(x))
        analytic = nano.rms_norm_input_grad(x, scale, v)
        step = 1e-6
        for t in range(4):
            for i in range(6):
                x[t, i] += step
                up = float(np.sum(v * nano.rms_norm(x, scale)))
                x[t, i] -= 2 * step
                down = float(np.sum(v * nano.rms_norm(x, scale)))
                x[t, i] += step
                fd = (up - down) / (2 * step)
                assert analytic[t, i] == pytest.approx(fd, abs=1e-8)


class TestTrainToy:
    def fused_toy(self, model_seed=11):
        shape = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=32)
        dense = build_toy_container(shape, seed=model_seed, weight_scale=0.3)
        plan = FusionPlan(keep_layers=(1, 2, 3), prune_layers=frozenset({4}),
                          blocks=(FusionBlock(base=3, redundant=(4,)),))
        fused, _ = fused_model(dense, plan, base_copies=2, supp_copies=2, top_k=1)
        return fused

    def test_zero_lr_freezes_losses(self):
        fused = self.fused_toy()
        data = make_copy_stream(32, 16, 2, seed=3)
        log, trained = train_toy(fused, data, steps=5, lr=0.0, alpha=1e-3)
        assert len(log.steps) == 5
        first = log.steps[0]
        for step in log.steps[1:]:
            assert step.task_loss == first.task_loss
            assert step.lb_loss == first.lb_loss
            assert step.loads == first.loads
        for name in fused.tensors:
            assert np.array_equal(trained.tensors[name], fused.tensors[name])

    def test_same_seed_bit_identical(self):
        fused = self.fused_toy()
        data = make_copy_stream(32, 64, 4, seed=13)
        log_a, model_a = train_toy(fused, data, steps=8, lr=0.5, alpha=1e-3)
        log_b, model_b = train_toy(fused, data, steps=8, lr=0.5, alpha=1e-3)
        assert log_a.steps == log_b.steps
        for name in model_a.tensors:
            assert np.array_equal(model_a.tensors[name], model_b.tensors[name])

    def test_only_router_and_experts_move(self):
        fused = self.fused_toy()
        data = make_copy_stream(32, 16, 2, seed=5)
        _, trained = train_toy(fused, data, steps=3, lr=0.5, alpha=1e-3)
        for name in fused.tensors:
            moved = not np.array_equal(trained.tensors[name], fused.tensors[name])
            trainable = ".router" in name or ".moe.expert." in name
            if not trainable:
                assert not moved, f"{name} should be frozen"

    def test_divergence_detected(self):
        # the final norm keeps logits bounded under ordinary blow-ups, so
        # forcing non-finite losses takes an astronomical learning rate
        fused = self.fused_toy()
        data = make_copy_stream(32, 16, 2, seed=6)
        with pytest.raises(DivergenceDetected), np.errstate(all="ignore"):
            train_toy(fused, data, steps=50, lr=1e150, alpha=1e-3)

    def test_moe_layer_must_be_last(self):
        shape = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=32)
        dense = build_toy_container(shape, seed=1, weight_scale=0.3)
        plan = FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                          blocks=(FusionBlock(base=2, redundant=(3,)),))
        fused, _ = fused_model(dense, plan, base_copies=1, supp_copies=1, top_k=1)
        with pytest.raises(UnsupportedTopology):
            train_toy(fused, make_copy_stream(32, 64, 4, seed=0), steps=1, lr=0.1, alpha=1e-3)

    def test_one_step_gradient_matches_finite_differences(self):
        """Recover the trainer's gradients from a single unit-lr step and
        compare against central differences of an independently written
        batch-loss function (hard assignment fractions frozen)."""
        fused = self.fused_toy()
        # a zero router puts every token exactly on a selection tie, where the
        # loss is discontinuous; nudge it off the boundary first
        fused.tensors["layer.3.router"][...] = \
            0.05 * np.random.default_rng(5).standard_normal((16, 4))
        data = make_copy_stream(32, 12, 2, seed=21)
        alpha = 1e-3

        def batch_loss(container, frozen_f=None):
            layers = nano.layers_of(container)
            embed = container.tensors["embed"]
            total_ce = 0.0
            probs_all = []
            for seq in data:
                state = nano.embed_tokens(container, seq)
                for layer in layers[:-1]:
                    _, state, _ = layer_forward(layer, state)
                _, y, record = layer_forward(layers[-1], state)
                logits = nano.rms_norm(y, container.tensors["final_norm"]) @ embed.T
                rows = np.arange(len(seq))
                shifted = logits - logits.max(axis=1, keepdims=True)
                log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                total_ce += -float(np.mean(log_p[rows, seq])) / len(data)
                probs_all.append(record.probabilities)
            probs = np.concatenate(probs_all)
            f = frozen_f
            if f is None:
                f = np.bincount(np.argmax(probs, axis=1), minlength=4) / len(probs)
            return total_ce + alpha * 4 * float(f @ probs.mean(axis=0)), f

        _, base_f = batch_loss(fused)
        _, stepped = train_toy(fused, data, steps=1, lr=1.0, alpha=alpha)

        rng = np.random.default_rng(77)
        step = 1e-6
        for name in ("layer.3.router", "layer.3.moe.expert.1.up",
                     "layer.3.moe.expert.4.down"):
            tensor = fused.tensors[name]
            grad = tensor - stepped.tensors[name]  # lr = 1.0
            flat = tensor.reshape(-1)
            for idx in rng.choice(flat.size, size=4, replace=False):
                keep = flat[idx]
                flat[idx] = keep + step
                up, _ = batch_loss(fused, frozen_f=base_f)
                flat[idx] = keep - step
                down, _ = batch_loss(fused, frozen_f=base_f)
                flat[idx] = keep
                fd = (up - down) / (2 * step)
                analytic = grad.reshape(-1)[idx]
                denom = max(abs(fd), abs(analytic), 1e-4)
                assert abs(fd - analytic) / denom < 1e-5, (name, idx)

    def test_log_csv_round_trip(self, tmp_path):
        fused = self.fused_toy()
        log, _ = train_toy(fused, make_copy_stream(32, 64, 4, seed=9), steps=4, lr=0.5,
                           alpha=1e-3)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "step,task_loss,lb_loss,load_e1,load_e2,load_e3,load_e4"
        back = train_log_from_csv(path)
        assert [s.step for s in back.steps] == [1, 2, 3, 4]
        assert back.steps[-1].task_loss == pytest.approx(log.steps[-1].task_loss, rel=1e-12)
        assert back.steps[-1].loads == pytest.approx(log.steps[-1].loads, rel=1e-9)


def train_toy_oracle(container, data, steps, lr, alpha):
    """Reference trainer that reruns the frozen prefix (embedding, dense
    layers, MoE attention) for every sequence on every step, and sums the
    per-sequence gradients and the balancing gradient itself. Its sums run in
    another order than train_toy's one batch, so the two agree to rounding,
    not bit for bit."""
    work = nano.copy_container(container)
    shape = work.shape
    layers = layers_of(work)
    moe_layer = layers[-1]
    n_experts = len(moe_layer.experts)
    embed = work.tensors["embed"]
    final_norm = work.tensors["final_norm"]
    head = embed if shape.tied_embedding else work.tensors["lm_head"]
    num_seqs, seq_len = data.shape
    total_tokens = num_seqs * seq_len
    log = TrainLog()
    for step in range(1, steps + 1):
        router_grad = np.zeros_like(moe_layer.router)
        expert_grads = [(np.zeros_like(m.up), np.zeros_like(m.gate), np.zeros_like(m.down))
                        for m in moe_layer.experts]
        task_loss = 0.0
        top1_counts = np.zeros(n_experts)
        prob_sums = np.zeros(n_experts)
        lb_router_inputs = []
        for seq in data:
            state = nano.embed_tokens(work, seq)
            for layer in layers[:-1]:
                _, state, _ = layer_forward(layer, state)
            h = nano.pre_mlp_state(moe_layer, state)
            y, record, cache = nano._moe_from_h(moe_layer, h)
            logits = nano.rms_norm(y, final_norm) @ (head.T if shape.tied_embedding else head)
            seq_loss, d_logits = nano._softmax_xent(logits, seq)
            task_loss += seq_loss / num_seqs
            d_logits = d_logits / num_seqs
            d_final = d_logits @ head if shape.tied_embedding else d_logits @ head.T
            d_y = nano.rms_norm_input_grad(y, final_norm, d_final)
            grads = moe_param_grads(moe_layer, h, record, cache, d_y, lb_alpha=0.0)
            router_grad += grads.router
            for e in range(n_experts):
                for acc, g in zip(expert_grads[e], grads.experts[e]):
                    acc += g
            top1_counts += np.bincount(np.argmax(record.probabilities, axis=1),
                                       minlength=n_experts)
            prob_sums += record.probabilities.sum(axis=0)
            lb_router_inputs.append((h, record.probabilities))
        loads = top1_counts / total_tokens
        lb_raw = n_experts * float(loads @ (prob_sums / total_tokens))
        if alpha:
            d_probs_row = alpha * n_experts * loads / total_tokens
            for h, probs in lb_router_inputs:
                d_probs = np.broadcast_to(d_probs_row, probs.shape)
                inner = np.einsum("tn,tn->t", d_probs, probs)
                router_grad += h.T @ (probs * (d_probs - inner[:, None]))
        log.steps.append(TrainStep(step=step, task_loss=task_loss, lb_loss=lb_raw,
                                        loads=tuple(loads)))
        moe_layer.router[...] -= lr * router_grad
        for e, mlp in enumerate(moe_layer.experts):
            mlp.up[...] -= lr * expert_grads[e][0]
            mlp.gate[...] -= lr * expert_grads[e][1]
            mlp.down[...] -= lr * expert_grads[e][2]
    return log, work


def fused_last_layer(num_layers, seed, tied=True, copies=(2, 2), top_k=1, router_scale=0.0):
    """A toy model whose last layer is fused into its predecessor's MoE layer."""
    shape = ModelShape(num_layers=num_layers, hidden_dim=8, mlp_dim=12, num_heads=2,
                       num_kv_heads=1, head_dim=4, vocab_size=16, tied_embedding=tied)
    dense = build_toy_container(shape, seed=seed, weight_scale=0.3)
    base = num_layers - 1
    plan = FusionPlan(keep_layers=tuple(range(1, num_layers)),
                      prune_layers=frozenset({num_layers}),
                      blocks=(FusionBlock(base=base, redundant=(num_layers,)),))
    fused, _ = fused_model(dense, plan, base_copies=copies[0], supp_copies=copies[1], top_k=top_k)
    router = fused.tensors[f"layer.{base}.router"]
    router[...] = router_scale * np.random.default_rng(seed).standard_normal(router.shape)
    return fused


class TestFrozenPrefix:
    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**16), num_layers=st.integers(2, 3), tied=st.booleans(),
           copies=st.sampled_from([(1, 1), (2, 1), (2, 2)]), top_k=st.integers(1, 2),
           router_scale=st.sampled_from([0.0, 0.5]), seq_len=st.integers(2, 8),
           num_seqs=st.integers(1, 3), steps=st.integers(1, 6),
           lr=st.sampled_from([0.0, 0.5, 5.0]), alpha=st.sampled_from([0.0, 1e-3, 0.5]))
    def test_matches_per_step_recomputation(self, seed, num_layers, tied, copies, top_k,
                                            router_scale, seq_len, num_seqs, steps, lr, alpha):
        """Batching changes only the order of the sums: every step's top-1
        loads agree exactly, its losses within relative 1e-12, and every final
        tensor within atol = rtol = 1e-12. Over 2000 examples of this strategy
        the worst gaps were 7.4e-15 relative on a loss and 2.6e-13 absolute on
        a tensor, and no load differed."""
        fused = fused_last_layer(num_layers, seed, tied, copies, top_k, router_scale)
        data = make_copy_stream(16, seq_len, num_seqs, seed)
        log, trained = train_toy(fused, data, steps=steps, lr=lr, alpha=alpha)
        want_log, want = train_toy_oracle(fused, data, steps, lr, alpha)
        assert [s.step for s in log.steps] == [s.step for s in want_log.steps]
        for got, ref in zip(log.steps, want_log.steps):
            assert got.loads == ref.loads, got.step
            assert got.task_loss == pytest.approx(ref.task_loss, rel=1e-12, abs=0), got.step
            assert got.lb_loss == pytest.approx(ref.lb_loss, rel=1e-12, abs=0), got.step
        assert trained.tensors.keys() == want.tensors.keys()
        for name, tensor in want.tensors.items():
            np.testing.assert_allclose(trained.tensors[name], tensor, rtol=1e-12, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("steps", [1, 5])
    def test_routing_and_gradients_run_once_per_step(self, monkeypatch, steps):
        fused = fused_last_layer(3, seed=4)
        data = make_copy_stream(16, 6, 3, seed=4)
        calls = {"route": 0, "moe_param_grads": 0, "top1_fractions": 0}
        for name in calls:
            real = getattr(nano, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(nano, name, counting)
        train_toy(fused, data, steps=steps, lr=0.5, alpha=1e-3)
        assert calls == {"route": steps, "moe_param_grads": steps, "top1_fractions": steps}

    @pytest.mark.parametrize("steps", [1, 5])
    def test_attention_runs_once_per_layer_and_sequence(self, monkeypatch, steps):
        fused = fused_last_layer(3, seed=4)
        data = make_copy_stream(16, 6, 3, seed=4)
        calls = []
        real = nano.attention_forward

        def counting(attn, x):
            calls.append(x.shape)
            return real(attn, x)

        monkeypatch.setattr(nano, "attention_forward", counting)
        train_toy(fused, data, steps=steps, lr=0.5, alpha=1e-3)
        assert fused.shape.num_layers == 2
        assert len(calls) == 2 * 3


class TestTrainToyFlags:
    @pytest.mark.parametrize("dims", [(0, 4), (2, 0), (4,)], ids=["no-rows", "no-tokens", "1-d"])
    def test_empty_data_rejected(self, dims):
        with pytest.raises(OutOfRange, match=r"^data must be a non-empty \(num_sequences, "):
            train_toy(fused_last_layer(2, seed=1), np.zeros(dims, dtype=np.int64), steps=1,
                      lr=0.5, alpha=1e-3)

    @pytest.mark.parametrize("consume", [
        lambda model, data: train_toy(model, data, steps=1, lr=0.5, alpha=1e-3),
        nano.load_profiles,
    ], ids=["train_toy", "load_profiles"])
    @given(token=st.one_of(st.integers(-3, -1), st.integers(16, 20)))
    def test_token_outside_the_vocabulary_rejected(self, consume, token):
        # the one rule sits where ids enter the model: id -1 would otherwise
        # read the last embedding row, and id 16 raise a bare IndexError
        fused = fused_last_layer(2, seed=1)  # vocab_size 16
        assert fused.shape.vocab_size == 16
        data = make_copy_stream(16, 8, 2, seed=0)
        data[1, 3] = token
        with pytest.raises(OutOfRange, match=r"^token ids must lie in \[0, vocab_size\)$"):
            consume(fused, data)

    @pytest.mark.parametrize("lr, alpha", [
        (float("nan"), 1e-3), (float("inf"), 1e-3), (-float("inf"), 1e-3),
        (0.5, float("nan")), (0.5, float("inf")), (0.5, -1e-3),
    ])
    def test_rejected_before_any_step(self, monkeypatch, lr, alpha):
        fused = fused_last_layer(2, seed=1)
        calls = []
        monkeypatch.setattr(nano, "attention_forward", lambda *a: calls.append(a))
        with pytest.raises(InvalidConfig):
            train_toy(fused, make_copy_stream(16, 64, 4, seed=0), steps=2, lr=lr, alpha=alpha)
        assert calls == []

    @pytest.mark.parametrize("vocab, seq_len, num_seqs", [
        (16, -3, 2), (16, 0, 2), (16, 4, -1), (16, 4, 0), (0, 4, 2),
    ])
    def test_copy_stream_needs_positive_counts(self, vocab, seq_len, num_seqs):
        with pytest.raises(OutOfRange):
            make_copy_stream(vocab, seq_len, num_seqs, seed=0)
