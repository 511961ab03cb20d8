"""Winner-takes-all diagnostics: load counting, metric identities, analytic
bounds, and the CSV outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2m.nanomodel as nano
from d2m.config import ModelShape, MoEShape
from d2m.diagnostics import (
    LayerLoadProfile,
    write_per_layer_csv,
    write_summary_csv,
    wta_metrics,
)
from d2m.errors import DimensionMismatch, EmptyRecord


def profile_from_loads(layer, loads):
    return LayerLoadProfile(layer=layer, loads=tuple(loads))


@st.composite
def moe_models(draw):
    """A seeded toy model with one to three MoE layers among one to four,
    and a copy-task stream of one to three short sequences."""
    num_layers = draw(st.integers(1, 4))
    moe_layers = draw(st.lists(st.integers(1, num_layers), min_size=1,
                               max_size=min(3, num_layers), unique=True))
    experts = {layer: draw(st.integers(1, 4)) for layer in moe_layers}
    shape = ModelShape(num_layers=num_layers, hidden_dim=8, mlp_dim=8, num_heads=2,
                       num_kv_heads=1, head_dim=4, vocab_size=16,
                       tied_embedding=draw(st.booleans()),
                       moe=MoEShape(experts, top_k=draw(st.integers(1, min(experts.values())))))
    seed = draw(st.integers(0, 2**16))
    container = nano.build_toy_container(shape, seed,
                                         weight_scale=draw(st.sampled_from([0.02, 0.5, 2.0])))
    data = nano.make_copy_stream(16, draw(st.integers(1, 6)), draw(st.integers(1, 3)), seed)
    return container, data


class TestLoadProfile:
    def test_all_tokens_to_one_expert(self):
        profile = LayerLoadProfile(layer=1, loads=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        assert profile.winner == 3
        assert profile.top_load == 1.0

    def test_one_token_per_expert(self):
        profile = LayerLoadProfile(layer=1, loads=tuple([1 / 6] * 6))
        assert profile.winner == 1  # tie resolves to the smaller index
        assert profile.top_load == 1 / 6

    def test_winner_tie_goes_to_the_first_largest_load(self):
        for loads, winner in [((0.1, 0.4, 0.1, 0.4), 2), ((0.5, 0.5), 1),
                              ((0.0, 0.25, 0.25, 0.5), 4), ((1.0,), 1)]:
            assert LayerLoadProfile(layer=7, loads=loads).winner == winner

    @settings(max_examples=40)
    @given(model=moe_models())
    def test_matches_hand_tally(self, model):
        """``load_profiles`` against per-token argmaxes counted by hand from
        each sequence's own forward pass, pooled over the stream."""
        container, data = model
        counts = {layer: [0] * n for layer, n in container.shape.experts.items()}
        for seq in data:
            _, _, records = nano.forward_trace(container, nano.embed_tokens(container, seq))
            for layer, record in records.items():
                for row in record.probabilities.tolist():
                    counts[layer][row.index(max(row))] += 1
        profiles = nano.load_profiles(container, data)
        assert [p.layer for p in profiles] == sorted(counts)
        for profile in profiles:
            assert profile.loads == tuple(c / data.size for c in counts[profile.layer])
            assert math.fsum(profile.loads) == pytest.approx(1.0, abs=1e-12)
            first_largest = min(i for i, v in enumerate(profile.loads)
                                if v == max(profile.loads))
            assert profile.winner == first_largest + 1

    def test_empty_rejected(self):
        shape = ModelShape(num_layers=1, hidden_dim=8, mlp_dim=8, num_heads=2, num_kv_heads=1,
                           head_dim=4, vocab_size=16, moe=MoEShape({1: 2}, top_k=1))
        container = nano.build_toy_container(shape, seed=0)
        for dims in [(0, 4), (2, 0), (4,)]:
            with pytest.raises(EmptyRecord):
                nano.load_profiles(container, np.zeros(dims, dtype=np.int64))


class TestWtaMetrics:
    def test_dominance_ratio_identity(self):
        # mean top load 0.48 over 6 experts is a 2.88x dominance ratio
        profiles = [profile_from_loads(i + 1, [0.48, 0.2, 0.12, 0.1, 0.06, 0.04])
                    for i in range(5)]
        summary = wta_metrics(profiles, num_experts=6)
        assert summary.mean_top_load == pytest.approx(0.480, abs=1e-12)
        assert summary.mean_top_uniform_ratio == pytest.approx(2.88, abs=1e-12)

    def test_uniform_profiles(self):
        profiles = [profile_from_loads(1, [1 / 6] * 6)]
        summary = wta_metrics(profiles, num_experts=6)
        assert summary.mean_entropy == pytest.approx(math.log(6), abs=1e-12)
        assert summary.mean_top_bottom_gap == 0.0
        assert summary.mean_top_uniform_ratio == pytest.approx(1.0, abs=1e-12)
        assert dict(summary.layers_above) == {0.4: 0, 0.5: 0}

    def test_one_hot_profiles(self):
        profiles = [profile_from_loads(1, [0, 0, 1.0, 0, 0, 0])]
        summary = wta_metrics(profiles, num_experts=6)
        assert summary.mean_entropy == 0.0
        assert summary.mean_top_load == 1.0
        assert summary.mean_top_bottom_gap == 1.0
        assert dict(summary.layers_above) == {0.4: 1, 0.5: 1}

    def test_entropy_bounds_and_ratio_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            loads = rng.dirichlet(np.ones(n))
            summary = wta_metrics([profile_from_loads(1, loads)], num_experts=n)
            assert 0.0 <= summary.mean_entropy <= math.log(n) + 1e-12
            assert 1.0 - 1e-12 <= summary.mean_top_uniform_ratio <= n + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        loads = rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        a = wta_metrics([profile_from_loads(1, loads)], 6)
        b = wta_metrics([profile_from_loads(1, loads[perm])], 6)
        assert a.mean_top_load == pytest.approx(b.mean_top_load, abs=1e-15)
        assert a.mean_entropy == pytest.approx(b.mean_entropy, abs=1e-12)
        assert a.mean_top_bottom_gap == pytest.approx(b.mean_top_bottom_gap, abs=1e-15)

    def test_threshold_counts(self):
        profiles = [profile_from_loads(1, [0.55, 0.45, 0.0, 0.0]),
                    profile_from_loads(2, [0.45, 0.3, 0.15, 0.10]),
                    profile_from_loads(3, [0.30, 0.3, 0.2, 0.2])]
        summary = wta_metrics(profiles, num_experts=4)
        assert dict(summary.layers_above) == {0.4: 2, 0.5: 1}

    def test_expert_count_mismatch(self):
        profiles = [profile_from_loads(1, [0.25] * 4), profile_from_loads(2, [0.5, 0.3, 0.2])]
        with pytest.raises(DimensionMismatch, match="layer 2 profile has 3 experts, expected 4"):
            wta_metrics(profiles, num_experts=4)


class TestCsvOutputs:
    def test_summary_has_six_metric_rows(self, tmp_path):
        summary = wta_metrics([profile_from_loads(1, [0.5, 0.3, 0.2])], 3)
        path = tmp_path / "wta.csv"
        write_summary_csv(summary, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 7
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == ["mean_top_expert_load", "layers_top_gt_40", "layers_top_gt_50",
                           "mean_top_uniform_ratio", "mean_top_bottom_gap", "mean_entropy"]

    def test_per_layer_csv(self, tmp_path):
        profiles = [profile_from_loads(1, [0.6, 0.4]), profile_from_loads(2, [0.3, 0.7])]
        path = tmp_path / "per_layer.csv"
        write_per_layer_csv(profiles, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "layer,winner,top_load,p_1,p_2"
        assert len(lines) == 3
