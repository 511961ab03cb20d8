"""Winner-takes-all diagnostics: load counting, metric identities, analytic
bounds, and the CSV outputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2m.nanomodel as nano
from d2m.config import ModelShape, MoEShape
from d2m.diagnostics import write_summary_csv, wta_metrics
from d2m.errors import DimensionMismatch, EmptyRecord


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
        assert list(profiles) == sorted(counts)
        for layer, loads in profiles.items():
            assert loads == tuple(c / data.size for c in counts[layer])
            assert math.fsum(loads) == pytest.approx(1.0, abs=1e-12)

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
        profiles = [(0.48, 0.2, 0.12, 0.1, 0.06, 0.04)] * 5
        summary = wta_metrics(profiles)
        assert summary.mean_top_load == pytest.approx(0.480, abs=1e-12)
        assert summary.mean_top_uniform_ratio == pytest.approx(2.88, abs=1e-12)

    def test_uniform_profiles(self):
        summary = wta_metrics([(1 / 6,) * 6])
        assert summary.mean_entropy == pytest.approx(math.log(6), abs=1e-12)
        assert summary.mean_top_bottom_gap == 0.0
        assert summary.mean_top_uniform_ratio == pytest.approx(1.0, abs=1e-12)
        assert dict(summary.layers_above) == {0.4: 0, 0.5: 0}

    def test_one_hot_profiles(self):
        summary = wta_metrics([(0, 0, 1.0, 0, 0, 0)])
        assert summary.mean_entropy == 0.0
        assert summary.mean_top_load == 1.0
        assert summary.mean_top_bottom_gap == 1.0
        assert dict(summary.layers_above) == {0.4: 1, 0.5: 1}

    def test_entropy_bounds_and_ratio_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            loads = rng.dirichlet(np.ones(n))
            summary = wta_metrics([tuple(loads)])
            assert 0.0 <= summary.mean_entropy <= math.log(n) + 1e-12
            assert 1.0 - 1e-12 <= summary.mean_top_uniform_ratio <= n + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        loads = rng.dirichlet(np.ones(6))
        perm = rng.permutation(6)
        a = wta_metrics([tuple(loads)])
        b = wta_metrics([tuple(loads[perm])])
        assert a.mean_top_load == pytest.approx(b.mean_top_load, abs=1e-15)
        assert a.mean_entropy == pytest.approx(b.mean_entropy, abs=1e-12)
        assert a.mean_top_bottom_gap == pytest.approx(b.mean_top_bottom_gap, abs=1e-15)

    def test_threshold_counts(self):
        profiles = [(0.55, 0.45, 0.0, 0.0), (0.45, 0.3, 0.15, 0.10), (0.30, 0.3, 0.2, 0.2)]
        summary = wta_metrics(profiles)
        assert dict(summary.layers_above) == {0.4: 2, 0.5: 1}

    def test_expert_count_mismatch(self):
        profiles = [(0.25,) * 4, (0.25,) * 4, (0.5, 0.3, 0.2)]
        with pytest.raises(DimensionMismatch,
                           match="^profile 2 has 3 experts, profile 0 has 4$"):
            wta_metrics(profiles)


class TestCsvOutputs:
    def test_summary_has_six_metric_rows(self, tmp_path):
        summary = wta_metrics([(0.5, 0.3, 0.2)])
        path = tmp_path / "wta.csv"
        write_summary_csv(summary, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 7
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == ["mean_top_expert_load", "layers_top_gt_40", "layers_top_gt_50",
                           "mean_top_uniform_ratio", "mean_top_bottom_gap", "mean_entropy"]


class TestEmptyProfiles:
    def test_wta_metrics_needs_a_profile(self):
        with pytest.raises(EmptyRecord, match="^wta_metrics needs at least one layer profile$"):
            wta_metrics([])

