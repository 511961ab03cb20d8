"""Winner-takes-all diagnostics: load counting, metric identities, analytic
bounds, and the CSV outputs."""

import io
import math

import numpy as np
import pytest

from d2m.diagnostics import (
    LayerLoadProfile,
    load_profile,
    write_per_layer_csv,
    write_summary_csv,
    wta_metrics,
)
from d2m.errors import DimensionMismatch, EmptyRecord
from d2m.nanomodel import RoutingRecord


def profile_from_loads(layer, loads):
    return LayerLoadProfile(layer=layer, loads=tuple(loads),
                            winner=int(np.argmax(loads)) + 1)


class TestLoadProfile:
    def test_all_tokens_to_one_expert(self):
        profile = load_profile([2] * 10, num_experts=6)
        assert profile.loads == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert profile.winner == 3
        assert profile.top_load == 1.0

    def test_one_token_per_expert(self):
        profile = load_profile(list(range(6)), num_experts=6)
        assert profile.loads == tuple([1 / 6] * 6)
        assert profile.winner == 1  # tie resolves to the smaller index

    def test_matches_hand_tally(self):
        rng = np.random.default_rng(9)
        assignments = rng.integers(0, 6, size=1000)
        profile = load_profile(assignments, num_experts=6)
        for e in range(6):
            assert profile.loads[e] == pytest.approx(
                sum(1 for a in assignments if a == e) / 1000, abs=1e-15)

    def test_accepts_routing_record(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.6, 0.3, 0.1]])
        record = RoutingRecord(probs, np.argmax(probs, axis=1)[:, None],
                               probs.max(axis=1)[:, None])
        profile = load_profile(np.argmax(record.probabilities, axis=1), num_experts=3, layer=4)
        assert profile.layer == 4
        assert profile.loads == (2 / 3, 1 / 3, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyRecord):
            load_profile([], num_experts=4)


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
    def test_summary_has_six_metric_rows(self):
        summary = wta_metrics([profile_from_loads(1, [0.5, 0.3, 0.2])], 3)
        buf = io.StringIO()
        write_summary_csv(summary, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 7
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert metrics == ["mean_top_expert_load", "layers_top_gt_40", "layers_top_gt_50",
                           "mean_top_uniform_ratio", "mean_top_bottom_gap", "mean_entropy"]

    def test_per_layer_csv(self):
        profiles = [profile_from_loads(1, [0.6, 0.4]), profile_from_loads(2, [0.3, 0.7])]
        buf = io.StringIO()
        write_per_layer_csv(profiles, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "layer,winner,top_load,p_1,p_2"
        assert len(lines) == 3
