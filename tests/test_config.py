"""Domain type validation, the JSON config document, and fusion plans."""

import json

import pytest

from d2m.config import (
    DEFAULT_WORKLOAD,
    FusionBlock,
    FusionPlan,
    ModelShape,
    MoEShape,
    QWEN25_0_5B,
    SearchThresholds,
    THOR_U,
    gqa_ratio,
    load_config,
    parse_config,
    plan_from_json,
    plan_to_json,
    validate_plan,
    validate_shape,
    validate_thresholds,
)
from d2m.errors import InvalidConfig, InvalidPlan, InvalidShape


class TestValidateShape:
    def test_reference_shape_is_valid(self):
        shape = validate_shape(QWEN25_0_5B)
        assert shape == QWEN25_0_5B
        assert shape.num_layers == 24 and shape.hidden_dim == 896
        assert shape.num_heads * shape.head_dim == shape.hidden_dim

    def test_idempotent(self):
        assert validate_shape(validate_shape(QWEN25_0_5B)) == QWEN25_0_5B

    def test_non_integral_gqa_rejected(self):
        bad = ModelShape(num_layers=24, hidden_dim=896, mlp_dim=4864, num_heads=14,
                         num_kv_heads=3, head_dim=64, vocab_size=151936)
        with pytest.raises(InvalidShape, match="divisible"):
            validate_shape(bad)

    def test_top_k_exceeding_experts_rejected(self):
        bad = ModelShape(num_layers=2, hidden_dim=8, mlp_dim=16, num_heads=2,
                         num_kv_heads=1, head_dim=4, vocab_size=16,
                         moe=MoEShape(num_experts=6, top_k=7))
        with pytest.raises(InvalidShape, match="top_k"):
            validate_shape(bad)

    @pytest.mark.parametrize("field", ["num_layers", "hidden_dim", "mlp_dim", "num_heads",
                                       "num_kv_heads", "head_dim", "vocab_size"])
    def test_zero_counts_rejected(self, field):
        from dataclasses import replace

        with pytest.raises(InvalidShape, match=field):
            validate_shape(replace(QWEN25_0_5B, **{field: 0}))


class TestGqaRatio:
    def test_reference(self):
        assert gqa_ratio(QWEN25_0_5B) == 7

    def test_mha_degenerate(self):
        shape = ModelShape(num_layers=1, hidden_dim=64, mlp_dim=128, num_heads=8,
                           num_kv_heads=8, head_dim=8, vocab_size=16)
        assert gqa_ratio(shape) == 1

    def test_direct_division(self):
        shape = ModelShape(num_layers=1, hidden_dim=256, mlp_dim=512, num_heads=32,
                           num_kv_heads=8, head_dim=8, vocab_size=16)
        assert gqa_ratio(shape) == 4


class TestFusionPlan:
    def plan(self):
        return FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                          blocks=(FusionBlock(base=2, redundant=(3,)),))

    def test_valid_plan_passes(self):
        validate_plan(self.plan(), 4)

    def test_coverage_violation(self):
        bad = FusionPlan(keep_layers=(1, 2), prune_layers=frozenset({3}),
                         blocks=(FusionBlock(base=2, redundant=(3,)),))
        with pytest.raises(InvalidPlan):
            validate_plan(bad, 4)

    def test_non_contiguous_redundant_set(self):
        bad = FusionPlan(keep_layers=(1, 3), prune_layers=frozenset({2, 4}),
                         blocks=(FusionBlock(base=1, redundant=(2, 4)),))
        with pytest.raises(InvalidPlan, match="contiguous"):
            validate_plan(bad, 4)

    def test_overlapping_blocks(self):
        bad = FusionPlan(keep_layers=(1, 2), prune_layers=frozenset({3, 4}),
                         blocks=(FusionBlock(base=2, redundant=(3,)),
                                 FusionBlock(base=3, redundant=(4,))))
        with pytest.raises(InvalidPlan):
            validate_plan(bad, 4)

    def test_base_cannot_be_pruned(self):
        bad = FusionPlan(keep_layers=(1, 4), prune_layers=frozenset({2, 3}),
                         blocks=(FusionBlock(base=1, redundant=(2,)),
                                 FusionBlock(base=3, redundant=(4,))))
        with pytest.raises(InvalidPlan):
            validate_plan(bad, 4)

    def test_json_round_trip(self):
        plan = self.plan()
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_json_format(self):
        doc = json.loads(plan_to_json(self.plan()))
        assert doc == {"keep": [1, 2, 4], "prune": [3],
                       "blocks": [{"base": 2, "redundant": [3]}]}

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(InvalidPlan, match="unknown"):
            plan_from_json('{"keep": [1], "prune": [], "blocks": [], "extra": 1}')


class TestThresholds:
    def test_defaults(self):
        th = SearchThresholds(cos_threshold=0.05, norm_tolerance=0.1)
        assert th.score_penalty == 1.0
        assert th.block_sizes == (1, 2, 3)
        validate_thresholds(th)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_open_interval(self, delta):
        with pytest.raises(InvalidConfig):
            validate_thresholds(SearchThresholds(cos_threshold=delta, norm_tolerance=0.1))

    @pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
    def test_score_penalty_finite_non_negative(self, penalty):
        with pytest.raises(InvalidConfig, match="score_penalty"):
            validate_thresholds(SearchThresholds(cos_threshold=0.05, norm_tolerance=0.1,
                                                 score_penalty=penalty))


class TestConfigDocument:
    def doc(self):
        return {
            "model": {
                "num_layers": 24, "hidden_dim": 896, "mlp_dim": 4864, "num_heads": 14,
                "num_kv_heads": 2, "head_dim": 64, "vocab_size": 151936,
                "tied_embedding": True, "moe": None,
            },
            "hardware": {"peak_flops": 350e12, "mem_bandwidth": 273e9,
                         "weight_bytes": 2, "kv_bytes": 2},
            "workload": {"batch": 1, "prompt_len": 1000, "gen_len": 50},
        }

    def test_parse_reference_config(self):
        config = parse_config(self.doc())
        assert config.model == QWEN25_0_5B
        assert config.hardware == THOR_U
        assert config.workload == DEFAULT_WORKLOAD
        assert config.router.temperature == 1.0
        assert config.router.aux_loss_weight == 1e-3
        assert config.router.renormalize_top_k is False

    def test_unknown_top_level_key_rejected(self):
        doc = self.doc()
        doc["surprise"] = {}
        with pytest.raises(InvalidConfig, match="surprise"):
            parse_config(doc)

    def test_unknown_nested_key_rejected(self):
        doc = self.doc()
        doc["workload"]["tokens_per_second"] = 5
        with pytest.raises(InvalidConfig, match="tokens_per_second"):
            parse_config(doc)

    def test_moe_section(self):
        doc = self.doc()
        doc["model"]["moe"] = {"num_experts": 6, "top_k": 1,
                               "base_copies": 4, "supplementary_copies": 2}
        config = parse_config(doc)
        assert config.model.moe == MoEShape(6, 1, 4, 2)

    def test_missing_model_rejected(self):
        with pytest.raises(InvalidConfig, match="model"):
            parse_config({"hardware": {"peak_flops": 1, "mem_bandwidth": 1}})

    def test_defaults_when_sections_absent(self):
        config = parse_config({"model": self.doc()["model"]})
        assert config.hardware == THOR_U
        assert config.workload == DEFAULT_WORKLOAD
        assert config.thresholds is None

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.doc()))
        assert load_config(path).model == QWEN25_0_5B

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(InvalidConfig, match="JSON"):
            load_config(path)
