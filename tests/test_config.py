"""Domain type validation, the JSON config document, and fusion plans."""

import json
import math
import re
from dataclasses import MISSING, asdict, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2m.config import (
    DEFAULT_WORKLOAD,
    FusionBlock,
    FusionPlan,
    HardwareProfile,
    ModelShape,
    MoEShape,
    PipelineConfig,
    QWEN25_0_5B,
    SearchThresholds,
    SimilarityMatrices,
    THOR_U,
    Workload,
    gqa_ratio,
    load_config,
    load_plan,
    parse_config,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    shape_from_dict,
    validate_plan,
    validate_shape,
    validate_thresholds,
    write_json,
)
from d2m.errors import D2mError, InvalidConfig, InvalidPlan, InvalidShape
from d2m.search import search


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
                         moe=MoEShape({1: 6, 2: 8}, top_k=7))
        with pytest.raises(InvalidShape, match="top_k"):
            validate_shape(bad)

    @pytest.mark.parametrize("experts, message", [
        ({}, "must map layers"), ([(1, 2)], "must map layers"),
        ({0: 2}, "layer 0 not in 1..2"), ({3: 2}, "layer 3 not in 1..2"),
        ({True: 2}, "layer True not in"), ({1: 0}, r"experts\[1\] must be"),
        ({1: 2.0}, r"experts\[1\] must be"), ({1: 2, 2: 1}, "top_k 2 > 1 experts of layer 2"),
    ])
    def test_malformed_expert_map_rejected(self, experts, message):
        bad = ModelShape(num_layers=2, hidden_dim=8, mlp_dim=16, num_heads=2,
                         num_kv_heads=1, head_dim=4, vocab_size=16,
                         moe=MoEShape(experts, top_k=2))
        with pytest.raises(InvalidShape, match=message):
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

    def test_json_round_trip(self, tmp_path):
        plan = self.plan()
        assert plan_from_dict(plan_to_dict(plan)) == plan
        write_json(tmp_path / "plan.json", plan_to_dict(plan))
        assert load_plan(tmp_path / "plan.json", 4) == plan

    def test_json_format(self, tmp_path):
        write_json(tmp_path / "plan.json", plan_to_dict(self.plan()))
        assert json.loads((tmp_path / "plan.json").read_text()) == {
            "keep": [1, 2, 4], "prune": [3], "blocks": [{"base": 2, "redundant": [3]}]}

    def test_unknown_plan_key_rejected(self):
        with pytest.raises(InvalidPlan, match="unknown"):
            plan_from_json('{"keep": [1], "prune": [], "blocks": [], "extra": 1}')

    @given(key=st.sampled_from(["keep", "prune", "base", "redundant"]),
           value=st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                           st.sampled_from([4.0, 4.9, True, "4", [4]])))
    def test_layer_index_that_is_not_a_json_integer_is_invalid_plan(self, key, value):
        doc = {"keep": [1, 2, 3, 4], "prune": [5], "blocks": [{"base": 4, "redundant": [5]}]}
        if key == "base":
            doc["blocks"][0]["base"] = value
        else:  # the last index of the list
            entry = doc["blocks"][0] if key == "redundant" else doc
            entry[key][-1] = value
        message = f"^plan {key}: {re.escape(repr(value))} is not a layer index$"
        with pytest.raises(InvalidPlan, match=message):
            plan_from_dict(doc)


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
        # the scoring knobs are checked where the search scores its blocks
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvalidConfig, match="score_penalty"):
            search(SimilarityMatrices(eye, eye, eye),
                   SearchThresholds(cos_threshold=0.05, norm_tolerance=0.1,
                                    score_penalty=penalty))


# digits that str.isdigit() accepts and int() refuses, such as superscript two
UNREADABLE_DIGITS = [chr(c) for c in range(0x3000) if chr(c).isdigit() and not chr(c).isdecimal()]


class TestExpertKeys:
    @given(key=st.tuples(st.sampled_from(["", "1", "2"]),
                         st.sampled_from(UNREADABLE_DIGITS)).map("".join))
    def test_a_digit_int_cannot_read_is_not_a_layer_index(self, key):
        doc = dict(asdict(QWEN25_0_5B), moe={"experts": {key: 2}, "top_k": 1})
        message = f"model.moe.experts key {key!r} is not a layer index"
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            shape_from_dict(doc)


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
            "workload": {"prompt_len": 1000, "gen_len": 50},
        }

    def test_parse_reference_config(self):
        config = parse_config(self.doc())
        assert config.model == QWEN25_0_5B
        assert config.hardware == THOR_U
        assert config.workload == DEFAULT_WORKLOAD

    def test_unknown_top_level_key_rejected(self):
        # no stage reads a router or thresholds section, so neither is a config key
        for key, section in [("surprise", {}), ("router", {"temperature": 1.0}),
                             ("thresholds", {"cos_threshold": 0.05, "norm_tolerance": 0.1})]:
            doc = self.doc()
            doc[key] = section
            with pytest.raises(InvalidConfig, match=key):
                parse_config(doc)

    def test_unknown_nested_key_rejected(self):
        doc = self.doc()
        doc["workload"]["tokens_per_second"] = 5
        with pytest.raises(InvalidConfig, match="tokens_per_second"):
            parse_config(doc)

    def test_moe_section(self):
        doc = self.doc()
        doc["model"]["moe"] = {"experts": {"4": 6, "20": 2}, "top_k": 1}
        config = parse_config(doc)
        assert config.model.moe == MoEShape({4: 6, 20: 2}, 1)

    def test_missing_model_rejected(self):
        with pytest.raises(InvalidConfig, match="model"):
            parse_config({"hardware": {"peak_flops": 1, "mem_bandwidth": 1}})

    def test_defaults_when_sections_absent(self):
        config = parse_config({"model": self.doc()["model"]})
        assert config.hardware == THOR_U
        assert config.workload == DEFAULT_WORKLOAD

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.doc()))
        assert load_config(path).model == QWEN25_0_5B

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(InvalidConfig, match="JSON"):
            load_config(path)


# --- property tests of the config document ----------------------------------------

counts = st.integers(min_value=1, max_value=1 << 20)
positive_numbers = (st.floats(min_value=1e-300, max_value=1e300)
                    | st.integers(min_value=1, max_value=1 << 60))


def moe_shapes(num_layers):
    """Pools of 1..64 experts at up to five of the layers, and a top-k no
    larger than the smallest."""
    return st.dictionaries(st.integers(min_value=1, max_value=num_layers),
                           st.integers(min_value=1, max_value=64), min_size=1, max_size=5
                           ).flatmap(lambda experts: st.builds(
                               MoEShape, st.just(experts),
                               st.integers(min_value=1, max_value=min(experts.values()))))


@st.composite
def model_shapes(draw):
    num_kv_heads = draw(st.integers(min_value=1, max_value=16))
    num_layers = draw(counts)
    return ModelShape(num_layers=num_layers, hidden_dim=draw(counts), mlp_dim=draw(counts),
                      num_heads=num_kv_heads * draw(st.integers(min_value=1, max_value=16)),
                      num_kv_heads=num_kv_heads, head_dim=draw(counts),
                      vocab_size=draw(counts), tied_embedding=draw(st.booleans()),
                      moe=draw(st.none() | moe_shapes(num_layers)))


configs = st.builds(
    PipelineConfig, model=model_shapes(),
    hardware=st.builds(HardwareProfile, peak_flops=positive_numbers,
                       mem_bandwidth=positive_numbers, weight_bytes=positive_numbers,
                       kv_bytes=positive_numbers),
    workload=st.builds(Workload, prompt_len=counts, gen_len=counts))

SECTION_TYPES = {(): PipelineConfig, ("model",): ModelShape, ("model", "moe"): MoEShape,
                 ("hardware",): HardwareProfile, ("workload",): Workload}
# values of the wrong type for every field, except where noted in allowed_value
BAD_VALUES = {"string": "1", "true": True, "false": False, "null": None,
              "inf": math.inf, "-inf": -math.inf}


def allowed_value(key, kind):
    return (key == "tied_embedding" and kind in ("true", "false")) or \
        (key == "moe" and kind == "null")


class TestConfigProperties:
    @given(configs)
    def test_asdict_json_round_trip(self, config):
        text = json.dumps(asdict(config))
        assert parse_config(json.loads(text)) == config

    @given(configs)
    def test_every_mutation_raises_d2m_error(self, config):
        """Each key of each section, in turn: dropped, joined by an unknown
        key, or set to each of BAD_VALUES."""
        text = json.dumps(asdict(config))
        for path, cls in SECTION_TYPES.items():
            if path == ("model", "moe") and config.model.moe is None:
                continue
            for field in fields(cls):
                for kind in ("drop", "add", *BAD_VALUES):
                    doc = json.loads(text)
                    section = doc
                    for name in path:
                        section = section[name]
                    if kind == "drop":
                        del section[field.name]
                        valid = field.default is not MISSING
                    elif kind == "add":
                        section["unexpected"] = 1
                        valid = False
                    else:
                        section[field.name] = BAD_VALUES[kind]
                        valid = allowed_value(field.name, kind)
                    if valid:
                        parse_config(doc)
                    else:
                        with pytest.raises(D2mError):
                            parse_config(doc)
