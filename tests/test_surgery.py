"""Fusion surgery: copy semantics, verification audits, tamper detection,
functional equivalence against plan-pruned references, and exact parameter
accounting."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2m.config import FusionBlock, FusionPlan, ModelShape, MoEShape, tensor_schema, write_json
from d2m.errors import PlanModelMismatch, VerificationFailure
from d2m.nanomodel import build_toy_container, forward_trace, layer_forward, layers_of
from d2m.surgery import (
    functional_equivalence_check,
    fuse,
    provenance_to_dict,
    reference_pruned_model,
    verify_fusion,
)
from d2m.config import attention_tensor_names
from d2m.traceio import param_count, validate_container

SHAPE = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                   num_kv_heads=1, head_dim=8, vocab_size=24)
PLAN = FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                  blocks=(FusionBlock(base=2, redundant=(3,)),))


def toy_dense(seed=3, duplicates=((2, 1),)):
    return build_toy_container(SHAPE, seed=seed, duplicate_from=duplicates)


class TestFuse:
    def test_empty_plan_is_identity(self):
        dense = toy_dense()
        plan = FusionPlan(keep_layers=(1, 2, 3, 4), prune_layers=frozenset(), blocks=())
        fused, provenance = fuse(dense, plan, base_copies=2, supp_copies=2, top_k=1)
        assert provenance == {}
        assert fused.shape.moe is None
        assert list(fused.tensors) == list(dense.tensors)
        for name in dense.tensors:
            assert np.array_equal(fused.tensors[name], dense.tensors[name])

    def test_single_block_copy_semantics(self):
        dense = toy_dense()
        fused, provenance = fuse(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        assert fused.shape.num_layers == 3
        assert fused.shape.experts == {2: 2}
        # expert 1 is the base layer's MLP, expert 2 the pruned layer's, bit-exact
        for part in ("up", "gate", "down"):
            assert np.array_equal(fused.tensors[f"layer.2.moe.expert.1.{part}"],
                                  dense.tensors[f"layer.2.mlp.{part}"])
            assert np.array_equal(fused.tensors[f"layer.2.moe.expert.2.{part}"],
                                  dense.tensors[f"layer.3.mlp.{part}"])
        sources = provenance[2]
        assert [(s.kind, s.source_layer) for s in sources] == [("base", 2), ("redundant", 3)]

    def test_paper_style_expert_pool_size(self):
        # one redundant source with 4 base copies and 2 copies per source: 6 experts
        dense = toy_dense()
        fused, provenance = fuse(dense, PLAN, base_copies=4, supp_copies=2, top_k=1)
        assert fused.shape.moe == MoEShape({2: 6}, top_k=1)
        kinds = [s.kind for s in provenance[2]]
        assert kinds == ["base"] * 4 + ["redundant"] * 2

    def test_router_zero_initialized_and_uniform(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=2, supp_copies=2, top_k=1)
        assert not np.any(fused.tensors["layer.2.router"])
        layer = layers_of(fused)[1]
        x = np.random.default_rng(0).standard_normal((5, 16))
        _, _, record = layer_forward(layer, x)
        np.testing.assert_allclose(record.probabilities, 0.25, atol=1e-15)

    def test_kept_layers_renumbered_in_order(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        for name in attention_tensor_names(4):
            suffix = name.split(".", 2)[2]
            assert np.array_equal(fused.tensors[f"layer.3.{suffix}"], dense.tensors[name])

    def test_pure_function_of_inputs(self):
        a, _ = fuse(toy_dense(), PLAN, base_copies=2, supp_copies=1, top_k=1)
        b, _ = fuse(toy_dense(), PLAN, base_copies=2, supp_copies=1, top_k=1)
        assert list(a.tensors) == list(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_moe_source_rejected(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        inner_plan = FusionPlan(keep_layers=(1, 2, 3), prune_layers=frozenset(), blocks=())
        with pytest.raises(PlanModelMismatch):
            fuse(fused, inner_plan, base_copies=1, supp_copies=1, top_k=1)

    def test_plan_layer_count_mismatch(self):
        small = build_toy_container(
            ModelShape(num_layers=2, hidden_dim=16, mlp_dim=32, num_heads=2,
                       num_kv_heads=1, head_dim=8, vocab_size=24), seed=1)
        with pytest.raises(PlanModelMismatch):
            fuse(small, PLAN, base_copies=1, supp_copies=1, top_k=1)

    def test_only_an_invalid_plan_becomes_a_mismatch(self, monkeypatch):
        def broken(plan, num_layers):
            raise RuntimeError("a bug in the validator, not a bad plan")

        monkeypatch.setattr("d2m.surgery.validate_plan", broken)
        with pytest.raises(RuntimeError, match="a bug in the validator"):
            fuse(toy_dense(), PLAN, base_copies=1, supp_copies=1, top_k=1)

    def test_multi_block_heterogeneous_sizes(self):
        shape = ModelShape(num_layers=7, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=24)
        dense = build_toy_container(shape, seed=9)
        plan = FusionPlan(
            keep_layers=(1, 2, 4, 7), prune_layers=frozenset({3, 5, 6}),
            blocks=(FusionBlock(base=2, redundant=(3,)),
                    FusionBlock(base=4, redundant=(5, 6))))
        fused, provenance = fuse(dense, plan, base_copies=1, supp_copies=2, top_k=1)
        assert fused.shape.moe == MoEShape({2: 3, 3: 5}, top_k=1)
        verify_fusion(dense, fused, plan, provenance)
        validate_container(fused)

    def test_parameter_accounting_identity(self):
        shape = ModelShape(num_layers=7, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=24)
        dense = build_toy_container(shape, seed=10)
        plan = FusionPlan(
            keep_layers=(1, 2, 4, 7), prune_layers=frozenset({3, 5, 6}),
            blocks=(FusionBlock(base=2, redundant=(3,)),
                    FusionBlock(base=4, redundant=(5, 6))))
        base_copies, supp_copies = 2, 2
        fused, _ = fuse(dense, plan, base_copies, supp_copies, top_k=1)

        attn = sum(dense.tensors[n].size
                   for layer in plan.prune_layers
                   for n in attention_tensor_names(layer)
                   if "norm" not in n)
        norms = sum(dense.tensors[f"layer.{layer}.attn_norm"].size
                    + dense.tensors[f"layer.{layer}.mlp_norm"].size
                    + dense.tensors[f"layer.{layer}.attn.q_norm"].size
                    + dense.tensors[f"layer.{layer}.attn.k_norm"].size
                    for layer in plan.prune_layers)
        mlp_params = sum(dense.tensors[f"layer.1.mlp.{part}"].size
                         for part in ("up", "gate", "down"))
        added = 0
        for block in plan.blocks:
            n_experts = base_copies + len(block.redundant) * supp_copies
            added += (n_experts - 1 - len(block.redundant)) * mlp_params
            added += n_experts * shape.hidden_dim  # router
        assert param_count(fused) == param_count(dense) - attn - norms + added


class TestVerifyFusion:
    def fused(self):
        dense = toy_dense()
        fused, provenance = fuse(dense, PLAN, base_copies=2, supp_copies=1, top_k=1)
        return dense, fused, provenance

    def test_clean_fusion_passes_all_checks(self):
        dense, fused, provenance = self.fused()
        report = verify_fusion(dense, fused, PLAN, provenance)
        assert report.ok
        assert all(c.passed for c in report.checks)

    def test_tampered_expert_named(self):
        dense, fused, provenance = self.fused()
        fused.tensors["layer.2.moe.expert.2.gate"][0, 0] += 1e-8
        with pytest.raises(VerificationFailure, match="layer.2.moe.expert.2.gate"):
            verify_fusion(dense, fused, PLAN, provenance)

    def test_nonzero_router_detected(self):
        dense, fused, provenance = self.fused()
        fused.tensors["layer.2.router"][3, 1] = 1e-9
        with pytest.raises(VerificationFailure, match="zero_router"):
            verify_fusion(dense, fused, PLAN, provenance)

    def test_per_expert_norm_injection_detected(self):
        dense, fused, provenance = self.fused()
        fused.tensors["layer.2.moe.expert.1.norm"] = np.ones(16)
        with pytest.raises(VerificationFailure, match="single_shared_norm"):
            verify_fusion(dense, fused, PLAN, provenance)

    def test_tampered_attention_detected(self):
        dense, fused, provenance = self.fused()
        fused.tensors["layer.3.attn.q"][0, 0] *= 1.0000001
        with pytest.raises(VerificationFailure, match="layer.3.attn.q"):
            verify_fusion(dense, fused, PLAN, provenance)

    def test_report_rides_on_exception(self):
        dense, fused, provenance = self.fused()
        fused.tensors["layer.2.router"][0, 0] = 1.0
        with pytest.raises(VerificationFailure) as info:
            verify_fusion(dense, fused, PLAN, provenance)
        assert info.value.report is not None
        assert not info.value.report.ok

    def test_provenance_document_as_written(self, tmp_path):
        _, _, provenance = self.fused()
        write_json(tmp_path / "prov.json", provenance_to_dict(provenance))
        assert (tmp_path / "prov.json").read_text() == (
            '{\n'
            '  "2": [\n'
            '    {\n'
            '      "copy_index": 1,\n'
            '      "kind": "base",\n'
            '      "source_layer": 2\n'
            '    },\n'
            '    {\n'
            '      "copy_index": 2,\n'
            '      "kind": "base",\n'
            '      "source_layer": 2\n'
            '    },\n'
            '    {\n'
            '      "copy_index": 1,\n'
            '      "kind": "redundant",\n'
            '      "source_layer": 3\n'
            '    }\n'
            '  ]\n'
            '}\n')


@st.composite
def fusion_cases(draw):
    """A small dense model (tied or untied, L in 2..7), a valid plan over it
    with its blocks in any order, K and M in 1..3, and a top-k no larger than
    the smallest expert pool."""
    num_kv_heads = draw(st.integers(1, 2))
    shape = ModelShape(num_layers=draw(st.integers(2, 7)), hidden_dim=draw(st.integers(1, 6)),
                       mlp_dim=draw(st.integers(1, 6)),
                       num_heads=num_kv_heads * draw(st.integers(1, 2)),
                       num_kv_heads=num_kv_heads, head_dim=draw(st.integers(1, 4)),
                       vocab_size=draw(st.integers(1, 8)), tied_embedding=draw(st.booleans()))
    # cut 1..L into runs: a run of one is a plain kept layer, a longer run is
    # a block whose first layer is the base
    blocks, layer = [], 1
    while layer <= shape.num_layers:
        run = draw(st.integers(1, shape.num_layers - layer + 1))
        if run > 1:
            blocks.append(FusionBlock(base=layer, redundant=tuple(range(layer + 1, layer + run))))
        layer += run
    prune = frozenset(r for b in blocks for r in b.redundant)
    plan = FusionPlan(
        keep_layers=tuple(n for n in range(1, shape.num_layers + 1) if n not in prune),
        prune_layers=prune, blocks=tuple(draw(st.permutations(blocks))))
    base_copies, supp_copies = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    smallest = min((base_copies + len(b.redundant) * supp_copies for b in blocks), default=1)
    seed = draw(st.integers(0, 2 ** 16))
    dense = build_toy_container(shape, seed=seed)
    # norm scales start at one in every layer; make them differ, so that a
    # norm taken from the wrong layer shows
    rng = np.random.default_rng(seed)
    for name, tensor in dense.tensors.items():
        if name.endswith("norm"):
            tensor += rng.standard_normal(tensor.shape)
    return dense, plan, base_copies, supp_copies, draw(st.integers(1, smallest))


class TestFusionProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=fusion_cases())
    def test_fuse_passes_verification_and_any_tampering_is_named(self, case):
        dense, plan, base_copies, supp_copies, top_k = case
        fused, provenance = fuse(dense, plan, base_copies, supp_copies, top_k)
        report = verify_fusion(dense, fused, plan, provenance)
        assert list(fused.tensors) == [
            name for name, _ in tensor_schema(fused.shape)]
        named = Counter(c.name.partition(":")[2] for c in report.checks)
        assert all(named[name] == 1 for name in fused.tensors)

        for name in list(fused.tensors):
            original = fused.tensors[name].copy()
            flat = fused.tensors[name].reshape(-1)
            flat[0] += 1e-6 * (1 + abs(flat[0]))
            with pytest.raises(VerificationFailure) as info:
                verify_fusion(dense, fused, plan, provenance)
            failed = [c.name for c in info.value.report.checks if not c.passed]
            assert [c.partition(":")[2] for c in failed] == [name]
            assert name in str(info.value)
            fused.tensors[name][...] = original

        for layer in fused.shape.experts:
            extra = f"layer.{layer}.moe.expert.1.norm"
            fused.tensors[extra] = np.ones(dense.shape.hidden_dim)
            with pytest.raises(VerificationFailure, match=re.escape(extra)):
                verify_fusion(dense, fused, plan, provenance)
            del fused.tensors[extra]


class TestFunctionalEquivalence:
    def test_duplicate_layer_fixture(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        probe = np.random.default_rng(1).standard_normal((6, 16))
        assert functional_equivalence_check(dense, fused, PLAN, probe) < 1e-12

    def test_forced_redundant_expert_copy_semantics(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        probe = np.random.default_rng(2).standard_normal((5, 16))
        # forcing the redundant-source expert reproduces the source MLP applied
        # to the shared normed state
        out, _, _ = forward_trace(fused, probe, forced_expert=2)
        from d2m.nanomodel import mlp_apply, pre_mlp_state, rms_norm, GluMlp

        reference = reference_pruned_model(dense, PLAN)
        state = probe
        ref_layers = layers_of(reference)
        fused_layers = layers_of(fused)
        # walk to the fused block and apply the source MLP by hand
        _, state, _ = layer_forward(ref_layers[0], state)
        h = pre_mlp_state(fused_layers[1], state)
        src = GluMlp(dense.tensors["layer.3.mlp.up"], dense.tensors["layer.3.mlp.gate"],
                     dense.tensors["layer.3.mlp.down"])
        expected_block = h + mlp_apply(src, rms_norm(h, fused_layers[1].mlp_norm))
        _, y, _ = layer_forward(fused_layers[1], state, forced_expert=2)
        np.testing.assert_allclose(y, expected_block, atol=0)

    def test_twenty_seeded_probes(self):
        worst = 0.0
        for seed in range(20):
            dense = toy_dense(seed=seed)
            fused, _ = fuse(dense, PLAN, base_copies=2, supp_copies=2, top_k=1)
            probe = np.random.default_rng(1000 + seed).standard_normal((4, 16))
            worst = max(worst, functional_equivalence_check(dense, fused, PLAN, probe))
        assert worst < 1e-12

    def test_expert_permutation_preserves_outputs(self):
        dense = toy_dense()
        fused, _ = fuse(dense, PLAN, base_copies=2, supp_copies=2, top_k=2)
        probe = np.random.default_rng(3).standard_normal((5, 16))
        layer = layers_of(fused)[1]
        # non-trivial router so gates differ across experts
        layer.router[...] = np.random.default_rng(4).standard_normal(layer.router.shape)
        _, y, _ = layer_forward(layer, probe)
        perm = [3, 1, 0, 2]
        from d2m.nanomodel import MoELayer

        permuted = MoELayer(attn=layer.attn, mlp_norm=layer.mlp_norm,
                            experts=tuple(layer.experts[p] for p in perm),
                            router=layer.router[:, perm], top_k=2)
        _, y_perm, _ = layer_forward(permuted, probe)
        np.testing.assert_allclose(y_perm, y, atol=1e-12)
