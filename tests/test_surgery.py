"""Fusion surgery: copy semantics, verification audits, tamper detection,
functional equivalence against plan-pruned references, and exact parameter
accounting."""

import os
import re
import struct
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2m import surgery
from d2m.config import (
    FusionBlock,
    FusionPlan,
    ModelShape,
    MoEShape,
    tensor_schema,
    write_json,
)
from d2m.errors import DimensionMismatch, NonFiniteValue, PlanModelMismatch, VerificationFailure
from d2m.nanomodel import (GluMlp, build_toy_container, forward_trace, layer_forward,
                           layers_of, mlp_apply, rms_norm)
from d2m.surgery import (
    ExpertProvenance,
    FusionReport,
    functional_equivalence_check,
    fuse,
    provenance_to_dict,
    reference_pruned_model,
    verify_fusion,
)
from d2m.traceio import WeightContainer, read_weights, validate_container, write_weights
from d2m.weightfile import WeightsFile, open_weights, write_entry

# the seven attention tensors of a layer, after its "layer.{l}." prefix
ATTENTION_PARTS = ("attn_norm", "attn.q", "attn.k", "attn.v", "attn.o",
                   "attn.q_norm", "attn.k_norm")
SHAPE = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                   num_kv_heads=1, head_dim=8, vocab_size=24)
PLAN = FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                  blocks=(FusionBlock(base=2, redundant=(3,)),))
SIGN, ULP = 0x80000000, 0x1  # float32 bit masks: the sign and the lowest bit


def toy_dense(seed=3, duplicates=((2, 1),)):
    return build_toy_container(SHAPE, seed=seed, duplicate_from=duplicates)


def fused_model(dense: WeightContainer, plan: FusionPlan, base_copies: int, supp_copies: int,
                top_k: int) -> tuple[WeightContainer, ExpertProvenance]:
    """``fuse`` of ``dense``, written to a weights file, and the fused file
    read back, with the provenance. Writing rounds ``dense`` to float32."""
    with tempfile.TemporaryDirectory() as tmp:
        dense_path, fused_path = Path(tmp, "dense.d2mw"), Path(tmp, "fused.d2mw")
        write_weights(dense, dense_path)
        provenance, _ = fuse(dense_path, plan, base_copies, supp_copies, top_k, fused_path)
        return read_weights(fused_path), provenance


def flip_bits(path: Path, offset: int, mask: int) -> None:
    """XOR ``mask`` into the little-endian u32 at ``offset`` of the file at
    ``path``, in place, so a second flip undoes it."""
    fd = os.open(path, os.O_RDWR)
    try:
        (bits,) = struct.unpack("<I", os.pread(fd, 4, offset))
        os.pwrite(fd, struct.pack("<I", bits ^ mask), offset)
    finally:
        os.close(fd)


@dataclass
class Fusion:
    """A dense weights file and its fusion at ``path``, both open."""

    dense: WeightsFile
    fused: WeightsFile
    path: Path
    provenance: ExpertProvenance
    report: FusionReport

    def flip(self, name: str, index: int, mask: int) -> None:
        """``flip_bits`` of the float32 at flat ``index`` of the fused tensor
        ``name``, under the open files."""
        flip_bits(self.path, self.fused.tensors[name][1] + 4 * index, mask)

    def verify(self, plan: FusionPlan) -> FusionReport:
        return verify_fusion(self.dense, self.fused, plan, self.provenance)


@contextmanager
def fused_files(root, dense: WeightContainer, plan: FusionPlan, base_copies: int,
                supp_copies: int, top_k: int):
    """``dense`` written under ``root`` and fused there, then both files open
    for the block as a ``Fusion``."""
    dense_path, fused_path = Path(root, "dense.d2mw"), Path(root, "fused.d2mw")
    write_weights(dense, dense_path)
    provenance, report = fuse(dense_path, plan, base_copies, supp_copies, top_k, fused_path)
    with open_weights(dense_path) as source, open_weights(fused_path) as result:
        yield Fusion(source, result, fused_path, provenance, report)


def inject(path: Path, name: str, dims: tuple[int, ...], destination: Path) -> None:
    """The weights file at ``path`` with one more entry, of zeros, at
    ``destination``."""
    with open(destination, "wb") as out:
        out.write(path.read_bytes())
        write_entry(out, name, dims, bytes(4 * int(np.prod(dims))))


def wrong_expert_source(monkeypatch) -> None:
    """Make ``fuse`` copy layer 1's up projection into the first expert of
    every MoE layer, a fault only ``verify_fusion`` can see."""
    layout = surgery._layout

    def wrong_source(*args):
        provenance, entries = layout(*args)
        return provenance, (
            (name, dims, "layer.1.mlp.up" if re.fullmatch(r"layer\.\d+\.moe\.expert\.1\.up",
                                                           name) else source)
            for name, dims, source in entries)

    monkeypatch.setattr(surgery, "_layout", wrong_source)


class TestFuse:
    def test_empty_plan_is_identity(self):
        dense = toy_dense()
        plan = FusionPlan(keep_layers=(1, 2, 3, 4), prune_layers=frozenset(), blocks=())
        fused, provenance = fused_model(dense, plan, base_copies=2, supp_copies=2, top_k=1)
        assert provenance == {}
        assert fused.shape.moe is None
        assert list(fused.tensors) == list(dense.tensors)
        for name in dense.tensors:
            assert np.array_equal(fused.tensors[name], dense.tensors[name])

    def test_single_block_copy_semantics(self):
        dense = toy_dense()
        fused, provenance = fused_model(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
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
        fused, provenance = fused_model(dense, PLAN, base_copies=4, supp_copies=2, top_k=1)
        assert fused.shape.moe == MoEShape({2: 6}, top_k=1)
        kinds = [s.kind for s in provenance[2]]
        assert kinds == ["base"] * 4 + ["redundant"] * 2

    def test_router_zero_initialized_and_uniform(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=2, supp_copies=2, top_k=1)
        assert not np.any(fused.tensors["layer.2.router"])
        layer = layers_of(fused)[1]
        x = np.random.default_rng(0).standard_normal((5, 16))
        _, _, record = layer_forward(layer, x)
        np.testing.assert_allclose(record.probabilities, 0.25, atol=1e-15)

    def test_kept_layers_renumbered_in_order(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        for part in ATTENTION_PARTS:
            assert np.array_equal(fused.tensors[f"layer.3.{part}"], dense.tensors[f"layer.4.{part}"])

    def test_pure_function_of_inputs(self, tmp_path):
        write_weights(toy_dense(), tmp_path / "dense.d2mw")
        for name in ("a.d2mw", "b.d2mw"):
            fuse(tmp_path / "dense.d2mw", PLAN, base_copies=2, supp_copies=1, top_k=1,
                 destination=tmp_path / name)
        assert (tmp_path / "a.d2mw").read_bytes() == (tmp_path / "b.d2mw").read_bytes()

    def test_moe_source_rejected(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        inner_plan = FusionPlan(keep_layers=(1, 2, 3), prune_layers=frozenset(), blocks=())
        with pytest.raises(PlanModelMismatch):
            fused_model(fused, inner_plan, base_copies=1, supp_copies=1, top_k=1)

    def test_plan_layer_count_mismatch(self):
        small = build_toy_container(
            ModelShape(num_layers=2, hidden_dim=16, mlp_dim=32, num_heads=2,
                       num_kv_heads=1, head_dim=8, vocab_size=24), seed=1)
        with pytest.raises(PlanModelMismatch):
            fused_model(small, PLAN, base_copies=1, supp_copies=1, top_k=1)

    @pytest.mark.parametrize("counts", [(1.5, 1, 1), (1, True, 1), (1, 1, 2.0), (1, 1, 0)],
                             ids=["float-K", "bool-M", "float-top-k", "zero-top-k"])
    def test_a_count_that_is_not_a_positive_int_is_refused_naming_it(self, tmp_path, counts):
        write_weights(toy_dense(), tmp_path / "dense.d2mw")
        message = ("base_copies, supp_copies and top_k must be positive counts, got "
                   + ", ".join(map(repr, counts)))
        with pytest.raises(PlanModelMismatch, match=f"^{re.escape(message)}$"):
            fuse(tmp_path / "dense.d2mw", PLAN, *counts, destination=tmp_path / "f.d2mw")
        assert [p.name for p in tmp_path.iterdir()] == ["dense.d2mw"]

    def test_only_an_invalid_plan_becomes_a_mismatch(self, monkeypatch):
        def broken(plan, num_layers):
            raise RuntimeError("a bug in the validator, not a bad plan")

        monkeypatch.setattr("d2m.surgery.validate_plan", broken)
        with pytest.raises(RuntimeError, match="a bug in the validator"):
            fused_model(toy_dense(), PLAN, base_copies=1, supp_copies=1, top_k=1)

    def test_multi_block_heterogeneous_sizes(self, tmp_path):
        shape = ModelShape(num_layers=7, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=24)
        dense = build_toy_container(shape, seed=9)
        plan = FusionPlan(
            keep_layers=(1, 2, 4, 7), prune_layers=frozenset({3, 5, 6}),
            blocks=(FusionBlock(base=2, redundant=(3,)),
                    FusionBlock(base=4, redundant=(5, 6))))
        with fused_files(tmp_path, dense, plan, base_copies=1, supp_copies=2, top_k=1) as f:
            assert f.fused.shape.moe == MoEShape({2: 3, 3: 5}, top_k=1)
            assert f.verify(plan) == f.report
        validate_container(read_weights(f.path))

    def test_parameter_accounting_identity(self):
        shape = ModelShape(num_layers=7, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=24)
        dense = build_toy_container(shape, seed=10)
        plan = FusionPlan(
            keep_layers=(1, 2, 4, 7), prune_layers=frozenset({3, 5, 6}),
            blocks=(FusionBlock(base=2, redundant=(3,)),
                    FusionBlock(base=4, redundant=(5, 6))))
        base_copies, supp_copies = 2, 2
        fused, _ = fused_model(dense, plan, base_copies, supp_copies, top_k=1)

        attn = sum(dense.tensors[n].size
                   for layer in plan.prune_layers
                   for n in (f"layer.{layer}.{part}" for part in ATTENTION_PARTS)
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
        assert sum(t.size for t in fused.tensors.values()) == \
            sum(t.size for t in dense.tensors.values()) - attn - norms + added

    def test_a_failed_check_keeps_the_destination_and_leaves_no_temp(self, tmp_path,
                                                                     monkeypatch):
        write_weights(toy_dense(), tmp_path / "dense.d2mw")
        destination = tmp_path / "fused.d2mw"
        destination.write_bytes(b"an earlier fused model")
        wrong_expert_source(monkeypatch)
        with pytest.raises(VerificationFailure, match=re.escape(
                "expert_copy:layer.2.moe.expert.1.up: layer.2.moe.expert.1.up must be a "
                "bit-exact copy of dense layer.2.mlp.up")):
            fuse(tmp_path / "dense.d2mw", PLAN, 1, 1, 1, destination)
        assert destination.read_bytes() == b"an earlier fused model"
        assert sorted(tmp_path.glob(".fused.d2mw.*.tmp")) == []

    def test_a_non_finite_dense_tensor_is_refused_before_the_destination_exists(self,
                                                                               tmp_path):
        dense_path, destination = tmp_path / "dense.d2mw", tmp_path / "fused.d2mw"
        write_weights(toy_dense(), dense_path)
        with open_weights(dense_path) as dense:
            _, offset = dense.tensors["layer.4.mlp.down"]
        fd = os.open(dense_path, os.O_WRONLY)
        try:
            os.pwrite(fd, struct.pack("<f", float("nan")), offset + 4)
        finally:
            os.close(fd)
        with pytest.raises(NonFiniteValue, match=re.escape(
                f"{dense_path}: tensor 'layer.4.mlp.down' contains non-finite values")):
            fuse(dense_path, PLAN, 1, 1, 1, destination)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dense.d2mw"]


class TestVerifyFusion:
    @pytest.fixture
    def fusion(self, tmp_path):
        with fused_files(tmp_path, toy_dense(), PLAN, base_copies=2, supp_copies=1,
                         top_k=1) as fusion:
            yield fusion

    def test_clean_fusion_passes_all_checks(self, fusion):
        report = fusion.verify(PLAN)
        assert report.ok
        assert all(c.passed for c in report.checks)
        assert report == fusion.report

    def test_tampered_expert_named(self, fusion):
        fusion.flip("layer.2.moe.expert.2.gate", 0, ULP)
        with pytest.raises(VerificationFailure, match="layer.2.moe.expert.2.gate"):
            fusion.verify(PLAN)

    def test_nonzero_router_detected(self, fusion):
        router = "layer.2.router"
        fusion.flip(router, 3 * fusion.fused.tensors[router][0][1] + 1, ULP)
        with pytest.raises(VerificationFailure, match="zero_router"):
            fusion.verify(PLAN)

    def test_per_expert_norm_injection_detected(self, fusion, tmp_path):
        # a file cannot hold a tensor its shape has no place for: the header
        # walker refuses it, naming it, before any check runs
        extra = "layer.2.moe.expert.1.norm"
        inject(fusion.path, extra, (16,), tmp_path / "injected.d2mw")
        with open_weights(tmp_path / "injected.d2mw") as injected:
            with pytest.raises(DimensionMismatch, match=re.escape(
                    f"unexpected tensors not in schema: [{extra!r}]")):
                verify_fusion(fusion.dense, injected, PLAN, fusion.provenance)

    def test_tampered_attention_detected(self, fusion):
        fusion.flip("layer.3.attn.q", 0, ULP)
        with pytest.raises(VerificationFailure, match="layer.3.attn.q"):
            fusion.verify(PLAN)

    def test_report_rides_on_exception(self, fusion):
        fusion.flip("layer.2.router", 0, 0x3F800000)  # 1.0
        with pytest.raises(VerificationFailure) as info:
            fusion.verify(PLAN)
        assert info.value.report is not None
        assert not info.value.report.ok

    def test_provenance_document_as_written(self, fusion, tmp_path):
        write_json(tmp_path / "prov.json", provenance_to_dict(fusion.provenance))
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


def draw_plan(draw, num_layers: int) -> FusionPlan:
    """A valid plan over ``num_layers`` layers, its blocks in any order: 1..L
    cut into runs, where a run of one is a plain kept layer and a longer run
    a block whose first layer is the base."""
    blocks, layer = [], 1
    while layer <= num_layers:
        run = draw(st.integers(1, num_layers - layer + 1))
        if run > 1:
            blocks.append(FusionBlock(base=layer, redundant=tuple(range(layer + 1, layer + run))))
        layer += run
    prune = frozenset(r for b in blocks for r in b.redundant)
    return FusionPlan(keep_layers=tuple(n for n in range(1, num_layers + 1) if n not in prune),
                      prune_layers=prune, blocks=tuple(draw(st.permutations(blocks))))


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
    plan = draw_plan(draw, shape.num_layers)
    base_copies, supp_copies = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    smallest = min((base_copies + len(b.redundant) * supp_copies for b in plan.blocks),
                   default=1)
    seed = draw(st.integers(0, 2 ** 16))
    dense = build_toy_container(shape, seed=seed)
    # norm scales start at one in every layer; make them differ, so that a
    # norm taken from the wrong layer shows
    rng = np.random.default_rng(seed)
    for name, tensor in dense.tensors.items():
        if name.endswith("norm"):
            tensor += rng.standard_normal(tensor.shape)
    # a zero of either sign in every tensor, so that a copy that turns -0.0
    # into 0.0, or a check that compares values rather than bits, shows
    for tensor in dense.tensors.values():
        tensor.reshape(-1)[rng.integers(tensor.size)] = -0.0 if rng.integers(2) else 0.0
    return dense, plan, base_copies, supp_copies, draw(st.integers(1, smallest))


def one_expert_view(fused: WeightContainer, expert: int) -> WeightContainer:
    """``fused`` with every MoE layer cut to its expert ``expert`` (1-based),
    renumbered 1, and that expert's router column, under top-1 routing."""
    shape = replace(fused.shape, moe=MoEShape(dict.fromkeys(fused.shape.experts, 1), top_k=1))
    tensors = {}
    for name, _ in tensor_schema(shape):
        tensor = fused.tensors[name.replace("moe.expert.1.", f"moe.expert.{expert}.")]
        tensors[name] = tensor[:, expert - 1:expert] if name.endswith(".router") else tensor
    return validate_container(WeightContainer(shape, tensors))


def failed_checks(verify) -> list[str]:
    """The tensor names of the checks that ``verify()`` fails; it must fail."""
    with pytest.raises(VerificationFailure) as info:
        verify()
    failed = [c.name.partition(":")[2] for c in info.value.report.checks if not c.passed]
    assert failed[0] in str(info.value)
    return failed


class TestFusionProperties:
    @settings(max_examples=60, deadline=None)
    @given(case=fusion_cases())
    def test_fuse_passes_verification_and_any_tampering_is_named(self, case):
        dense, plan, base_copies, supp_copies, top_k = case
        with tempfile.TemporaryDirectory() as tmp, \
                fused_files(tmp, dense, plan, base_copies, supp_copies, top_k) as f:
            assert list(f.fused.tensors) == [name for name, _ in tensor_schema(f.fused.shape)]
            named = Counter(c.name.partition(":")[2] for c in f.report.checks)
            assert all(named[name] == 1 for name in f.fused.tensors)

            # one ulp away, and a zero of the other sign: both equal as values
            for name in f.fused.tensors:
                zero = int(np.flatnonzero(np.frombuffer(f.fused.read(name), "<f4") == 0)[0])
                for index, mask in ((0, ULP), (zero, SIGN)):
                    f.flip(name, index, mask)
                    assert failed_checks(lambda: f.verify(plan)) == [name]
                    f.flip(name, index, mask)
            assert f.verify(plan) == f.report

            for layer in f.fused.shape.experts:
                extra = f"layer.{layer}.moe.expert.1.norm"
                injected = Path(tmp, "injected.d2mw")
                inject(f.path, extra, (dense.shape.hidden_dim,), injected)
                with open_weights(injected) as result, \
                        pytest.raises(DimensionMismatch, match=re.escape(repr(extra))):
                    verify_fusion(f.dense, result, plan, f.provenance)

    @settings(max_examples=25, deadline=None)
    @given(case=fusion_cases(), data=st.data())
    def test_file_fusion_copies_bytes_and_any_flipped_bit_is_named(self, case, data):
        dense, plan, base_copies, supp_copies, top_k = case
        with tempfile.TemporaryDirectory() as tmp:
            with fused_files(tmp, dense, plan, base_copies, supp_copies, top_k) as f:
                # each fused tensor, by a derivation of this test's own: the
                # dense tensor it copies, or None for a router of zero bytes
                keep = plan.keep_layers
                sources = {}
                for name in f.fused.tensors:
                    parts = name.split(".")
                    if parts[0] != "layer":
                        sources[name] = name
                    elif parts[2] == "router":
                        sources[name] = None
                    elif parts[2] == "moe":
                        source = f.provenance[int(parts[1])][int(parts[4]) - 1].source_layer
                        sources[name] = f"layer.{source}.mlp.{parts[5]}"
                    else:
                        sources[name] = ".".join(["layer", str(keep[int(parts[1]) - 1]),
                                                  *parts[2:]])
                for name, source in sources.items():
                    want = (bytes(len(f.fused.read(name))) if source is None
                            else f.dense.read(source))
                    assert f.fused.read(name) == want, name
            # the file fuse writes is the one write_weights writes for the
            # model it holds
            whole = Path(tmp, "whole.d2mw")
            write_weights(read_weights(f.path), whole)
            assert f.path.read_bytes() == whole.read_bytes()

            # one ulp of a dense tensor changed after the fusion: exactly the
            # fused tensors copied from it fail, in the report's order
            dense_path = Path(tmp, "dense.d2mw")
            name = data.draw(st.sampled_from(list(dense.tensors)))
            with open_weights(dense_path) as source:
                flip_bits(dense_path, source.tensors[name][1], ULP)
            copies = [fused for fused, source in sources.items() if source == name]

            def verify():
                with open_weights(dense_path) as source, open_weights(f.path) as result:
                    return verify_fusion(source, result, plan, f.provenance)

            if copies:
                assert sorted(failed_checks(verify)) == sorted(copies)
            else:
                assert verify().ok


class TestFunctionalEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(case=fusion_cases().filter(lambda case: case[1].blocks),
           probe_seed=st.integers(0, 2 ** 16))
    def test_a_base_copy_matches_the_pruned_model_and_a_redundant_copy_does_not(
            self, case, probe_seed):
        # no duplicated layers, so a block's redundant MLPs differ from its base
        dense, plan, base_copies, supp_copies, top_k = case
        dense = WeightContainer(dense.shape, {  # the values the weights file holds
            name: t.astype(np.float32).astype(np.float64) for name, t in dense.tensors.items()})
        fused, _ = fused_model(dense, plan, base_copies, supp_copies, top_k)
        probe = np.random.default_rng(probe_seed).standard_normal((4, dense.shape.hidden_dim))
        assert functional_equivalence_check(dense, fused, plan, probe) == 0.0

        reference = reference_pruned_model(dense, plan)
        ref_out, trace, _ = forward_trace(reference, probe)
        redundant_out, _, _ = forward_trace(one_expert_view(fused, base_copies + 1), probe)
        # the earliest block's base and first redundant MLP on the state
        # entering it, which the view and the reference share
        first = min(plan.blocks, key=lambda block: block.base)
        index = plan.keep_layers.index(first.base)
        z = rms_norm(trace.mlp_inputs[index], layers_of(reference)[index].mlp_norm)
        base, redundant = (mlp_apply(GluMlp(*(dense.tensors[f"layer.{l}.mlp.{part}"]
                                              for part in ("up", "gate", "down"))), z)
                           for l in (first.base, first.redundant[0]))
        if not np.array_equal(base, redundant):  # a zeroed tiny MLP can hide the difference
            assert np.max(np.abs(redundant_out - ref_out)) > 0

    def test_duplicate_layer_fixture(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        probe = np.random.default_rng(1).standard_normal((6, 16))
        assert functional_equivalence_check(dense, fused, PLAN, probe) < 1e-12

    def test_forced_redundant_expert_copy_semantics(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=1, supp_copies=1, top_k=1)
        probe = np.random.default_rng(2).standard_normal((5, 16))
        # a view of the block holding only the redundant-source expert
        # reproduces the source MLP applied to the shared normed state
        from d2m.nanomodel import MoELayer, pre_mlp_state

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
        block = fused_layers[1]
        one = MoELayer(attn=block.attn, mlp_norm=block.mlp_norm, experts=(block.experts[1],),
                       router=block.router[:, 1:2], top_k=1)
        _, y, record = layer_forward(one, state)
        np.testing.assert_allclose(y, expected_block, atol=0)
        assert np.all(record.selected == 0)
        assert np.all(record.gates == 1.0)

    def test_twenty_seeded_probes(self):
        worst = 0.0
        for seed in range(20):
            dense = toy_dense(seed=seed)
            fused, _ = fused_model(dense, PLAN, base_copies=2, supp_copies=2, top_k=1)
            probe = np.random.default_rng(1000 + seed).standard_normal((4, 16))
            worst = max(worst, functional_equivalence_check(dense, fused, PLAN, probe))
        assert worst < 1e-12

    def test_expert_permutation_preserves_outputs(self):
        dense = toy_dense()
        fused, _ = fused_model(dense, PLAN, base_copies=2, supp_copies=2, top_k=2)
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
