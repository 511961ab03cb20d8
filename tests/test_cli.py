"""Command-line pipeline: stage composability, deterministic artifact trees,
exit codes, and the run-directory manifest."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from d2m import cli, diagnostics, nanomodel, similarity, surgery, tradeoff, traceio
from d2m.cli import main
from d2m.config import (FusionBlock, FusionPlan, ModelShape, load_plan, output_file,
                        read_matrices, tensor_schema)
from d2m.errors import D2mError, InvalidConfig, IoFailure, OutOfRange, VerificationFailure
from d2m.nanomodel import build_toy_container
from d2m.search import threshold_sweep
from d2m.traceio import WeightContainer, read_weights, synthetic_trace, write_weights
from d2m.weightfile import open_weights

from test_surgery import ULP, Fusion, wrong_expert_source
from test_traceio import repeat_entry

SRC = str(Path(cli.__file__).resolve().parents[1])

QWEN_MODEL = {
    "num_layers": 24, "hidden_dim": 896, "mlp_dim": 4864, "num_heads": 14,
    "num_kv_heads": 2, "head_dim": 64, "vocab_size": 151936,
    "tied_embedding": True, "moe": None,
}
THOR = {"peak_flops": 350e12, "mem_bandwidth": 273e9, "weight_bytes": 2, "kv_bytes": 2}
WORKLOAD = {"prompt_len": 1000, "gen_len": 50}

CANDIDATES_CSV = """config_id,depth,latency_ms,score,reward
L13,13,135.78,29.85,
L15,15,148.84,39.06,
L17,17,161.89,42.76,
L19,19,174.95,47.31,
L21,21,188.00,47.50,
L23,23,201.05,47.93,
"""


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def every_layer(num_layers, num_experts, top_k=1):
    """The ``moe`` object of a model whose every layer is MoE(num_experts)."""
    return {"experts": {str(layer): num_experts for layer in range(1, num_layers + 1)},
            "top_k": top_k}


def write_config(path, model=None):
    doc = {"model": model or QWEN_MODEL, "hardware": THOR, "workload": WORKLOAD}
    Path(path).write_text(json.dumps(doc))


def run_pipeline(root: Path, seed: int = 11) -> dict[str, Path]:
    """Full synth -> analyze -> search -> fuse -> train -> diagnose chain."""
    out = {
        "synth": root / "synth", "analysis": root / "analysis",
        "plan": root / "plan.json", "fused": root / "fused.d2mw",
        "prov": root / "prov.json", "log": root / "train_log.csv",
        "trained": root / "trained.d2mw", "wta": root / "wta.csv",
    }
    assert main(["synth", "--out-dir", str(out["synth"]), "--seed", str(seed),
                 "--layers", "5", "--hidden", "16", "--mlp-dim", "32",
                 "--heads", "2", "--kv-heads", "1", "--head-dim", "8",
                 "--vocab", "32", "--seq-len", "48",
                 "--redundant", "4:1:0.0"]) == 0
    assert main(["analyze", "--trace", str(out["synth"] / "trace.d2mt"),
                 "--out-dir", str(out["analysis"])]) == 0
    assert main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                 "--delta", "0.05", "--epsilon", "0.1",
                 "--plan-out", str(out["plan"])]) == 0
    assert main(["fuse", "--model", str(out["synth"] / "model.d2mw"),
                 "--plan", str(out["plan"]), "--base-copies", "1",
                 "--supp-copies", "1", "--top-k", "1",
                 "--out", str(out["fused"]), "--provenance-out", str(out["prov"])]) == 0
    return out


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory) -> dict[str, Path]:
    """The outputs of ``run_pipeline``, made once for the tests that only
    read them."""
    return run_pipeline(tmp_path_factory.mktemp("readme"))


def files_under(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestPipeline:
    def test_search_prunes_the_planted_duplicate(self, tmp_path):
        out = run_pipeline(tmp_path)
        plan = json.loads(out["plan"].read_text())
        assert plan["prune"] == [5]
        assert plan["blocks"] == [{"base": 4, "redundant": [5]}]

    def test_fuse_consumes_search_output_and_verifies(self, tmp_path):
        out = run_pipeline(tmp_path)
        assert out["fused"].exists() and out["prov"].exists()
        prov = json.loads(out["prov"].read_text())
        assert [s["kind"] for s in prov["4"]] == ["base", "redundant"]

    def test_byte_identical_reruns(self, tmp_path):
        first = run_pipeline(tmp_path / "a")
        second = run_pipeline(tmp_path / "b")
        for key in ("plan", "fused", "prov"):
            assert first[key].read_bytes() == second[key].read_bytes()
        for name in ("model.d2mw", "trace.d2mt", "config.json"):
            assert (first["synth"] / name).read_bytes() == (second["synth"] / name).read_bytes()
        for name in ("s_out.csv", "s_mlp.csv", "delta_norm.csv", "matrices.d2ms"):
            assert (first["analysis"] / name).read_bytes() == (second["analysis"] / name).read_bytes()


class TestAnalyze:
    def test_missing_trace_exits_2_naming_path(self, tmp_path, capsys):
        code = main(["analyze", "--trace", str(tmp_path / "absent.d2mt"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "absent.d2mt" in capsys.readouterr().err

    def test_heatmaps_have_layer_headers(self, tmp_path):
        out = run_pipeline(tmp_path)
        lines = (out["analysis"] / "s_out.csv").read_text().splitlines()
        assert lines[0] == "layer,1,2,3,4,5"
        assert len(lines) == 6


class TestSearchCommand:
    def test_delta_out_of_range_exits_2(self, tmp_path):
        out = run_pipeline(tmp_path)
        code = main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                     "--delta", "1.5", "--epsilon", "0.1",
                     "--plan-out", str(tmp_path / "p.json")])
        assert code == 2

    def test_sweep_grid_cardinality(self, tmp_path):
        out = run_pipeline(tmp_path)
        sweep = tmp_path / "sweep.csv"
        code = main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                     "--sweep", "--delta-grid", "0.001,0.005,0.01,0.05,0.1",
                     "--epsilon-grid", "0.01,0.02,0.05,0.1,0.2",
                     "--sweep-out", str(sweep)])
        assert code == 0
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "delta,epsilon,pruned_count"
        assert len(lines) == 26

    def test_non_integer_block_size_exits_2(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)
        code = main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                     "--delta", "0.05", "--epsilon", "0.1", "--block-sizes", "1,x",
                     "--plan-out", str(tmp_path / "p.json")])
        assert code == 2
        assert "1,x" in capsys.readouterr().err

    def test_non_finite_matrices_exit_2(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)
        cache = out["analysis"] / "matrices.d2ms"
        raw = bytearray(cache.read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))
        cache.write_bytes(raw)
        code = main(["search", "--matrices", str(cache), "--delta", "0.05",
                     "--epsilon", "0.1", "--plan-out", str(tmp_path / "p.json")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("mode", ["plan", "sweep"])
    def test_zero_layer_matrices_exit_2(self, tmp_path, capsys, mode):
        cache = tmp_path / "zero.d2ms"
        cache.write_bytes(b"D2MS" + struct.pack("<II", 1, 0))
        argv = ["search", "--matrices", str(cache)]
        if mode == "sweep":
            argv += ["--sweep", "--delta-grid", "0.05", "--epsilon-grid", "0.1",
                     "--sweep-out", str(tmp_path / "s.csv")]
        else:
            argv += ["--delta", "0.05", "--epsilon", "0.1", "--plan-out", str(tmp_path / "p.json")]
        assert main(argv) == 2
        assert "L=0" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("flag", ["--delta-grid", "--epsilon-grid"])
    @pytest.mark.parametrize("value", ["nan,0.1", "0.1,inf", "-inf"])
    def test_non_finite_sweep_grid_exits_2_naming_flag(self, tmp_path, capsys, flag, value):
        out = run_pipeline(tmp_path)
        grids = {"--delta-grid": "0.05", "--epsilon-grid": "0.1", flag: value}
        code = main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                     "--sweep", *(f"{name}={grid}" for name, grid in grids.items()),
                     "--sweep-out", str(tmp_path / "s.csv")])
        assert code == 2
        grid = {"--delta-grid": "cos_grid", "--epsilon-grid": "norm_grid"}[flag]
        assert f"error: {grid} must be a non-empty list of finite values" in (
            capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()

    def test_finite_sweep_grid_outside_unit_interval_is_legal(self, tmp_path):
        out = run_pipeline(tmp_path)
        assert main(["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                     "--sweep", "--delta-grid=-0.5,1.5", "--epsilon-grid", "0,2",
                     "--sweep-out", str(tmp_path / "s.csv")]) == 0
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize("mode, penalty", [
        ("sweep", "-1"), ("sweep", "nan"), ("plan", "nan"), ("plan", "inf"),
    ])
    def test_bad_score_penalty_exits_2(self, tmp_path, capsys, mode, penalty):
        out = run_pipeline(tmp_path)
        argv = ["search", "--matrices", str(out["analysis"] / "matrices.d2ms"),
                "--score-penalty", penalty]
        if mode == "sweep":
            argv += ["--sweep", "--delta-grid", "0.05", "--epsilon-grid", "0.1",
                     "--sweep-out", str(tmp_path / "s.csv")]
        else:
            argv += ["--delta", "0.05", "--epsilon", "0.1", "--plan-out", str(tmp_path / "p.json")]
        assert main(argv) == 2
        assert "score_penalty" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "p.json").exists()

    @settings(max_examples=40)
    @given(sizes=st.lists(st.integers(-2, 4), min_size=1, max_size=3),
           penalty=st.sampled_from(["nan", "inf", "-inf", "-1", "-0.0", "0", "0.5", "2"]))
    def test_plan_and_sweep_modes_refuse_a_scoring_knob_alike(self, readme_run, sizes,
                                                               penalty):
        knobs = [f"--block-sizes={','.join(map(str, sizes))}", f"--score-penalty={penalty}"]
        penalty_ok = 0 <= float(penalty) < math.inf
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"matrices": readme_run["analysis"] / "matrices.d2ms", "out": tmp}
            results = []
            for mode in (PLAN_MODE, SWEEP_MODE):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([*(arg.format(**paths) for arg in mode), *knobs])
                results.append((code, err.getvalue()))
            if penalty_ok and min(sizes) >= 1:
                assert results == [(0, ""), (0, "")]
            else:
                assert results[0] == results[1], results
                code, message = results[0]
                assert code == 2 and message.count("\n") == 1, message
                assert ("block_sizes" if penalty_ok else "score_penalty") in message
                assert os.listdir(tmp) == []

    @settings(max_examples=40)
    @given(grids=st.tuples(*[st.lists(st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.5, 0.0, 0.05, 0.1, 1.5]), max_size=3)] * 2))
    def test_library_and_cli_refuse_a_sweep_grid_alike(self, readme_run, grids):
        matrices = readme_run["analysis"] / "matrices.d2ms"
        try:
            threshold_sweep(read_matrices(matrices), *grids)
            want = (0, "")
        except InvalidConfig as exc:
            want = (2, f"error: {exc}\n")
        with tempfile.TemporaryDirectory() as tmp:
            # an empty grid is a lone comma: an empty flag is refused as absent
            text = [",".join(map(repr, grid)) or "," for grid in grids]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["search", "--matrices", str(matrices), "--sweep",
                             f"--delta-grid={text[0]}", f"--epsilon-grid={text[1]}",
                             "--sweep-out", f"{tmp}/sweep.csv"])
            assert (code, err.getvalue()) == want
            assert (os.listdir(tmp) == []) == (code == 2)
        valid = all(grid and all(map(math.isfinite, grid)) for grid in grids)
        assert (code == 0) == valid


def text_input_argv(tmp_path: Path, stage: str, text_input: Path) -> list[str]:
    """Arguments that run ``stage`` with ``text_input`` as its text input."""
    synth = tmp_path / "synth"
    assert main(["synth", "--out-dir", str(synth), "--layers", "3", "--hidden", "16",
                 "--seq-len", "8"]) == 0
    return {
        "fuse": ["fuse", "--model", str(synth / "model.d2mw"), "--plan", str(text_input),
                 "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                 "--out", str(tmp_path / "f.d2mw"), "--provenance-out", str(tmp_path / "p")],
        "estimate": ["estimate", "--config", str(text_input), "--out", str(tmp_path / "c.json")],
        "pareto": ["pareto", "--candidates", str(text_input), "--base-latency", "100",
                   "--w", "-0.15", "--rewards-out", str(tmp_path / "r.csv"),
                   "--frontier-out", str(tmp_path / "f.csv")],
        "diagnose": ["diagnose", "--log", str(text_input), "--out", str(tmp_path / "w.csv")],
    }[stage]


class TestNonUtf8Inputs:
    @pytest.mark.parametrize("stage", ["fuse", "estimate", "pareto", "diagnose"])
    def test_exits_2_naming_file(self, tmp_path, capsys, stage):
        bad = tmp_path / "not_utf8.txt"
        bad.write_bytes(b"\xff\xfe")
        argv = text_input_argv(tmp_path, stage, bad)
        capsys.readouterr()
        assert main(argv) == 2
        assert "not_utf8.txt" in capsys.readouterr().err


class TestUnreadableTextInputs:
    @pytest.mark.parametrize("stage", ["fuse", "estimate", "pareto", "diagnose"])
    def test_exits_3_naming_file(self, tmp_path, capsys, stage):
        unreadable = tmp_path / "a_directory"
        unreadable.mkdir()
        argv = text_input_argv(tmp_path, stage, unreadable)
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {unreadable}: not a regular file\n"


# the stage that reads each text input, by the input's name
TEXT_INPUT_STAGES = {"plan": "fuse", "config": "estimate", "log": "diagnose",
                     "candidates": "pareto"}


class TestBinaryInputThatIsNotAFile:
    @pytest.mark.parametrize("case, writer", [
        pytest.param(case, writer, id=case if writer else f"{case}-no-writer")
        for case in ("analyze", "search", "fuse", *TEXT_INPUT_STAGES, "analyze-run-dir",
                     "search-run-dir", "fuse-run-dir", "manifest")
        for writer in (True, False)])
    def test_fifo_exits_3_naming_it(self, tmp_path, case, writer):
        # a binary input, a text input, an input a run directory hashes, or
        # the run directory's manifest
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        fifo = run_dir / "manifest.json" if case == "manifest" else tmp_path / "pipe"
        os.mkfifo(fifo)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"keep": [1], "prune": [], "blocks": []}))
        config = tmp_path / "config.json"
        write_config(config)
        if case in TEXT_INPUT_STAGES:
            argv = text_input_argv(tmp_path, TEXT_INPUT_STAGES[case], fifo)
        elif case == "manifest":
            argv = ["estimate", "--config", str(config), "--out", str(tmp_path / "c.json"),
                    "--run-dir", str(run_dir)]
        else:
            stage, _, run = case.partition("-")
            argv = {
                "analyze": ["analyze", "--trace", str(fifo), "--out-dir", str(tmp_path / "a")],
                "search": ["search", "--matrices", str(fifo), "--delta", "0.05",
                           "--epsilon", "0.1", "--plan-out", str(tmp_path / "p.json")],
                "fuse": ["fuse", "--model", str(fifo), "--plan", str(plan), "--base-copies",
                         "1", "--supp-copies", "1", "--top-k", "1",
                         "--out", str(tmp_path / "f.d2mw"),
                         "--provenance-out", str(tmp_path / "prov.json")],
            }[stage] + (["--run-dir", str(run_dir)] if run else [])
        before = files_under(tmp_path)
        # held open for writing, or by no one: a stage that waited for a writer
        # or read the pipe to its end would wait for ever, so it runs apart
        held = os.open(fifo, os.O_RDWR) if writer else None
        try:
            done = subprocess.run([sys.executable, "-m", "d2m.cli", *argv],
                                  capture_output=True, text=True, timeout=30,
                                  env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                      p for p in (SRC, os.environ.get("PYTHONPATH")) if p)})
        finally:
            if held is not None:
                os.close(held)
        assert done.returncode == 3, done.stderr
        assert done.stderr == f"error: {fifo}: not a regular file\n"
        assert files_under(tmp_path) == before


class TestSynth:
    # 4 layers of 256 wide, about 32 MB of float64 weights
    BIG_FLAGS = ["--layers", "4", "--hidden", "256", "--mlp-dim", "1024", "--heads", "4",
                 "--kv-heads", "2", "--head-dim", "64", "--vocab", "256", "--seq-len", "8"]
    BIG_SHAPE = ModelShape(num_layers=4, hidden_dim=256, mlp_dim=1024, num_heads=4,
                           num_kv_heads=2, head_dim=64, vocab_size=256)
    BIG_BYTES = 8 * sum(math.prod(dims) for _, dims in tensor_schema(BIG_SHAPE))

    def test_non_integer_redundant_spec_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path), "--redundant", "a:1:0"])
        assert code == 2
        assert "a:1:0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--redundant", "a:1:0"],
        ["--redundant", "3:1:0"],  # layer 4 of 3
        ["--redundant", "1:1:0.5", "--trace-mode", "forward"],
        ["--layers", "2", "--seq-len", "0"],
    ], ids=["not-a-number", "out-of-range", "forward-noise", "empty-sequence"])
    def test_bad_flags_create_nothing(self, tmp_path, flags):
        out_dir = tmp_path / "x" / "a"
        assert main(["synth", "--out-dir", str(out_dir), "--layers", "3", *flags]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--weight-scale", "nan"], "weight_scale"),
        (["--weight-scale", "inf"], "weight_scale"),
        (["--weight-scale=-inf"], "weight_scale"),
        (["--redundant", "1:1:nan"], "noise_scale"),
        (["--redundant", "1:1:0.1", "--redundant", "0:1:inf"], "noise_scale"),
        # finite, but inf once passed through float32
        (["--weight-scale", "1e300"], "--weight-scale"),
        (["--redundant", "1:1:1e300"], "--redundant"),
        (["--seed", "-1"], "--seed"),
    ], ids=["scale-nan", "scale-inf", "scale-minus-inf", "noise-nan", "second-noise-inf",
            "scale-overflows-float32", "noise-overflows-float32", "seed-negative"])
    def test_non_finite_flag_exits_2_naming_it(self, tmp_path, capsys, flags, flag):
        out_dir = tmp_path / "x" / "a"
        assert main(["synth", "--out-dir", str(out_dir), "--layers", "3", *flags]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--redundant", "4:1:0"], "redundancy entry (base=4, offset=1) outside 1..4"),
        (["--redundant", "4:1:0", "--trace-mode", "forward"],
         "redundancy entry (base=4, offset=1) outside 1..4"),
        (["--redundant", "3:1:-1"], "noise_scale must be finite and non-negative, got -1.0"),
        (["--redundant", "0:1:0", "--trace-mode", "forward"],
         "redundancy entry (base=0, offset=1) outside 1..4"),
        (["--seq-len", "0"], "num_layers, seq_len, and hidden_dim must be positive"),
        (["--seq-len", "0", "--trace-mode", "forward"],
         "copy stream needs positive vocab_size, seq_len and num_sequences, got 256, 0, 1"),
        (None, "redundancy entry (base=4, offset=1) outside 1..4"),  # the library call
    ], ids=["range", "forward-range", "noise", "forward-base-0", "empty-sequence",
            "forward-empty-sequence", "build_toy_container"])
    def test_a_refused_flag_draws_no_weight(self, tmp_path, capsys, flags, message):
        argv = ["synth", "--out-dir", str(tmp_path / "x"), *self.BIG_FLAGS]
        assert main([*argv, "--redundant", "1:1:x"]) == 2  # the stage's imports are done
        capsys.readouterr()
        tracemalloc.start()
        try:
            if flags is None:
                with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
                    build_toy_container(self.BIG_SHAPE, seed=0, duplicate_from=[(4, 1)])
            else:
                assert main([*argv, *flags]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if flags is not None:
            assert capsys.readouterr().err == f"error: {message}\n"
        assert self.BIG_BYTES > 30 << 20
        assert peak < self.BIG_BYTES / 32, peak
        assert not (tmp_path / "x").exists()

    @settings(max_examples=30)
    @given(knob=st.one_of(
        st.tuples(st.just("weight_scale"), st.sampled_from([math.nan, math.inf, -math.inf])),
        st.tuples(st.just("noise_scale"),
                  st.one_of(st.just(math.nan), st.floats(max_value=-5e-324)))))
    def test_library_and_cli_refuse_a_scale_alike(self, knob):
        # weight_scale refuses what is not finite, noise_scale also a negative
        name, value = knob
        library = {
            "weight_scale": lambda: build_toy_container(self.BIG_SHAPE, 0, weight_scale=value),
            "noise_scale": lambda: synthetic_trace(4, 8, 256, [(1, 1, value)]),
        }[name]
        flags = {"weight_scale": [f"--weight-scale={value!r}"],
                 "noise_scale": ["--redundant", f"1:1:{value!r}"]}[name]
        tracemalloc.start()
        try:
            with pytest.raises(D2mError, match=f"^{name} must be finite") as refusal:
                library()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BIG_BYTES / 32, peak
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["synth", "--out-dir", f"{tmp}/x", *self.BIG_FLAGS, *flags])
            assert (code, err.getvalue()) == (2, f"error: {refusal.value}\n")
            assert os.listdir(tmp) == []

    def test_forward_trace_feeds_analyze_and_search(self, tmp_path):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--seed", "3", "--layers", "4",
                     "--hidden", "16", "--mlp-dim", "32", "--heads", "2", "--kv-heads", "1",
                     "--head-dim", "8", "--vocab", "32", "--seq-len", "12",
                     "--redundant", "2:1:0", "--trace-mode", "forward"]) == 0
        analysis = tmp_path / "analysis"
        assert main(["analyze", "--trace", str(synth / "trace.d2mt"),
                     "--out-dir", str(analysis)]) == 0
        assert main(["search", "--matrices", str(analysis / "matrices.d2ms"),
                     "--delta", "0.05", "--epsilon", "0.1",
                     "--plan-out", str(tmp_path / "plan.json")]) == 0
        assert json.loads((tmp_path / "plan.json").read_text())["prune"] == [3]

    def test_an_odd_width_runs_forward_and_trains(self, tmp_path):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--seed", "3", "--layers", "3",
                     "--hidden", "5", "--mlp-dim", "8", "--heads", "2", "--kv-heads", "1",
                     "--head-dim", "4", "--vocab", "16", "--seq-len", "12",
                     "--redundant", "2:1:0", "--trace-mode", "forward"]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"keep": [1, 2], "prune": [3],
                                    "blocks": [{"base": 2, "redundant": [3]}]}))
        assert main(["fuse", "--model", str(synth / "model.d2mw"), "--plan", str(plan),
                     "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                     "--out", str(tmp_path / "fused.d2mw"),
                     "--provenance-out", str(tmp_path / "prov.json")]) == 0
        assert main(["train-toy", "--model", str(tmp_path / "fused.d2mw"), "--steps", "2",
                     "--seq-len", "8", "--sequences", "1", "--log-out", str(tmp_path / "log.csv"),
                     "--model-out", str(tmp_path / "trained.d2mw")]) == 0

    def test_forward_trace_rejects_noise(self, tmp_path, capsys):
        code = main(["synth", "--out-dir", str(tmp_path / "synth"), "--layers", "5",
                     "--redundant", "4:1:0.5", "--trace-mode", "forward"])
        assert code == 2
        assert "--redundant noise must be 0" in capsys.readouterr().err
        assert not (tmp_path / "synth" / "model.d2mw").exists()

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.fixed_dictionaries({flag: st.integers(1, 2 ** 31 - 1) for flag in (
        "--layers", "--seq-len", "--hidden", "--vocab")}))
    @example(sizes={"--layers": 2_000_000_000, "--seq-len": 96, "--hidden": 32, "--vocab": 64})
    def test_outputs_larger_than_the_free_space_exit_3_creating_nothing(self, sizes):
        # sized in closed form before the first draw, so no flag sizes an
        # allocation; the smallest outputs, every size 1, take 1260 bytes
        def small_disk(path):
            return types.SimpleNamespace(f_bavail=1, f_frsize=1024)

        argv = [f"{flag}={value}" for flag, value in sizes.items()]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "statvfs", small_disk)
            out = Path(tmp, "x", "y")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                main(["synth", "--out-dir", str(out)])  # the stage's imports are done
                tracemalloc.start()
                start = time.perf_counter()
                try:
                    code = main(["synth", "--out-dir", str(out), *argv])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert time.perf_counter() - start < 1.0
            assert code == 3 and peak < 256 << 10, (code, peak)
            assert err.getvalue().splitlines()[-1].startswith(f"error: cannot write {out}: ")
            assert err.getvalue().endswith(" bytes, 1024 are free\n")
            assert os.listdir(tmp) == []


README_SYNTH = ["--seed", "11", "--layers", "5", "--hidden", "16", "--mlp-dim", "32",
                "--heads", "2", "--kv-heads", "1", "--head-dim", "8", "--vocab", "32",
                "--seq-len", "48", "--redundant", "4:1:0.0"]


def whole_model_oracle(shape: ModelShape, seed: int, scale: float,
                       copies: list[tuple[int, int]]) -> WeightContainer:
    """The toy weights as ``synth`` drew them before they were streamed: each
    tensor drawn whole in schema order and rounded to float32, then each
    copy applied in order against its base's current contents."""
    rng = np.random.default_rng(seed)
    tensors = {name: np.ones(dims) if name.endswith("norm")
               else (rng.standard_normal(dims) * scale).astype(np.float32)
               for name, dims in tensor_schema(shape)}
    for base, offset in copies:
        prefix = f"layer.{base}."
        for name in list(tensors):
            if name.startswith(prefix):
                tensors[f"layer.{base + offset}.{name[len(prefix):]}"] = tensors[name].copy()
    return WeightContainer(shape, tensors)


@st.composite
def streamed_models(draw):
    """A small dense shape, a seed, a weight scale, and copy entries, chains
    in either order among them."""
    heads = draw(st.integers(1, 3))
    shape = ModelShape(num_layers=draw(st.integers(2, 7)), hidden_dim=draw(st.integers(1, 9)),
                       mlp_dim=draw(st.integers(1, 9)), num_heads=heads * draw(st.integers(1, 2)),
                       num_kv_heads=heads, head_dim=draw(st.integers(1, 4)),
                       vocab_size=draw(st.integers(1, 12)), tied_embedding=draw(st.booleans()))
    copies = draw(st.lists(st.integers(1, shape.num_layers - 1).flatmap(
        lambda base: st.tuples(st.just(base), st.integers(1, shape.num_layers - base))),
        max_size=5))
    scale = draw(st.floats(-50, 50, allow_nan=False))
    return shape, draw(st.integers(0, 2 ** 32)), scale, copies


class TestSynthStream:
    """``synth`` draws its trace as it writes it: the same bytes as the
    whole-trace writer, and still nothing left behind when it fails."""

    def test_readme_outputs_are_byte_identical_to_the_whole_trace_writer(self, tmp_path):
        # digests of the files the whole-trace writer made for the README flags
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH]) == 0
        assert {name: sha256_of(tmp_path / name)
                for name in ("trace.d2mt", "model.d2mw", "config.json")} == {
            "trace.d2mt": "92b14d5358997310b56576342170831427683c39a668d46977a4e5c17507192c",
            "model.d2mw": "a7d2894662cce60a64185aef31a3b25705a9113a5e803a684d9351b4aeefa5e1",
            "config.json": "bccbb654d43ca59c44f2b43dab7a1afeeae02935f5c7bda1b22681cab8157f3d",
        }

    def test_readme_pipeline_artifacts_are_pinned(self, tmp_path):
        # the artifacts that do not depend on BLAS summation order; the
        # matrices, the training log and the trained model may differ by host
        out = run_pipeline(tmp_path)
        cost = tmp_path / "cost.json"
        assert main(["estimate", "--config", str(out["synth"] / "config.json"),
                     "--out", str(cost)]) == 0
        assert {name: sha256_of(path) for name, path in (
            ("plan", out["plan"]), ("fused", out["fused"]), ("prov", out["prov"]),
            ("cost", cost))} == {
            "plan": "442a65f3b93b27c22b641fd23f8952224768608cfdf13a9463721a7cc3272402",
            "fused": "2c1b84d12ebc548d32aff021cd30a340e7bfd64ef2e63866e90246513f4d4623",
            "prov": "ea4cf276eac2f0806a1e92f9828df26b767e52212e2727b2ef4a5ca849ff6924",
            "cost": "4c375db4556e5a77baebc97db3a5e270d17184589032133f1ff31aa95e8011fc",
        }

    def test_overflow_replaces_none_of_the_three_files(self, tmp_path, capsys):
        # the trace is written first: its noise is the one thing that can
        # still fail once the flags are checked
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "1", "--layers", "3"]) == 0
        names = ("model.d2mw", "trace.d2mt", "config.json")
        before = {name: (tmp_path / name).read_bytes() for name in names}
        assert main(["synth", "--out-dir", str(tmp_path), "--seed", "2", "--layers", "3",
                     "--redundant", "1:1:2e38"]) == 2
        assert "--redundant noise overflows float32" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("writer", ["d2m.traceio.write_weights", "d2m.cli.write_json"])
    def test_an_io_failure_after_the_trace_replaces_none_of_the_three_files(
            self, tmp_path, capsys, monkeypatch, writer):
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH]) == 0
        names = ("model.d2mw", "trace.d2mt", "config.json")
        before = {name: (tmp_path / name).read_bytes() for name in names}

        def full_disk(*args):
            raise IoFailure("cannot write: no space left on device")

        monkeypatch.setattr(writer, full_disk)
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH, "--seed", "12"]) == 3
        assert capsys.readouterr().err == "error: cannot write: no space left on device\n"
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("earlier", [False, True], ids=["empty", "after-a-synth"])
    def test_a_directory_in_place_of_an_output_replaces_none_of_the_three_files(
            self, tmp_path, capsys, earlier):
        if earlier:
            assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH]) == 0
            (tmp_path / "config.json").unlink()
        (tmp_path / "config.json").mkdir()
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(["synth", "--out-dir", str(tmp_path), "--layers", "3",
                     "--seq-len", "8"]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'config.json'}: it is a directory\n")
        assert files_under(tmp_path) == before
        assert (tmp_path / "config.json").is_dir()
        assert sorted(tmp_path.rglob("*.tmp")) == []

    def test_overflow_mid_stream_keeps_the_existing_trace(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH]) == 0
        before = (tmp_path / "trace.d2mt").read_bytes()
        # finite as a flag; beyond float32 only where a noise draw exceeds 1.7
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH,
                     "--redundant", "1:1:2e38"]) == 2
        err = capsys.readouterr().err
        assert "--redundant" in err and "Traceback" not in err
        assert (tmp_path / "trace.d2mt").read_bytes() == before
        assert sorted(tmp_path.rglob("*.tmp")) == []

    def test_synthetic_mode_never_builds_the_whole_model(self, tmp_path, monkeypatch):
        def whole_model(*args, **kwargs):
            raise AssertionError("synthetic mode built the whole model")

        monkeypatch.setattr("d2m.nanomodel.build_toy_container", whole_model)
        assert main(["synth", "--out-dir", str(tmp_path), *README_SYNTH]) == 0
        assert sha256_of(tmp_path / "model.d2mw") == (
            "a7d2894662cce60a64185aef31a3b25705a9113a5e803a684d9351b4aeefa5e1")

    @settings(max_examples=60, deadline=None)
    @given(case=streamed_models(), chunk=st.integers(1, 400))
    @example(case=(ModelShape(num_layers=6, hidden_dim=4, mlp_dim=3, num_heads=2,
                              num_kv_heads=1, head_dim=2, vocab_size=5), 11, 0.02,
                   [(5, 1), (4, 1)]), chunk=8)
    @example(case=(ModelShape(num_layers=6, hidden_dim=4, mlp_dim=3, num_heads=2,
                              num_kv_heads=1, head_dim=2, vocab_size=5), 11, 0.02,
                   [(4, 1), (5, 1)]), chunk=8)
    def test_the_streamed_model_is_the_whole_model_drawn_then_copied(self, case, chunk):
        # a chunk budget of a few bytes draws one row at a time
        shape, seed, scale, copies = case
        flags = [f"--layers={shape.num_layers}", f"--hidden={shape.hidden_dim}",
                 f"--mlp-dim={shape.mlp_dim}", f"--heads={shape.num_heads}",
                 f"--kv-heads={shape.num_kv_heads}", f"--head-dim={shape.head_dim}",
                 f"--vocab={shape.vocab_size}", f"--seed={seed}", f"--weight-scale={scale!r}",
                 "--seq-len=2", *(f"--redundant={base}:{offset}:0" for base, offset in copies),
                 *([] if shape.tied_embedding else ["--untied"])]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(nanomodel, "DRAW_CHUNK_BYTES", chunk)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["synth", "--out-dir", tmp, *flags]) == 0
            write_weights(whole_model_oracle(shape, seed, scale, copies), Path(tmp, "oracle.d2mw"))
            assert Path(tmp, "model.d2mw").read_bytes() == Path(tmp, "oracle.d2mw").read_bytes()

    def test_synth_holds_a_chunk_and_the_copied_layer_not_the_model(self, tmp_path):
        # the layer count and the vocab each take two sizes; the peak stays
        # under one bound: the chunk budget, layer 2 kept for its copy, and
        # the trace's layer and kept base at T=8
        flags = ["--hidden", "128", "--mlp-dim", "512", "--heads", "4", "--kv-heads", "2",
                 "--head-dim", "32", "--seq-len", "8", "--redundant", "2:1:0"]
        shape = ModelShape(num_layers=6, hidden_dim=128, mlp_dim=512, num_heads=4,
                           num_kv_heads=2, head_dim=32, vocab_size=2048)
        kept = 4 * sum(math.prod(dims) for name, dims in tensor_schema(shape)
                       if name.startswith("layer.2."))
        bound = 2 * nanomodel.DRAW_CHUNK_BYTES + kept + (256 << 10)
        assert main(["synth", "--out-dir", str(tmp_path / "warm"), *flags]) == 0
        peaks = {}
        for layers, vocab in ((6, 2048), (12, 2048), (6, 8192)):
            tracemalloc.start()
            try:
                assert main(["synth", "--out-dir", str(tmp_path / f"{layers}-{vocab}"), *flags,
                             "--layers", str(layers), "--vocab", str(vocab)]) == 0
                peaks[layers, vocab] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        model = (tmp_path / "6-2048" / "model.d2mw").stat().st_size
        assert bound < model / 2
        assert max(peaks.values()) <= bound, (peaks, bound)
        assert max(peaks.values()) - min(peaks.values()) < 64 << 10, peaks

    def test_forward_trace_beyond_float32_exits_2_leaving_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "x" / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main(["synth", "--out-dir", str(out_dir), "--layers", "3",
                         "--weight-scale", "1e30", "--trace-mode", "forward"]) == 2
        assert "not finite as float32" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@st.composite
def plan_documents(draw, num_layers: int) -> dict:
    """A valid plan document for a ``num_layers``-layer model: 1..L cut into
    runs, a run longer than one a block whose first layer is the base."""
    blocks, layer = [], 1
    while layer <= num_layers:
        run = draw(st.integers(1, num_layers - layer + 1))
        if run > 1:
            blocks.append({"base": layer, "redundant": list(range(layer + 1, layer + run))})
        layer += run
    prune = [r for block in blocks for r in block["redundant"]]
    return {"keep": [n for n in range(1, num_layers + 1) if n not in prune],
            "prune": prune, "blocks": blocks}


def break_plan(rule: str, doc: dict, draw, num_layers: int) -> str:
    """Break ``rule`` in the valid plan document ``doc``, in place, with what
    ``draw`` draws; returns the message that refuses the plan."""
    keep, prune, blocks = doc["keep"], doc["prune"], doc["blocks"]
    if rule == "keep-prune-overlap":
        layer = draw(st.sampled_from(keep))
        doc["prune"] = sorted([*prune, layer])
        return f"keep and prune overlap: [{layer}]"
    if rule == "not-covered":
        keep.remove(draw(st.sampled_from(keep)))
        return f"keep and prune do not cover layers 1..{num_layers} exactly"
    if rule == "unordered-keep":
        doc["keep"] = list(draw(st.permutations(keep).filter(lambda p: list(p) != keep)))
        return "keep_layers must be ordered ascending"
    if rule == "no-redundant-layers":
        base = draw(st.sampled_from(keep))
        blocks.insert(draw(st.integers(0, len(blocks))), {"base": base, "redundant": []})
        return f"block at base {base} has no redundant layers"
    if rule == "blocks-overlap":
        block = draw(st.sampled_from(blocks))
        blocks.insert(blocks.index(block) + 1, dict(block))
        return f"blocks overlap at layers {sorted([block['base'], *block['redundant']])}"
    if rule == "not-contiguous":
        base = draw(st.sampled_from(keep))
        blocks.insert(0, {"base": base, "redundant": [base + 2]})
        return (f"redundant set of base {base} must be the contiguous run {(base + 1,)}, "
                f"got {(base + 2,)}")
    if rule == "beyond-the-layers":
        base = draw(st.one_of(st.integers(-2, 0), st.integers(num_layers + 1, num_layers + 3)))
        redundant = tuple(range(base + 1, base + 1 + draw(st.integers(1, 2))))
        blocks.insert(0, {"base": base, "redundant": list(redundant)})
        return f"block ({base}, {redundant}) exceeds 1..{num_layers}"
    if rule == "pruned-base":
        base = draw(st.sampled_from([r for r in prune if r < num_layers]))
        blocks.insert(0, {"base": base, "redundant": [base + 1]})
        return f"base layer {base} cannot be pruned"
    if rule == "prune-is-not-the-blocks":
        blocks.pop(draw(st.integers(0, len(blocks) - 1)))
        return "prune_layers must equal the union of block redundant sets"
    if rule == "unknown-key":
        key = draw(st.sampled_from(["size", "Keep", "blocks "]))
        target = draw(st.sampled_from([doc, *blocks]))
        target[key] = draw(st.integers(0, 7))
        return f"unknown {'plan' if target is doc else 'plan block'} keys: [{key!r}]"
    assert rule == "malformed"
    key = draw(st.sampled_from(["keep", "prune", "blocks", "blocks-not-a-list"]
                               + (["base", "redundant"] if blocks else [])))
    if key == "blocks-not-a-list":
        doc["blocks"] = len(blocks)
        return "malformed plan document: 'int' object is not iterable"
    target = draw(st.sampled_from(blocks)) if key in ("base", "redundant") else doc
    del target[key]
    return f"malformed plan document: {key!r}"


PLAN_RULES = ("keep-prune-overlap", "not-covered", "unordered-keep", "no-redundant-layers",
              "blocks-overlap", "not-contiguous", "beyond-the-layers", "pruned-base",
              "prune-is-not-the-blocks", "unknown-key", "malformed")
# what a rule needs of the valid plan it breaks, for a 5-layer model
PLAN_NEEDS = {
    "unordered-keep": lambda doc: len(doc["keep"]) > 1,
    "blocks-overlap": lambda doc: doc["blocks"],
    "pruned-base": lambda doc: any(r < 5 for r in doc["prune"]),
    "prune-is-not-the-blocks": lambda doc: doc["blocks"],
}


class TestFuse:
    def test_truncated_model_exits_2_naming_file(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)
        model = out["synth"] / "model.d2mw"
        data = model.read_bytes()
        model.write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        assert main(["fuse", "--model", str(model), "--plan", str(out["plan"]),
                     "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                     "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: expected ") and "Traceback" not in err
        assert not (tmp_path / "f.d2mw").exists()


    @pytest.mark.parametrize("plan, message", [
        ('{"keep": [1, 2, 3, 4.9], "prune": [5], "blocks": [{"base": 4, "redundant": [5]}]}',
         "plan keep: 4.9 is not a layer index"),
        ('{"keep": [1, 2, 3, 4], "prune": [5], "blocks": [{"base": 4.2, "redundant": [5]}]}',
         "plan base: 4.2 is not a layer index"),
        ('{"keep": [1, 2, 3, 4], "prune": [5], "blocks": [{"base": 4, "redundant": ["5"]}]}',
         "plan redundant: '5' is not a layer index"),
        ('{"keep": [true, 2, 3, 4], "prune": [5], "blocks": [{"base": 4, "redundant": [5]}]}',
         "plan keep: True is not a layer index"),
        ('{"keep": [1, 2, 3, 4], "prune": [null], "blocks": [{"base": 4, "redundant": [5]}]}',
         "plan prune: None is not a layer index"),
        ("5", "a plan must be a JSON object, got int"),
        ("null", "a plan must be a JSON object, got NoneType"),
        ('"keep"', "a plan must be a JSON object, got str"),
    ], ids=["keep-float", "base-float", "redundant-string", "keep-true", "prune-null",
            "number", "null", "string"])
    def test_plan_that_is_not_an_object_of_integers_exits_2(self, tmp_path, capsys, plan,
                                                             message):
        out = run_pipeline(tmp_path)
        out["plan"].write_text(plan)
        capsys.readouterr()
        assert main(["fuse", "--model", str(out["synth"] / "model.d2mw"),
                     "--plan", str(out["plan"]), "--base-copies", "1", "--supp-copies", "1",
                     "--top-k", "1", "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json")]) == 2
        # the message names the plan file, as a binary reader's names its file
        assert capsys.readouterr().err == f"error: {out['plan']}: {message}\n"
        assert not (tmp_path / "f.d2mw").exists()

    def test_plan_that_does_not_fit_the_model_exits_2_naming_the_plan(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)  # a 5-layer model
        out["plan"].write_text('{"keep": [1, 2, 3], "prune": [4], '
                               '"blocks": [{"base": 3, "redundant": [4]}]}')
        capsys.readouterr()
        assert main(["fuse", "--model", str(out["synth"] / "model.d2mw"),
                     "--plan", str(out["plan"]), "--base-copies", "1", "--supp-copies", "1",
                     "--top-k", "1", "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {out['plan']}: keep and prune do not cover layers 1..5 exactly\n")
        assert not (tmp_path / "f.d2mw").exists()

    def test_an_expert_copied_from_the_wrong_layer_exits_4_writing_nothing(
            self, tmp_path, capsys, monkeypatch):
        out = run_pipeline(tmp_path)  # the plan fuses layers 4 and 5 into layer 4
        wrong_expert_source(monkeypatch)
        capsys.readouterr()
        assert main(["fuse", "--model", str(out["synth"] / "model.d2mw"),
                     "--plan", str(out["plan"]), "--base-copies", "1", "--supp-copies", "1",
                     "--top-k", "1", "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json")]) == 4
        assert capsys.readouterr().err == (
            "error: expert_copy:layer.4.moe.expert.1.up: layer.4.moe.expert.1.up must be "
            "a bit-exact copy of dense layer.4.mlp.up\n")
        assert not (tmp_path / "f.d2mw").exists() and not (tmp_path / "p.json").exists()
        assert sorted(tmp_path.glob(".*.tmp")) == []

    def test_traced_peak_grows_with_the_largest_tensor_not_the_model(self, tmp_path):
        # fuse holds a few tensors' bytes at a time, never the model
        shape = ModelShape(num_layers=8, hidden_dim=64, mlp_dim=256, num_heads=4,
                           num_kv_heads=2, head_dim=16, vocab_size=64)
        model = tmp_path / "model.d2mw"
        write_weights(build_toy_container(shape, seed=5), model)
        (tmp_path / "plan.json").write_text(json.dumps(
            {"keep": [1, 2, 4, 5, 7, 8], "prune": [3, 6],
             "blocks": [{"base": 2, "redundant": [3]}, {"base": 5, "redundant": [6]}]}))
        argv = ["fuse", "--model", str(model), "--plan", str(tmp_path / "plan.json"),
                "--base-copies", "2", "--supp-copies", "2", "--top-k", "1",
                "--out", str(tmp_path / "fused.d2mw"), "--provenance-out", str(tmp_path / "p.json")]
        assert main(argv) == 0  # once untraced, so the stage's imports are done
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(4 * math.prod(dims) for _, dims in tensor_schema(shape))
        # the parser, the header index, the layout, the check report and the
        # JSON documents
        slack = 256 << 10
        bound = 3 * largest + slack
        assert bound < model.stat().st_size / 2 < (tmp_path / "fused.d2mw").stat().st_size / 2
        assert peak <= bound, peak

    @settings(max_examples=20, deadline=None)
    @given(counts=st.tuples(st.integers(1, 2 ** 31 - 1), st.integers(1, 2 ** 31 - 1)))
    @example(counts=(2_000_000_000, 1))
    def test_an_output_larger_than_the_free_space_exits_3_writing_nothing(self, readme_run,
                                                                         counts):
        # sized in closed form from the model's header and the plan, before
        # any expert's provenance is built; the README's fused model at
        # K = M = 1 takes more than the 1024 bytes free
        def small_disk(path):
            return types.SimpleNamespace(f_bavail=1, f_frsize=1024)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "statvfs", small_disk)
            out = Path(tmp, "fused.d2mw")
            argv = ["fuse", "--model", str(readme_run["synth"] / "model.d2mw"),
                    "--plan", str(readme_run["plan"]), "--supp-copies", str(counts[1]),
                    "--top-k", "1", "--out", str(out), "--provenance-out", str(Path(tmp, "p.json"))]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                main([*argv, "--base-copies", "1"])  # the stage's imports are done
                tracemalloc.start()
                start = time.perf_counter()
                try:
                    code = main([*argv, "--base-copies", str(counts[0])])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert time.perf_counter() - start < 1.0
            assert code == 3 and peak < 256 << 10, (code, peak)
            assert err.getvalue().splitlines()[-1].startswith(f"error: cannot write {out}: need ")
            assert err.getvalue().endswith(" bytes, 1024 are free\n")
            assert os.listdir(tmp) == []

    @pytest.mark.parametrize("rule", PLAN_RULES)
    @settings(max_examples=8)
    @given(data=st.data())
    def test_a_plan_that_breaks_a_rule_exits_2_naming_it_and_writes_nothing(
            self, readme_run, rule, data):
        doc = data.draw(plan_documents(5).filter(PLAN_NEEDS.get(rule, lambda doc: True)),
                        "plan")
        message = break_plan(rule, doc, data.draw, 5)
        with tempfile.TemporaryDirectory() as tmp:
            plan = Path(tmp, "plan.json")
            plan.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["fuse", "--model", str(readme_run["synth"] / "model.d2mw"),
                             "--plan", str(plan), "--base-copies", "1", "--supp-copies", "1",
                             "--top-k", "1", "--out", str(Path(tmp, "f.d2mw")),
                             "--provenance-out", str(Path(tmp, "p.json"))])
            assert (code, err.getvalue()) == (2, f"error: {plan}: {message}\n")
            assert [p.name for p in Path(tmp).iterdir()] == ["plan.json"]

    @pytest.mark.parametrize("stage", ["fuse", "train-toy"])
    def test_a_repeated_entry_exits_2_naming_it_and_writes_nothing(self, tmp_path, capsys,
                                                                    readme_run, stage):
        model = tmp_path / "model.d2mw"
        if stage == "fuse":
            repeat_entry(readme_run["synth"] / "model.d2mw", "layer.2.attn.v", model)
            argv = ["fuse", "--model", str(model), "--plan", str(readme_run["plan"]),
                    "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                    "--out", str(tmp_path / "f.d2mw"),
                    "--provenance-out", str(tmp_path / "p.json")]
        else:
            repeat_entry(readme_run["fused"], "layer.2.attn.v", model)
            argv = ["train-toy", "--model", str(model), "--steps", "2",
                    "--log-out", str(tmp_path / "log.csv"),
                    "--model-out", str(tmp_path / "trained.d2mw")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: duplicate tensor 'layer.2.attn.v' in stream\n")
        assert [p.name for p in tmp_path.iterdir()] == ["model.d2mw"]


def flipped(fusion: Fusion, name: str, plan: FusionPlan):
    fusion.flip(name, 0, ULP)
    return plan, fusion.provenance


# each kind of check in the README model's report, and a tamper that makes
# it the first check to fail: the plan and provenance to verify with
README_TAMPERS = {
    "layer_count": lambda f, plan: (  # another plan
        FusionPlan(keep_layers=(1, 2, 3, 4, 5), prune_layers=frozenset(), blocks=()),
        f.provenance),
    "copy": lambda f, plan: flipped(f, "layer.3.attn.q", plan),
    "provenance_present": lambda f, plan: (plan, {}),  # the block's entry dropped
    "zero_router": lambda f, plan: flipped(f, "layer.4.router", plan),
    "expert_copy": lambda f, plan: flipped(f, "layer.4.moe.expert.2.down", plan),
}


class TestFuseCounts:
    @settings(max_examples=40)
    @given(counts=st.tuples(*[st.integers(-3, 6)] * 3), fuses=st.booleans())
    @example(counts=(1, 1, -7), fuses=False)
    @example(counts=(1, 1, 3), fuses=True)
    @example(counts=(2, 3, 6), fuses=True)
    @example(counts=(2, 3, 5), fuses=True)
    def test_counts_are_refused_alike_for_every_plan(self, readme_run, counts, fuses):
        # the README plan fuses layer 5 into layer 4: one pool of K + M experts
        base_copies, supp_copies, top_k = counts
        model = readme_run["synth"] / "model.d2mw"
        with tempfile.TemporaryDirectory() as tmp:
            plan = Path(tmp, "plan.json")
            plan.write_text(readme_run["plan"].read_text() if fuses else
                            '{"keep": [1, 2, 3, 4, 5], "prune": [], "blocks": []}')
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["fuse", "--model", str(model), "--plan", str(plan),
                             f"--base-copies={base_copies}", f"--supp-copies={supp_copies}",
                             f"--top-k={top_k}", "--out", str(Path(tmp, "f.d2mw")),
                             "--provenance-out", str(Path(tmp, "p.json"))])
            if min(counts) < 1:
                message = ("base_copies, supp_copies and top_k must be positive counts, "
                           f"got {base_copies}, {supp_copies}, {top_k}")
            elif fuses and top_k > base_copies + supp_copies:
                message = (f"top_k {top_k} exceeds the {base_copies + supp_copies} experts "
                           "of a fused layer")
            else:
                assert code == 0, err.getvalue()
                return
            assert (code, err.getvalue()) == (2, f"error: {message}\n")
            assert os.listdir(tmp) == ["plan.json"]


class TestFusionReport:
    def test_every_kind_of_check_can_fail_first(self, tmp_path, readme_run):
        # a kind of check that no tamper can make fail first is one that
        # re-decides what an earlier check, or the header walker, decided
        dense = readme_run["synth"] / "model.d2mw"
        plan = load_plan(readme_run["plan"], 5)
        provenance, report = surgery.fuse(dense, plan, 1, 1, 1, tmp_path / "fused.d2mw")
        assert len(report.checks) == 52  # 50 fused tensors, the layer count, 1 block
        assert {c.name.partition(":")[0] for c in report.checks} == set(README_TAMPERS)
        for kind, tamper in README_TAMPERS.items():
            path = tmp_path / f"{kind}.d2mw"
            path.write_bytes((tmp_path / "fused.d2mw").read_bytes())
            with open_weights(dense) as source, open_weights(path) as fused:
                fusion = Fusion(source, fused, path, provenance, report)
                with pytest.raises(VerificationFailure) as info:
                    surgery.verify_fusion(source, fused, *tamper(fusion, plan))
            first = next(c for c in info.value.report.checks if not c.passed)
            assert first.name.partition(":")[0] == kind
            assert str(info.value) == f"{first.name}: {first.detail}"

    def test_prov_json_lists_every_check_in_report_order(self, tmp_path, readme_run):
        # beside the layer keys, which stay where they were
        plan = load_plan(readme_run["plan"], 5)
        _, report = surgery.fuse(readme_run["synth"] / "model.d2mw", plan, 1, 1, 1,
                                 tmp_path / "fused.d2mw")
        prov = json.loads(readme_run["prov"].read_text())
        assert sorted(prov) == ["4", "checks"]
        assert prov["checks"] == [{"name": c.name, "passed": c.passed, "detail": c.detail}
                                  for c in report.checks]
        assert len(prov["checks"]) == 52 and all(c["passed"] for c in prov["checks"])


# each argv exits 2 with its message and writes nothing: {matrices} and
# {fused} are the README pipeline's, {out} the test's own directory
PLAN_MODE = ["search", "--matrices", "{matrices}", "--delta", "0.05", "--epsilon", "0.1",
             "--plan-out", "{out}/plan.json"]
SWEEP_MODE = ["search", "--matrices", "{matrices}", "--sweep", "--delta-grid", "0.05",
              "--epsilon-grid", "0.1", "--sweep-out", "{out}/sweep.csv"]


def without(argv: list[str], flag: str) -> list[str]:
    """``argv`` with ``flag`` and its value removed."""
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


BLOCK_SIZE_0 = "block_sizes must be a non-empty set of positive counts, got (0,)"
REFUSALS = {
    **{f"plan-mode-without-{flag[2:]}": (
        without(PLAN_MODE, flag), "plan mode requires --delta, --epsilon, --plan-out")
       for flag in ("--delta", "--epsilon", "--plan-out")},
    **{f"sweep-mode-without-{flag[2:]}": (
        without(SWEEP_MODE, flag), "--sweep requires --delta-grid, --epsilon-grid, --sweep-out")
       for flag in ("--delta-grid", "--epsilon-grid", "--sweep-out")},
    "block-sizes-comma": ([*PLAN_MODE, "--block-sizes", ","],
                          "block_sizes must be a non-empty set of positive counts, got ()"),
    "plan-mode-block-size-0": ([*PLAN_MODE, "--block-sizes", "0"], BLOCK_SIZE_0),
    "sweep-mode-block-size-0": ([*SWEEP_MODE, "--block-sizes", "0"], BLOCK_SIZE_0),
    "epsilon-1.5": ([*without(PLAN_MODE, "--epsilon"), "--epsilon", "1.5"],
                    "thresholds.norm_tolerance must lie in (0, 1)"),
    "pareto-without-w-or-calibrate": (
        ["pareto", "--candidates", "{out}/candidates.csv", "--base-latency", "100",
         "--rewards-out", "{out}/rewards.csv", "--frontier-out", "{out}/frontier.csv"],
        "provide either --w or --calibrate FACTOR GAIN"),
    "pareto-with-w-and-calibrate": (
        ["pareto", "--candidates", "{out}/candidates.csv", "--base-latency", "100",
         "--w", "5", "--calibrate", "2", "1.11",
         "--rewards-out", "{out}/rewards.csv", "--frontier-out", "{out}/frontier.csv"],
        "provide either --w or --calibrate FACTOR GAIN"),
    "train-toy-steps-0": (
        ["train-toy", "--model", "{fused}", "--steps", "0", "--log-out", "{out}/log.csv",
         "--model-out", "{out}/trained.d2mw"], "steps must be at least 1"),
    "diagnose-bad-header": (["diagnose", "--log", "{out}/bad_header.csv",
                             "--out", "{out}/wta.csv"],
                            "{out}/bad_header.csv: not a training log CSV (bad header)"),
    "diagnose-header-only": (["diagnose", "--log", "{out}/header_only.csv",
                              "--out", "{out}/wta.csv"],
                             "{out}/header_only.csv: training log has no data rows"),
}


class TestRefusals:
    @pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS)
    def test_exits_2_with_its_message_writing_nothing(self, tmp_path, capsys, readme_run,
                                                      argv, message):
        (tmp_path / "candidates.csv").write_text(CANDIDATES_CSV)
        (tmp_path / "bad_header.csv").write_text("step,loss\n1,0.5\n")
        (tmp_path / "header_only.csv").write_text("step,task_loss,lb_loss,load_e1,load_e2\n")
        before = files_under(tmp_path)
        paths = {"matrices": readme_run["analysis"] / "matrices.d2ms",
                 "fused": readme_run["fused"], "out": tmp_path}
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert files_under(tmp_path) == before


class TestEstimate:
    def test_reference_latency_and_memory_fields(self, tmp_path):
        config = tmp_path / "qwen.json"
        write_config(config)
        out = tmp_path / "cost.json"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["prefill_s"] == pytest.approx(2.0447e-3, rel=5e-3)
        assert doc["decode_s"] == pytest.approx(133.4e-3, rel=5e-3)
        assert doc["total_s"] == pytest.approx(doc["prefill_s"] + doc["decode_s"], rel=1e-12)
        assert doc["params_active"] == pytest.approx(0.50e9, abs=0.01e9)
        assert doc["L"] == 24 and doc["N"] == 1 and doc["k"] == 1

    def test_expert_sweep_latency_invariant_memory_growing(self, tmp_path):
        results = {}
        for n in (2, 6, 10, 60):
            model = dict(QWEN_MODEL, num_layers=19, moe=every_layer(19, n))
            config = tmp_path / f"n{n}.json"
            write_config(config, model)
            out = tmp_path / f"cost{n}.json"
            assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
            results[n] = json.loads(out.read_text())
        latencies = {(r["prefill_s"], r["decode_s"]) for r in results.values()}
        assert len(latencies) == 1
        assert results[6]["bytes"] == pytest.approx(3.32e9, abs=0.01e9)
        assert results[10]["bytes"] == pytest.approx(5.31e9, abs=0.01e9)
        assert results[6]["params_active"] == pytest.approx(0.42e9, abs=0.01e9)

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"model": QWEN_MODEL, "oops": 1}))
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("hardware", "mem_bandwidth", None),  # None: the key is dropped
        ("hardware", "peak_flops", "x"),
        ("workload", "batch", "1"),
        ("model.moe", "top_k", None),
        ("thresholds", "block_sizes", 5),
        ("router", "temperature", "hot"),
        ("hardware", "peak_flops", float("inf")),
        ("hardware", "mem_bandwidth", float("nan")),
        ("model", "num_layers", True),
        # valid-looking values whose cost overflows a float
        pytest.param("model", "num_layers", 10**400, id="model-num_layers-10**400"),
        pytest.param("model", "vocab_size", 10**400, id="model-vocab_size-10**400"),
        ("hardware", "peak_flops", 5e-324),
    ])
    def test_malformed_config_exits_2_naming_section(self, tmp_path, capsys,
                                                      section, key, value):
        doc = {"model": dict(QWEN_MODEL, moe=every_layer(24, 6)), "hardware": dict(THOR),
               "workload": dict(WORKLOAD)}
        target = doc
        for name in section.split("."):
            target = target.setdefault(name, {})
        if value is None:
            del target[key]
        else:
            target[key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))  # inf and nan become Infinity and NaN
        assert main(["estimate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert section in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_batch_is_an_unknown_workload_key(self, tmp_path, capsys):
        # no formula read it, so a config that still holds it is refused
        config = tmp_path / "batch.json"
        config.write_text(json.dumps({"model": QWEN_MODEL,
                                      "workload": dict(WORKLOAD, batch=1)}))
        out = tmp_path / "cost.json"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 2
        assert "unknown keys in 'workload': ['batch']" in capsys.readouterr().err
        assert not out.exists()

    def test_params_total_counts_the_synthesized_container(self, tmp_path):
        # one 8-wide head does not tile the 16-wide hidden state, so the
        # attention output projection holds 8*16 parameters, not 16*16
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--layers", "3", "--hidden", "16",
                     "--heads", "1", "--kv-heads", "1", "--head-dim", "8",
                     "--seq-len", "4"]) == 0
        out = tmp_path / "cost.json"
        assert main(["estimate", "--config", str(synth / "config.json"),
                     "--out", str(out)]) == 0
        model = read_weights(synth / "model.d2mw")
        assert json.loads(out.read_text())["params_total"] == \
            sum(t.size for t in model.tensors.values())

    def test_a_trillion_layers_cost_no_loop(self, tmp_path):
        # MoE(6, top-2) at the first and the last of 10**12 layers
        moe = {"experts": {"1": 6, str(10**12): 6}, "top_k": 2}
        config = tmp_path / "deep.json"
        write_config(config, dict(QWEN_MODEL, num_layers=10**12, moe=moe))
        out = tmp_path / "cost.json"
        start = time.perf_counter()
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 0.5
        doc = json.loads(out.read_text())
        assert doc["L"] == 10**12 and doc["N"] == 6 and doc["k"] == 2
        # four inactive GLU triples in each of the two MoE layers
        assert doc["params_total"] - doc["params_active"] == 2 * 4 * 3 * 896 * 4864

    @pytest.mark.parametrize("num_experts", [10**12, 10**400])
    def test_expert_count_costs_no_loop(self, tmp_path, capsys, num_experts):
        # 10**400 experts overflow the static memory in bytes, a float
        config = tmp_path / "wide.json"
        write_config(config, dict(QWEN_MODEL, moe=every_layer(24, num_experts)))
        out = tmp_path / "cost.json"
        start = time.perf_counter()
        code = main(["estimate", "--config", str(config), "--out", str(out)])
        assert time.perf_counter() - start < 0.5
        if num_experts == 10**400:
            assert code == 2 and not out.exists()
            err = capsys.readouterr().err
            assert "static memory" in err and "overflows a float" in err
            assert "Traceback" not in err
        else:
            assert code == 0
            doc = json.loads(out.read_text())
            assert doc["params_total"] > 10**12 * 3 * 896 * 4864 > doc["params_active"]

    def test_unwritable_output_exits_3(self, tmp_path):
        config = tmp_path / "ok.json"
        write_config(config)
        out = tmp_path / "missing_dir" / "cost.json"
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 3


class TestPareto:
    def test_table_argmax_and_rewards(self, tmp_path, capsys):
        cands = tmp_path / "cands.csv"
        cands.write_text(CANDIDATES_CSV)
        rewards = tmp_path / "rewards.csv"
        frontier = tmp_path / "frontier.csv"
        assert main(["pareto", "--candidates", str(cands), "--base-latency", "195.87",
                     "--w", "-0.15", "--rewards-out", str(rewards),
                     "--frontier-out", str(frontier)]) == 0
        assert "argmax L19" in capsys.readouterr().out
        lines = rewards.read_text().strip().splitlines()
        data = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [row[4] for row in data] == ["31.54", "40.70", "44.00", "48.12", "47.79", "47.74"]

    def test_calibrate_echoed_in_header(self, tmp_path):
        cands = tmp_path / "cands.csv"
        cands.write_text(CANDIDATES_CSV)
        rewards = tmp_path / "rewards.csv"
        assert main(["pareto", "--candidates", str(cands), "--base-latency", "195.87",
                     "--calibrate", "2", "1.11", "--rewards-out", str(rewards),
                     "--frontier-out", str(tmp_path / "f.csv")]) == 0
        header = rewards.read_text().splitlines()[0]
        assert header.startswith("#") and "w=-0.150560" in header

    def test_frontier_is_non_dominated_subset(self, tmp_path):
        cands = tmp_path / "cands.csv"
        cands.write_text(CANDIDATES_CSV)
        frontier = tmp_path / "frontier.csv"
        assert main(["pareto", "--candidates", str(cands), "--base-latency", "195.87",
                     "--w", "-0.15", "--rewards-out", str(tmp_path / "r.csv"),
                     "--frontier-out", str(frontier)]) == 0
        rows = [line.split(",") for line in frontier.read_text().strip().splitlines()
                if not line.startswith("#")][1:]
        # every candidate in the table improves on its slower neighbours, so
        # the whole table is its own frontier
        assert len(rows) == 6

    @pytest.mark.parametrize("row, flags", [
        ("L1,one,1.0,1.0,", ["--w", "-0.15"]),
        ("L1,1,nan,1.0,", ["--w", "-0.15"]),
        ("L1,1,1.0,nan,", ["--w", "-0.15"]),
        ("L1,1,1.0,1.0,", ["--w", "nan"]),
        ("L1,1,1.0,1.0,", ["--w", "-0.15", "--base-latency", "inf"]),
        ("L1,1,1.0,1.0,", ["--w", "-0.15", "--base-latency", "nan"]),
        ("L1,1,1.0,1e308,", ["--w", "100", "--base-latency", "1e-300"]),  # power overflows
        ("L1,1,1.0,1e308,", ["--w", "1", "--base-latency", "0.5"]),  # product is infinite
    ])
    def test_bad_candidate_or_flag_exits_2(self, tmp_path, capsys, row, flags):
        cands = tmp_path / "cands.csv"
        cands.write_text(f"config_id,depth,latency_ms,score,reward\n{row}\n")
        assert main(["pareto", "--candidates", str(cands), "--base-latency", "100", *flags,
                     "--rewards-out", str(tmp_path / "r.csv"),
                     "--frontier-out", str(tmp_path / "f.csv")]) == 2
        err = capsys.readouterr().err
        # a non-finite knob is refused naming the knob, before any candidate;
        # anything else the candidate's row or reward, naming the candidate
        knobs = {"--w": "exponent", "--base-latency": "base_latency_ms"}
        bad = [knobs[f] for f, v in zip(flags[::2], flags[1::2]) if not math.isfinite(float(v))]
        assert (bad[0] in err and "L1" not in err) if bad else "L1" in err, err
        assert not (tmp_path / "r.csv").exists()

    def test_empty_candidates_exits_2(self, tmp_path):
        cands = tmp_path / "cands.csv"
        cands.write_text("config_id,depth,latency_ms,score,reward\n")
        assert main(["pareto", "--candidates", str(cands), "--base-latency", "100",
                     "--w", "-0.15", "--rewards-out", str(tmp_path / "r.csv"),
                     "--frontier-out", str(tmp_path / "f.csv")]) == 2


class TestTrainAndDiagnose:
    def test_train_then_diagnose_composes(self, tmp_path):
        out = run_pipeline(tmp_path)
        assert main(["train-toy", "--model", str(out["fused"]), "--steps", "5",
                     "--lr", "0.5", "--alpha", "1e-3", "--seed", "7",
                     "--seq-len", "24", "--sequences", "2",
                     "--log-out", str(out["log"]), "--model-out", str(out["trained"])]) == 0
        header = out["log"].read_text().splitlines()[0]
        assert header == "step,task_loss,lb_loss,load_e1,load_e2"
        assert main(["diagnose", "--log", str(out["log"]), "--out", str(out["wta"])]) == 0
        lines = out["wta"].read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 7

    def test_train_rerun_deterministic(self, tmp_path):
        out = run_pipeline(tmp_path)
        logs = []
        for name in ("log1.csv", "log2.csv"):
            assert main(["train-toy", "--model", str(out["fused"]), "--steps", "4",
                         "--lr", "0.5", "--alpha", "1e-3", "--seed", "3",
                         "--seq-len", "16", "--sequences", "2",
                         "--log-out", str(tmp_path / name),
                         "--model-out", str(tmp_path / (name + ".d2mw"))]) == 0
            logs.append((tmp_path / name).read_bytes())
        assert logs[0] == logs[1]

    def test_topology_is_refused_from_the_header(self, tmp_path, capsys):
        # the MoE layer is not last, and the payload is cut short: only the
        # header is read before the refusal
        shape = ModelShape(num_layers=4, hidden_dim=16, mlp_dim=32, num_heads=2,
                           num_kv_heads=1, head_dim=8, vocab_size=24)
        plan = FusionPlan(keep_layers=(1, 2, 4), prune_layers=frozenset({3}),
                          blocks=(FusionBlock(base=2, redundant=(3,)),))
        write_weights(build_toy_container(shape, seed=1), tmp_path / "dense.d2mw")
        model = tmp_path / "fused.d2mw"
        surgery.fuse(tmp_path / "dense.d2mw", plan, 1, 1, 1, model)
        model.write_bytes(model.read_bytes()[:model.stat().st_size // 2])
        assert main(["train-toy", "--model", str(model), "--steps", "2",
                     "--log-out", str(tmp_path / "log.csv"),
                     "--model-out", str(tmp_path / "trained.d2mw")]) == 2
        assert capsys.readouterr().err == (
            "error: train_toy requires exactly one MoE layer, at the final position "
            "(got MoE layers [2] of 3)\n")
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--alpha", "nan"), ("--alpha", "inf"),
        ("--seq-len", "-3"), ("--sequences", "-1"), ("--seed", "-5"),
    ])
    def test_bad_train_flag_exits_2(self, tmp_path, capsys, flag, value):
        out = run_pipeline(tmp_path)
        code = main(["train-toy", "--model", str(out["fused"]), "--steps", "2",
                     "--seq-len", "8", "--sequences", "2", flag, value,
                     "--log-out", str(out["log"]), "--model-out", str(out["trained"])])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite at step" not in err
        assert flag.lstrip("-").replace("-", "_") in err
        assert not out["log"].exists() and not out["trained"].exists()

    def test_diagnose_row_range(self, tmp_path, capsys):
        out = run_pipeline(tmp_path)
        assert main(["train-toy", "--model", str(out["fused"]), "--steps", "3",
                     "--seq-len", "8", "--sequences", "2",
                     "--log-out", str(out["log"]), "--model-out", str(out["trained"])]) == 0
        assert main(["diagnose", "--log", str(out["log"]), "--row", "-3",
                     "--out", str(out["wta"])]) == 0
        capsys.readouterr()
        for row in ("3", "9999", "-4"):
            assert main(["diagnose", "--log", str(out["log"]), "--row", row,
                         "--out", str(tmp_path / "bad.csv")]) == 2
            assert "-3..2" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()


    @settings(max_examples=20, deadline=None)
    @given(steps=st.integers(1, 2 ** 31 - 1), short=st.sampled_from(["--log-out", "--model-out"]))
    @example(steps=2 ** 31 - 1, short="--log-out")
    @example(steps=1, short="--model-out")
    def test_an_output_larger_than_the_free_space_exits_3_writing_nothing(self, readme_run,
                                                                         steps, short):
        # sized from the model's header, before any tensor is read: each
        # output in a directory of its own, the short one with 16 bytes free
        def untouched(*args, **kwargs):
            raise AssertionError("a tensor was read or a step trained")

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            outs = {"--log-out": Path(tmp, "log", "train_log.csv"),
                    "--model-out": Path(tmp, "model", "trained.d2mw")}
            for path in outs.values():
                path.parent.mkdir()
            patch.setattr(os, "statvfs", lambda path: types.SimpleNamespace(
                f_bavail=1, f_frsize=16 if Path(path) == outs[short].parent else 1 << 50))
            patch.setattr(traceio, "read_weights", untouched)
            patch.setattr(nanomodel, "train_toy", untouched)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["train-toy", "--model", str(readme_run["fused"]),
                             "--steps", str(steps), *(a for item in outs.items()
                                                      for a in map(str, item))])
            assert code == 3, err.getvalue()
            assert err.getvalue().startswith(f"error: cannot write {outs[short]}: need ")
            assert err.getvalue().endswith(" bytes, 16 are free\n")
            assert [list(path.parent.iterdir()) for path in outs.values()] == [[], []]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_outputs_that_just_fit_the_free_space_are_written(self, tmp_path, readme_run,
                                                             monkeypatch, steps):
        # the free-space bounds are lower bounds: with exactly each output's
        # size free in its directory, the stage still writes both
        outs = {"--log-out": tmp_path / "log" / "train_log.csv",
                "--model-out": tmp_path / "model" / "trained.d2mw"}
        for path in outs.values():
            path.parent.mkdir()
        argv = ["train-toy", "--model", str(readme_run["fused"]), "--steps", str(steps),
                "--seq-len", "8", "--sequences", "1",
                *(a for item in outs.items() for a in map(str, item))]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            written = {path.parent: path.read_bytes() for path in outs.values()}
            for path in outs.values():
                path.unlink()
            monkeypatch.setattr(os, "statvfs", lambda path: types.SimpleNamespace(
                f_bavail=len(written[Path(path)]), f_frsize=1))
            assert main(argv) == 0
        assert {path.parent: path.read_bytes() for path in outs.values()} == written

    @pytest.mark.parametrize("row", ["1,x,0.5,1.0", "1", "1,0.5,0.5", "1,nan,0.5,1.0",
                                     "1,0.5,inf,1.0", "1,0.5,0.5,nan", "1.5,0.5,0.5,1.0",
                                     "0,1.0,0.1,-3.0,7.5", "1,0.5,0.5,1.5,-0.5",
                                     "1,0.5,0.5,0.4,0.5", "1,0.5,0.5,0.999"])
    def test_malformed_log_row_exits_2(self, tmp_path, capsys, row):
        # one load column per load cell of the row (at least one), and a
        # valid first data row of uniform loads
        n = max(1, row.count(",") - 2)
        header = ",".join(["step", "task_loss", "lb_loss"]
                          + [f"load_e{i}" for i in range(1, n + 1)])
        first = ",".join(["0", "1.0", "0.1"] + [repr(1 / n)] * n)
        log = tmp_path / "log.csv"
        log.write_text(f"{header}\n{first}\n{row}\n")
        assert main(["diagnose", "--log", str(log), "--out", str(tmp_path / "w.csv")]) == 2
        assert "row 3" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


# JSON that Python's parser refuses although its syntax is valid: an integer
# of more digits than it converts, and arrays nested deeper than it recurses
UNPARSEABLE = {"5000-digit-int": "9" * 5000, "nested-200000": "[" * 200_000 + "]" * 200_000}


class TestUnparseableJson:
    @pytest.mark.parametrize("value", UNPARSEABLE.values(), ids=UNPARSEABLE.keys())
    @pytest.mark.parametrize("target", ["config", "plan", "model"])
    def test_exits_2_naming_file(self, tmp_path, capsys, target, value):
        synth = tmp_path / "synth"
        assert main(["synth", "--out-dir", str(synth), "--seed", "1",
                     "--layers", "3", "--hidden", "16", "--seq-len", "8"]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text('{"keep": %s, "prune": [], "blocks": []}'
                        % (value if target == "plan" else "[1, 2, 3]"))
        bad = {"config": synth / "config.json", "plan": plan, "model": synth / "model.d2mw"}
        if target == "config":
            text = bad["config"].read_text()
            assert text.count('"num_layers": 3') == 1
            bad["config"].write_text(text.replace('"num_layers": 3', f'"num_layers": {value}'))
        elif target == "model":
            data = bad["model"].read_bytes()
            (length,) = struct.unpack_from("<I", data, 8)
            header = data[12:12 + length]
            assert header.count(b'"num_layers":3') == 1
            header = header.replace(b'"num_layers":3', b'"num_layers":' + value.encode())
            bad["model"].write_bytes(data[:8] + struct.pack("<I", len(header)) + header
                                     + data[12 + length:])
        capsys.readouterr()
        out = tmp_path / "out"
        if target == "config":
            argv = ["estimate", "--config", str(bad["config"]), "--out", str(out)]
        else:
            argv = ["fuse", "--model", str(bad["model"]), "--plan", str(plan),
                    "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                    "--out", str(out), "--provenance-out", str(tmp_path / "prov.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad[target]) in err and "is not valid JSON" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def text_sources(tmp_path_factory) -> tuple[Path, dict[str, bytes]]:
    """A three-layer model, and a valid file of each text input by its name:
    the plan, the config, the training log, the candidates, and the manifest
    that ``estimate --run-dir`` leaves beside that config."""
    root = tmp_path_factory.mktemp("text-inputs")
    assert main(["synth", "--out-dir", str(root), "--layers", "3", "--hidden", "16",
                 "--seq-len", "8"]) == 0
    (root / "plan.json").write_text(json.dumps(
        {"keep": [1, 3], "prune": [2], "blocks": [{"base": 1, "redundant": [2]}]}, indent=2))
    (root / "log.csv").write_text("step,task_loss,lb_loss,load_e1,load_e2\n"
                                  "1,1.5e+00,5.0e-01,2.5e-01,7.5e-01\n"
                                  "2,1.25e+00,4.0e-01,5.0e-01,5.0e-01\n")
    (root / "candidates.csv").write_text(CANDIDATES_CSV)
    assert main(["estimate", "--config", str(root / "config.json"),
                 "--out", str(root / "cost.json"), "--run-dir", str(root)]) == 0
    names = ("plan.json", "config.json", "log.csv", "candidates.csv", "manifest.json")
    return root / "model.d2mw", {name: (root / name).read_bytes() for name in names}


@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` cut short at a drawn byte, or with a drawn byte replaced."""
    at = draw(st.integers(0, len(data) - 1), "at")
    if draw(st.booleans(), "truncate"):
        return data[:at]
    byte = draw(st.one_of(st.just(0xFF), st.integers(0, 255)), "byte")
    return data[:at] + bytes([byte]) + data[at + 1:]


class TestDamagedTextInputs:
    # the input's file name, and the exit code of its refusals
    INPUTS = {"plan": ("plan.json", 2), "config": ("config.json", 2), "log": ("log.csv", 2),
              "candidates": ("candidates.csv", 2), "manifest": ("manifest.json", 4)}

    @pytest.mark.parametrize("kind", INPUTS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_refusal_names_the_file_and_writes_nothing(self, text_sources, kind, data):
        model, sources = text_sources
        name, code = self.INPUTS[kind]
        content = data.draw(damaged(sources[name]), name)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / name).write_bytes(content)
            if kind == "manifest":  # the config it records, unchanged
                (root / "config.json").write_bytes(sources["config.json"])
            text_input = str(root / name)
            argv = {
                "plan": ["fuse", "--model", str(model), "--plan", text_input,
                         "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                         "--out", str(root / "f.d2mw"), "--provenance-out", str(root / "p.json")],
                "config": ["estimate", "--config", text_input, "--out", str(root / "c.json")],
                "log": ["diagnose", "--log", text_input, "--out", str(root / "w.csv")],
                "candidates": ["pareto", "--candidates", text_input, "--base-latency", "100",
                               "--w", "-0.15", "--rewards-out", str(root / "r.csv"),
                               "--frontier-out", str(root / "f.csv")],
                "manifest": ["estimate", "--config", str(root / "config.json"),
                             "--out", str(root / "cost.json"), "--run-dir", tmp],
            }[kind]
            before = files_under(root)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                got = main(argv)
            if got:
                assert got in (code, 3), err.getvalue()
                assert err.getvalue().startswith(f"error: {text_input}: ")
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
                assert files_under(root) == before


class TestManifest:
    def test_stale_artifact_detected(self, tmp_path):
        run_dir = tmp_path / "run"
        synth_dir = run_dir / "synth"
        analysis = run_dir / "analysis"
        assert main(["synth", "--out-dir", str(synth_dir), "--seed", "1",
                     "--layers", "4", "--hidden", "16", "--mlp-dim", "32",
                     "--heads", "2", "--kv-heads", "1", "--head-dim", "8",
                     "--vocab", "32", "--seq-len", "32", "--redundant", "2:1:0.0",
                     "--run-dir", str(run_dir)]) == 0
        trace = synth_dir / "trace.d2mt"
        assert main(["analyze", "--trace", str(trace), "--out-dir", str(analysis),
                     "--run-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"synth", "analyze"}
        # corrupt the trace behind the manifest's back: next consumer must balk
        raw = bytearray(trace.read_bytes())
        raw[-1] ^= 0xFF
        trace.write_bytes(raw)
        assert main(["analyze", "--trace", str(trace), "--out-dir", str(analysis),
                     "--run-dir", str(run_dir)]) == 4

    def test_sweep_keeps_the_plan_checked(self, tmp_path):
        # search records its plan and its sweep under one stage; the second
        # run must not drop the first one's output from the manifest
        run_dir = tmp_path / "run"
        out = run_pipeline(run_dir)
        flags = ["--run-dir", str(run_dir)]
        matrices = str(out["analysis"] / "matrices.d2ms")
        assert main(["search", "--matrices", matrices, "--delta", "0.05", "--epsilon", "0.1",
                     "--plan-out", str(out["plan"]), *flags]) == 0
        assert main(["search", "--matrices", matrices, "--sweep", "--delta-grid", "0.01,0.1",
                     "--epsilon-grid", "0.1", "--sweep-out", str(run_dir / "sweep.csv"),
                     *flags]) == 0
        outputs = json.loads((run_dir / "manifest.json").read_text())["stages"]["search"]["outputs"]
        assert sorted(outputs) == ["plan.json", "sweep.csv"]
        plan = json.loads(out["plan"].read_text())
        out["plan"].write_text(json.dumps({**plan, "prune": [], "keep": [1, 2, 3, 4, 5],
                                           "blocks": []}))
        assert main(["fuse", "--model", str(out["synth"] / "model.d2mw"),
                     "--plan", str(out["plan"]), "--base-copies", "1", "--supp-copies", "1",
                     "--top-k", "1", "--out", str(tmp_path / "f.d2mw"),
                     "--provenance-out", str(tmp_path / "p.json"), *flags]) == 4

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"\xff\xfe",
        b"[]",
        b"{}",
        b'{"stages": []}',
        b'{"stages": {"synth": 1}}',
        b'{"stages": {"synth": {"outputs": []}}}',
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000"),
    ])
    def test_corrupt_manifest_exits_4(self, tmp_path, capsys, content):
        run_dir = tmp_path / "run"
        synth_dir = run_dir / "synth"
        assert main(["synth", "--out-dir", str(synth_dir), "--seed", "1",
                     "--layers", "3", "--hidden", "16", "--seq-len", "8"]) == 0
        run_dir.joinpath("manifest.json").write_bytes(content)
        code = main(["analyze", "--trace", str(synth_dir / "trace.d2mt"),
                     "--out-dir", str(run_dir / "analysis"), "--run-dir", str(run_dir)])
        assert code == 4
        assert "manifest.json" in capsys.readouterr().err

    def test_each_file_is_hashed_once_per_stage(self, tmp_path, monkeypatch, capsys):
        # every stage of the README pipeline, in one run directory: each input
        # is hashed once (before the stage runs, and that digest is recorded)
        # and each output once, as its new file, counted by its destination,
        # and the manifest is parsed once
        root = tmp_path / "run"
        root.mkdir()
        (root / "candidates.csv").write_text(CANDIDATES_CSV)
        stages = [
            (["synth", "--out-dir", "synth", "--seed", "11", "--layers", "5", "--hidden", "16",
              "--mlp-dim", "32", "--heads", "2", "--kv-heads", "1", "--head-dim", "8",
              "--vocab", "32", "--seq-len", "48", "--redundant", "4:1:0.0"],
             [], ["synth/model.d2mw", "synth/trace.d2mt", "synth/config.json"]),
            (["analyze", "--trace", "synth/trace.d2mt", "--out-dir", "analysis"],
             ["synth/trace.d2mt"],
             ["analysis/s_out.csv", "analysis/s_mlp.csv", "analysis/delta_norm.csv",
              "analysis/matrices.d2ms"]),
            (["search", "--matrices", "analysis/matrices.d2ms", "--delta", "0.05",
              "--epsilon", "0.1", "--plan-out", "plan.json"],
             ["analysis/matrices.d2ms"], ["plan.json"]),
            (["search", "--matrices", "analysis/matrices.d2ms", "--sweep",
              "--delta-grid", "0.001,0.01,0.1", "--epsilon-grid", "0.01,0.1",
              "--sweep-out", "sweep.csv"],
             ["analysis/matrices.d2ms"], ["sweep.csv"]),
            (["fuse", "--model", "synth/model.d2mw", "--plan", "plan.json",
              "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
              "--out", "fused.d2mw", "--provenance-out", "prov.json"],
             ["synth/model.d2mw", "plan.json"], ["fused.d2mw", "prov.json"]),
            (["estimate", "--config", "synth/config.json", "--out", "cost.json"],
             ["synth/config.json"], ["cost.json"]),
            (["train-toy", "--model", "fused.d2mw", "--steps", "5", "--seed", "23",
              "--log-out", "train_log.csv", "--model-out", "trained.d2mw"],
             ["fused.d2mw"], ["train_log.csv", "trained.d2mw"]),
            (["diagnose", "--log", "train_log.csv", "--out", "wta.csv"],
             ["train_log.csv"], ["wta.csv"]),
            (["pareto", "--candidates", "candidates.csv", "--base-latency", "195.87",
              "--calibrate", "2", "1.11", "--rewards-out", "rewards.csv",
              "--frontier-out", "frontier.csv"],
             ["candidates.csv"], ["rewards.csv", "frontier.csv"]),
        ]
        hashed, parsed = [], []
        real_sha256, real_json_document = cli._sha256, cli.json_document

        def counted_sha256(path):
            path = Path(path).resolve()
            new = re.fullmatch(r"\.(.+)\.[0-9a-f]{8}\.tmp", path.name)
            hashed.append((path.with_name(new.group(1)) if new else path)
                          .relative_to(root).as_posix())
            return real_sha256(path)

        def counted_json_document(text, source):
            parsed.append(Path(source).name)
            return real_json_document(text, source)

        monkeypatch.setattr(cli, "_sha256", counted_sha256)
        monkeypatch.setattr(cli, "json_document", counted_json_document)
        monkeypatch.chdir(root)
        for argv, inputs, outputs in stages:
            hashed.clear()
            parsed.clear()
            had_manifest = (root / "manifest.json").exists()
            assert main([*argv, "--run-dir", "."]) == 0, argv
            assert sorted(hashed) == sorted([*inputs, *outputs]), argv
            assert parsed == (["manifest"] if had_manifest else []), argv
            manifest = json.loads((root / "manifest.json").read_text())
            record = manifest["stages"][argv[0]]
            assert record["inputs"] == {p: sha256_of(root / p) for p in inputs}
            assert all(record["outputs"][p] == sha256_of(root / p) for p in outputs)
        capsys.readouterr()

    def test_fuse_over_its_model_records_the_digest_it_read(self, tmp_path):
        run_dir = tmp_path / "run"
        flags = ["--run-dir", str(run_dir)]
        out = run_pipeline(run_dir)
        assert main(["synth", "--out-dir", str(out["synth"]), "--seed", "11", "--layers", "5",
                     "--hidden", "16", "--mlp-dim", "32", "--heads", "2", "--kv-heads", "1",
                     "--head-dim", "8", "--vocab", "32", "--seq-len", "48",
                     "--redundant", "4:1:0.0", *flags]) == 0
        model = out["synth"] / "model.d2mw"
        dense_digest = sha256_of(model)
        assert main(["fuse", "--model", str(model), "--plan", str(out["plan"]),
                     "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
                     "--out", str(model), "--provenance-out", str(out["prov"]), *flags]) == 0
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
        assert stages["synth"]["outputs"]["synth/model.d2mw"] == dense_digest
        assert stages["fuse"]["inputs"]["synth/model.d2mw"] == dense_digest
        assert stages["fuse"]["outputs"]["synth/model.d2mw"] == sha256_of(model) != dense_digest

    def test_unreadable_input_exits_3_naming_it(self, tmp_path, capsys):
        # a recorded input replaced by a directory fails while it is hashed
        run_dir = tmp_path / "run"
        assert main(["synth", "--out-dir", str(run_dir / "synth"), "--layers", "3",
                     "--hidden", "16", "--seq-len", "8", "--run-dir", str(run_dir)]) == 0
        config = run_dir / "synth" / "config.json"
        config.unlink()
        config.mkdir()
        manifest = (run_dir / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(["estimate", "--config", str(config), "--out", str(run_dir / "c.json"),
                     "--run-dir", str(run_dir)]) == 3
        assert capsys.readouterr().err == f"error: {config}: not a regular file\n"
        assert (run_dir / "manifest.json").read_bytes() == manifest


class TestDirectories:
    @staticmethod
    def stage_argv(stage: str, trace: Path, out_dir: Path) -> list[str]:
        return {"analyze": ["analyze", "--trace", str(trace), "--out-dir", str(out_dir)],
                "synth": ["synth", "--out-dir", str(out_dir), "--layers", "3", "--hidden", "16",
                          "--seq-len", "8"]}[stage]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    @pytest.mark.parametrize("stage", ["analyze", "synth"])
    def test_a_run_dir_that_is_not_a_directory_is_refused_before_the_stage(
            self, tmp_path, capsys, readme_run, stage, below):
        notadir = tmp_path / "notadir"
        notadir.write_text("")
        run_dir = notadir / "sub" if below else notadir
        argv = self.stage_argv(stage, readme_run["synth"] / "trace.d2mt", tmp_path / "out")
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main([*argv, "--run-dir", str(run_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: --run-dir {run_dir}: {notadir} is not a directory\n")
        assert files_under(tmp_path) == before and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["analyze", "synth"])
    def test_an_output_directory_that_cannot_be_made_exits_3_naming_it(
            self, tmp_path, capsys, readme_run, stage):
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(self.stage_argv(stage, readme_run["synth"] / "trace.d2mt", out_dir)) == 3
        error = NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out_dir))
        assert capsys.readouterr().err == f"error: {error}\n"
        assert files_under(tmp_path) == before


class TestOutOfMemory:
    """A stage that runs out of memory exits 3 with one line naming the
    stage, and leaves nothing behind. The allocation is faked: no test asks
    for a huge array."""

    MESSAGE = ("Unable to allocate 477. GiB for an array with shape (2000000000, 32) "
               "and data type float64")

    @pytest.mark.parametrize("stage, writer", [("synth", "write_trace"),
                                               ("train-toy", "write_weights")])
    def test_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch, readme_run,
                                        stage, writer):
        def exhausted(_, path):
            with output_file(path, binary=True) as handle:
                handle.write(b"half a file")
                raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(traceio, writer, exhausted)
        argv = {"synth": ["synth", "--out-dir", str(tmp_path / "new1" / "new2"),
                          "--layers", "3", "--hidden", "16", "--seq-len", "8"],
                "train-toy": ["train-toy", "--model", str(readme_run["fused"]), "--steps", "1",
                              "--seq-len", "8", "--sequences", "1",
                              "--log-out", str(tmp_path / "log.csv"),
                              "--model-out", str(tmp_path / "trained.d2mw")]}[stage]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {stage}: out of memory: {self.MESSAGE}\n")
        assert list(tmp_path.iterdir()) == []


class TestOutputsReplaceTogether:
    """A stage with several outputs renames them into place only once all
    are written, so one that cannot be replaced leaves every other as it
    was."""

    @staticmethod
    def stage(name: str, inputs: dict[str, Path], out: Path) -> tuple[list[str], list[Path]]:
        """The stage's argv over the README run's files, and its outputs."""
        if name == "analyze":
            outputs = [out / f"{m}.csv" for m in ("s_out", "s_mlp", "delta_norm")]
            return (["analyze", "--trace", str(inputs["synth"] / "trace.d2mt"),
                     "--out-dir", str(out)], [*outputs, out / "matrices.d2ms"])
        if name == "fuse":
            outputs = [out / "fused.d2mw", out / "prov.json"]
            return (["fuse", "--model", str(inputs["synth"] / "model.d2mw"),
                     "--plan", str(inputs["plan"]), "--base-copies", "1", "--supp-copies", "1",
                     "--top-k", "1", "--out", str(outputs[0]),
                     "--provenance-out", str(outputs[1])], outputs)
        if name == "train-toy":
            outputs = [out / "train_log.csv", out / "trained.d2mw"]
            return (["train-toy", "--model", str(inputs["fused"]), "--steps", "2",
                     "--seq-len", "8", "--sequences", "1", "--log-out", str(outputs[0]),
                     "--model-out", str(outputs[1])], outputs)
        candidates = out / "candidates.csv"
        candidates.write_text(CANDIDATES_CSV)
        outputs = [out / "rewards.csv", out / "frontier.csv"]
        return (["pareto", "--candidates", str(candidates), "--base-latency", "195.87",
                 "--w", "-0.15", "--rewards-out", str(outputs[0]),
                 "--frontier-out", str(outputs[1])], outputs)

    @pytest.mark.parametrize("name", ["analyze", "fuse", "train-toy", "pareto"])
    def test_a_directory_as_the_last_output_replaces_no_other(self, tmp_path, capsys,
                                                              readme_run, name):
        argv, outputs = self.stage(name, readme_run, tmp_path)
        *others, last = outputs
        for path in others:
            path.write_bytes(b"before " + path.name.encode())
        last.mkdir()
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: cannot write {last}: it is a directory\n"
        assert files_under(tmp_path) == before
        assert last.is_dir() and sorted(tmp_path.rglob("*.tmp")) == []


# each stage's argv in a run directory, and its output flags in the order it
# writes them, each with its file
ONE_FILE_STAGES = {
    "search": (["search", "--matrices", "analysis/matrices.d2ms", "--delta", "0.05",
                "--epsilon", "0.1"], {"--plan-out": "plan.json"}),
    "sweep": (["search", "--matrices", "analysis/matrices.d2ms", "--sweep",
               "--delta-grid", "0.01,0.1", "--epsilon-grid", "0.1"], {"--sweep-out": "sweep.csv"}),
    "fuse": (["fuse", "--model", "synth/model.d2mw", "--plan", "plan.json", "--base-copies", "1",
              "--supp-copies", "1", "--top-k", "1"],
             {"--out": "fused.d2mw", "--provenance-out": "prov.json"}),
    "estimate": (["estimate", "--config", "synth/config.json"], {"--out": "cost.json"}),
    "train-toy": (["train-toy", "--model", "fused.d2mw", "--steps", "2", "--seq-len", "8",
                   "--sequences", "1"],
                  {"--log-out": "train_log.csv", "--model-out": "trained.d2mw"}),
    "diagnose": (["diagnose", "--log", "train_log.csv"], {"--out": "wta.csv"}),
    "pareto": (["pareto", "--candidates", "candidates.csv", "--base-latency", "195.87",
                "--w", "-0.15"],
               {"--rewards-out": "rewards.csv", "--frontier-out": "frontier.csv"}),
}
# one output on the manifest, for every output flag; or a stage's second
# output on its first one's file, spelt as it is, from ".", or through a
# symlink to the run directory
ONE_FILE_CASES = [
    *[(stage, flag, "manifest") for stage, (_, flags) in ONE_FILE_STAGES.items()
      for flag in flags],
    *[(stage, list(flags)[1], spelling) for stage, (_, flags) in ONE_FILE_STAGES.items()
      if len(flags) == 2 for spelling in ("same", "dot", "linked-dir")],
]


@pytest.fixture(scope="module")
def run_tree(tmp_path_factory) -> Path:
    """A run directory where ``synth``, ``analyze`` and every stage of
    ``ONE_FILE_STAGES`` have run once, with their manifest."""
    root = tmp_path_factory.mktemp("onefile") / "run"
    root.mkdir()
    (root / "candidates.csv").write_text(CANDIDATES_CSV)
    argvs = [["synth", "--out-dir", "synth", *README_SYNTH],
             ["analyze", "--trace", "synth/trace.d2mt", "--out-dir", "analysis"],
             *([*argv, *(a for item in flags.items() for a in item)]
               for argv, flags in ONE_FILE_STAGES.values())]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.chdir(root):
        for argv in argvs:
            assert main([*argv, "--run-dir", "."]) == 0, argv
    return root


class TestEachFileOnce:
    """A stage's output group takes each file once: two outputs on one file,
    or an output on the run's manifest, exit 2 naming the file, before
    anything is replaced."""

    @pytest.mark.parametrize("stage, flag, spelling", ONE_FILE_CASES)
    def test_a_file_named_twice_exits_2_naming_it_and_replaces_nothing(
            self, tmp_path, capsys, monkeypatch, run_tree, stage, flag, spelling):
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        (tmp_path / "link").symlink_to(root, target_is_directory=True)
        argv, flags = ONE_FILE_STAGES[stage]
        first = flags[list(flags)[0]]
        named = {"manifest": "manifest.json", "same": first, "dot": f"./{first}",
                 "linked-dir": f"../link/{first}"}[spelling]
        flags = {**flags, flag: named}
        # the group refuses the second of the two: the manifest, written
        # last, or the stage's second output
        refused = Path(named)
        monkeypatch.chdir(root)
        before = files_under(root)
        capsys.readouterr()
        assert main([*argv, *(a for item in flags.items() for a in item), "--run-dir", "."]) == 2
        assert (capsys.readouterr().err
                == f"error: two outputs of the stage name one file: {refused}\n")
        assert files_under(root) == before

    def test_two_outputs_through_a_symlink_to_one_file_are_both_written(
            self, tmp_path, monkeypatch, run_tree):
        # a symlink is replaced, not followed, so it is a file of its own
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        (root / "link.csv").symlink_to("frontier.csv")
        argv, _ = ONE_FILE_STAGES["pareto"]
        monkeypatch.chdir(root)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--rewards-out", "link.csv", "--frontier-out", "frontier.csv",
                         "--run-dir", "."]) == 0
        assert not (root / "link.csv").is_symlink()
        for name, like in (("link.csv", "rewards.csv"), ("frontier.csv", "frontier.csv")):
            assert (root / name).read_bytes() == (run_tree / like).read_bytes()
        outputs = json.loads((root / "manifest.json").read_text())["stages"]["pareto"]["outputs"]
        assert outputs["link.csv"] == sha256_of(root / "link.csv")
        assert outputs["frontier.csv"] == sha256_of(root / "frontier.csv")


# the function each stage's own work starts with, for the stages of ``run_tree``
STAGE_WORK = {"analyze": (similarity, "stream_matrices"), "search": (cli, "read_matrices"),
              "sweep": (cli, "read_matrices"), "fuse": (surgery, "fuse"),
              "estimate": (cli, "load_config"), "train-toy": (nanomodel, "train_toy"),
              "diagnose": (diagnostics, "train_log_from_csv"),
              "pareto": (tradeoff, "read_candidates_csv")}


def relative_files(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): data for path, data in files_under(root).items()}


class TestDigestBesideTheStage:
    """With --run-dir, each input is hashed beside the stage's own work, not
    before it, and the refusal order is kept: a stale input exits 4 and an
    unreadable one exits 3, whatever the stage raised, before any output is
    renamed."""

    @pytest.mark.parametrize("stage", STAGE_WORK)
    def test_the_input_digest_runs_while_the_stage_works(self, tmp_path, monkeypatch, run_tree,
                                                         stage):
        # each digest waits until the stage's work has started: one taken
        # before the stage would wait out its timeout
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        started, waits = threading.Event(), []
        module, name = STAGE_WORK[stage]
        work, real_sha256 = getattr(module, name), cli._sha256

        def starting_work(*args, **kwargs):
            started.set()
            return work(*args, **kwargs)

        def waiting_sha256(path):
            waits.append(started.wait(timeout=3))
            return real_sha256(path)

        monkeypatch.setattr(module, name, starting_work)
        monkeypatch.setattr(cli, "_sha256", waiting_sha256)
        monkeypatch.chdir(root)
        argv, flags = ONE_FILE_STAGES.get(
            stage, (["analyze", "--trace", "synth/trace.d2mt", "--out-dir", "analysis"], {}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, *(a for item in flags.items() for a in item),
                         "--run-dir", "."]) == 0
        assert waits and all(waits), waits
        # the outputs and the manifest are those the serial run wrote
        assert relative_files(root) == relative_files(run_tree)

    @pytest.mark.parametrize("stage", ["analyze", "search"])
    def test_a_stale_input_that_no_longer_parses_exits_4(self, tmp_path, capsys, run_tree,
                                                          stage):
        # the stage itself refuses the flipped magic with exit 2; the stale
        # digest wins, and the group removes what the stage made
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        new = tmp_path / "new"
        if stage == "analyze":
            path = root / "synth" / "trace.d2mt"
            argv = ["analyze", "--trace", str(path), "--out-dir", str(new / "analysis")]
        else:
            path = root / "analysis" / "matrices.d2ms"
            argv = ["search", "--matrices", str(path), "--delta", "0.05", "--epsilon", "0.1",
                    "--plan-out", str(root / "plan.json")]
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        before = relative_files(root)
        assert main(argv) == 2
        assert not new.exists()
        capsys.readouterr()
        assert main([*argv, "--run-dir", str(root)]) == 4
        assert capsys.readouterr() == (
            "", f"error: input {path} no longer matches the hash recorded by an earlier stage\n")
        assert relative_files(root) == before and not new.exists()

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_an_input_that_is_not_a_file_exits_3_naming_it(self, tmp_path, capsys, run_tree,
                                                           kind):
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        trace, new = root / "synth" / "trace.d2mt", tmp_path / "new"
        trace.unlink()
        trace.mkdir() if kind == "directory" else os.mkfifo(trace)
        before = relative_files(root)
        capsys.readouterr()
        assert main(["analyze", "--trace", str(trace), "--out-dir", str(new / "analysis"),
                     "--run-dir", str(root)]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}: not a regular file\n")
        assert relative_files(root) == before and not new.exists()

    def test_a_fresh_input_keeps_the_stage_s_own_refusal(self, tmp_path, capsys, run_tree):
        root = tmp_path / "run"
        shutil.copytree(run_tree, root)
        argv = ["train-toy", "--model", str(root / "fused.d2mw"), "--steps", "0",
                "--log-out", str(root / "train_log.csv"),
                "--model-out", str(root / "trained.d2mw")]
        before = relative_files(root)
        capsys.readouterr()
        assert main(argv) == 2
        alone = capsys.readouterr()
        assert main([*argv, "--run-dir", str(root)]) == 2
        assert capsys.readouterr() == alone == ("", "error: steps must be at least 1\n")
        assert relative_files(root) == before
