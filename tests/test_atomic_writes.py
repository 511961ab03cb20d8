"""Atomic outputs: every file the toolkit writes goes through
``config.output_file``, which writes it once beside the destination, to be
renamed into place with the rest of its ``staged_outputs`` group, so a stage
that fails mid-write never leaves a truncated artifact. Checked on the
helpers, by a property over groups of destinations of every kind, on CLI
stages with a write that fails after k bytes, and by a state machine over
the whole CLI in one run directory."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import d2m.config
from d2m.cli import main
from d2m.config import output_dir, output_file, staged_outputs
from d2m.errors import D2mError, IoFailure
from d2m.similarity import read_matrices
from d2m.traceio import read_trace, read_weights


class FailingFile:
    """A file whose writes raise ``ENOSPC`` once ``budget.left`` bytes (or
    characters) have been written; the budget is shared by every file opened
    while it is armed, and ``budget.fired`` records the first failure."""

    def __init__(self, handle, budget):
        self._handle = handle
        self._budget = budget

    def write(self, data):
        if len(data) > self._budget.left:
            self._handle.write(data[:self._budget.left])
            self._budget.left = 0
            self._budget.fired = True
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget.left -= len(data)
        return self._handle.write(data)

    def __getattr__(self, name):  # seek, flush, name: the file's own
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class Budget:
    def __init__(self, left: float, only: str = ""):
        self.left = left
        self.only = only  # the budget covers only files whose name holds this
        self.fired = False
        self.opened: list[Path] = []  # every file opened for writing, in order


@contextlib.contextmanager
def failing_writes(budget: Budget):
    """Make every file that ``output_file`` opens fail after the budget, and
    record each in ``budget.opened``."""
    def fake_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if "x" in mode:
            budget.opened.append(Path(file))
        covered = "x" in mode and budget.only in Path(file).name
        return FailingFile(handle, budget) if covered else handle

    d2m.config.open = fake_open
    try:
        yield budget
    finally:
        del d2m.config.open


def temp_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


def staged_destination(opened: Path) -> Path | None:
    """The destination whose new file ``opened`` is, when its name is one
    ``.NAME.<8 hex>.tmp``; else None."""
    match = re.fullmatch(r"\.(.+)\.[0-9a-f]{8}\.tmp", opened.name)
    return opened.with_name(match.group(1)) if match else None


KINDS = ("absent", "file", "link-to-file", "link-to-dir", "dir", "in-missing-dir")


class Stop(Exception):
    """Raised at a chosen point of a group's block."""


def make_destination(root: Path, i: int, kind: str) -> Path:
    """Destination ``i`` under ``root``, made to be of ``kind``."""
    path = root / f"out{i}.bin"
    if kind == "file":
        path.write_bytes(b"old %d" % i)
    elif kind == "link-to-file":
        (root / f"target{i}").write_bytes(b"target %d" % i)
        path.symlink_to(root / f"target{i}")
    elif kind == "link-to-dir":
        (root / f"targetdir{i}").mkdir()
        path.symlink_to(root / f"targetdir{i}")
    elif kind == "dir":
        path.mkdir()
        (path / "inside").write_bytes(b"inside %d" % i)
    elif kind == "in-missing-dir":
        path = root / f"new{i}" / "sub" / path.name
    return path


def tree(root: Path) -> dict[str, tuple]:
    """Every entry under ``root``, links not followed: a link's target, a
    file's bytes, or a directory."""
    entries = {}
    for directory, dirs, files in os.walk(root):
        for name in (*dirs, *files):
            path = Path(directory) / name
            key = path.relative_to(root).as_posix()
            if path.is_symlink():
                entries[key] = ("link", os.readlink(path))
            elif path.is_dir():
                entries[key] = ("dir",)
            else:
                entries[key] = ("file", path.read_bytes())
    return entries


class TestOutputFile:
    def test_destination_is_replaced_only_when_the_block_completes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with output_file(path) as handle:
            handle.write("new\n")
            assert path.read_text() == "old\n"
            assert len(temp_files(tmp_path)) == 1
        assert path.read_text() == "new\n"
        assert temp_files(tmp_path) == []

    def test_failed_block_keeps_destination_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(KeyError):
            with output_file(path, binary=True) as handle:
                handle.write(b"partial")
                raise KeyError("stop")
        assert path.read_bytes() == b"old"
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("budget", [0, 3, 100])
    def test_os_error_is_io_failure_naming_destination(self, tmp_path, budget):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with failing_writes(Budget(budget)), pytest.raises(IoFailure, match="out.bin"):
            with output_file(path, binary=True) as handle:
                handle.write(b"x" * 64)
                handle.write(b"y" * 64)
        assert path.read_bytes() == b"old"
        assert temp_files(tmp_path) == []

    def test_missing_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="cannot write .*absent"):
            with output_file(tmp_path / "absent" / "out.json"):
                pass

    def test_symlinked_destination_is_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        with output_file(link) as handle:
            handle.write("new\n")
        assert not link.is_symlink() and link.read_text() == "new\n"
        assert target.read_text() == "old\n"


class TestStagedOutputs:
    def test_a_symlink_to_a_directory_is_replaced_not_followed(self, tmp_path):
        (tmp_path / "dir").mkdir()
        link = tmp_path / "link.bin"
        link.symlink_to(tmp_path / "dir")
        with staged_outputs(), output_file(link, binary=True) as handle:
            handle.write(b"new")
        assert not link.is_symlink() and link.read_bytes() == b"new"
        assert list((tmp_path / "dir").iterdir()) == []

    def test_a_failed_rename_names_its_destination(self, tmp_path, monkeypatch):
        rename = os.replace

        def cross_device(source, destination):
            if Path(destination).name == "b.bin":
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            rename(source, destination)

        monkeypatch.setattr(os, "replace", cross_device)
        paths = [tmp_path / name for name in ("a.bin", "b.bin", "c.bin")]
        with pytest.raises(IoFailure) as info, staged_outputs():
            for path in paths:
                with output_file(path, binary=True) as handle:
                    handle.write(b"new")
        assert str(info.value) == (
            f"cannot write {tmp_path / 'b.bin'}: [Errno {errno.EXDEV}] Invalid cross-device link")
        assert not (tmp_path / "c.bin").exists()
        assert temp_files(tmp_path) == []

    @given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
           budget=st.one_of(st.just(math.inf), st.integers(0, 200)),
           stop=st.one_of(st.none(), st.integers(0, 8)))
    @settings(max_examples=150, deadline=None)
    def test_every_destination_is_new_or_all_are_as_they_were(self, kinds, budget, stop):
        """Destinations of every kind, written in one group whose block may
        fail on a write after ``budget`` bytes or stop at a point: 2i before
        destination i, 2i + 1 inside its block, 2n after the last."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            destinations = [make_destination(root, i, kind) for i, kind in enumerate(kinds)]
            before = tree(root)
            contents = [b"new %d " % i * 8 for i in range(len(kinds))]

            def at(point):
                if point == stop:
                    raise Stop

            error = None
            spy = Budget(budget)
            try:
                with failing_writes(spy), staged_outputs() as group:
                    for i, (path, data) in enumerate(zip(destinations, contents)):
                        if kinds[i] == "in-missing-dir":
                            output_dir(path.parent)
                        at(2 * i)
                        with output_file(path, binary=True) as handle:
                            handle.write(data)
                            at(2 * i + 1)
                    at(2 * len(kinds))
            except (Stop, IoFailure) as exc:
                error = exc

            # each file opened is one .NAME.<8 hex>.tmp beside its destination
            assert [staged_destination(p) for p in spy.opened] == destinations[:len(spy.opened)]
            assert temp_files(root) == []
            directories = [p for p, kind in zip(destinations, kinds) if kind == "dir"]
            if spy.fired:
                assert str(error) == (f"cannot write {destinations[len(spy.opened) - 1]}: "
                                      f"[Errno {errno.ENOSPC}] No space left on device")
            elif stop is not None and stop <= 2 * len(kinds):
                assert isinstance(error, Stop)
            elif directories:
                assert str(error) == f"cannot write {directories[0]}: it is a directory"
            else:
                assert error is None
            if error is not None:
                assert tree(root) == before
                return
            assert group.written == destinations and len(spy.opened) == len(destinations)
            after = tree(root)
            for path, data in zip(destinations, contents):
                assert after.pop(path.relative_to(root).as_posix()) == ("file", data)
            # every other entry is as it was, beside the directories made
            assert {k: v for k, v in after.items() if k in before} == {
                k: v for k, v in before.items() if root / k not in destinations}
            assert all(v == ("dir",) and k.startswith("new") for k, v in after.items()
                       if k not in before)


SYNTH_ARGS = ["--seed", "1", "--layers", "3", "--hidden", "8", "--mlp-dim", "8",
              "--heads", "2", "--kv-heads", "1", "--head-dim", "4", "--vocab", "8",
              "--seq-len", "8", "--redundant", "2:1:0.0"]


@pytest.mark.parametrize("budget", [0, 12, 1000])
def test_failed_write_leaves_existing_model_intact(tmp_path, capsys, budget):
    argv = ["synth", "--out-dir", str(tmp_path), *SYNTH_ARGS]
    assert main(argv) == 0
    before = (tmp_path / "model.d2mw").read_bytes()
    capsys.readouterr()
    # synth writes its trace first, so only the model's writes draw on it
    with failing_writes(Budget(budget, only="model.d2mw")):
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: cannot write") and "model.d2mw" in err
    assert (tmp_path / "model.d2mw").read_bytes() == before
    assert temp_files(tmp_path) == []


def test_a_failed_analyze_removes_the_out_dir_it_made(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "synth"), *SYNTH_ARGS]) == 0
    out_dir = tmp_path / "new1" / "new2"
    capsys.readouterr()
    with failing_writes(Budget(0, only="matrices.d2ms")):
        code = main(["analyze", "--trace", str(tmp_path / "synth" / "trace.d2mt"),
                     "--out-dir", str(out_dir)])
    assert code == 3
    assert capsys.readouterr().err == (f"error: cannot write {out_dir / 'matrices.d2ms'}: "
                                       f"[Errno {errno.ENOSPC}] No space left on device\n")
    assert not (tmp_path / "new1").exists()


def test_a_failed_manifest_write_replaces_no_output(tmp_path, capsys):
    # the manifest is the last file of the stage's group, not a later commit
    argv = ["synth", "--out-dir", str(tmp_path / "synth"), *SYNTH_ARGS,
            "--run-dir", str(tmp_path)]
    assert main(argv) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    with failing_writes(Budget(0, only="manifest.json")):
        code = main([*argv, "--seed", "2"])  # outputs that differ
    assert code == 3
    assert capsys.readouterr().err == (f"error: cannot write {tmp_path / 'manifest.json'}: "
                                       f"[Errno {errno.ENOSPC}] No space left on device\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# --- the CLI as a state machine -------------------------------------------------

CANDIDATES_CSV = ("config_id,depth,latency_ms,score,reward\n"
                  "L2,2,10.0,1.0,\nL3,3,12.0,1.5,\n")

# stage -> (argv, flags that make it invalid, inputs, outputs), paths relative
# to the run directory; the invalid flags parse, and the stage exits 2
STAGES = {
    "synth": (["synth", "--out-dir", "synth", *SYNTH_ARGS], ["--redundant", "2:x:0"],
              [], ["synth/model.d2mw", "synth/trace.d2mt", "synth/config.json"]),
    "analyze": (["analyze", "--trace", "synth/trace.d2mt", "--out-dir", "analysis"], None,
                ["synth/trace.d2mt"],
                ["analysis/s_out.csv", "analysis/s_mlp.csv", "analysis/delta_norm.csv",
                 "analysis/matrices.d2ms"]),
    "search": (["search", "--matrices", "analysis/matrices.d2ms", "--delta", "0.05",
                "--epsilon", "0.1", "--plan-out", "plan.json"], ["--delta", "1.5"],
               ["analysis/matrices.d2ms"], ["plan.json"]),
    "sweep": (["search", "--matrices", "analysis/matrices.d2ms", "--sweep",
               "--delta-grid", "0.01,0.1", "--epsilon-grid", "0.1", "--sweep-out", "sweep.csv"],
              ["--delta-grid", "0.1,x"], ["analysis/matrices.d2ms"], ["sweep.csv"]),
    "fuse": (["fuse", "--model", "synth/model.d2mw", "--plan", "plan.json",
              "--base-copies", "1", "--supp-copies", "1", "--top-k", "1",
              "--out", "fused.d2mw", "--provenance-out", "prov.json"], ["--base-copies", "0"],
             ["synth/model.d2mw", "plan.json"], ["fused.d2mw", "prov.json"]),
    "estimate": (["estimate", "--config", "synth/config.json", "--out", "cost.json"], None,
                 ["synth/config.json"], ["cost.json"]),
    "train-toy": (["train-toy", "--model", "fused.d2mw", "--steps", "2", "--seq-len", "4",
                   "--sequences", "1", "--log-out", "log.csv", "--model-out", "trained.d2mw"],
                  ["--lr", "nan"], ["fused.d2mw"], ["log.csv", "trained.d2mw"]),
    "diagnose": (["diagnose", "--log", "log.csv", "--out", "wta.csv"], ["--row", "99"],
                 ["log.csv"], ["wta.csv"]),
    "pareto": (["pareto", "--candidates", "candidates.csv", "--base-latency", "12",
                "--w", "-0.1", "--rewards-out", "rewards.csv", "--frontier-out", "frontier.csv"],
               ["--w", "nan"], ["candidates.csv"], ["rewards.csv", "frontier.csv"]),
}
ARTIFACTS = sorted({p for _, _, ins, outs in STAGES.values() for p in (*ins, *outs)}
                   | {"manifest.json"})
PATH_FLAGS = {"--out-dir", "--trace", "--matrices", "--plan-out", "--sweep-out", "--model",
              "--plan", "--out", "--provenance-out", "--config", "--log-out", "--model-out",
              "--log", "--candidates", "--rewards-out", "--frontier-out"}


def is_complete(path: Path) -> bool:
    """Whether the file parses as a whole output of its kind."""
    try:
        if path.suffix == ".d2mw":
            read_weights(path)
        elif path.suffix == ".d2mt":
            read_trace(path)
        elif path.suffix == ".d2ms":
            read_matrices(path)
        elif path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"))
        else:
            text = path.read_bytes().decode("utf-8")
            rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
            return text.endswith("\r\n") and len({len(r) for r in rows}) == 1
    except (D2mError, ValueError, IndexError):
        return False
    return True


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliRun(RuleBasedStateMachine):
    """Stages in any order, valid or not, over one run directory, with
    artifacts truncated, tampered with or deleted and writes failing after k
    bytes in between."""

    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "candidates.csv").write_text(CANDIDATES_CSV)
        self.files = self.snapshot()
        self.budget = None
        self.results = {}  # (stage, input digests) -> output digests

    def teardown(self):
        self._tmp.cleanup()

    def snapshot(self) -> dict[str, str]:
        return {p.relative_to(self.root).as_posix(): digest(p)
                for p in self.root.rglob("*") if p.is_file()}

    def expected_refusal(self, inputs: list[str]) -> int | None:
        """2 for a missing input, 4 for a corrupt manifest or an input that
        no longer matches the hash an earlier stage recorded, else None."""
        if not all((self.root / p).is_file() for p in inputs):
            return 2
        manifest = self.root / "manifest.json"
        if not manifest.exists():
            return None
        recorded = {}
        try:
            for stage in json.loads(manifest.read_text(encoding="utf-8"))["stages"].values():
                outputs = stage.get("outputs", {})
                if not isinstance(outputs, dict):
                    return 4
                recorded.update(outputs)
        except (ValueError, KeyError, TypeError, AttributeError):
            return 4
        if any(p in recorded and recorded[p] != digest(self.root / p) for p in inputs):
            return 4
        return None

    @initialize(complete=st.booleans())
    def start(self, complete):
        """Start from an empty run directory, or one where every stage has
        run once, in pipeline order."""
        if complete:
            for stage in STAGES:
                self.run_stage(stage, invalid=False)

    @rule(budget=st.integers(0, 3000))
    def fail_next_stage_writes(self, budget):
        self.budget = Budget(budget)

    @rule(artifact=st.sampled_from(ARTIFACTS), how=st.sampled_from(["truncate", "flip", "delete"]),
          at=st.floats(0, 1, exclude_max=True))
    def damage(self, artifact, how, at):
        path = self.root / artifact
        if not path.is_file():
            return
        data = bytearray(path.read_bytes())
        if how == "delete":
            path.unlink()
        elif how == "truncate":
            path.write_bytes(data[:int(at * len(data))])
        elif data:
            data[int(at * len(data))] ^= 0x01
            path.write_bytes(data)
        self.files = self.snapshot()

    @rule(stage=st.sampled_from(sorted(STAGES)), invalid=st.booleans())
    def run_stage(self, stage, invalid):
        argv, bad_flags, inputs, outputs = STAGES[stage]
        if invalid and bad_flags is None:
            return
        argv = [*argv, *(bad_flags if invalid else [])]
        argv = [str(self.root / a) if prev in PATH_FLAGS else a
                for prev, a in zip([None, *argv], argv)]
        refusal = self.expected_refusal(inputs)
        before = self.files
        inputs_before = tuple(before.get(p) for p in inputs)
        budget, self.budget = self.budget or Budget(math.inf), None
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with failing_writes(budget):
                code = main([*argv, "--run-dir", str(self.root)])
        self.files = self.snapshot()

        message = err.getvalue()
        written = [self.root / p for p in [*outputs, "manifest.json"]]
        # each output is written once, to one .NAME.<8 hex>.tmp beside it
        staged = [staged_destination(p) for p in budget.opened]
        assert len(set(staged)) == len(staged) and set(staged) <= set(written), staged
        assert ".tmp" not in message, message
        if refusal is not None:
            assert code == refusal, message
        elif budget.fired:
            assert code == 3, message
            assert any(message.startswith(f"error: cannot write {p}: ") for p in written), message
        elif invalid:
            assert code == 2, message
        else:  # 2 for an input damaged where no manifest records it
            assert code in (0, 2), message
        assert before.keys() <= self.files.keys(), "a stage deleted a file"
        changed = {p for p in self.files if self.files[p] != before.get(p)}
        assert changed <= {*outputs, "manifest.json"}
        for p in changed:
            assert is_complete(self.root / p), p
        if code != 0:  # the manifest is renamed with the outputs, or none is
            assert changed == set(), message
            return
        assert all(p in self.files for p in outputs) and sorted(staged) == sorted(written)
        key = (stage, inputs_before)
        produced = tuple(self.files[p] for p in outputs)
        assert self.results.setdefault(key, produced) == produced, "rerun differs"

    @invariant()
    def no_temporary_file_remains(self):
        assert temp_files(self.root) == []


CliRun.TestCase.settings = settings(max_examples=40, stateful_step_count=15)
TestCliRun = CliRun.TestCase
