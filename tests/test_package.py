"""The package surface: the import cost of each CLI stage, the single paths
through which the package writes files, reads files and parses JSON, the
names the benchmark reaches into and the calls it makes with them, and the
README's library quick start, executed as written."""

import ast
import functools
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import d2m
from d2m.config import SimilarityMatrices, write_matrices

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(d2m.__file__).resolve().parents[1]


def run_python(code: str, cwd: Path) -> str:
    """The last line ``code`` prints in a fresh interpreter that imports d2m
    from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


class TestStartUp:
    def test_estimate_and_pareto_never_load_numpy(self, tmp_path):
        # a dense model, and one whose expert map the config module checks
        model = {"num_layers": 4, "hidden_dim": 16, "mlp_dim": 32, "num_heads": 2,
                 "num_kv_heads": 1, "head_dim": 8, "vocab_size": 32}
        (tmp_path / "config.json").write_text(json.dumps({"model": model}))
        moe = {"experts": {"2": 3, "4": 2}, "top_k": 2}
        (tmp_path / "moe.json").write_text(json.dumps({"model": dict(model, moe=moe)}))
        (tmp_path / "candidates.csv").write_text(
            "config_id,depth,latency_ms,score,reward\nL3,3,10.0,1.0,\nL4,4,12.0,1.5,\n")
        code = (
            "import sys\n"
            "import d2m.cli, d2m.costmodel, d2m.tradeoff, d2m.config\n"
            "after_import = 'numpy' in sys.modules\n"
            "codes = (d2m.cli.main(['estimate', '--config', 'config.json', '--out', 'cost.json']),\n"
            "         d2m.cli.main(['estimate', '--config', 'moe.json', '--out', 'moe_cost.json']),\n"
            "         d2m.cli.main(['pareto', '--candidates', 'candidates.csv',\n"
            "                       '--base-latency', '12', '--w', '-0.1',\n"
            "                       '--rewards-out', 'r.csv', '--frontier-out', 'f.csv']))\n"
            "print(after_import, codes, 'numpy' in sys.modules)\n"
        )
        assert run_python(code, tmp_path) == "False (0, 0, 0) False"
        cost = json.loads((tmp_path / "moe_cost.json").read_text())
        assert (cost["N"], cost["k"]) == (3, 2)

    @pytest.mark.parametrize("argv, output", [
        (["search", "--matrices", "m.d2ms", "--delta", "0.05", "--epsilon", "0.1",
          "--plan-out", "plan.json"], "plan.json"),
        (["search", "--matrices", "m.d2ms", "--sweep", "--delta-grid", "0.01,0.1",
          "--epsilon-grid", "0.1", "--sweep-out", "sweep.csv"], "sweep.csv"),
        (["diagnose", "--log", "log.csv", "--out", "wta.csv"], "wta.csv"),
    ], ids=["search", "sweep", "diagnose"])
    def test_search_sweep_and_diagnose_never_load_numpy(self, tmp_path, argv, output):
        # layers 2 and 3 are near-copies, so the plan prunes layer 3
        cos = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.99], [0.5, 0.99, 1.0]]
        gap = [[0.0, 0.3, 0.3], [0.3, 0.0, 0.01], [0.3, 0.01, 0.0]]
        write_matrices(SimilarityMatrices(s_out=cos, s_mlp=cos, delta_norm=gap),
                       tmp_path / "m.d2ms")
        (tmp_path / "log.csv").write_text(
            "step,task_loss,lb_loss,load_e1,load_e2\n1,1.0,0.5,0.25,0.75\n")
        code = (
            "import sys, d2m.cli\n"
            f"code = d2m.cli.main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        assert run_python(code, tmp_path) == "0 False"
        assert (tmp_path / output).exists()
        if output == "plan.json":
            assert json.loads((tmp_path / output).read_text())["prune"] == [3]

    def test_fuse_never_loads_numpy(self, tmp_path):
        from d2m.config import ModelShape
        from d2m.nanomodel import build_toy_container
        from d2m.traceio import write_weights

        shape = ModelShape(num_layers=3, hidden_dim=8, mlp_dim=16, num_heads=2,
                           num_kv_heads=1, head_dim=4, vocab_size=16)
        write_weights(build_toy_container(shape, seed=2), tmp_path / "model.d2mw")
        (tmp_path / "plan.json").write_text(json.dumps(
            {"keep": [1, 3], "prune": [2], "blocks": [{"base": 1, "redundant": [2]}]}))
        argv = ["fuse", "--model", "model.d2mw", "--plan", "plan.json", "--base-copies", "2",
                "--supp-copies", "1", "--top-k", "1", "--out", "fused.d2mw",
                "--provenance-out", "prov.json"]
        code = (
            "import sys, d2m.cli\n"
            f"code = d2m.cli.main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        assert run_python(code, tmp_path) == "0 False"
        assert json.loads((tmp_path / "prov.json").read_text())["1"][2]["source_layer"] == 2

    def test_only_a_run_dir_loads_openssl(self, tmp_path):
        cos, gap = [[1.0, 0.5], [0.5, 1.0]], [[0.0, 0.3], [0.3, 0.0]]
        write_matrices(SimilarityMatrices(s_out=cos, s_mlp=cos, delta_norm=gap),
                       tmp_path / "m.d2ms")
        sweep = ["search", "--matrices", "m.d2ms", "--sweep", "--delta-grid", "0.01,0.1",
                 "--epsilon-grid", "0.1", "--sweep-out", "sweep.csv"]
        code = (
            "import sys, d2m.cli\n"
            f"code = d2m.cli.main({sweep!r})\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        assert run_python(code, tmp_path) == "0 False"
        code = (
            "import sys, d2m.cli\n"
            f"code = d2m.cli.main({sweep + ['--run-dir', '.']!r})\n"
            "print(code, '_hashlib' in sys.modules)\n"
        )
        assert run_python(code, tmp_path) == "0 True"
        # the manifest's digests are the files' sha256
        stage = json.loads((tmp_path / "manifest.json").read_text())["stages"]["search"]
        digests = {**stage["inputs"], **stage["outputs"]}
        assert digests == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                           for name in ("m.d2ms", "sweep.csv")}

    def test_diagnostics_does_not_load_the_toy_model(self, tmp_path):
        code = "import sys, d2m.diagnostics; print('d2m.nanomodel' in sys.modules)"
        assert run_python(code, tmp_path) == "False"

    def test_diagnose_loads_neither_the_toy_model_nor_traceio(self, tmp_path):
        (tmp_path / "log.csv").write_text(
            "step,task_loss,lb_loss,load_e1,load_e2\n1,1.0,0.5,0.25,0.75\n")
        code = (
            "import sys, d2m.cli\n"
            "code = d2m.cli.main(['diagnose', '--log', 'log.csv', '--out', 'wta.csv'])\n"
            "print(code, [m for m in ('d2m.nanomodel', 'd2m.traceio') if m in sys.modules])\n"
        )
        assert run_python(code, tmp_path) == "0 []"


WRITE_HELPER = "output_file"
# where an output group is opened: main's one group per stage, and the
# write helpers, which join it
GROUP_OPENERS = ("cli.main", "config.output_file", "config.output_dir")
JSON_HELPER = "json_document"
READ_HELPERS = ("input_file", "_Reader")


def scoped_calls(tree: ast.AST, inside: str | None = None):
    """(enclosing scope, call) of every call in ``tree``; a scope is a dotted
    name such as ``_Reader.read_into``."""
    for node in ast.iter_child_nodes(tree):
        scope = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{inside}.{node.name}" if inside else node.name
        if isinstance(node, ast.Call):
            yield scope, node
        yield from scoped_calls(node, scope)


def open_mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an ``open`` call, if it has one."""
    return call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), None)


def is_os_open(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def read_only_flags(flags: ast.expr | None) -> bool:
    """Whether ``flags``, those of an ``os.open`` call, are ``os.O_*`` names
    joined by ``|`` that open for reading only."""
    if isinstance(flags, ast.BinOp) and isinstance(flags.op, ast.BitOr):
        return read_only_flags(flags.left) and read_only_flags(flags.right)
    return (isinstance(flags, ast.Attribute) and isinstance(flags.value, ast.Name)
            and flags.value.id == "os" and flags.attr in ("O_RDONLY", "O_NONBLOCK", "O_CLOEXEC"))


def write_calls(tree: ast.AST):
    """(function, line, call) of every call in ``tree`` that writes a file:
    ``.write_text``, ``.write_bytes``, any ``os.open`` whose flags are not
    read-only ones, and any other ``open`` whose mode is not a literal read
    mode."""
    for scope, node in scoped_calls(tree):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield scope, node.lineno, name
        elif name == "open":
            mode = open_mode(node)
            if is_os_open(node):
                reads = read_only_flags(mode)
            else:
                reads = mode is None or (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+"))
            if not reads:
                yield scope, node.lineno, f"open mode {ast.unparse(mode) if mode else None}"


def json_parses(tree: ast.AST):
    """(function, line, call) of every ``json.load`` or ``json.loads`` call in
    ``tree``, and of every import of either name from ``json``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name in ("load", "loads"):
                    yield None, node.lineno, f"from json import {alias.name}"
    for scope, node in scoped_calls(tree):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            yield scope, node.lineno, f"json.{func.attr}"


def binary_reads(tree: ast.AST):
    """(scope, line, what) of every import of ``mmap``, of ``pread`` or
    ``preadv`` from ``os``, and of every call that reads a file, text or
    binary: ``os.pread``, ``os.preadv``, an ``os.open`` for reading,
    ``.read_bytes``, ``.read_text``, and any other ``open`` whose mode is
    not a literal write mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "mmap":
                    yield None, node.lineno, "import mmap"
        elif isinstance(node, ast.ImportFrom) and node.module in ("mmap", "os"):
            for alias in node.names:
                if node.module == "mmap" or alias.name in ("pread", "preadv"):
                    yield None, node.lineno, f"from {node.module} import {alias.name}"
    for scope, node in scoped_calls(tree):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if (isinstance(func, ast.Attribute) and name in ("pread", "preadv")
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            yield scope, node.lineno, f"os.{name}"
        elif name in ("read_bytes", "read_text"):
            yield scope, node.lineno, name
        elif is_os_open(node):
            if read_only_flags(open_mode(node)):
                yield scope, node.lineno, "os.open for reading"
        elif name == "open":
            mode = open_mode(node)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) & set("wax+")):
                yield scope, node.lineno, f"open mode {ast.unparse(mode) if mode else None}"


STREAM_TYPES = ("BinaryIO", "TextIO", "IO")
# the format encoders, which write into the file an output_file block opened
STREAM_ENCODERS = ("config._write_header", "weightfile.write_weights_header",
                   "weightfile.write_entry")


def names_a_stream(annotation: ast.expr) -> bool:
    """Whether an annotation names ``BinaryIO``, ``TextIO`` or ``IO``: bare,
    dotted, subscripted, in a union, or quoted."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                if names_a_stream(ast.parse(node.value, mode="eval")):
                    return True
            except SyntaxError:
                pass
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in STREAM_TYPES:
            return True
    return False


def stream_parameters(tree: ast.AST, inside: str | None = None):
    """(function, line, parameter) of every parameter in ``tree`` annotated
    with an open stream type (``names_a_stream``)."""
    for node in ast.iter_child_nodes(tree):
        scope = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{inside}.{node.name}" if inside else node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                        args.kwarg):
                if arg is not None and arg.annotation and names_a_stream(arg.annotation):
                    yield scope, arg.lineno, f"{arg.arg}: {ast.unparse(arg.annotation)}"
        yield from stream_parameters(node, scope)


def guarded_calls(find, *helpers: str) -> list[str]:
    """Every call ``find`` reports in the package's modules outside the
    ``helpers``, functions or classes, and all they hold."""
    found = []
    for path in sorted(SRC.joinpath("d2m").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {what} in {scope}"
                  for scope, line, what in find(tree)
                  if (scope or "").split(".")[0] not in helpers]
    return found


def test_every_write_goes_through_the_output_helper():
    assert guarded_calls(write_calls, WRITE_HELPER) == []


def stray_group_openings(tree: ast.AST, module: str) -> list[tuple[str, int]]:
    """(scope, line) of every call to ``staged_outputs`` in ``tree``, the
    source of ``module``, outside ``GROUP_OPENERS``."""
    found = []
    for scope, node in scoped_calls(tree):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "staged_outputs" and f"{module}.{scope}" not in GROUP_OPENERS:
            found.append((scope, node.lineno))
    return found


def test_only_main_opens_a_stage_output_group():
    # a stage nested in a second group would stage its outputs twice
    found = []
    for path in sorted(SRC.joinpath("d2m").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} in {scope}"
                  for scope, line in stray_group_openings(tree, path.stem)]
    assert found == []


def test_group_guard_flags_a_second_opener():
    code = ("def main(argv):\n"
            "    with staged_outputs() as outputs:\n"
            "        cmd_fuse(argv)\n"
            "def cmd_fuse(args):\n"
            "    with config.staged_outputs():\n"
            "        pass\n"
            "group = staged_outputs()\n")
    assert stray_group_openings(ast.parse(code), "cli") == [("cmd_fuse", 5), (None, 7)]
    assert stray_group_openings(ast.parse(code), "surgery") == [
        ("main", 2), ("cmd_fuse", 5), (None, 7)]


def test_every_json_input_goes_through_the_parse_helper():
    assert guarded_calls(json_parses, JSON_HELPER) == []


def test_every_binary_read_goes_through_the_reader():
    # text inputs, binary inputs and the files a run directory hashes alike
    assert guarded_calls(binary_reads, *READ_HELPERS) == []


def test_no_function_takes_an_open_stream():
    # every reader and writer takes a file path, never an open stream
    found = []
    for path in sorted(SRC.joinpath("d2m").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {what} in {scope}"
                  for scope, line, what in stream_parameters(tree)
                  if f"{path.stem}.{scope}" not in STREAM_ENCODERS]
    assert found == []


def test_stream_guard_flags_a_stream_parameter():
    code = ("def fuse(model, plan, out: BinaryIO | None = None) -> Report:\n"
            "    pass\n"
            "class Writer:\n"
            "    def write(self, handle: 'typing.IO[bytes]', *, log: TextIO, size: int):\n"
            "        def inner(path: str, *sinks: list[IO]): pass\n"
            "def save(path: Path, data: bytes) -> BinaryIO:\n"
            "    pass\n")
    assert list(stream_parameters(ast.parse(code))) == [
        ("fuse", 1, "out: BinaryIO | None"), ("Writer.write", 4, "handle: 'typing.IO[bytes]'"),
        ("Writer.write", 4, "log: TextIO"), ("Writer.write.inner", 5, "sinks: list[IO]")]


def test_json_guard_flags_a_second_parse_path():
    code = ("from json import loads\n"
            "def read(text):\n"
            "    json.loads(text)\n"
            "    json.load(handle)\n"
            "    json.dumps(text)\n"
            "def json_document(text):\n"
            "    return json.loads(text)\n")
    assert list(json_parses(ast.parse(code))) == [
        (None, 1, "from json import loads"), ("read", 3, "json.loads"),
        ("read", 4, "json.load"), ("json_document", 7, "json.loads")]


def test_read_guard_flags_a_second_read_path():
    code = ("import mmap\n"
            "from os import preadv\n"
            "class _Reader:\n"
            "    def read_into(self, buf):\n"
            "        os.preadv(self.fd, [buf], 0)\n"
            "def load(path, fd):\n"
            "    open(path, 'rb')\n"
            "    open(path, mode='rb', buffering=0)\n"
            "    open(path)\n"
            "    open(path, 'wb')\n"
            "    os.pread(fd, 4, 0)\n"
            "    os.open(path, os.O_RDONLY | os.O_NONBLOCK)\n"
            "    os.open(path, os.O_RDWR)\n"
            "def load_text(path, mode):\n"
            "    Path(path).read_bytes()\n"
            "    path.read_text(encoding='utf-8')\n"
            "    open(path, 'r', newline='', encoding='utf-8')\n"
            "    path.open()\n"
            "    open(path, mode)\n"
            "    open(path, 'x', newline='')\n"
            "    text.read()\n")
    assert list(binary_reads(ast.parse(code))) == [
        (None, 1, "import mmap"), (None, 2, "from os import preadv"),
        ("_Reader.read_into", 5, "os.preadv"), ("load", 7, "open mode 'rb'"),
        ("load", 8, "open mode 'rb'"), ("load", 9, "open mode None"), ("load", 11, "os.pread"),
        ("load", 12, "os.open for reading"), ("load_text", 15, "read_bytes"),
        ("load_text", 16, "read_text"), ("load_text", 17, "open mode 'r'"),
        ("load_text", 18, "open mode None"), ("load_text", 19, "open mode mode")]


def test_write_guard_flags_a_second_write_path():
    code = ("def save(path, text):\n"
            "    path.write_text(text)\n"
            "    open(path, 'ab')\n"
            "    open(path, mode)\n"
            "    open(path, 'rb')\n"
            "    os.open(path, os.O_RDONLY | os.O_NONBLOCK)\n"
            "    os.open(path, os.O_WRONLY | os.O_CREAT)\n"
            "    os.open(path, flags)\n")
    assert [(line, what) for _, line, what in write_calls(ast.parse(code))] == [
        (2, "write_text"), (3, "open mode 'ab'"), (4, "open mode mode"),
        (7, "open mode os.O_WRONLY | os.O_CREAT"), (8, "open mode flags")]


def test_stage_functions_leave_the_manifest_to_main():
    # main checks, hashes and records every stage's inputs and outputs and
    # prints its "wrote" line; a cmd_* that did any of it would be a second copy
    tree = ast.parse(SRC.joinpath("d2m", "cli.py").read_text(encoding="utf-8"))
    stages = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(stages) == 8
    for stage in stages:
        names = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(stage)}
        assert not names & {"PipelineRun", "run_dir", "_sha256", "print"}, stage.name


BENCH = ROOT / "bench"
# The parameters of each function whose arguments bench/tracer.py's
# _record_attrs reads by position, in order from the first; a traced method
# gets self first.
TRACED_PARAMETERS = {
    "cli.PipelineRun.check_inputs": ("self", "inputs"),
    "cli.PipelineRun.record": ("self", "stage", "inputs", "outputs"),
    "traceio.read_trace": ("source",),
    "traceio.write_trace": ("trace", "destination"),
    "traceio.read_weights": ("source",),
    "traceio.write_weights": ("container", "destination"),
    "similarity.build_matrices": ("trace",),
    "search.threshold_sweep": ("matrices", "cos_grid", "norm_grid", "score_penalty",
                               "block_sizes"),
    "nanomodel.train_toy": ("container", "data", "steps"),
}


def bench_names() -> tuple[list[str], list[str]]:
    """The names, ``module.attribute`` within d2m, that bench/tracer.py wraps
    (its ``TARGETS``) and that bench/workloads.py imports, read from their
    source without importing either."""
    tracer = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [f"{module}.{attr}" for module, attr in targets], list(workload_imports().values())


def workload_imports() -> dict[str, str]:
    """Each local name bench/workloads.py binds with ``from d2m.… import``,
    to the ``module.attribute`` within d2m it names."""
    workloads = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: f"{node.module.removeprefix('d2m.')}.{alias.name}"
            for node in ast.walk(workloads)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("d2m.")
            for alias in node.names}


def unbound_bench_calls() -> list[str]:
    """Each call in bench/workloads.py to a name it imports from d2m whose
    arguments would not bind: as many positional placeholders and the same
    keyword names, against the signature of the object the name resolves
    to. A call whose arguments are unpacked cannot be checked, so it is
    reported too."""
    imported = workload_imports()
    workloads = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    failures = []
    for node in ast.walk(workloads):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        name = imported[node.func.id]
        keywords = [keyword.arg for keyword in node.keywords]
        try:
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                raise TypeError("unpacked arguments")
            inspect.signature(resolve(name)).bind(*[None] * len(node.args),
                                                  **dict.fromkeys(keywords))
        except TypeError as exc:
            failures.append(f"{name} at workloads.py:{node.lineno}: {exc}")
    return failures


def resolve(name: str):
    """The object ``d2m.MODULE`` holds under ``ATTR`` for ``name`` =
    ``MODULE.ATTR``, a dotted ``ATTR`` naming a class attribute."""
    module, _, attr = name.partition(".")
    return functools.reduce(getattr, attr.split("."), importlib.import_module(f"d2m.{module}"))


def unresolved(names) -> list[str]:
    """The names among ``names`` that d2m does not define."""
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    return missing


def test_every_name_the_bench_reaches_into_resolves():
    # the tracer skips a name it cannot find, so a renamed function would
    # only drop its per-layer metrics from the benchmark's result
    targets, imports = bench_names()
    assert targets and imports
    assert unresolved([*targets, *imports]) == []
    assert set(TRACED_PARAMETERS) <= set(targets)
    for name, parameters in TRACED_PARAMETERS.items():
        found = tuple(inspect.signature(resolve(name)).parameters)
        assert found[:len(parameters)] == parameters, name


def test_bench_guard_reports_a_removed_name(monkeypatch):
    from d2m import cli, traceio

    monkeypatch.delattr(traceio, "read_trace")
    monkeypatch.delattr(cli.PipelineRun, "record")
    targets, imports = bench_names()
    assert unresolved([*targets, *imports]) == ["traceio.read_trace", "cli.PipelineRun.record"]
    assert unresolved(["nosuchmodule.f", "search.plan_from_depth"]) == ["nosuchmodule.f"]


def test_every_call_the_bench_makes_binds():
    # a call that raises fails every chain's output check, not one metric
    assert unbound_bench_calls() == []


def test_bench_call_guard_reports_a_changed_signature(monkeypatch):
    from d2m import surgery

    monkeypatch.setattr(surgery, "functional_equivalence_check",
                        lambda dense, fused, plan: 0.0)
    failures = unbound_bench_calls()
    assert len(failures) == 1
    assert failures[0].startswith("surgery.functional_equivalence_check at workloads.py:")


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert float(lines[1]) > 0
