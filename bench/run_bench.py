"""d2m benchmark: chains of CLI stages, timed end to end and traced per layer.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout root is the parent of this file's
directory and must hold the package source under ``src/d2m``.

d2m is an offline batch tool, so the load is one closed-loop client: stages
run one after another from this process, each in a fresh ``python3 -m d2m.cli``
subprocess, so that its wall time and peak RSS (``wait4`` rusage) belong to
that stage alone. BLAS runs with ``BLAS_THREADS`` threads. Inputs are made by
``d2m synth`` from ``--seed``; the program only sees the generated files.

A run repeats set-up (making the inputs) followed by the timed chain until
``--seconds`` have passed and at least ``MIN_CHAINS`` chains ran; spreading
the samples over the whole run evens out the swings in CPU speed of a shared
host, which switches between two speeds about 1.4x apart for seconds to tens
of seconds at a time. Outputs are checked after every chain and once more, in
depth, at the end; a stage that exits non-zero or a check that fails counts as
failed, and ``fail_frac`` is their share of all stage runs and checks.

``--trace 0`` reports the mean over the run's chains of each chain metric:
a median snaps to whichever speed held most of the run, while the mean
weighs both by the time spent at each, and so varies less from run to run.
``setup_s`` is the median of the run's set-ups. ``--trace 1``
repeats set-up, an untraced chain and a traced chain (set-up traced too) and
reports per-layer metrics built from the spans that ``tracer.py`` records
around the public functions of each ``src/d2m`` module, plus the tracing
overhead (traced minus untraced chain wall); the spans of the run are written
to ``.bench_work/traces/`` when it ends. Every per-layer metric is a median
over the samples of one run. The sample count of each metric is in the report
line; runs are too short for a tail percentile with ten samples beyond it.

The last stdout line is the result JSON; the line before it, prefixed
``BENCH_REPORT``, holds the environment, every metric with its unit and
sample count (also the stage metrics ``UNGATED``, which only some workloads
have), the checks and ``fail_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
MIN_CHAINS = 3
MIN_TRACED_CHAINS = 2
STAGE_TIMEOUT_S = 150.0

# Threads are pinned before numpy loads, here and in every stage.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import WORKLOADS, Check, Context, Stage  # noqa: E402

# Stage label -> end-to-end stage metric it adds to.
STAGE_METRIC = {
    "analyze": "analyze_s", "search": "search_s", "sweep": "sweep_s", "fuse": "fuse_s",
    "train-toy": "train_s", "estimate": "rank_s", "diagnose": "rank_s", "pareto": "rank_s",
}

# Gated end-to-end metrics: the ones every workload measures. Stage metrics
# of stages only one workload runs are printed in the report line instead.
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
              "analyze_s": "s", "search_s": "s"}
UNGATED = {"sweep_s": "s", "fuse_s": "s", "train_s": "s", "rank_s": "s"}


@dataclass
class StageRun:
    label: str
    wall_s: float
    rss_mib: float
    spans: list[dict] = field(default_factory=list)


class StageFailed(Exception):
    pass


class Runner:
    """Runs d2m stages in fresh subprocesses and keeps every count."""

    def __init__(self, work: Path, run_id: str):
        self.work = work
        self.run_id = run_id
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: list[Check] = []
        self._serial = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def stage(self, stage: Stage, traced: bool) -> StageRun:
        self._serial += 1
        log = self.work / "logs" / f"{self._serial:04d}-{stage.label}.log"
        spans_path = self.work / "spans" / f"{self._serial:04d}-{stage.label}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), self.run_id,
                    "--", *stage.args]
        else:
            argv = [sys.executable, "-m", "d2m.cli", *stage.args]
        self.attempted += 1
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child (for its own rusage); tell Popen so it never waits
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{stage.label} exited {proc.returncode}: {' '.join(tail)}")
            raise StageFailed(self.failures[-1])
        run = StageRun(stage.label, wall, usage.ru_maxrss / 1024.0)
        if traced:
            run.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return run

    def check(self, name: str, make_checks) -> None:
        """Run a workload's checks; an exception is one failed check."""
        try:
            checks = make_checks()
        except Exception:  # a malformed output must count as a failure, not end the run
            checks = [Check(name, False, traceback.format_exc(limit=-2))]
        for c in checks:
            self.attempted += 1
            self.checks.append(c)
            if not c.ok:
                self.failed += 1
                self.failures.append(f"check {c.name} failed: {c.detail}")


def chain_metrics(wall: float, runs: list[StageRun]) -> dict[str, float]:
    metrics = {"wall_s": wall, "peak_rss_mb": max(r.rss_mib for r in runs)}
    for r in runs:
        key = STAGE_METRIC[r.label]
        metrics[key] = metrics.get(key, 0.0) + r.wall_s
    return metrics


def summarize(samples: list[dict[str, float]], reported: str = "median") -> dict[str, dict]:
    """Statistics of each metric over a run's samples; ``value`` is the reported one."""
    keys = sorted({k for s in samples for k in s})
    out = {}
    for k in keys:
        values = [s[k] for s in samples if k in s]
        out[k] = {"median": statistics.median(values), "mean": statistics.fmean(values),
                  "min": min(values), "max": max(values), "n": len(values)}
        out[k]["value"] = out[k][reported]
    return out


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "llc": llc.read_text().strip() if llc.is_file() else None,
        "git_sha": sha,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "d2m" / "cli.py").is_file():
        print(f"error: no d2m source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import layers

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("logs", "spans"):
        (work / sub).mkdir(parents=True)
    runner = Runner(work, run_id)
    ctx = Context(seed=args.seed, inputs=work / "inputs", chain=work / "chain")

    setup_samples: list[float] = []
    chain_samples: list[dict[str, float]] = []
    layer_samples: list[dict[str, float]] = []
    share_samples: list[dict[str, float]] = []
    missing: set[str] = set()
    start = time.perf_counter()
    try:
        if args.trace == 0:
            while (time.perf_counter() - start < args.seconds
                   or len(chain_samples) < MIN_CHAINS):
                setup_samples.append(run_setup(runner, workload, ctx, traced=False)[0])
                wall, runs = run_chain(runner, workload, ctx, traced=False)
                chain_samples.append(chain_metrics(wall, runs))
        else:
            while (time.perf_counter() - start < args.seconds
                   or len(layer_samples) < MIN_TRACED_CHAINS):
                _, setup_runs = run_setup(runner, workload, ctx, traced=True)
                plain, _ = run_chain(runner, workload, ctx, traced=False)
                traced, runs = run_chain(runner, workload, ctx, traced=True)
                sample, gone = layers.layer_metrics(setup_runs + runs)
                sample["trace.overhead_s"] = traced - plain
                layer_samples.append(sample)
                share_samples.append(layers.stage_shares(setup_runs + runs))
                missing |= gone
        runner.check(f"{workload.name}.check_run", lambda: workload.check_run(ctx))
    except StageFailed:
        pass

    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "env": environment(args.seed), "attempted": runner.attempted,
                    "failed": runner.failed,
                    "fail_frac": runner.failed / max(runner.attempted, 1),
                    "failures": runner.failures,
                    "checks": sorted({c.name for c in runner.checks})}
    if args.trace == 0:
        stats = summarize(chain_samples, reported="mean")
        if setup_samples:
            stats["setup_s"] = summarize([{"setup_s": v} for v in setup_samples])["setup_s"]
        units = END_TO_END
        for name, stat in stats.items():
            stat["unit"] = {**END_TO_END, **UNGATED}[name]
    else:
        stats = summarize([layers.drop_missing(s, missing) for s in layer_samples])
        stats.update(summarize([{name: v} for name, vs in ctx.measured.items() for v in vs]))
        if ctx.measured:
            report["measured_outside_cli"] = {
                "metrics": sorted(ctx.measured),
                "note": "timed in the benchmark process by the end-of-run checks, not in a "
                        "CLI stage; n counts repeats of that one measurement"}
        stats.update(summarize([{"cli.import_s": v}
                                for v in layers.import_time(runner.env, ROOT)]))
        input_mib = stats.get("similarity.build_matrices.input_mb", {}).get("median")
        report["computed_sizes"] = {
            "build_matrices_input_mib": input_mib, "llc": report["env"]["llc"],
            "note": "computed from array sizes, not measured; the input is not four "
                    "times the LLC, so no bandwidth figure is derived from it"}
        report["stage_shares"] = {k: v["median"] for k, v in summarize(share_samples).items()}
        report["missing"] = sorted(missing)
        report["spans_file"] = write_spans(work, run_id)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        for name, stat in stats.items():
            stat["unit"] = units.get(name)
    report["metrics"] = stats
    metrics = {name: {"value": stats[name]["value"], "unit": unit}
               for name, unit in units.items() if name in stats}
    shutil.rmtree(work, ignore_errors=True)

    print("BENCH_REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def write_spans(work: Path, run_id: str) -> str:
    """Merge the stage span files of this run into one file that outlives it."""
    spans = []
    for path in sorted((work / "spans").glob("*.json")):
        for span in json.loads(path.read_text(encoding="utf-8")):
            span["stage"] = path.stem
            spans.append(span)
    out = WORK / "traces" / f"{run_id}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"run_id": run_id, "spans": spans}), encoding="utf-8")
    return str(out.relative_to(ROOT))


def run_setup(runner: Runner, workload, ctx, traced: bool) -> tuple[float, list[StageRun]]:
    shutil.rmtree(ctx.inputs, ignore_errors=True)
    ctx.inputs.mkdir(parents=True)
    start = time.perf_counter()
    runs = [runner.stage(s, traced) for s in workload.setup(ctx)]
    elapsed = time.perf_counter() - start
    # Flush the new inputs to disk before the chain starts: otherwise the
    # kernel writes the 176 MB analyze_ref trace back while the first chain
    # after set-up runs, and that chain pays for it.
    for path in ctx.inputs.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return elapsed, runs


def run_chain(runner: Runner, workload, ctx, traced: bool) -> tuple[float, list[StageRun]]:
    shutil.rmtree(ctx.chain, ignore_errors=True)
    ctx.chain.mkdir(parents=True)
    start = time.perf_counter()
    runs = [runner.stage(s, traced) for s in workload.chain(ctx)]
    wall = time.perf_counter() - start
    runner.check(f"{workload.name}.check_chain", lambda: workload.check_chain(ctx))
    return wall, runs


if __name__ == "__main__":
    sys.exit(main())
