"""Run the benchmark over several seeds and append each result to a result set.

    python3 bench/series.py --seeds 1-10 [--workloads analyze_ref,train_desk]
        CHECKOUT=OUT.jsonl [CHECKOUT=OUT.jsonl ...]

Each CHECKOUT is a source tree with this ``bench/`` directory in it; its runs
go to OUT.jsonl, one JSON record per run (workload, seed, result line and the
``BENCH_REPORT`` line with the environment). With two checkouts, say parent
and change, every seed runs both, alternating which goes first, so that the
pairs ``compare.py`` forms share the machine's state as far as possible.

Every run is untraced and lasts ``run_seconds`` from BENCHMARK.json, so both
sides of a comparison measure for the same time. Traced runs are made with
``run_bench.py --trace 1`` directly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    record = {"checkout": str(checkout), "workload": workload, "seed": seed,
              "exit_code": done.returncode, "run_s": time.perf_counter() - start,
              "result": None, "report": None}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("BENCH_REPORT "):
                record["report"] = json.loads(line[len("BENCH_REPORT "):])
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def main(argv: list[str] | None = None) -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("targets", nargs="+", metavar="CHECKOUT=OUT.jsonl")
    args = parser.parse_args(argv)

    targets = []
    for spec in args.targets:
        checkout, sep, out = spec.partition("=")
        if not sep:
            parser.error(f"expected CHECKOUT=OUT.jsonl, got {spec!r}")
        targets.append((Path(checkout).resolve(), Path(out)))
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = targets if index % 2 == 0 else targets[::-1]
        for workload in args.workloads.split(","):
            for checkout, out in order:
                record = run_once(checkout, workload, seed, config["run_seconds"])
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                result = record["result"] or {}
                print(f"{checkout.name} {workload} seed={seed} exit={record['exit_code']} "
                      f"run_s={record['run_s']:.1f} "
                      f"correct={result.get('correct')} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result.get("metrics", {}).items()),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
