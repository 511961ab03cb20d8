"""Compare benchmark result sets written by ``series.py``.

    python3 bench/compare.py SET.jsonl                 # spread of one set
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl # parent against change

For every workload and end-to-end metric it prints the unit, each side's
median and quartiles (``statistics.quantiles(n=4)``) over the runs, and the
spread: the distance between the quartiles as a share of the median. Besides
the gated metrics of BENCHMARK.json it prints, marked ``ungated``, the stage
metrics that only some workloads have (``sweep_s``, ``fuse_s``, ``train_s``,
``rank_s``, read from each run's ``BENCH_REPORT`` line) and ``fail_frac``.

With two sets, runs are paired by seed (in order when no seed is shared) and
the verdict follows the rule for claiming a gain on a small shared machine:

- ``too few pairs``: fewer than ten pairs ran, so no verdict is given;
- ``gain``: the change wins at least nine tenths of all pairs (ties count for
  neither side), the medians differ by more than the parent's quartile
  distance, and the change failed no more stage runs or checks than the
  parent (otherwise ``no gain: more failures``);
- ``regression``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound and not every
  change run beats every parent run;
- ``within bound`` otherwise, or ``ungated`` for a metric without a bound.

The failure totals are printed per side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """Records of a set, grouped by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            runs[record["workload"]].append(record)
    return runs


def ungated(sets: list[dict[str, list[dict]]], gated: list[dict]) -> list[dict]:
    """Report-line metrics without a bound, and fail_frac.

    A gated metric must be non-zero on every workload; the stage times that
    only some workloads have are shown but not gated, as is fail_frac, which
    is 0 when all is well.
    """
    names = {m["name"] for m in gated}
    units: dict[str, str] = {}
    for runs in sets:
        for records in runs.values():
            for r in records:
                for name, stat in ((r["report"] or {}).get("metrics") or {}).items():
                    if name not in names:
                        units.setdefault(name, stat["unit"])
    extra = [{"name": name, "unit": unit, "better": "lower", "bound": None}
             for name, unit in sorted(units.items())]
    return extra + [{"name": "fail_frac", "unit": "share", "better": "lower", "bound": None}]


def value(record: dict, metric: str) -> float | None:
    """A gated metric from the result line, else the reported value from the report line."""
    result, report = record["result"], record["report"] or {}
    if result is None:
        return None
    if metric in result["metrics"]:
        return result["metrics"][metric]["value"]
    if metric == "fail_frac":
        return report.get("fail_frac")
    stat = report.get("metrics", {}).get(metric)
    return stat["value"] if stat else None


def values(records: list[dict], metric: str) -> list[tuple[int, float]]:
    found = [(r["seed"], value(r, metric)) for r in records]
    return [(seed, v) for seed, v in found if v is not None]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(q1: float, med: float, q3: float) -> float:
    if q3 == q1:
        return 0.0
    return (q3 - q1) / med if med else float("inf")


def failed(records: list[dict]) -> int:
    """Failed stage runs and checks; a run without a result line counts as one."""
    return sum(r["result"]["failed"] if r["result"] else 1 for r in records)


def failures(records: list[dict]) -> str:
    attempted = sum(r["result"]["attempted"] if r["result"] else 1 for r in records)
    return f"{failed(records)}/{attempted} failed"


def environments(runs: dict[str, list[dict]]) -> list[dict]:
    seen = []
    for records in runs.values():
        for r in records:
            env = {k: v for k, v in ((r["report"] or {}).get("env") or {}).items() if k != "seed"}
            if env not in seen:
                seen.append(env)
    return seen


def spread_table(runs: dict[str, list[dict]], metrics: list[dict]) -> None:
    print(f"{'workload':12} {'metric':12} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  steady")
    for workload, records in runs.items():
        for m in metrics:
            xs = [v for _, v in values(records, m["name"])]
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            ratio = spread(q1, med, q3)
            if m["bound"] is None:
                bound, steady = "-", "ungated"
            else:
                bound, steady = f"{m['bound']:.3f}", "yes" if ratio < m["bound"] / 3 else "NO"
            print(f"{workload:12} {m['name']:12} {m['unit']:6} {len(xs):3d} {med:12.5g} "
                  f"{q1:12.5g} {q3:12.5g} {ratio:8.4f} {bound:>6}  {steady}")
        print(f"{workload:12} {'':12} {failures(records)}")


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float | None, parent_failed: int,
            change_failed: int) -> tuple[str, int, int]:
    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    change_wins = sum(better(c, p) for p, c in pairs)
    parent_wins = sum(better(p, c) for p, c in pairs)
    if len(pairs) < MIN_PAIRS:
        return "too few pairs", change_wins, parent_wins
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if change_wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1 and better(cm, pm):
        if change_failed > parent_failed:
            return "no gain: more failures", change_wins, parent_wins
        return "gain", change_wins, parent_wins
    if bound is None:
        return "ungated", change_wins, parent_wins
    worse_by = (cm - pm) / pm if lower_better else (pm - cm) / pm
    if worse_by > bound:
        return "regression", change_wins, parent_wins
    if spread(p1, pm, p3) > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", change_wins, parent_wins
    return "within bound", change_wins, parent_wins


def compare_table(parent_runs, change_runs, metrics: list[dict]) -> None:
    print(f"{'workload':12} {'metric':12} {'unit':6} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins p/c/pairs':>15}  verdict")
    for workload in parent_runs:
        if workload not in change_runs:
            print(f"{workload:12} missing from the change set")
            continue
        parent_failed, change_failed = failed(parent_runs[workload]), failed(change_runs[workload])
        for m in metrics:
            p_vals, c_vals = values(parent_runs[workload], m["name"]), \
                values(change_runs[workload], m["name"])
            if not p_vals or not c_vals:
                continue
            by_seed: dict[int, list[float]] = defaultdict(list)
            for seed, v in c_vals:
                by_seed[seed].append(v)
            pairs = [(p, by_seed[seed].pop(0)) for seed, p in p_vals if by_seed.get(seed)]
            parent, change = [v for _, v in p_vals], [v for _, v in c_vals]
            if not pairs:  # sets run on different seeds: pair runs in order
                pairs = list(zip(parent, change))
            result, c_wins, p_wins = verdict(parent, change, pairs, m["better"] == "lower",
                                             m["bound"], parent_failed, change_failed)
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{workload:12} {m['name']:12} {m['unit']:6} "
                  f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{p_wins:4d}/{c_wins:d}/{len(pairs):<4d}  {result}")
        print(f"{workload:12} parent {failures(parent_runs[workload])}, "
              f"change {failures(change_runs[workload])}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(path) for path in argv]
    metrics = config["end_to_end"] + ungated(sets, config["end_to_end"])
    for path, runs in zip(argv, sets):
        for env in environments(runs):
            print(f"{path}: {json.dumps(env, sort_keys=True)}")
    if len(sets) == 1:
        spread_table(sets[0], metrics)
    else:
        compare_table(sets[0], sets[1], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
