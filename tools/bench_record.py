"""Turn parent/change benchmark runs into one BENCH_<pr>.json record.

    python3 tools/bench_record.py --parent PARENT/.bench_out --change .bench_out --pr N

Each directory holds the result files that `benchmarks/run.py` writes,
`result-<workload>-seed<N>-trace0.json`. A run of the parent and a run of
the change with the same workload and seed form a pair; a file without its
partner is left out, and so is one outside `--seeds FIRST-LAST` when that
is given. For every workload and every end-to-end metric that
BENCHMARK.json declares, the record gives the number of pairs, each side's
median and quartiles, the change of the median relative to the parent's,
the pairs the change won (strictly better in the metric's direction) and a
verdict, one of:

- gain: the change won at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's q3 - q1;
- worse: the change's median is worse than the parent's by more than the
  metric's bound, a share of the parent's median;
- unresolved: the parent's q3 - q1 exceeds the bound, and not every run of
  the change is better than every run of the parent;
- same: none of these.

It also gives each side's median number of operations attempted, counts
the runs that were not correct and the failed operations, and copies the
result files' provenance: a field every run of a side
shares is given once, any other as the sorted list of its values (objects
field by field).

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load_runs(directory: Path, seeds=None) -> dict:
    """{(workload, seed): result object} for every untraced result file
    whose seed is in `seeds` (any seed when it is None)."""
    runs = {}
    for path in sorted(directory.glob("result-*-trace0.json")):
        m = RESULT.match(path.name)
        if m and (seeds is None or int(m["seed"]) in seeds):
            runs[m["workload"], int(m["seed"])] = json.loads(path.read_text())
    return runs


def summary(values: list) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list, change: list, higher: bool, bound: float, won: int) -> str:
    """gain, worse, unresolved or same, as the module docstring defines them."""
    sign = 1 if higher else -1
    stats = summary(parent)
    base, spread = abs(stats["median"]), stats["q3"] - stats["q1"]
    better_by = sign * (statistics.median(change) - stats["median"])
    if 10 * won >= 9 * len(parent) and better_by > spread:
        return "gain"
    if -better_by > bound * base:
        return "worse"
    every_run_better = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > bound * base and not every_run_better:
        return "unresolved"
    return "same"


def merged(records: list) -> dict:
    """One provenance: each field once if all records agree on it, else the
    sorted list of its distinct values (as JSON text sorts). Fields that are
    objects in every record are merged field by field."""
    out = {}
    for key in sorted({k for r in records for k in r}):
        values = [r.get(key) for r in records]
        if all(isinstance(v, dict) for v in values):
            out[key] = merged(values)
            continue
        distinct = sorted({json.dumps(v, sort_keys=True) for v in values})
        out[key] = json.loads(distinct[0]) if len(distinct) == 1 else [json.loads(v) for v in distinct]
    return out


def record(parent: dict, change: dict, metrics: list, pr) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        sides = {"parent": [parent[workload, s] for s in seeds],
                 "change": [change[workload, s] for s in seeds]}
        table = {}
        for m in metrics:
            name = m["name"]
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sides.items()}
            higher = m["better"] == "higher"
            won = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
            p_med, c_med = statistics.median(values["parent"]), statistics.median(values["change"])
            table[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "pairs": len(seeds),
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "median_change": (c_med - p_med) / p_med if p_med else None,
                "pairs_won": won,
                "verdict": verdict(values["parent"], values["change"], higher, m["bound"], won),
            }
        workloads[workload] = {
            "seeds": seeds,
            # a run repeats whole rounds for a fixed time, so a faster side
            # attempts more operations, and peak_rss_mib grows with them
            "attempted": {side: statistics.median(r["attempted"] for r in runs)
                          for side, runs in sides.items()},
            "not_correct": {side: sum(not r["correct"] for r in runs) for side, runs in sides.items()},
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "metrics": table,
            "provenance": {side: merged([r["provenance"] for r in runs]) for side, runs in sides.items()},
        }
    return {"pr": pr, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's .bench_out")
    parser.add_argument("--change", required=True, type=Path, help="the change's .bench_out")
    parser.add_argument("--pr", required=True, type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", default=None, help="FIRST-LAST: only runs with these seeds")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    seeds = None
    if args.seeds:
        first, _, last = args.seeds.partition("-")
        seeds = range(int(first), int(last or first) + 1)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rec = record(load_runs(args.parent, seeds), load_runs(args.change, seeds), metrics, args.pr)
    if not rec["workloads"]:
        print("error: no workload has a run on both sides with the same seed", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=2) + "\n")
    for workload, data in rec["workloads"].items():
        ops = data["attempted"]
        print(f"{workload:16s} {'attempted':13s} {ops['parent']:12.6g} -> {ops['change']:12.6g} "
              f"ops  (median per run)")
        for name, m in data["metrics"].items():
            print(f"{workload:16s} {name:13s} {m['parent']['median']:12.6g} -> "
                  f"{m['change']['median']:12.6g} {m['unit']:4s} won {m['pairs_won']}/{m['pairs']} "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
