"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 --out set1.json
    python3 perfbench/summarize.py --seeds 1-10 --traced-seed 1 --out set2.json

For every workload in BENCHMARK.json and every end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound.  Runs are sequential, one at a time.  --out writes
every value together with the per-run reports that run.py left in
.perfbench-run/.  perfbench/baseline.json holds two such outputs, made one
after the other, under "sets", and the traced reports under "traced".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench-run" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "report": report, "wall_s": wall}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seed", type=int, default=None,
                   help="also make one traced run per workload with this seed")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}

    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in summary["seeds"]:
            run = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed={seed} wall={run['wall_s']:.1f}s correct="
                  f"{run['result']['correct']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()),
                  flush=True)
            runs.append(run)
        entry = {"metrics": {}, "runs": [r["report"] for r in runs]}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            entry["metrics"][name] = {"values": values, "bound": bound, **stats}
            flag = "ok" if stats["spread"] < bound / 3 else (
                "WITHIN BOUND" if stats["spread"] <= bound else "OVER BOUND")
            print(f"  {workload:14s} {name:16s} median={stats['median']:.5g} "
                  f"q1={stats['q1']:.5g} q3={stats['q3']:.5g} "
                  f"spread={stats['spread']:.4f} bound={bound} {flag}", flush=True)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = traced["report"]
            print(f"  {workload} traced seed={args.traced_seed} "
                  f"wall={traced['wall_s']:.1f}s", flush=True)
        summary["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
