#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py --runs 10 [--workloads a,b] [--trace-runs 1]
                                 [--first-seed 1] [--out perfbench/history/BENCH_n.json]

Runs the command in BENCHMARK.json once per (workload, seed), one run at a
time, then reports for every end-to-end metric the median, the quartiles
and their distance as a share of the median (the spread), next to the
metric's bound. ``--trace-runs`` adds traced runs whose per-layer metrics
are summarised by their median. ``--out`` saves everything, with the run
context of the first run, as a history entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    history = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    worst = 0.0
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = []
        for seed in seeds:
            context, result = run_once(spec, workload, seed, 0)
            history.setdefault("context", context)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed", file=sys.stderr)
            results.append(result)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}, "per_layer": {}}
        print(f"\n{workload}: {args.runs} runs, {entry['failed']}/{entry['attempted']} failed")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] <= bound / 3 else ("  > bound/3" if s["spread"] <= bound else "  > BOUND")
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"  {name:22s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {bound:6.2f}{flag}")
        traced = [run_once(spec, workload, seed, 1)[1] for seed in range(args.first_seed, args.first_seed + args.trace_runs)]
        for name in traced[0]["metrics"] if traced else ():
            values = [t["metrics"][name]["value"] for t in traced]
            entry["per_layer"][name] = {"median": statistics.median(values), "unit": traced[0]["metrics"][name]["unit"]}
        history["workloads"][workload] = entry
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
