#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload window --seeds 1-10 --seconds 15

For every metric: the median over the runs and the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json. With --repeat, every seed runs twice and the
metrics that must repeat exactly for one seed are compared.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_iqr

HERE = Path(__file__).resolve().parent
DETERMINISTIC = ["wire_kb_per_op", "window_wire_mb", "stored_bytes_per_user_byte"]


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return json.loads(lines[-1])["metrics"], context


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", action="store_true")
    a = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, probes = [], []
    for seed in a.seeds:
        metrics, context = run_once(a.workload, seed, a.seconds, a.trace)
        runs.append(metrics)
        probes.append(context["probe_median_us"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
        if a.repeat:
            again, _ = run_once(a.workload, seed, a.seconds, a.trace)
            for name in DETERMINISTIC:
                if name in metrics and again[name] != metrics[name]:
                    sys.exit(f"seed {seed}: {name} did not repeat: "
                             f"{metrics[name]['value']} vs {again[name]['value']}")
    print(f"\n{a.workload}: {len(runs)} runs, probe_median_us median "
          f"{statistics.median(probes):.1f} (min {min(probes):.1f}, max {max(probes):.1f})")
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>11s} {'bound':>6s}")
    worst = 0.0
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        spread = relative_iqr(values) if len(values) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
        print(f"{name:40s} {statistics.median(values):14.6g} {spread:11.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    if a.repeat:
        print("deterministic metrics repeated exactly for every seed")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
