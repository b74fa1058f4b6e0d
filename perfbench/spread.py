#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per metric, the median and the interquartile range as
a share of the median (the spread), next to the metric's bound. With
--save the values are written to a JSON file; with --against such a file,
each median is also compared with that earlier set's, as the share by
which it got worse. Run from the repo root:

    python3 perfbench/spread.py --workloads fig6b --seeds 5
    python3 perfbench/spread.py --save first.json
    python3 perfbench/spread.py --first-seed 11 --against first.json

The last lines give the worst spread and the worst worsening, each as a
share of its bound. The spread of `setup_s` is printed but not held to
its bound; its worsening is.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*", help="default: all")
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the values to this JSON file")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = {}
    worst_spread = worst_worse = 0.0
    for workload in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        runs[workload] = values
        print(f"{workload}:")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            m = metrics[name]
            line = (f"  {name:<12} median {med:<12.6g} spread {spread:6.3f}"
                    f"  bound {m['bound']:.2f}")
            if name != "setup_s":
                worst_spread = max(worst_spread, spread / m["bound"])
            old = before.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if m["better"] == "higher":
                    worse = -worse
                worst_worse = max(worst_worse, worse / m["bound"])
                line += f"  worse by {worse:+.3f}"
            print(line + f"  [{' '.join(f'{x:.4g}' for x in v)}]", flush=True)
    print(f"worst spread/bound (setup_s exempt): {worst_spread:.3f}")
    if before:
        print(f"worst worsening/bound: {worst_worse:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
