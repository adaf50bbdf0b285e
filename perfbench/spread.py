#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the spread (interquartile distance as
a share of the median) next to the metric's bound.

    python3 perfbench/spread.py --workloads adhoc planner define --seeds 1 2 3 4 5

Run from the repository root. Workloads are interleaved seed by seed, so
slow drift of the host spreads over all of them alike. Exits 1 when a
run fails or a spread (other than setup_s's) exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}: {lines[-1:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, ((q3 - q1) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            for name, v in run(bench, w, seed, seconds, args.trace).items():
                values[w].setdefault(name, []).append(v)
            print(f"{w} seed {seed}: ok", file=sys.stderr, flush=True)
    over = False
    for w in args.workloads:
        print(f"== {w} ({len(args.seeds)} seeds)")
        for name, vs in values[w].items():
            med, sp = spread(vs) if len(vs) > 1 else (vs[0], 0.0)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "OVER")
                over |= verdict == "OVER" and name != "setup_s"
            print(f"  {name:28s} median {med:16.6f}  spread {sp:7.4f}  bound {bound}  {verdict}")
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
