#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every metric of the final JSON line it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median: the spread the bounds in
BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload serving_online --seeds 1-10
    python3 perfbench/spread.py --workload sweep_default --seeds 1,2,3 \
        --bin .bench_build/release/carbonedge-perfbench

Without --bin it runs the benchmark through the command in BENCHMARK.json,
from the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--bin", help="a built benchmark binary to run directly")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        run = subprocess.run(
            command
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
        line = [f"seed {seed:>3}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
