#!/usr/bin/env python3
"""Noise studies of the benchmark. Run from the repository root.

    python3 benchmark/noise.py study  [--runs 8] [--runs-other 3]
    python3 benchmark/noise.py spread [--sets 2] [--runs 10]

`study` runs every workload `--runs` times on seed 42 and `--runs-other`
times on seed 7, the workloads alternating so that each one's runs are
spread over the whole study, and prints per metric and workload the
minimum, median and maximum across runs and the range as a share of the
median.

`spread` does what the harness does before it accepts the benchmark: per
set, ten runs per workload, each on another seed; per end-to-end metric
the distance between the first and third quartile of its ten values
(`statistics.quantiles(values, n=4)`) as a share of their median, which
must stay within the metric's bound; and between two sets, no median worse
than the first by more than the bound.

Both run the command of BENCHMARK.json, so they measure what the harness
measures, and print markdown tables.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def run(workload, seed, trace=0):
    """One run; returns the metrics of its last line as {name: value}."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited with {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    print(f"# {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def study(args):
    rows = {}  # (workload, seed) -> [metrics of one run, ...]
    for seed, runs in ((42, args.runs), (7, args.runs_other)):
        for _ in range(runs):
            for workload in WORKLOADS:
                rows.setdefault((workload, seed), []).append(run(workload, seed))
    print("| workload | seed | metric | runs | min | median | max | range / median |")
    print("|---|---|---|---|---|---|---|---|")
    for (workload, seed), runs in rows.items():
        for name in END_TO_END:
            values = [r[name] for r in runs]
            median = statistics.median(values)
            print(f"| {workload} | {seed} | {name} | {len(values)} | {min(values):.6g} | {median:.6g} "
                  f"| {max(values):.6g} | {(max(values) - min(values)) / median:.4f} |")


def spread(args):
    sets = []
    for index in range(args.sets):
        values = {}  # (workload, metric) -> ten values
        for k in range(args.runs):
            for workload in WORKLOADS:
                seed = 1000 * (index + 1) + k
                for name, value in run(workload, seed).items():
                    values.setdefault((workload, name), []).append(value)
        sets.append(values)
    print("| workload | metric | bound | " + " | ".join(
        f"median {i + 1} | spread {i + 1}" for i in range(args.sets)) + " | worse by | verdict |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|---|")
    failed = 0
    for key in sets[0]:
        workload, name = key
        metric = END_TO_END[name]
        cells, verdict = [], "ok"
        for values in sets:
            q1, _, q3 = statistics.quantiles(values[key], n=4)
            median = statistics.median(values[key])
            share = (q3 - q1) / median
            cells += [f"{median:.6g}", f"{share:.4f}"]
            if name != "setup_s" and share > metric["bound"]:
                verdict = "SPREAD"
            elif name != "setup_s" and share > metric["bound"] / 3 and verdict == "ok":
                verdict = "wide"
        first, last = statistics.median(sets[0][key]), statistics.median(sets[-1][key])
        worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
        if worse > metric["bound"]:
            verdict = "DRIFT"
        failed += verdict in ("SPREAD", "DRIFT")
        print(f"| {workload} | {name} | {metric['bound']} | " + " | ".join(cells)
              + f" | {worse:+.4f} | {verdict} |")
    print(f"\n{failed} metric x workload pairs outside their bound")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    modes = parser.add_subparsers(dest="mode", required=True)
    s = modes.add_parser("study")
    s.add_argument("--runs", type=int, default=8)
    s.add_argument("--runs-other", type=int, default=3)
    p = modes.add_parser("spread")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    sys.exit(study(args) if args.mode == "study" else spread(args))


if __name__ == "__main__":
    main()
