#!/usr/bin/env python3
"""Steadiness self-check for the perfbench benchmark.

Runs one workload several times, each with another seed, and prints for
every metric its median and its spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median. Compare each spread with the metric's bound in BENCHMARK.json.
Run it from the repository root:

    python3 perfbench/steady.py --workload fresh-durable --runs 5
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stderr))
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        prov = json.loads(lines[-2])["provenance"]
        print("seed %d: correct=%s attempted=%d failed=%d steal_ticks=%s host_probe_ms=%s" % (
            seed, res["correct"], res["attempted"], res["failed"], prov.get("steal_ticks"),
            ["%.1f" % x for x in prov.get("host_probe_ms", [])]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-28s %14s %8s %8s  values" % ("metric", "median", "spread", "bound"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        spread = float("nan")
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        print("%-28s %14.6g %8.4f %8s  %s" % (name, med, spread, bound if bound is not None else "-",
                                              " ".join("%.6g" % x for x in xs)))


if __name__ == "__main__":
    main()
