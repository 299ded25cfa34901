#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on one host.

Usage, from the root of the candidate checkout:

    git worktree add ../ldc-base <base-rev>
    python3 perfbench/ab.py --base ../ldc-base --workload sparse-proper --pairs 10

The candidate's benchmark (perfbench/ and BENCHMARK.json) is copied into
the base checkout first, so both sides run identical benchmark code and
only the program differs. Runs alternate which side goes first, each pair
on its own seed. For every end-to-end metric the script prints each side's
median and quartiles and the share of pairs the candidate won; by the
repository's rule a gain needs nine wins in ten and a median difference
larger than the base's own quartile spread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(checkout, workload, seed, seconds):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{checkout}: seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the base commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    base = os.path.abspath(args.base)
    shutil.rmtree(os.path.join(base, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(base, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    sides = {"base": [], "cand": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("base", base), ("cand", ROOT)]
        if i % 2:
            order.reverse()
        for name, checkout in order:
            sides[name].append(run(checkout, args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)

    def cell(xs):
        q1, q3 = quartiles(xs)
        return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"

    print(f"{'metric':<20} {'base median [q1, q3]':<40} {'candidate median [q1, q3]':<40} wins")
    for metric in sorted(better):
        b = [r[metric] for r in sides["base"]]
        c = [r[metric] for r in sides["cand"]]
        sign = 1 if better[metric] == "higher" else -1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        print(f"{metric:<20} {cell(b):<40} {cell(c):<40} {wins}/{len(b)}")


if __name__ == "__main__":
    main()
