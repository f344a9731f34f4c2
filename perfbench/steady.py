#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same checkout.

    python3 perfbench/steady.py [--workloads W ...] [--trace]

The first set runs seeds 1-10 and the second seeds 11-20. For every
workload and end-to-end metric it prints each set's median and quartiles
and the spread (quartile distance over the median). The sets agree if
every spread is within the metric's bound in BENCHMARK.json and the two
medians differ by at most the bound, either way. It also checks that every
run is correct, that the failed share is the same in every run, and that
n_fact, n_nli and n_oracle_evals are the same in every run. With --trace it adds one traced run per workload and prints the
tracing overhead (traced solver time against the untraced median). Raw
results go to .perfbench_out/steady.json. Exits non-zero unless steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("n_fact", "n_nli", "n_oracle_evals")
RUNS = 10    # per set


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    raw = {}
    ok = True
    for w in args.workloads:
        first = [run(w, seed, bench["run_seconds"], 0)
                 for seed in range(1, RUNS + 1)]
        second = [run(w, seed, bench["run_seconds"], 0)
                  for seed in range(RUNS + 1, 2 * RUNS + 1)]
        raw[w] = [first, second]
        runs = first + second
        print(f"== {w}: two sets of {RUNS} runs")
        correct = all(r["correct"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        exact = all(len({r["metrics"][m]["value"] for r in runs}) == 1
                    for m in EXACT)
        print(f"   correct in every run: {correct}; failed shares: "
              f"{sorted(shares)}; {', '.join(EXACT)} the same in every run: "
              f"{exact}")
        ok = ok and correct and len(shares) == 1 and exact
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            for rs in (first, second):
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in rs])
                cols.append((med, f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {sp:.3f}"
                                  f"{'' if sp <= bound else ' OVER'}"))
                ok = ok and sp <= bound
            moved = (cols[1][0] - cols[0][0]) / cols[0][0]
            agree = abs(moved) <= bound
            ok = ok and agree
            pooled = spread([r["metrics"][name]["value"] for r in runs])[3]
            print(f"   {name:15s} bound {bound:.2f} | {cols[0][1]} | {cols[1][1]}"
                  f" | moved {moved:+.3f} {'agree' if agree else 'DISAGREE'}"
                  f" | pooled spread {pooled:.3f}"
                  + (" (< bound/3)" if pooled < bound / 3 else ""))
        if args.trace:
            traced = run(w, 1, bench["run_seconds"], 1)
            raw[w + ":trace"] = traced
            base = statistics.median(r["metrics"]["solve_s"]["value"] for r in runs)
            t = traced["metrics"]["trace.solve_s"]["value"]
            print(f"   traced solve_s {t:.3f} s vs untraced median {base:.3f} s: "
                  f"overhead {100.0 * (t - base) / base:+.1f}% (estimated from "
                  f"spans: {traced['metrics']['trace.overhead_s']['value']:.3f} s)")
        sys.stdout.flush()
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
