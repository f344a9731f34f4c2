#!/usr/bin/env python3
"""Replay of the reduced secular solve on one benchmark round's inputs.

Runs one round of a benchmark workload (perfbench/workloads.py; by default
registry-far2 with seed 1) on one BLAS thread, with a wrapper around
far2.secular.solve_secular_reduced that records the (g_r, H_r, sigma,
spectrum) of every call: a solve after a rejected FAR2 step is given the
spectrum its iterate kept, and re-roots on it without an eigensolve. It
then times solve_secular_reduced alone on the recorded inputs, best of
--repeat passes, and prints the call count, the mean and maximum
dimension, how many calls were given a kept spectrum, and the
microseconds per call over all calls and for each kind:

    python3 scripts/reduced_replay.py [--workload registry-far2] [--seed 1]
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads, as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import far2.secular  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402


def record_calls(name: str, workload: str, seed: int, capture,
                 reports: list | None = None) -> list:
    """capture(label, *args, **kwargs) of every call of far2.secular.<name>
    in one round of `workload`, `label` naming the solve that made it. The
    round's run reports go to `reports`, if given."""
    original = getattr(far2.secular, name)
    calls, label = [], [None]

    def recording(*args, **kwargs):
        calls.append(capture(label[0], *args, **kwargs))
        return original(*args, **kwargs)

    # far2.driver imports the function by name: patch every module holding it
    holders = [m for mod, m in sys.modules.items()
               if (mod == "far2" or mod.startswith("far2."))
               and m.__dict__.get(name) is original]
    for m in holders:
        setattr(m, name, recording)
    try:
        for inst in build_round(workload, seed):
            label[0] = inst.label
            report = inst.solve(inst.build())
            if reports is not None:
                reports.append(report)
    finally:
        for m in holders:
            setattr(m, name, original)
    return calls


def record(workload: str, seed: int) -> list[tuple]:
    """The inputs (g_r, H_r, sigma, spectrum) of every reduced solve in one
    round of `workload`; spectrum is the kept one the solve was given, or
    None (a ReducedSpectrum is immutable and is kept as it is)."""
    return record_calls(
        "solve_secular_reduced", workload, seed,
        lambda label, g_r, H_r, sigma, spectrum=None: (
            np.array(g_r, dtype=float), np.array(H_r, dtype=float),
            float(sigma), spectrum))


def best_pass_s(calls, repeat: int) -> float:
    """The shortest of `repeat` timed passes over the recorded calls."""
    solve = far2.secular.solve_secular_reduced
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for g_r, H_r, sigma, spectrum in calls:
            solve(g_r, H_r, sigma, spectrum=spectrum)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="registry-far2", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    calls = record(args.workload, args.seed)
    if not calls:
        print(f"{args.workload}: no reduced solves in a round")
        return
    dims = [call[0].size for call in calls]
    kept = [call for call in calls if call[3] is not None]
    print(f"{args.workload} seed {args.seed}: {len(calls)} reduced solves, "
          f"dimension mean {np.mean(dims):.1f} max {max(dims)}, "
          f"{len(kept)} given a kept spectrum")
    kinds = [("all calls", calls), ("with an eigensolve",
                                   [c for c in calls if c[3] is None]),
             ("on a kept spectrum", kept)]
    for kind, group in kinds:
        if group:
            best = best_pass_s(group, args.repeat)
            print(f"{kind}: best of {args.repeat}: {best:.3f} s, "
                  f"{1e6 * best / len(group):.1f} us a call")


if __name__ == "__main__":
    main()
