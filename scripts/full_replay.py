#!/usr/bin/env python3
"""Replay of the full-space secular solve on one benchmark round's inputs.

Runs one round of a benchmark workload (perfbench/workloads.py; by default
registry-ar2 with seed 1) on one BLAS thread, with a wrapper around
far2.secular.solve_secular_full_secant that records the
(g, system, sigma, theta1, warm_lambda) of every call. Calls that shared a
ShiftedSystem in the run (the solves at one iterate, before and after its
rejected steps) share one in each replay pass, made fresh for that pass,
so the replay reuses what the run reused. It then replays the recorded
calls and prints:

- the call count and the factorizations they make (read from the ledger
  of the call's ShiftedSystem, ShiftedSystem.counter), with histograms
  of factorizations per call by how the call starts (warm-started on the
  factorization its system kept, whose first shift is free, or on a
  fresh system), a histogram of the calls whose first shift fails
  Cholesky (a warm start below the spectrum edge, whose next shift is the
  edge test), the factorizations and leftmost eigenpairs
  reused from an earlier call on the same system, and the round's own
  n_fact, which the replay's total equals when the full-space solve is
  the round's only factoring caller (registry-ar2);
- where the warm start lies relative to the root the call returns, as the
  ratio warm_lambda / lambda over the calls that have one, for the whole
  round and for the three solves that factor most;
- the three costliest single calls, each with its solve's label, sigma,
  warm start, returned root and factorizations, so that a call that
  stalls (at the spectrum edge, say) shows by itself;
- the microseconds per call, best of --repeat timed passes. The time
  includes reading H's storage, as the first factorization of an iterate
  does in a run.

    python3 scripts/full_replay.py [--workload registry-ar2] [--seed 1]
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads, as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import argparse  # noqa: E402
import itertools  # noqa: E402
import time  # noqa: E402
import weakref  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

# reduced_replay puts src/ and perfbench/ on the path
from reduced_replay import record_calls  # noqa: E402
import far2.secular as secular  # noqa: E402
from far2.secular import (ShiftedFactorization, ShiftedSystem,  # noqa: E402
                          solve_secular_full_secant)
from workloads import WORKLOADS  # noqa: E402

TOP = 3  # solves, and single calls, listed by their factorizations
START = {"kept": "warm-started on the kept factorization",
         "fresh": "on a fresh system",
         "other": "on a used system at another shift"}


def record(workload: str, seed: int) -> tuple[list[tuple], int]:
    """(label, g, H, sigma, theta1, warm_lambda, system number) of every
    full-space solve in one round of `workload`, the calls on one
    ShiftedSystem sharing its number, and the round's total n_fact."""
    numbers, fresh = weakref.WeakKeyDictionary(), itertools.count()

    def capture(label, g, system, sigma, theta1, warm_lambda=None):
        if system not in numbers:
            numbers[system] = next(fresh)
        return (label, np.array(g, dtype=float), system.H, float(sigma),
                float(theta1), warm_lambda, numbers[system])
    reports = []
    calls = record_calls("solve_secular_full_secant", workload, seed, capture,
                         reports)
    return calls, sum(r.n_fact for r in reports)


def replay(calls):
    """(factorizations, returned lambda, start) of every recorded call,
    yielded as each call returns, in one pass: a fresh ShiftedSystem for
    each system of the run, shared by its calls, which the run made one
    after another. `start` is "kept" for a call warm-started at the shift
    its system last factored (after a rejected step: the first shift is
    free), "fresh" for the first call on a system, and "other" else."""
    system, current = None, None
    for _, g, H, sigma, theta1, warm, number in calls:
        if number != current:
            system, current = ShiftedSystem(H), number
            start = "fresh"
        elif system.last is not None and system.last.lam == warm:
            start = "kept"
        else:
            start = "other"
        before = system.counter.count
        sol = solve_secular_full_secant(g, system, sigma, theta1,
                                        warm_lambda=warm)
        yield system.counter.count - before, sol.lam, start


@contextmanager
def calls_of(*targets):
    """Counts the calls of each (owner, attribute) target while inside."""
    counts, saved = Counter(), []
    for owner, attr in targets:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _fn(*args, **kwargs)
        setattr(owner, attr, counted)
    try:
        yield counts
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


@contextmanager
def first_shifts():
    """The positive_definite of every ShiftedFactorization made while
    inside, in order."""
    verdicts, init = [], ShiftedFactorization.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        verdicts.append(self.positive_definite)
    ShiftedFactorization.__init__ = recording
    try:
        yield verdicts
    finally:
        ShiftedFactorization.__init__ = init


def replay_counted(calls) -> tuple[list[tuple[int, float, str, bool]],
                                   int, int]:
    """replay(calls), each result with whether the call's first shift
    failed Cholesky, and the factorizations and leftmost eigenpairs it
    reused: constructions of ShiftedFactorization that factored nothing,
    and calls that asked for the pair (_leftmost) and made no eigensolve."""
    results, reused_eig, asked, made = [], 0, 0, 0
    with first_shifts() as verdicts, \
            calls_of((ShiftedFactorization, "__init__"), (secular, "_factor"),
                     (secular, "_leftmost"), (secular, "min_eig")) as n:
        first = 0  # the index of the next call's first verdict
        for result in replay(calls):
            results.append((*result, not verdicts[first]))
            first = len(verdicts)
            reused_eig += n["_leftmost"] > asked and n["min_eig"] == made
            asked, made = n["_leftmost"], n["min_eig"]
    return results, n["__init__"] - n["_factor"], reused_eig


def best_pass_s(calls, repeat: int) -> float:
    """The shortest of `repeat` timed passes over all recorded calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in replay(calls):
            pass
        best = min(best, time.perf_counter() - t0)
    return best


def ratio_summary(ratios) -> str:
    """Quartiles of warm_lambda / lambda and the share started left of it."""
    if not ratios:
        return "no warm starts"
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    left = sum(r < 1.0 for r in ratios) / len(ratios)
    return (f"warm/root median {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
            f"{100 * left:.0f}% start left of the root")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="registry-ar2", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    calls, round_n_fact = record(args.workload, args.seed)
    if not calls:
        print(f"{args.workload}: no full-space solves in a round")
        return
    results, reused_fact, reused_eig = replay_counted(calls)
    facts = [k for k, *_ in results]
    print(f"{args.workload} seed {args.seed}: {len(calls)} full-space solves "
          f"on {len({c[-1] for c in calls})} systems, "
          f"{sum(facts)} factorizations ({sum(facts) / len(calls):.2f} a call)")
    print(f"reused from an earlier call on the same system: {reused_fact} "
          f"factorizations, {reused_eig} leftmost eigenpairs")
    print(f"the round's n_fact: {round_n_fact} "
          f"({'equal to' if round_n_fact == sum(facts) else 'not'} the "
          "replay's)")
    for start, how in START.items():
        hist = Counter(k for k, _, s, _ in results if s == start)
        if hist:
            print(f"factorizations per call, {how} "
                  f"({hist.total()} calls): "
                  + ", ".join(f"{k}: {hist[k]}" for k in sorted(hist)))
    hist = Counter(k for k, _, _, failed in results if failed)
    if hist:
        print(f"factorizations per call, first shift not positive definite "
              f"({hist.total()} calls): "
              + ", ".join(f"{k}: {hist[k]}" for k in sorted(hist)))

    by_label = defaultdict(lambda: [0, []])
    for (label, *_, warm, _), (k, lam, *_) in zip(calls, results):
        by_label[label][0] += k
        if warm is not None and warm > 0.0 and lam > 0.0:
            by_label[label][1].append(warm / lam)
    print("all solves: " + ratio_summary(
        [r for _, ratios in by_label.values() for r in ratios]))
    top = sorted(by_label.items(), key=lambda kv: -kv[1][0])[:TOP]
    for label, (k, ratios) in top:
        print(f"{label}: {k} factorizations, {ratio_summary(ratios)}")
    print(f"the {TOP} costliest calls:")
    costliest = sorted(zip(calls, results), key=lambda cr: -cr[1][0])[:TOP]
    for (label, _, _, sigma, _, warm, _), (k, lam, *_) in costliest:
        start = "none" if warm is None else f"{warm:.11g}"
        print(f"  {label}: {k} factorizations, sigma {sigma:.6g}, "
              f"warm start {start}, root {lam:.11g}")

    best = best_pass_s(calls, args.repeat)
    print(f"best of {args.repeat}: {best:.3f} s, "
          f"{1e6 * best / len(calls):.1f} us a call")


if __name__ == "__main__":
    main()
