"""One benchmark process: set up a workload, time its solves, check them.

Started by run.py; prints one JSON line. With --setup-only it stops once
the problems are built, so that run.py can time set-up more than once.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: on 2 cores the default
# two-thread OpenBLAS pool made dense AR2 runs both slower and less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import far2  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(far2.__file__))) != SRC:
    sys.exit(f"far2 was imported from {far2.__file__}, not from {SRC}")

from checks import check_solve, logistic_reference  # noqa: E402
from tracing import Tracer, calibrate_overhead_s  # noqa: E402
from workloads import EXPECTED_STATUS, build_round  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# per-layer metrics: "<span>.calls" for these spans ...
CALL_SPANS = ("secular.fact", "secular.backsolve", "secular.secant",
              "secular.fallback", "secular.reduced", "krylov.expand",
              "krylov.augment", "model.context", "model.curvature",
              "second_order.min_eig", "second_order.gershgorin",
              "problems.eval_f", "problems.eval_H", "driver.subspace",
              "driver.newton")
# ... and "<layer>.self_s", summed over the spans of the layer
SELF_SPANS = {name: [name] for name in CALL_SPANS
              if not name.startswith("problems.")}
SELF_SPANS.update({
    "problems.eval": ["problems.eval_f", "problems.eval_g", "problems.eval_H"],
    "driver.loop": ["driver.loop"],
    "harness.build": ["harness.build"],
})


def build(workload, seed, tracer):
    def make():
        round_ = build_round(workload, seed)
        return round_, [inst.build() for inst in round_]
    return tracer.span("harness.build", make) if tracer else make()


def run_round(round_, problems, tracer):
    """Solve every instance once; returns per-solve (report, seconds, error)."""
    out = []
    for inst, problem in zip(round_, problems):
        t0 = time.perf_counter()
        try:
            if tracer:
                report = tracer.span("harness.solve", inst.solve, problem)
            else:
                report = inst.solve(problem)
            error = None
        except Exception:  # a raising solve counts as failed; the run goes on
            report, error = None, traceback.format_exc()
        out.append((report, time.perf_counter() - t0, error))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    round_, problems = build(args.workload, args.seed, tracer)
    ready = time.monotonic()
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready}))
        return

    # whole rounds until at least --seconds of solver time is measured
    rounds = []
    while True:
        rounds.append([(inst, prob, *res) for inst, prob, res in
                       zip(round_, problems, run_round(round_, problems, tracer))])
        if sum(r[3] for rd in rounds for r in rd) >= args.seconds:
            break
        problems = [inst.build() for inst in round_]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    # ru_maxrss is a high-water mark: it measures the solves only if they,
    # not the set-up, set it
    print(f"peak RSS {setup_rss_mb:.1f} MB after set-up, {peak_rss_mb:.1f} MB "
          f"after the solves", file=sys.stderr)

    check_failures = []
    attempted = failed = 0
    per_round = []
    reference = None
    for rd in rounds:
        n_fact = n_nli = n_f = n_g = n_H = n_sec = 0
        for inst, prob, report, _, error in rd:
            attempted += 1
            n_f, n_g, n_H = n_f + prob.n_f, n_g + prob.n_g, n_H + prob.n_H
            if report is None:
                failed += 1
                print(f"{inst.label}: raised\n{error}", file=sys.stderr)
                continue
            n_fact += report.n_fact
            n_nli += report.n_nli
            n_sec += report.n_secant_calls
            if report.status != EXPECTED_STATUS[inst.solver]:
                failed += 1
                print(f"{inst.label}: status {report.status} ({report.message})",
                      file=sys.stderr)
                continue
            if inst.kind == "logistic" and reference is None:
                reference = logistic_reference(inst.data.A, inst.data.b)
            fails = check_solve(inst, report, reference)
            if fails:
                failed += 1
                check_failures += fails
        per_round.append({"n_fact": n_fact, "n_nli": n_nli, "n_f": n_f,
                          "n_g": n_g, "n_H": n_H, "n_sec": n_sec})
    if any(c != per_round[0] for c in per_round):
        check_failures.append(f"counts differ between rounds: {per_round}")

    n_rounds = len(rounds)
    solve_s = statistics.median(sum(r[3] for r in rd) for rd in rounds)
    counts = per_round[0]
    if tracer:
        calls = tracer.calls
        expected_calls = {"problems.eval_f": "n_f", "problems.eval_g": "n_g",
                          "problems.eval_H": "n_H", "secular.secant": "n_sec"}
        for span, key in expected_calls.items():
            if failed == 0 and calls.get(span, 0) != counts[key] * n_rounds:
                check_failures.append(f"trace counts {calls.get(span, 0)} "
                                      f"{span} calls, the program {counts[key]}")
        if calls.get("driver.loop", 0) != attempted:
            check_failures.append("driver.loop calls differ from solves")
        metrics = {}
        for name in CALL_SPANS:
            metrics[f"{name}.calls"] = (calls.get(name, 0) // n_rounds, "count")
        for name, spans in SELF_SPANS.items():
            metrics[f"{name}.self_s"] = (tracer.self_s(*spans) / n_rounds, "s")
        metrics["trace.solve_s"] = (solve_s, "s")
        metrics["trace.spans"] = (len(tracer.spans) // n_rounds, "count")
        metrics["trace.overhead_s"] = (
            len(tracer.spans) * calibrate_overhead_s() / n_rounds, "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"trace written to {path}; tracing overhead about "
              f"{metrics['trace.overhead_s'][0]:.3f} s of "
              f"{solve_s:.3f} s traced solver time", file=sys.stderr)
    else:
        metrics = {"solve_s": (solve_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "n_fact": (counts["n_fact"], "count"),
                   "n_nli": (counts["n_nli"], "count"),
                   "n_oracle_evals": (counts["n_f"] + counts["n_g"] + counts["n_H"],
                                      "count")}

    for msg in check_failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ready_monotonic": ready,
    }))


if __name__ == "__main__":
    main()
