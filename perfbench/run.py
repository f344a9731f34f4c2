#!/usr/bin/env python3
"""far2 benchmark: one workload per call, result as the last line of stdout.

    python3 perfbench/run.py --workload registry-ar2 --seed 1 --seconds 10 --trace 0

Workloads: registry-ar2, registry-far2, large-n, classify (see README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Set-up is timed in SETUP_PROBES extra
processes that stop once their problems are built, half of them before the
measured process and half after it, and in the measured process itself;
setup_s is the median of these nine. Exits non-zero, printing no result, if
any process fails or the deadline passes.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 8
DEADLINE_S = 170.0


def run_worker(args, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result.pop("ready_monotonic") - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that run_worker stops its worker before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [run_worker(args, deadline, setup_only=True)[1]
              for _ in range(probes)]
    result, setup = run_worker(args, deadline, setup_only=False)
    setups += [setup] + [run_worker(args, deadline, setup_only=True)[1]
                         for _ in range(probes)]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
