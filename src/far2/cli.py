"""Command-line interface.

Subcommands: `run` executes a suite from a config file, `profile` derives
performance-profile series from stored reports, `list` prints the problem
registry, `check` runs the derivative and invariant self-tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np
import scipy.sparse as sp

from . import harness, krylov, problems, secular
from .config import POLYNOMIAL
from .errors import ConfigError, ProfileError


def cmd_run(args) -> int:
    if not args.config:
        print("run: --config is required", file=sys.stderr)
        return 2
    overrides = {key: getattr(args, key) for key in ("out", "seed", "jobs")
                 if getattr(args, key) is not None}
    if args.timing:
        overrides["timing"] = True
    # replace() rebuilds the config, so an override is checked as the
    # file's own value is
    cfg = dataclasses.replace(harness.parse_config(args.config), **overrides)
    os.makedirs(cfg.out, exist_ok=True)
    reports = harness.run_suite(cfg)
    print(harness.summarize(reports))
    csv_path = os.path.join(cfg.out, "reports.csv")
    harness.write_reports_csv(reports, csv_path, timing=cfg.timing)
    json_path = os.path.join(cfg.out, "reports.json")
    harness.write_reports_json(reports, json_path)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_profile(args) -> int:
    outdir = args.out or "."
    src = os.path.join(outdir, "reports.json")
    if not os.path.exists(src):
        print(f"profile: no stored reports at {src}", file=sys.stderr)
        return 2
    reports = harness.read_reports_json(src)
    metric = "n_fact" if args.metric == "fact" else "n_nli"
    table = harness.performance_profile(reports, metric)
    paths = harness.write_profile_series(table, outdir)
    for solver in table.solvers:
        pts = table.series(solver)
        head = " ".join(f"({t:.3g},{p:.2f})" for t, p in pts[:6])
        print(f"{solver:<8s} {metric}: {head}{' ...' if len(pts) > 6 else ''}")
    print("wrote " + ", ".join(paths))
    return 0


def cmd_list(_args) -> int:
    for name in problems.registry_names():
        entry = problems.REGISTRY[name]
        divis = f", n % {entry.multiple_of} == 0" if entry.multiple_of > 1 else ""
        print(f"{name:<10s} n >= {entry.min_n}{divis:<14s} {entry.note}")
    print("classification: kind=logistic|sigmoid with source=synth or a LIBSVM path")
    return 0


def cmd_check(_args) -> int:
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    def sized(name, n):
        entry = problems.REGISTRY[name]
        n = max(entry.min_n, n)
        return problems.get_problem(name, n + (-n) % entry.multiple_of)

    for name in problems.registry_names():
        eg, eh = problems.check_derivatives(sized(name, 8), n_points=2, seed=1)
        report(f"derivatives {name}", eg <= 1e-5 and eh <= 1e-4,
               f"grad {eg:.2e} hess {eh:.2e}")

    data = problems.synth_classification(80, 6, seed=3)
    losses = [("logistic", problems.logistic_objective(data)),
              ("sigmoid", problems.sigmoid_objective(
                  problems.remap_labels(data, "01")))]
    for label, obj in losses:
        eg, eh = problems.check_derivatives(obj, n_points=2, seed=2)
        report(f"derivatives {label}", eg <= 1e-5 and eh <= 1e-4,
               f"grad {eg:.2e} hess {eh:.2e}")

    # the Hessian contract: H == H.T bit for bit, at x0 and three random points
    oracles = [(f"{name}-{n}", sized(name, n))
               for name in problems.registry_names() for n in (8, 100)] + losses
    rng = np.random.default_rng(4)
    asymmetric = []
    for label, obj in oracles:
        for x in [obj.x0] + [obj.x0 + rng.standard_normal(obj.n) for _ in range(3)]:
            H = obj.eval(x, 2)[2]
            H = H.toarray() if sp.issparse(H) else np.asarray(H)
            if not np.array_equal(H, H.T):
                asymmetric.append(label)
                break
    report("symmetric Hessians", not asymmetric,
           ", ".join(asymmetric) or f"{len(oracles)} oracles, 4 points each")

    # a loss Hessian's products before its matrix is formed, against the
    # matrix, on one vector and on a block of three
    worst = 0.0
    for _, obj in losses:
        H = obj.eval(obj.x0 + rng.standard_normal(obj.n), 2)[2]
        V = rng.standard_normal((obj.n, 3))
        products = [(H @ V[:, 0], V[:, 0]), (H @ V, V)]
        M = np.asarray(H)
        for P, X in products:
            worst = max(worst, float(np.linalg.norm(P - M @ X)
                                     / np.linalg.norm(M @ X)))
    report("loss Hessian products", worst <= 1e-12, f"relative error {worst:.2e}")

    # a loss Hessian's spectral interval, computed before its matrix is
    # formed, brackets the formed matrix's extreme eigenvalues (to rounding)
    ok, details = True, []
    for label, obj in losses:
        H = obj.eval(obj.x0 + rng.standard_normal(obj.n), 2)[2]
        lo, hi = H.interval
        eigs = np.linalg.eigvalsh(np.asarray(H))
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        ok = ok and lo <= eigs[0] + tol and eigs[-1] <= hi + tol
        details.append(f"{label} [{lo:.3g}, {hi:.3g}] holds "
                       f"[{eigs[0]:.3g}, {eigs[-1]:.3g}]")
    report("loss Hessian interval", ok, "; ".join(details))

    lam = secular.solve_secular_reduced(np.array([1.0]), np.array([[1.0]]), 1.0).lam
    report("scalar secular root", abs(lam - (np.sqrt(5) - 1) / 2) < 1e-10,
           f"lambda {lam:.12f}")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 12))
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        basis = krylov.KrylovBasis.fresh(rng.standard_normal(n), POLYNOMIAL)
        for _ in range(int(rng.integers(1, n))):
            krylov.poly_expand(H, basis)
            if basis.invariant:
                break
        worst = max(worst, krylov.orthonormality_defect(basis.V))
    report("krylov orthonormality", worst <= 1e-10, f"defect {worst:.2e}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="far2",
        description="Adaptive cubic-regularization solvers with frozen "
                    "Krylov subspaces, plus a benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the options it reads
    run = sub.add_parser("run")
    run.add_argument("--config", default=None, help="suite config file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--jobs", type=int, default=None)
    run.add_argument("--timing", action="store_true",
                     help="write measured wall time into the CSV")
    run.set_defaults(fn=cmd_run)
    profile = sub.add_parser("profile")
    profile.add_argument("--out", default=None, help="directory of stored reports")
    profile.add_argument("--metric", choices=("fact", "nli"), default="fact")
    profile.set_defaults(fn=cmd_profile)
    sub.add_parser("list").set_defaults(fn=cmd_list)
    sub.add_parser("check").set_defaults(fn=cmd_check)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProfileError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
