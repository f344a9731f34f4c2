"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities. Criterion 7 checks the second-order variant on two
strict saddles: on the unbounded quadratic no second-order point exists, so
it checks the escape and that the run certifies none; on the quadratic plus
a quartic term, which is bounded below, it checks that the run certifies the
minimizer.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import conftest

from far2.config import POLYNOMIAL, RATIONAL, SolverConfig
from far2.driver import RunReport, ar2_solve, far2_solve
from far2.harness import (ProblemSpec, SuiteConfig, parse_config,
                          performance_profile, run_suite, write_reports_csv)
from far2.krylov import KrylovBasis, orth_augment, orthonormality_defect, poly_expand
from far2.problems import (REGISTRY, ObjectiveProblem, check_derivatives,
                           get_problem, logistic_objective, registry_names,
                           remap_labels, sigmoid_objective, synth_classification)
from far2.secular import SecularCase, ShiftedSystem, solve_secular_reduced
from far2 import far2so_solve
from far2.second_order import SecondOrderConfig, min_eig

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the suites of criteria 1 and 3, which `far2 run --config` also runs
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def _line(cid, ok, detail=""):
    # printed (visible under -s) and echoed in the terminal summary so the
    # per-criterion verdicts survive pytest's capture in any invocation
    msg = f"[acceptance] criterion {cid:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(msg)
    conftest.ACCEPTANCE_LINES.append(msg)


@pytest.mark.slow
def test_criterion_1_factorization_dominance():
    """FAR2-PK needs no more factorizations than AR2 on nearly every run."""
    t0 = time.perf_counter()
    reports = run_suite(parse_config(EXPERIMENTS / "criterion-1.cfg"))
    elapsed = time.perf_counter() - t0

    by_problem = {}
    for r in reports:
        by_problem.setdefault((r.problem, r.n), {})[r.solver] = r
    convergent = [(p, d) for p, d in by_problem.items()
                  if d["AR2"].converged and d["FAR2-PK"].converged]
    assert convergent, "no convergent problem pairs"
    leq = sum(1 for _, d in convergent
              if d["FAR2-PK"].n_fact <= d["AR2"].n_fact)
    lt = sum(1 for _, d in convergent
             if d["FAR2-PK"].n_fact < d["AR2"].n_fact)
    frac_leq = leq / len(convergent)
    frac_lt = lt / len(convergent)
    ok = frac_leq >= 0.80 and frac_lt >= 0.60 and elapsed <= 300.0
    _line(1, ok, f"<= on {frac_leq:.0%}, < on {frac_lt:.0%} of "
                 f"{len(convergent)} convergent pairs, {elapsed:.0f}s")
    assert frac_leq >= 0.80
    assert frac_lt >= 0.60
    assert elapsed <= 300.0


def test_criterion_2_convex_no_refresh():
    """Strictly convex logistic runs never rebuild the frozen space."""
    ok = True
    details = []
    for seed in (0, 1, 2):
        data = synth_classification(1000, 50, seed)
        rep = far2_solve(logistic_objective(data), SolverConfig(eps_rel=1e-3))
        details.append(f"seed {seed}: ref={rep.n_refresh} sec={rep.n_secant_calls}")
        ok = ok and rep.converged and rep.n_refresh == 1 and rep.n_secant_calls == 0
    _line(2, ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_criterion_3_lemma_suite():
    """Per-step decrease inequalities and multiplier identity hold everywhere."""
    reports = run_suite(parse_config(EXPERIMENTS / "criterion-3.cfg"))
    violations = [v for r in reports for v in r.violations]
    sigma_max_finite = all(
        np.isfinite(max(t.sigma for t in r.trace)) for r in reports if r.trace)
    accepted_steps = sum(sum(1 for t in r.trace if t.accepted) for r in reports)
    ok = not violations and sigma_max_finite and accepted_steps > 0
    _line(3, ok, f"{accepted_steps} accepted steps across {len(reports)} runs, "
                 f"{len(violations)} violations")
    assert violations == []
    assert sigma_max_finite


def test_criterion_4_secular_oracles():
    """Scalar golden-ratio root and the two-dimensional hard case."""
    sol = solve_secular_reduced(np.array([1.0]), np.array([[1.0]]), 1.0)
    golden_ok = abs(sol.lam - GOLDEN) < 1e-10

    H = np.diag([-1.0, 1.0])
    g = np.array([0.0, 1.0])
    hard = solve_secular_reduced(g, H, 1.0)
    hard_ok = (hard.case is SecularCase.HARD
               and abs(hard.lam - 1.0) < 1e-10
               and abs(np.linalg.norm(hard.step) - 1.0) < 1e-8
               and abs(abs(hard.alpha) - math.sqrt(3.0) / 2.0) < 1e-8)

    # brute-force oracle: 400x400 grid over [-2, 2]^2, then a local polish
    xs = np.linspace(-2.0, 2.0, 400)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = (g[0] * X + g[1] * Y + 0.5 * (H[0, 0] * X**2 + H[1, 1] * Y**2)
            + (1.0 / 3.0) * (X**2 + Y**2) ** 1.5)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)

    def model(s):
        return (g @ s + 0.5 * s @ H @ s + np.linalg.norm(s) ** 3 / 3.0)

    res = scipy_minimize(model, np.array([X[i, j], Y[i, j]]), method="Nelder-Mead",
                         options={"xatol": 1e-12, "fatol": 1e-14})
    value_ok = model(hard.step) <= res.fun + 1e-6
    ok = golden_ok and hard_ok and value_ok
    _line(4, ok, f"golden |err|={abs(sol.lam - GOLDEN):.1e}, hard-case model "
                 f"value {model(hard.step):.8f} vs oracle {res.fun:.8f}")
    assert golden_ok and hard_ok and value_ok


@pytest.mark.slow
def test_criterion_5_derivative_consistency():
    """Analytic derivatives match finite differences on every oracle."""
    worst = {}
    ok = True
    for name in registry_names():
        entry = REGISTRY[name]
        n = max(entry.min_n, 8)
        n += (-n) % entry.multiple_of
        eg, eh = check_derivatives(get_problem(name, n), n_points=5, seed=13)
        worst[name] = (eg, eh)
        ok = ok and eg <= 1e-5 and eh <= 1e-4
    data = synth_classification(60, 6, seed=21)
    for label, prob in (("logistic", logistic_objective(data)),
                        ("sigmoid", sigmoid_objective(remap_labels(data, "01")))):
        eg, eh = check_derivatives(prob, n_points=5, seed=22)
        worst[label] = (eg, eh)
        ok = ok and eg <= 1e-5 and eh <= 1e-4
    worst_g = max(v[0] for v in worst.values())
    worst_h = max(v[1] for v in worst.values())
    _line(5, ok, f"worst grad err {worst_g:.2e}, worst hess err {worst_h:.2e}")
    assert ok, worst


def test_criterion_6_rosenbrock_two_dim():
    """All three solvers drive the classic Rosenbrock to its minimizer."""
    results = {}
    ok = True
    for label, cfg, solve in (("FAR2-PK", SolverConfig(), far2_solve),
                              ("FAR2-RK", SolverConfig(space_kind=RATIONAL), far2_solve),
                              ("AR2", SolverConfig(), ar2_solve)):
        rep = solve(get_problem("ROSENBR", 2), cfg)
        g0 = 232.86760987  # gradient norm at (-1.2, 1)
        results[label] = rep
        ok = ok and rep.converged and rep.f_final <= 1e-10 and rep.n_nli <= 200
        ok = ok and rep.gnorm_final <= 1e-6 * g0 * (1 + 1e-9)
    detail = ", ".join(f"{k}: nli={r.n_nli} f={r.f_final:.1e}"
                       for k, r in results.items())
    _line(6, ok, detail)
    assert ok


def _strict_saddle(n=8, quartic=0.0):
    """f = x^T diag(-1, 1, ..., 1) x / 2 + quartic * x_1^4, started at x = 0.

    The start is a strict saddle for every quartic: g = 0 and
    H = diag(-1, 1, ..., 1). With quartic = 0 f is unbounded below and
    lambda_min(H) = -1 everywhere. With quartic = 1/8 the minimizers are
    (+-sqrt(2), 0, ..., 0) with f* = -1/2 and H* = diag(2, 1, ..., 1).
    """
    D = np.ones(n)
    D[0] = -1.0

    def ev(x, order):
        f = 0.5 * float(D @ (x * x)) + quartic * x[0] ** 4
        if order == 0:
            return f, None, None
        g = D * x
        g[0] += 4.0 * quartic * x[0] ** 3
        h = D.copy()
        h[0] += 12.0 * quartic * x[0] ** 2
        return f, g, np.diag(h)

    return ObjectiveProblem("strict-saddle", n, np.zeros(n), ev)


def test_criterion_7_second_order_saddle_escape():
    """FAR2-SO escapes the stationary start that stalls first-order FAR2.

    Unbounded saddle (quadratic only): first-order FAR2 stops at once, and
    FAR2-SO escapes and decreases f. No point there meets lambda_min(H) >=
    -eps_H, so the honest outcome is any status but second_order_point (the
    iteration cap, here).

    Bounded saddle (quartic = 1/8): first-order FAR2 again stops at once, and
    FAR2-SO must certify a second-order point at a minimizer. The coefficient
    is not 1/4, for which the first escape step with sigma0 = 1 lands exactly
    on the minimizer.
    """
    eps_H = 1e-4
    so_cfg = SecondOrderConfig(eps_H=eps_H, max_iters=200)

    first = far2_solve(_strict_saddle(), SolverConfig())
    first_ok = first.status == "first_order_point" and first.n_nli == 0
    rep = far2so_solve(_strict_saddle(), so_cfg)
    escaped = rep.n_nli >= 1 and rep.f_final < 0.0
    honest = rep.status != "second_order_point" and rep.violations == []

    bounded = _strict_saddle(quartic=0.125)
    first_b = far2_solve(bounded, SolverConfig())
    first_b_ok = first_b.status == "first_order_point" and first_b.n_nli == 0
    rep_b = far2so_solve(bounded, so_cfg)
    lam_b = min_eig(ShiftedSystem(
        bounded.eval(np.asarray(rep_b.x_final), 2)[2]))[0]
    certified = (rep_b.n_nli >= 1 and rep_b.status == "second_order_point"
                 and rep_b.f_final == pytest.approx(-0.5)
                 and lam_b >= -eps_H and rep_b.violations == [])

    ok = first_ok and escaped and honest and first_b_ok and certified
    _line(7, ok, f"unbounded: first-order stops {first_ok}, escape {escaped} "
                 f"(f={rep.f_final:.3e}), status={rep.status}; bounded: "
                 f"first-order stops {first_b_ok}, status={rep_b.status} "
                 f"(f={rep_b.f_final:.6f}, lambda_min={lam_b:.3f})")
    assert first_ok
    assert escaped
    assert honest, (
        f"unbounded saddle: status {rep.status!r}, violations "
        f"{rep.violations}; no second-order point exists there")
    assert first_b_ok
    assert certified, (
        f"bounded saddle: status {rep_b.status!r}, nli {rep_b.n_nli}, "
        f"f {rep_b.f_final}, lambda_min {lam_b}, violations "
        f"{rep_b.violations}; expected the minimizer certified with f* = -1/2")


def test_criterion_8_krylov_invariants():
    """Randomized expand/augment sequences preserve the basis invariants."""
    rng = np.random.default_rng(1234)
    worst_orth = 0.0
    worst_contain = 0.0
    worst_tridiag = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 25))
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        basis = KrylovBasis.fresh(rng.standard_normal(n), POLYNOMIAL)
        for _ in range(int(rng.integers(1, 7))):
            if basis.dim < n and not basis.invariant:
                poly_expand(H, basis)
            gk = rng.standard_normal(n)
            W = orth_augment(basis, gk)
            worst_orth = max(worst_orth, orthonormality_defect(W))
            resid = gk - W @ (W.T @ gk)
            worst_contain = max(worst_contain,
                                np.linalg.norm(resid) / np.linalg.norm(gk))
        T = basis.V.T @ H @ basis.V
        off = T.copy()
        off -= np.diag(np.diag(off))
        off -= np.diag(np.diag(T, 1), 1) + np.diag(np.diag(T, -1), -1)
        worst_tridiag = max(worst_tridiag,
                            float(np.max(np.abs(off))) if off.size else 0.0)
        worst_orth = max(worst_orth, orthonormality_defect(basis.V))
    ok = worst_orth <= 1e-10 and worst_contain <= 1e-10 and worst_tridiag <= 1e-10
    _line(8, ok, f"orth {worst_orth:.1e}, containment {worst_contain:.1e}, "
                 f"tridiag {worst_tridiag:.1e}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    """Identical configs and seeds give byte-identical CSV reports."""
    def suite():
        return SuiteConfig(
            solvers=["AR2", "FAR2-PK", "FAR2-RK"],
            problems=[ProblemSpec(kind="registry", name="ROSENBR", n=2),
                      ProblemSpec(kind="registry", name="QUAD", n=12),
                      ProblemSpec(kind="logistic", N=120, n=8, seed=5),
                      ProblemSpec(kind="sigmoid", N=120, n=8, seed=6)],
            seed=17)

    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_reports_csv(run_suite(suite()), p1)
    write_reports_csv(run_suite(suite()), p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    ok = b1 == b2
    _line(9, ok, f"{len(b1)} bytes each")
    assert ok


def test_criterion_10_profile_correctness():
    """Profile curve matches the hand-computed step function exactly."""
    def report(solver, problem, fact, status="first_order_point"):
        return RunReport(solver=solver, problem=problem, n=4, status=status,
                         x_final=[0.0], f_final=0.0, gnorm_final=0.0,
                         n_fact=fact)

    reports = [
        report("A", "p1", 2), report("B", "p1", 4), report("C", "p1", 8),
        report("A", "p2", 6), report("B", "p2", 3), report("C", "p2", 3),
        report("A", "p3", 5), report("B", "p3", 9, status="iter_limit"),
        report("C", "p3", 10),
        report("A", "p4", 4), report("B", "p4", 4), report("C", "p4", 2),
    ]
    table = performance_profile(reports, "n_fact")
    expected = {
        ("A", 1.0): 0.5, ("A", 2.0): 1.0, ("A", 4.0): 1.0,
        ("B", 1.0): 0.25, ("B", 2.0): 0.75, ("B", 4.0): 0.75, ("B", 100.0): 0.75,
        ("C", 1.0): 0.5, ("C", 2.0): 0.75, ("C", 4.0): 1.0,
    }
    ok = all(table.value(s, tau) == v for (s, tau), v in expected.items())
    _line(10, ok, "hand-computed step values reproduced exactly"
          if ok else "mismatch against hand computation")
    assert ok
