"""The next gradient after every accepted step, against Taylor's bounds.

Adaptive cubic regularization keeps its worst-case complexity because the
gradient at the next iterate is O(||s||^2) (Cartis, Gould & Toint 2011,
Part II), and FAR2 keeps it with its corrector steps. With L the Lipschitz
constant of H, Taylor's theorem bounds ||g(x + s)|| by
(theta1/2 + sigma + L/2) ||s||^2 for subspace and full-space steps, which
pass the theta1 stationarity test, and by lambda_hat ||s|| + (L/2) ||s||^2
for corrector steps, where g + H s = -lambda_hat s. Every term is in the
run's trace: sigma, lambda_hat and ||s|| on the step's record and
||g(x + s)|| on the next one (the report's gnorm_final after the last).

The problems are f(x) = sum_i a_i cos(b_i^T x + c_i) + mu ||x||^2 / 2,
whose Hessian -sum_i a_i cos(b_i^T x + c_i) b_i b_i^T + mu I has the
Lipschitz constant L <= sum_i |a_i| ||b_i||^3. Over seeds 0-39 at n = 12
with 20 terms, the largest ratio of ||g(x + s)|| to its bound is 0.9997 on
corrector steps and 0.10 on the others; a corrector bound with 0.9
lambda_hat for lambda_hat fails on seed 38 (FAR2-RK).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from far2.config import RATIONAL, SolverConfig
from far2.driver import StepKind, ar2_solve, far2_solve
from far2.problems import ObjectiveProblem

RUNS = {
    "AR2": lambda p: ar2_solve(p, SolverConfig()),
    "FAR2-PK": lambda p: far2_solve(p, SolverConfig(j_max=4)),
    "FAR2-RK": lambda p: far2_solve(p, SolverConfig(j_max=4,
                                                    space_kind=RATIONAL)),
}


def _cosines(rng, n: int, m: int):
    """A sum of m cosines of x in R^n plus a quadratic: the problem, its
    Hessian's Lipschitz bound L and the scale of its gradient's terms."""
    a = rng.uniform(-1.0, 1.0, m)
    B = rng.standard_normal((m, n))
    c = rng.uniform(0.0, 2.0 * np.pi, m)
    mu = float(rng.uniform(0.1, 1.0))
    rows = np.linalg.norm(B, axis=1)

    def ev(x, order):
        t = B @ x + c
        f = float(a @ np.cos(t)) + 0.5 * mu * float(x @ x)
        if order == 0:
            return f, None, None
        H = -(B.T * (a * np.cos(t))) @ B
        H = 0.5 * (H + H.T)  # exactly symmetric
        H.flat[:: n + 1] += mu
        return f, mu * x - B.T @ (a * np.sin(t)), H

    x0 = rng.standard_normal(n)
    scale = float(np.abs(a) @ rows) + mu * float(np.linalg.norm(x0))
    return (ObjectiveProblem("COSINES", n, x0, ev),
            float(np.abs(a) @ rows ** 3), scale)


def _check_bounds(report, L: float, scale: float, theta1: float) -> set:
    """Assert both bounds on every accepted step; the step kinds checked."""
    assert report.converged and report.violations == []
    trace, kinds = report.trace, set()
    for i, rec in enumerate(trace):
        if not rec.accepted:
            continue
        g_next = (trace[i + 1].gnorm if i + 1 < len(trace)
                  else report.gnorm_final)
        s = rec.step_norm
        if rec.step_kind == StepKind.REG_NEWTON.value:
            bound = rec.lambda_hat * s + 0.5 * L * s * s
        else:
            bound = (0.5 * theta1 + rec.sigma + 0.5 * L) * s * s
        # rounding in g(x + s), about eps times its terms
        assert g_next <= bound * (1.0 + 1e-8) + 1e-12 * scale, (i, rec)
        kinds.add(rec.step_kind)
    return kinds


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       m=st.integers(1, 20), solver=st.sampled_from(sorted(RUNS)))
def test_next_gradient_within_taylor_bounds(seed, n, m, solver):
    problem, L, scale = _cosines(np.random.default_rng(seed), n, m)
    _check_bounds(RUNS[solver](problem), L, scale, SolverConfig().theta1)


def test_bounds_on_forty_seeds_reach_every_step_kind():
    kinds = set()
    for seed in range(40):
        for run in RUNS.values():
            problem, L, scale = _cosines(np.random.default_rng(seed), 12, 20)
            kinds |= _check_bounds(run(problem), L, scale,
                                   SolverConfig().theta1)
    assert kinds == {"subspace", "newton", "secant"}
