"""Per-solve correctness checks that do not rely on the run report alone.

Each check returns a list of failure messages (empty when the solve is
correct). The oracle is called afresh at the final point; the smallest
Hessian eigenvalue comes from numpy/scipy, not from `far2.min_eig`; on
`classify` the loss and gradient come from this module's own formulas; on
the convex problems the final value is compared with a minimum computed
apart from the program.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import expit

# Slack for comparing two evaluations of one value in floating point.
ROUND_RTOL = 1.0e-9


def logistic_loss(A, b, x):
    """(1/N) sum log(1 + exp(-b a^T x)) + ||x||^2 / (2N) and its gradient."""
    N = A.shape[0]
    t = b * (A @ x)
    f = float(np.mean(np.logaddexp(0.0, -t)) + 0.5 * float(x @ x) / N)
    g = -(A.T @ (b * expit(-t))) / N + x / N
    return f, g


def logistic_hessian(A, b, x):
    N = A.shape[0]
    p = expit(b * (A @ x))
    return (A.T * (p * (1.0 - p))) @ A / N + np.eye(A.shape[1]) / N


def sigmoid_loss(A, b01, x):
    """(1/N) sum (b - sigma(a^T x))^2 and its gradient."""
    N = A.shape[0]
    p = expit(A @ x)
    r = p - b01
    f = float(r @ r) / N
    g = 2.0 * (A.T @ (r * p * (1.0 - p))) / N
    return f, g


def logistic_reference(A, b):
    """Minimum of the logistic loss from scipy's trust-region Newton method.

    Returns (f_ref, ||g(x_ref)||). The loss is 1/N-strongly convex.
    """
    from scipy.optimize import minimize

    def fun(x):
        return logistic_loss(A, b, x)

    res = minimize(fun, np.zeros(A.shape[1]), jac=True,
                   hess=lambda x: logistic_hessian(A, b, x),
                   method="trust-exact", options={"gtol": 1.0e-12})
    f_ref, g_ref = logistic_loss(A, b, res.x)
    return f_ref, float(np.linalg.norm(g_ref))


def _tridiagonal(H):
    """(diagonal, off-diagonal) of a sparse symmetric H of bandwidth <= 1."""
    coo = H.tocoo()
    if np.any(np.abs(coo.row - coo.col) > 1):
        return None
    return H.diagonal(0), H.diagonal(-1)


def smallest_eigenvalue(H) -> float:
    """lambda_min of a symmetric Hessian, computed with numpy/scipy."""
    if not sp.issparse(H):
        return float(np.linalg.eigvalsh(np.asarray(H, dtype=float))[0])
    bands = _tridiagonal(H)
    if bands is None:
        raise ValueError("no independent eigenvalue route for this sparse Hessian")
    d, e = bands
    return float(sla.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])


def tridia_min_eig(n: int) -> float:
    """Strong-convexity modulus of TRIDIA, from its algebraic Hessian.

    f = (x_1 - 1)^2 + sum_{i>=2} i (2 x_i - x_{i-1})^2 has minimum 0 at
    x_i = 2^{1-i}; its Hessian is constant and tridiagonal.
    """
    i = np.arange(2.0, n + 1.0)
    d = np.zeros(n)
    d[0] = 2.0
    d[1:] += 8.0 * i
    d[:-1] += 2.0 * i
    return float(sla.eigvalsh_tridiagonal(d, -4.0 * i, select="i",
                                          select_range=(0, 0))[0])


def gap_failures(label, f, f_star, gnorm, mu, f_star_err=0.0):
    """f - f* must lie in [0, ||g||^2 / (2 mu)] up to rounding.

    `f_star_err` bounds how far a computed reference f* may sit above the
    true minimum.
    """
    slack = ROUND_RTOL * (1.0 + abs(f_star))
    gap = f - f_star
    if gap < -slack - f_star_err:
        return [f"{label}: f = {f!r} lies below the minimum {f_star!r}"]
    if gap > gnorm * gnorm / (2.0 * mu) + slack:
        return [f"{label}: f - f* = {gap!r} exceeds ||g||^2/(2 mu) = "
                f"{gnorm * gnorm / (2.0 * mu)!r}"]
    return []


def check_solve(inst, report, reference=None) -> list[str]:
    """Check one solve that ended with its expected status.

    `reference` is the logistic (f*, ||g(x*)||) from `logistic_reference`.
    """
    label = inst.label
    fails = []
    if report.violations:
        fails.append(f"{label}: {len(report.violations)} monitor violations, "
                     f"first: {report.violations[0]}")
    problem = inst.build()
    x = np.asarray(report.x_final, dtype=float)
    f0, g0, _ = problem.eval(problem.x0, 1)
    f, g, _ = problem.eval(x, 1)
    g0norm = float(np.linalg.norm(g0))
    gnorm = float(np.linalg.norm(g))
    eps_rel = inst.config().eps_rel
    if abs(f - report.f_final) > ROUND_RTOL * (1.0 + abs(f)):
        fails.append(f"{label}: f(x_final) = {f!r} but the report says "
                     f"{report.f_final!r}")
    if gnorm > eps_rel * g0norm * (1.0 + ROUND_RTOL):
        fails.append(f"{label}: ||g|| = {gnorm!r} > eps_rel * ||g0|| = "
                     f"{eps_rel * g0norm!r}")
    if not f <= f0:
        fails.append(f"{label}: f(x_final) = {f!r} > f(x0) = {f0!r}")

    if inst.solver == "FAR2-SO":
        eps_H = inst.config().eps_H
        lam = smallest_eigenvalue(problem.eval(x, 2)[2])
        if lam < -eps_H:
            fails.append(f"{label}: lambda_min(H) = {lam!r} < -eps_H")

    if inst.kind in ("logistic", "sigmoid"):
        A, b = inst.data.A, inst.data.b
        loss = logistic_loss if inst.kind == "logistic" else sigmoid_loss
        f_own, g_own = loss(A, b, x)
        _, g0_own = loss(A, b, np.zeros_like(x))
        gnorm_own = float(np.linalg.norm(g_own))
        bound = eps_rel * float(np.linalg.norm(g0_own))
        if abs(f_own - report.f_final) > ROUND_RTOL * (1.0 + abs(f_own)):
            fails.append(f"{label}: own loss {f_own!r} vs reported "
                         f"{report.f_final!r}")
        if gnorm_own > bound * (1.0 + ROUND_RTOL):
            fails.append(f"{label}: own ||g|| = {gnorm_own!r} > {bound!r}")
        if inst.kind == "logistic":
            f_ref, gref_norm = reference
            mu = 1.0 / A.shape[0]
            fails += gap_failures(label, f_own, f_ref, gnorm_own, mu,
                                  f_star_err=gref_norm ** 2 / (2.0 * mu))
    elif inst.name == "QUAD":
        # f = 0.5 sum i x_i^2: minimum 0 at the origin, modulus 1
        fails += gap_failures(label, f, 0.0, gnorm, 1.0)
    elif inst.name == "TRIDIA":
        fails += gap_failures(label, f, 0.0, gnorm, tridia_min_eig(inst.n))
    return fails
