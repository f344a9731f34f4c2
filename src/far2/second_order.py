"""Second-order optimality support.

Holds the smallest-eigenvalue routine used for the curvature tests and the
hard case, the spectral interval estimate, the extended configuration with
the curvature constant theta2 and the Hessian tolerance eps_H, and the
solver variant that certifies an approximate second-order point by gating
the regularized Newton step on strict positive definiteness and by testing
the curvature of the regularized model at every accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import SolverConfig
from .errors import EigenSolveError

DENSE_EIG_CUTOFF = 2000


@dataclass
class SecondOrderConfig(SolverConfig):
    theta2: float = 0.1
    eps_H: float = 1.0e-4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.theta2 <= 0.0:
            raise ValueError("theta2 must be positive")
        if not (0.0 < self.eps_H < 1.0):
            raise ValueError("eps_H must lie in (0, 1)")


def gershgorin_interval(H) -> tuple[float, float]:
    """Gershgorin disc bounds (lower, upper) on the spectrum of symmetric H."""
    if sp.issparse(H):
        d = H.diagonal()
        radii = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(d)
    else:
        A = np.asarray(H, dtype=float)
        d = np.diag(A)
        radii = np.abs(A).sum(axis=1) - np.abs(d)
    return float(np.min(d - radii)), float(np.max(d + radii))


def min_eig(H, want_vector: bool = False, maxiter: int = 10000,
            rank_one: tuple[float, np.ndarray] | None = None):
    """Smallest eigenvalue of symmetric H, optionally with a unit eigenvector.

    Dense symmetric eigendecomposition up to DENSE_EIG_CUTOFF; above that a
    shift-and-invert Lanczos iteration anchored below the Gershgorin bound.
    rank_one = (c, u) with c >= 0 adds c u u^T to H; the iterative path
    applies it without forming it, inverting the shifted sum by
    Sherman-Morrison over a factorization of H alone. Raises
    EigenSolveError if the iterative path does not converge.
    """
    n = H.shape[0]
    if n <= DENSE_EIG_CUTOFF:
        A = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        if rank_one is not None:
            A = A + rank_one[0] * np.outer(rank_one[1], rank_one[1])
        A = 0.5 * (A + A.T)
        if want_vector:
            w, v = sla.eigh(A)
            return float(w[0]), v[:, 0].copy()
        return float(sla.eigvalsh(A)[0]), None

    lo, hi = gershgorin_interval(H)
    op, opinv = H, None
    if rank_one is not None:
        c, u = rank_one
        hi += c * float(u @ u)
    anchor = lo - 1.0e-3 * max(1.0, abs(lo), abs(hi))
    try:
        if rank_one is not None:
            op, opinv = _rank_one_operators(H, c, u, anchor)
        vals, vecs = spla.eigsh(op, k=1, sigma=anchor, which="LM",
                                OPinv=opinv, maxiter=maxiter)
    except Exception as exc:  # ArpackNoConvergence, factorization trouble
        raise EigenSolveError(f"smallest-eigenvalue iteration failed: {exc}") from exc
    v = vecs[:, 0]
    return float(vals[0]), v / np.linalg.norm(v)


def _rank_one_operators(H, c: float, u: np.ndarray, anchor: float):
    """H + c u u^T and the inverse of H + c u u^T - anchor I, as operators.

    The anchor lies below the spectrum of H, so K = H - anchor I is positive
    definite and 1 + c u^T K^{-1} u >= 1. K is factored once (sparse LU, or
    dense LU for a dense H).
    """
    n = H.shape[0]
    if sp.issparse(H):
        solve = spla.factorized(sp.csc_matrix(H - anchor * sp.identity(n)))
    else:
        K = np.array(H, dtype=float)
        K.flat[:: n + 1] -= anchor
        lu = sla.lu_factor(K, overwrite_a=True)
        solve = lambda b: sla.lu_solve(lu, b)  # noqa: E731
    w = solve(u)
    scale = c / (1.0 + c * float(u @ w))

    def matvec(x):
        x = np.ravel(x)
        return np.ravel(H @ x) + (c * float(u @ x)) * u

    def inv_matvec(x):
        y = solve(np.ravel(x))
        return y - (scale * float(u @ y)) * w

    shape = (n, n)
    return (spla.LinearOperator(shape, matvec=matvec, dtype=float),
            spla.LinearOperator(shape, matvec=inv_matvec, dtype=float))


def far2so_solve(problem, cfg: SecondOrderConfig):
    """Frozen-subspace run targeting a second-order point.

    Terminates only when both the gradient tolerance and
    lambda_min(H) >= -eps_H hold; every accepted step additionally passes the
    model-curvature test with constant theta2, and the regularized Newton
    corrector is accepted only when the shifted Hessian is strictly positive
    definite (verified from the factorization inertia).
    """
    if not isinstance(cfg, SecondOrderConfig):
        raise TypeError("far2so_solve requires a SecondOrderConfig")
    # Imported here: driver depends on this module's eigenvalue routine.
    from .driver import _minimize

    return _minimize(problem, cfg, solver_label="FAR2-SO", frozen=True,
                     second_order=True)
