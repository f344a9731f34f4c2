"""Second-order optimality support.

Holds the smallest-eigenvalue routine used for the curvature tests and the
hard case, the Gershgorin interval estimate, and the extended
configuration with the curvature constant theta2 and the Hessian tolerance
eps_H that puts the nonlinear loop (driver.far2so_solve) in second-order
mode. min_eig reads H's entries only through the iterate's
secular.ShiftedSystem, the one reader of a Hessian's entries, which hands
gershgorin_interval a sparse H or its own dense array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import secular
from .config import SolverConfig
from .errors import EigenSolveError, NonFiniteHessianError

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
    """Gershgorin bounds (lower, upper) on the spectrum of symmetric H, a
    sparse or a dense array (ShiftedSystem.interval gives it one)."""
    d = H.diagonal()
    radii = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - radii)), float(np.max(d + radii))


def _edge_anchor(system, shift: float, lo: float, hi: float) -> float:
    """A point below the spectrum of H + shift I within 64 eps of its
    scale from the leftmost eigenvalue, by bisection on the positive
    definiteness of H + (shift - mu) I between lo (below the spectrum) and
    hi (above its left end). For a bordered H, where each test costs
    O(n k): a hub row widens the Gershgorin interval to its row sum, and an
    anchor as far below as that interval is wide cannot separate a
    clustered left end."""
    width = 64.0 * float(np.finfo(float).eps) * max(1.0, abs(lo), abs(hi))
    while hi - lo > width:
        mid = lo + 0.5 * (hi - lo)
        if secular.ShiftedFactorization(system, shift - mid).positive_definite:
            lo = mid
        else:
            hi = mid
    return lo


def min_eig(system, shift: float = 0.0,
            rank_one: tuple[float, np.ndarray] | None = None):
    """Smallest eigenvalue of H + shift I (+ c u u^T) and a unit
    eigenvector, as (lambda, v).

    `system` is H's secular.ShiftedSystem; H must be
    exactly symmetric (H == H.T bit for bit, as every oracle returns it).
    rank_one = (c, u) with c >= 0 adds c u u^T. Up to DENSE_EIG_CUTOFF the
    matrix is formed densely and one call of the dense symmetric
    eigensolver (dsyevr) returns its leftmost pair; the eigenvalue is
    found by bisection whether or not the vector is asked for, so it is
    eigvalsh's bit for bit. Above that, a shift-and-invert Lanczos
    iteration anchored below H's Gershgorin interval (system.interval), or
    for a bordered H just below its spectrum (_edge_anchor), inverts the
    anchored matrix by Sherman-Morrison over one
    ShiftedFactorization of H (not counted as a factorization of the run,
    and so not kept on the system), from a fixed start vector,
    so that repeated calls agree bit for bit. The pair of H itself (no
    shift, no rank-one term) depends on H alone: its readers take it from
    system.leftmost, which makes this call once per iterate.
    Raises EigenSolveError if either eigensolver fails; an error of H's
    own storage (NonFiniteHessianError) keeps its type.
    """
    H = system.H
    n = H.shape[0]
    c, u = rank_one if rank_one is not None else (0.0, np.zeros(n))
    try:
        if n <= DENSE_EIG_CUTOFF:
            A = system.dense
            if shift:
                # equals H + shift * eye(n) bit for bit: off the diagonal -0.0 + 0.0
                A = A + shift * 0.0
                A.flat[:: n + 1] += shift
            if rank_one is not None:
                A = A + c * np.outer(u, u)
            w, v = sla.eigh(A, subset_by_index=[0, 0])
            return float(w[0]), v[:, 0]

        lo, hi = system.interval
        lo, hi = lo + shift, hi + shift + c * float(u @ u)
        anchor = lo - 1.0e-3 * max(1.0, abs(lo), abs(hi))
        if system.border is not None:
            anchor = _edge_anchor(system, shift, anchor, hi)
        # K = H + (shift - anchor) I is positive definite, so
        # 1 + c u^T K^{-1} u >= 1
        fac = secular.ShiftedFactorization(system, shift - anchor)
        w = fac.solve(u)
        scale = c / (1.0 + c * float(u @ w))

        def inv_matvec(x):
            y = fac.solve(np.ravel(x))
            return y - (scale * float(u @ y)) * w

        opinv = spla.LinearOperator((n, n), matvec=inv_matvec, dtype=float)
        # in shift-invert mode eigsh reads only the shape and dtype of A;
        # a seeded start vector makes reruns bit-identical, where ARPACK's
        # own random start does not
        v0 = np.random.default_rng(0).standard_normal(n)
        vals, vecs = spla.eigsh(opinv, k=1, sigma=anchor, which="LM",
                                OPinv=opinv, v0=v0, maxiter=10000)
    except NonFiniteHessianError:
        raise
    except Exception as exc:  # LinAlgError, ArpackNoConvergence, a failed solve
        raise EigenSolveError(f"smallest-eigenvalue iteration failed: {exc}") from exc
    v = vecs[:, 0]
    return float(vals[0]), v / np.linalg.norm(v)
