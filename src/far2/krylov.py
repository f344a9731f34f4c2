"""Polynomial and rational Krylov bases with a freeze/augment life cycle.

A basis is built once (seeded by the gradient), expanded one direction at a
time with full reorthogonalization, then reused across nonlinear iterations:
each reuse augments the stored columns with the current gradient and
projects the problem onto the augmented space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ShiftFailureError, SingularShiftError
from .secular import analyse_hessian, factorize_shifted

BREAKDOWN_RTOL = 1.0e-12
_GRID_POINTS = 200


class SpaceKind(Enum):
    POLYNOMIAL = "polynomial"
    RATIONAL = "rational"


def _reorthogonalize(V: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Two classical Gram-Schmidt passes of w against the columns of V."""
    w = np.array(w, dtype=float)
    for _ in range(2):
        if V.shape[1]:
            w -= V @ (V.T @ w)
    return w, float(np.linalg.norm(w))


@dataclass
class KrylovBasis:
    """Orthonormal basis of the current approximation space.

    Owned by a single solver run; expansions mutate it in place. `seed`
    holds the raw generating vector for a rational basis that has not been
    expanded yet (the rational space does not contain the gradient itself).
    """

    V: np.ndarray
    kind: SpaceKind
    j_max: int = 50
    shifts: list[float] = field(default_factory=list)
    generator_iteration: int = 0
    seed_norm: float = 0.0
    seed: np.ndarray | None = None
    invariant: bool = False
    n_solves: int = 0

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    @classmethod
    def fresh_polynomial(cls, g, j_max: int = 50, iteration: int = 0) -> "KrylovBasis":
        g = np.asarray(g, dtype=float)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            raise ValueError("cannot seed a Krylov space with a zero vector")
        return cls(V=(g / nrm).reshape(-1, 1), kind=SpaceKind.POLYNOMIAL,
                   j_max=j_max, seed_norm=nrm, generator_iteration=iteration)

    @classmethod
    def fresh_rational(cls, g, j_max: int = 50, iteration: int = 0) -> "KrylovBasis":
        g = np.asarray(g, dtype=float)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            raise ValueError("cannot seed a Krylov space with a zero vector")
        return cls(V=np.empty((g.size, 0)), kind=SpaceKind.RATIONAL,
                   j_max=j_max, seed_norm=nrm, seed=g.copy(),
                   generator_iteration=iteration)


def poly_expand(H, basis: KrylovBasis, hv=None) -> KrylovBasis:
    """Append the next Lanczos direction, fully reorthogonalized.

    On happy breakdown (the new direction collapses below the relative
    tolerance) the basis is returned unchanged with `invariant` set. Pass a
    precomputed hv = H @ V[:, -1] to reuse a product the caller already has.
    """
    if basis.kind is not SpaceKind.POLYNOMIAL:
        raise ValueError("poly_expand requires a polynomial basis")
    if basis.invariant:
        return basis
    if basis.dim >= basis.j_max:
        raise CapacityError(f"basis already at j_max = {basis.j_max}")
    w = hv if hv is not None else H @ basis.V[:, -1]
    w = np.asarray(w, dtype=float).ravel()
    w, nrm = _reorthogonalize(basis.V, w)
    if nrm < BREAKDOWN_RTOL * basis.seed_norm:
        basis.invariant = True
        return basis
    basis.V = np.hstack([basis.V, (w / nrm).reshape(-1, 1)])
    return basis


def _next_shift(prev_shifts: list[float], interval: tuple[float, float]) -> float:
    """Greedy shift on the estimated spectral interval.

    The sign follows the dominant side of the interval so that H + xi*I
    stays nonsingular; magnitudes fill the admissible band by maximizing the
    distance product to the previous shifts (inverse of the nodal function)
    over a fixed discretization. The first shift is the square-root seed of
    the interval scale.
    """
    a, b = float(interval[0]), float(interval[1])
    scale = max(abs(a), abs(b), 1.0e-8)
    sign = 1.0 if b >= -a else -1.0
    if not prev_shifts:
        return sign * np.sqrt(scale)
    if sign > 0:
        m_lo = max(1.0e-6 * scale, -a * (1.0 + 1.0e-6) if a < 0.0 else 0.0)
    else:
        m_lo = max(1.0e-6 * scale, b * (1.0 + 1.0e-6) if b > 0.0 else 0.0)
    m_lo = max(m_lo, 1.0e-6 * scale)
    m_hi = max(scale, 2.0 * m_lo)
    grid = np.linspace(m_lo, m_hi, _GRID_POINTS)
    mags = np.abs(np.asarray(prev_shifts))
    dist = np.ones_like(grid)
    for m in mags:
        dist *= np.abs(grid - m)
    return sign * float(grid[int(np.argmax(dist))])


def rational_expand(H, basis: KrylovBasis, spectral_interval: tuple[float, float],
                    shift: float | None = None) -> KrylovBasis:
    """Append the next rational direction (H + xi I)^{-1} v.

    The source vector is the stored seed for an empty basis and the last
    column afterwards. A singular shift is perturbed by 1e-8*(1+|xi|) and
    retried once before raising ShiftFailureError. H may be the
    secular.ShiftedSystem of the matrix, so that a caller expanding one
    basis many times analyses H once.
    """
    if basis.kind is not SpaceKind.RATIONAL:
        raise ValueError("rational_expand requires a rational basis")
    if basis.invariant:
        return basis
    if basis.dim >= basis.j_max:
        raise CapacityError(f"basis already at j_max = {basis.j_max}")
    source = basis.seed if basis.dim == 0 else basis.V[:, -1]
    xi = float(shift) if shift is not None else _next_shift(basis.shifts,
                                                            spectral_interval)
    system = analyse_hessian(H)
    fac = None
    for attempt in range(2):
        try:
            fac = factorize_shifted(system, xi)
            break
        except SingularShiftError:
            if attempt == 1:
                raise ShiftFailureError(f"shift {xi!r} remained singular")
            xi = xi + 1.0e-8 * (1.0 + abs(xi))
    x = fac.solve(source)
    basis.n_solves += 1
    w, nrm = _reorthogonalize(basis.V, x)
    if nrm < BREAKDOWN_RTOL * basis.seed_norm:
        basis.invariant = True
        return basis
    basis.V = np.hstack([basis.V, (w / nrm).reshape(-1, 1)])
    basis.shifts.append(xi)
    return basis


@dataclass
class AugmentedBasis:
    """Orthonormal basis whose range contains the current gradient."""

    W: np.ndarray
    contains_gradient: bool = True

    @property
    def dim(self) -> int:
        return self.W.shape[1]


def orth_augment(basis: KrylovBasis, g) -> AugmentedBasis:
    """W = orth([V, g]); W = V when the gradient is already represented."""
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("gradient must be nonzero (termination precedes)")
    V = basis.V
    w, nrm = _reorthogonalize(V, g)
    if nrm <= 1.0e-12 * gnorm:
        return AugmentedBasis(W=V.copy(), contains_gradient=True)
    W = np.hstack([V, (w / nrm).reshape(-1, 1)])
    return AugmentedBasis(W=W, contains_gradient=True)


def project(H, g, W: AugmentedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Projected pair (W^T H W symmetrized, W^T g)."""
    M = W.W
    HM = H @ M
    if sp.issparse(HM):
        HM = HM.toarray()
    H_r = M.T @ HM
    H_r = 0.5 * (H_r + H_r.T)
    g_r = M.T @ np.asarray(g, dtype=float)
    return H_r, g_r


def orthonormality_defect(V: np.ndarray) -> float:
    """max |V^T V - I|, the stored-basis orthonormality residual."""
    d = V.shape[1]
    if d == 0:
        return 0.0
    return float(np.max(np.abs(V.T @ V - np.eye(d))))
