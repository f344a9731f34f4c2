"""Polynomial and rational Krylov bases with a freeze/augment life cycle.

A basis is built once (seeded by the gradient), expanded one direction at a
time with full reorthogonalization, then reused across nonlinear iterations:
each reuse augments the stored columns with the current gradient, and the
solver projects the problem onto the augmented space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import POLYNOMIAL, RATIONAL
from .errors import ShiftFailureError, SingularShiftError
from .secular import ShiftedFactorization, ShiftedSystem

BREAKDOWN_RTOL = 1.0e-12
_GRID_POINTS = 200


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

    Owned by a single solver run; expansions mutate it in place, and the
    caller, which chose the space's kind, picks the expansion that fits it
    (poly_expand or rational_expand) and stops once `invariant` is set.
    `seed` holds the raw generating vector for a rational basis that has
    not been expanded yet (the rational space does not contain the
    gradient itself). `shifts` holds the shift of each rational solve, the
    last one included when it ends in happy breakdown.
    """

    V: np.ndarray
    shifts: list[float] = field(default_factory=list)
    seed_norm: float = 0.0
    seed: np.ndarray | None = None
    invariant: bool = False

    @property
    def dim(self) -> int:
        return self.V.shape[1]

    @classmethod
    def fresh(cls, g, kind: str) -> "KrylovBasis":
        """The basis seeded by g: span{g} for a polynomial space, empty with
        g stored as the seed for a rational one."""
        if kind not in (POLYNOMIAL, RATIONAL):
            raise ValueError(f"unknown Krylov space kind {kind!r}")
        g = np.asarray(g, dtype=float)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            raise ValueError("cannot seed a Krylov space with a zero vector")
        if kind == POLYNOMIAL:
            return cls(V=(g / nrm).reshape(-1, 1), seed_norm=nrm)
        return cls(V=np.empty((g.size, 0)), seed_norm=nrm, seed=g.copy())


def _append(basis: KrylovBasis, w) -> None:
    """Append w, reorthogonalized against V and normalized, as a new column;
    on happy breakdown (w collapses below BREAKDOWN_RTOL of the seed norm)
    set `invariant` instead."""
    w, nrm = _reorthogonalize(basis.V, np.ravel(w))
    if nrm < BREAKDOWN_RTOL * basis.seed_norm:
        basis.invariant = True
    else:
        basis.V = np.hstack([basis.V, (w / nrm).reshape(-1, 1)])


def poly_expand(H, basis: KrylovBasis, hv=None) -> None:
    """Append the next Lanczos direction of a polynomial basis that is not
    yet invariant, fully reorthogonalized.

    On happy breakdown (the new direction collapses below the relative
    tolerance) the basis keeps its columns and `invariant` is set. Pass a
    precomputed hv = H @ V[:, -1] to reuse a product the caller already has.
    """
    _append(basis, hv if hv is not None else H @ basis.V[:, -1])


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
    m_hi = max(scale, 2.0 * m_lo)
    grid = np.linspace(m_lo, m_hi, _GRID_POINTS)
    mags = np.abs(np.asarray(prev_shifts))
    dist = np.ones_like(grid)
    for m in mags:
        dist *= np.abs(grid - m)
    return sign * float(grid[int(np.argmax(dist))])


def rational_expand(system: ShiftedSystem, basis: KrylovBasis,
                    spectral_interval: tuple[float, float]) -> None:
    """Append the next rational direction (H + xi I)^{-1} v to a rational
    basis that is not yet invariant.

    `system` is H's secular.ShiftedSystem, analysed once for every
    expansion. The source vector is the stored seed for an empty basis and
    the last column afterwards. The shift xi is the greedy choice on
    `spectral_interval` against the basis's earlier shifts (_next_shift);
    it is appended to `basis.shifts`. A singular shift is perturbed by
    1e-8*(1+|xi|) and retried once before raising ShiftFailureError. On
    happy breakdown `invariant` is set, as in poly_expand.
    """
    source = basis.seed if basis.dim == 0 else basis.V[:, -1]
    xi = _next_shift(basis.shifts, spectral_interval)
    for attempt in range(2):
        try:
            x = ShiftedFactorization(system, xi).solve(source)
            break
        except SingularShiftError:
            if attempt == 1:
                raise ShiftFailureError(f"shift {xi!r} remained singular")
            xi = xi + 1.0e-8 * (1.0 + abs(xi))
    basis.shifts.append(xi)
    _append(basis, x)


def orth_augment(basis: KrylovBasis, g) -> np.ndarray:
    """W = orth([V, g]), whose range contains g; V itself (which callers
    must not write into) when V's range already does."""
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("gradient must be nonzero (termination precedes)")
    V = basis.V
    w, nrm = _reorthogonalize(V, g)
    if nrm <= 1.0e-12 * gnorm:
        return V
    return np.hstack([V, (w / nrm).reshape(-1, 1)])


def orthonormality_defect(V: np.ndarray) -> float:
    """max |V^T V - I|, the stored-basis orthonormality residual."""
    d = V.shape[1]
    if d == 0:
        return 0.0
    return float(np.max(np.abs(V.T @ V - np.eye(d))))
