"""Secular-equation machinery for the cubic subproblem.

phi(lambda) = ||(H + lambda I)^{-1} g|| - lambda/sigma characterizes the
global minimizer of the cubic model: in the easy case the step is
-(H + lambda* I)^{-1} g at the unique positive root; in the hard case
(gradient orthogonal to the leftmost eigenspace) the step combines the
pseudoinverse solve with an eigenvector component whose weight restores
||s|| = lambda/sigma.

Full-space solves go through ShiftedFactorization, the one place that
factors H + lambda I, so the run can count them. It tests positive
definiteness by Cholesky in the storage H's structure allows (tridiagonal,
banded or dense), solves with that factor, and builds a pivoted indefinite
factorization only when asked to solve at a shift that is not positive
definite. A caller that shifts one H many times analyses its structure once
(analyse_hessian). Reduced (small, dense) solves use a spectral
decomposition, after which each residual evaluation costs O(m). The
full-space secant falls back to the same spectral treatment when its
bracket collapses onto the spectrum edge (the hard and near-hard cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import (_compute_lwork, dgbtrf, dgbtrs, dgttrf,
                                 dgttrs, dpbtrf, dpbtrs, dpotrf, dpotrs,
                                 dpttrf, dpttrs)

from .errors import ReducedSolveError, SecantFailureError, SingularShiftError
from .second_order import DENSE_EIG_CUTOFF, gershgorin_interval, min_eig

MAX_ROOT_STEPS = 200
# hard-case thresholds on g's relative weight in the leftmost eigenspace
REDUCED_HARD_RTOL = 1.0e-12  # reduced (projected) solves
FULL_HARD_RTOL = 1.0e-10     # the full-space secant's spectral fallback
# Largest half-bandwidth kept in band storage; a wider H is factored dense.
# Measured on a 2-core Intel Xeon with one BLAS thread, band Cholesky plus
# solve (pbtrf/pbtrs) against dense (potrf/potrs) at n = 100 is 5.5x faster
# at kd = 2, 2.0x at kd = 16, 1.2x at kd = 32 and 0.8x at kd = 64; at
# n = 500 and 2000 band storage wins by 8x and 50x even at kd = 64. The
# registry's block Hessians (WOODS, POWELLSG, BDARWHD) have kd = 2 or 3.
MAX_BAND_KD = 32

# through get_lapack_funcs, which tags the lwork query with its integer type
_sytrf, _sytrf_lwork, _sytrs = sla.get_lapack_funcs(
    ("sytrf", "sytrf_lwork", "sytrs"), dtype=np.float64)


class SecularCase(Enum):
    EASY = "easy"
    HARD = "hard"


@dataclass
class FactorizationCounter:
    """Counts full-space shifted factorizations for a single run."""

    count: int = 0

    def bump(self, k: int = 1) -> None:
        self.count += k


@dataclass
class SecularSolution:
    lam: float
    step: np.ndarray
    residual: float
    case: SecularCase
    alpha: float | None = None


@dataclass(frozen=True)
class ShiftedSystem:
    """H analysed once for factorizations at many shifts.

    `band` holds H's lower band in LAPACK storage, row k the k-th
    subdiagonal (two rows, the diagonal and the subdiagonal, when H is
    tridiagonal or diagonal), when H's half-bandwidth is at most
    MAX_BAND_KD; otherwise `dense` holds H as a float array (a sparse H
    densified once). Build it with analyse_hessian.
    """

    band: np.ndarray | None = None
    dense: np.ndarray | None = None


def _lower_band(H) -> np.ndarray | None:
    """H's lower band storage, or None if its half-bandwidth > MAX_BAND_KD.

    The half-bandwidth comes from a sparse H's pattern, or from one count
    of a dense H's nonzeros matched against those of its first diagonals.
    An H with n < 3 is left dense (scipy's gttrf wrapper needs n >= 3).
    """
    n = H.shape[0]
    if n < 3:
        return None
    if sp.issparse(H):
        coo = H.tocoo()
        kd = int(np.max(np.abs(coo.row - coo.col), initial=0))
        if kd > MAX_BAND_KD:
            return None
        diagonal = H.diagonal
    else:
        # the scan stays for the dense oracles: EG2's arrowhead H is
        # diagonal at its iterates, and scanning finds that band
        A = np.asarray(H)
        total = np.count_nonzero(A)
        found = 0
        for kd in range(min(MAX_BAND_KD, n - 1) + 1):
            found += np.count_nonzero(np.diagonal(A, kd))
            if kd:
                found += np.count_nonzero(np.diagonal(A, -kd))
            if found == total:
                break
        else:
            return None
        diagonal = partial(np.diagonal, A)
    ab = np.zeros((max(kd, 1) + 1, n))
    for k in range(kd + 1):
        ab[k, : n - k] = diagonal(-k)
    return ab


def analyse_hessian(H) -> ShiftedSystem:
    """The ShiftedSystem of H; a ShiftedSystem is returned unchanged."""
    if isinstance(H, ShiftedSystem):
        return H
    band = _lower_band(H)
    if band is not None:
        return ShiftedSystem(band=band)
    return ShiftedSystem(
        dense=H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float))


def _shifted_dense(A: np.ndarray, lam: float) -> np.ndarray:
    """A + lam*I as a new Fortran-ordered array, for LAPACK to overwrite."""
    B = A.copy(order="F")
    B.flat[:: B.shape[0] + 1] += lam
    return B


class ShiftedFactorization:
    """Cholesky factorization of B = H + lambda*I, with solve().

    H is a matrix or the ShiftedSystem of one; callers that factor one H at
    many shifts analyse it once with analyse_hessian. B is factored by
    Cholesky in H's storage: pttrf for tridiagonal, pbtrf for banded and
    potrf for dense H. `positive_definite` is that factorization's success,
    and solve() uses its factor (pttrs, pbtrs, potrs). If B is not positive
    definite, the first solve() builds a pivoted indefinite factorization
    (gttrf, gbtrf or sytrf), raising SingularShiftError on an exact zero
    pivot. Every construction is one counted factorization.
    """

    def __init__(self, H, lam: float, counter: FactorizationCounter | None = None):
        if not np.isfinite(lam):
            raise ValueError("shift must be finite")
        system = analyse_hessian(H)
        self._system = system
        self._lam = lam
        ab = system.band
        if ab is None:
            c, info = dpotrf(_shifted_dense(system.dense, lam), lower=1,
                             clean=0, overwrite_a=1)
            solve = partial(dpotrs, c, lower=1)
        elif ab.shape[0] == 2:
            d, e, info = dpttrf(ab[0] + lam, ab[1, :-1])
            solve = partial(dpttrs, d, e)
        else:
            B = ab.copy(order="F")
            B[0] += lam
            c, info = dpbtrf(B, lower=1, overwrite_ab=1)
            solve = partial(dpbtrs, c, lower=1)
        if info < 0:
            raise ValueError(f"Cholesky: illegal argument {-info}")
        self.positive_definite = info == 0
        # a failed Cholesky leaves no usable factor: solve() builds one
        self._solve = solve if self.positive_definite else None
        if counter is not None:
            counter.bump()

    def _indefinite_solver(self):
        """Solver from a pivoted factorization of B, for a non-PD shift."""
        ab, lam = self._system.band, self._lam
        if ab is None:
            B = _shifted_dense(self._system.dense, lam)
            lwork = _compute_lwork(_sytrf_lwork, B.shape[0], lower=1)
            ldu, ipiv, info = _sytrf(B, lower=1, lwork=lwork, overwrite_a=1)
            solve = partial(_sytrs, ldu, ipiv, lower=1)
        elif ab.shape[0] == 2:
            e = ab[1, :-1]
            *lu, info = dgttrf(e, ab[0] + lam, e)
            solve = partial(dgttrs, *lu)
        else:
            # general band storage: row 2 kd + i - j holds B[i, j]
            kd, n = ab.shape[0] - 1, ab.shape[1]
            G = np.zeros((3 * kd + 1, n), order="F")
            for k in range(kd + 1):
                G[2 * kd + k, : n - k] = ab[k, : n - k]
                G[2 * kd - k, k:] = ab[k, : n - k]
            G[2 * kd] += lam
            lu, ipiv, info = dgbtrf(G, kd, kd, overwrite_ab=1)
            solve = partial(dgbtrs, lu, kd, kd, ipiv=ipiv)
        if info < 0:
            raise ValueError(f"indefinite factorization: illegal argument {-info}")
        if info > 0:
            raise SingularShiftError(
                f"H + {lam!r} I is singular (exact zero pivot)")
        return solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (H + lambda I) x = rhs through the stored factors."""
        if self._solve is None:
            self._solve = self._indefinite_solver()
        x, info = self._solve(np.asarray(rhs, dtype=float))
        if info != 0:
            raise SingularShiftError("back-substitution failed on stored factors")
        return x


def phi_R(lam: float, g, H, sigma: float,
          counter: FactorizationCounter | None = None) -> float:
    """Residual ||(H + lambda I)^{-1} g|| - lambda/sigma (one factorization)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    fac = ShiftedFactorization(H, lam, counter)
    return float(np.linalg.norm(fac.solve(np.asarray(g, dtype=float)))) - lam / sigma


def _spectrum_root(eigs: np.ndarray, c: np.ndarray,
                   sigma: float) -> tuple[float, float, bool]:
    """Safeguarded Newton for the spectral form of phi on (lam_S, inf).

    Returns (lambda, |phi(lambda)|, converged). The residual is driven to
    ~1e-13 relative to the step norm so lambda = sigma*||s|| holds far
    inside the 1e-8 contract. converged = False means the bracket collapsed
    to floating-point resolution against the spectrum edge (a near-hard
    instance) and the caller must assemble a boundary solution.
    """
    lam_S = max(0.0, -float(eigs[0]))

    def phi_terms(lam):
        with np.errstate(divide="ignore", over="ignore"):
            den = eigs + lam
            q = c / den
            r2 = float(q @ q)
            r = math.sqrt(r2) if np.isfinite(r2) else math.inf
            if not np.isfinite(r):
                return math.inf, -math.inf, math.inf
            dr = -float((q * q / den).sum()) / r if r > 0.0 else 0.0
            return r - lam / sigma, dr - 1.0 / sigma, r

    lo = lam_S
    hi = lam_S + 1000.0
    steps = 0
    val_hi, _, _ = phi_terms(hi)
    while val_hi > 0.0:
        lo = hi
        hi = 2.0 * hi + 1.0
        steps += 1
        if steps > MAX_ROOT_STEPS:
            raise ReducedSolveError("could not bracket the secular root")
        val_hi, _, _ = phi_terms(hi)

    eps = float(np.finfo(float).eps)
    lam = lo + 0.5 * (hi - lo)
    for _ in range(MAX_ROOT_STEPS):
        val, dval, r = phi_terms(lam)
        scale = max(r, lam / sigma)
        if np.isfinite(val) and abs(val) <= 1.0e-13 * max(scale, 1.0e-300):
            return lam, abs(val), True
        if val > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 8.0 * eps * max(hi, 1.0e-300):
            val_b, _, _ = phi_terms(hi)
            return hi, abs(val_b), False
        nxt = lam - val / dval if dval != 0.0 and np.isfinite(val) else math.nan
        if not np.isfinite(nxt) or not (lo < nxt < hi):
            nxt = lo + 0.5 * (hi - lo)
        lam = nxt
    raise ReducedSolveError("secular root iteration exhausted its budget")


def _solve_from_spectrum(eigs: np.ndarray, Q: np.ndarray, c: np.ndarray,
                         sigma: float, theta_eig: float) -> SecularSolution:
    """Easy/hard-case resolution given a spectral decomposition."""
    m = c.size
    gnorm = float(np.linalg.norm(c))
    lam1 = float(eigs[0])

    if gnorm == 0.0:
        if lam1 >= 0.0:
            return SecularSolution(0.0, np.zeros(m), 0.0, SecularCase.EASY)
        lam = -lam1
        alpha = lam / sigma
        return SecularSolution(lam, alpha * Q[:, 0], 0.0, SecularCase.HARD,
                               alpha=alpha)

    cluster = eigs <= lam1 + 1.0e-10 * max(1.0, abs(lam1))
    c_eigspace = float(np.linalg.norm(c[cluster]))

    def boundary_solution(lam):
        # Near-hard resolution at the spectrum edge: pseudoinverse part on
        # the complement of the leftmost eigenspace plus the eigenvector
        # weight that restores ||s|| = lam/sigma.
        comp = ~cluster
        coeff = np.zeros(m)
        coeff[comp] = c[comp] / (eigs[comp] + lam)
        p = -(Q @ coeff)
        pnorm = float(np.linalg.norm(p))
        radius = lam / sigma
        if pnorm > radius:
            return None
        alpha = math.sqrt(max(radius * radius - pnorm * pnorm, 0.0))
        step = p + alpha * Q[:, 0]
        resid = abs(float(np.linalg.norm(step)) - radius)
        return SecularSolution(lam, step, resid, SecularCase.HARD, alpha=alpha)

    if lam1 < 0.0 and c_eigspace <= theta_eig * gnorm:
        sol = boundary_solution(-lam1)
        if sol is not None:
            return sol
        # Limit residual positive: a root exists above -lambda_1 after all.

    lam, resid, converged = _spectrum_root(eigs, c, sigma)
    if not converged and lam1 < 0.0:
        sol = boundary_solution(lam)
        if sol is not None:
            return sol
    step = -(Q @ (c / (eigs + lam)))
    return SecularSolution(lam, step, resid, SecularCase.EASY)


def solve_secular_reduced(g_r, H_r, sigma: float) -> SecularSolution:
    """Solve the projected secular equation on a small dense matrix.

    Easy case: the positive root and step -(H_r + lam I)^{-1} g_r. Hard case
    (leftmost eigenvalue negative, gradient orthogonal to its eigenspace to
    relative tolerance REDUCED_HARD_RTOL, and the limit residual negative):
    lam = -lambda_1 with the positive-root eigenvector weight restoring
    ||s|| = lam/sigma. No full-space factorizations.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g_r = np.asarray(g_r, dtype=float)
    H_r = np.asarray(H_r, dtype=float)
    if not (np.all(np.isfinite(g_r)) and np.all(np.isfinite(H_r))):
        raise ValueError("non-finite entries in reduced problem")
    H_r = 0.5 * (H_r + H_r.T)
    eigs, Q = sla.eigh(H_r)
    c = Q.T @ g_r
    return _solve_from_spectrum(eigs, Q, c, sigma, REDUCED_HARD_RTOL)


class _NeedSpectrum(Exception):
    """Internal: the shifted iteration cannot finish; use eigenvalues."""


def _spectral_fallback(g, H, system, sigma, counter) -> SecularSolution:
    """Resolve the subproblem once the bracket hugs the spectrum edge.

    Up to DENSE_EIG_CUTOFF variables this is an exact spectral solve (hard,
    near-hard and pessimistic-Gershgorin cases alike), counted as the final
    solve. Above the cutoff a single-vector deflated solve handles the hard
    case, factoring through `system`, the secant's ShiftedSystem of H;
    anything else at that scale is reported as a failure.
    """
    n = g.size
    if n <= DENSE_EIG_CUTOFF:
        A = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        A = A + A.T
        A *= 0.5
        # A is exactly symmetric: its transpose is the Fortran-ordered copy
        # eigh would otherwise make, so eigh may overwrite it in place
        eigs, Q = sla.eigh(A.T, overwrite_a=True)
        c = Q.T @ g
        try:
            sol = _solve_from_spectrum(eigs, Q, c, sigma, FULL_HARD_RTOL)
        except ReducedSolveError as exc:
            raise SecantFailureError(f"spectral fallback failed: {exc}") from exc
        if counter is not None:
            counter.bump()
        return sol

    lam1, v1 = min_eig(H, want_vector=True)
    lam_S = max(0.0, -lam1)
    gnorm = float(np.linalg.norm(g))
    g1 = float(v1 @ g)
    g_perp = g - g1 * v1
    glo, ghi = gershgorin_interval(H)
    scale = max(1.0, abs(glo), abs(ghi))
    delta = max(1.0e-10 * max(scale, abs(lam1)), 1.0e-300)
    fac = ShiftedFactorization(system, lam_S + delta, counter)
    p = -fac.solve(g_perp)
    p -= float(v1 @ p) * v1
    pnorm = float(np.linalg.norm(p))
    radius = lam_S / sigma
    if (lam1 < 0.0 and abs(g1) <= FULL_HARD_RTOL * max(gnorm, 1.0e-300)
            and pnorm <= radius):
        alpha = math.sqrt(max(radius * radius - pnorm * pnorm, 0.0))
        step = p + alpha * v1
        resid = abs(float(np.linalg.norm(step)) - radius)
        return SecularSolution(lam_S, step, resid, SecularCase.HARD,
                               alpha=alpha)
    raise SecantFailureError(
        "secular bracket collapsed at the spectrum edge beyond the dense "
        "eigendecomposition cutoff")


def solve_secular_full_secant(g, H, sigma: float, theta1: float,
                              counter: FactorizationCounter | None = None,
                              warm_lambda: float | None = None) -> SecularSolution:
    """Secant iteration on phi for the full-space cubic subproblem.

    The iteration evaluates phi (one factorization per evaluation, secant
    updates on the equivalent reciprocal residual, bisection safeguards on
    the bracket) from the warm start or the Gershgorin-safeguarded
    lambda_0, and returns the step it solved for at the accepted
    multiplier: `counter` gains one per phi evaluation (plus one for the
    spectral fallback). The residual is driven to ~1e-10 of the step norm,
    which makes the returned step satisfy both the model decrease and the
    (theta1/2)||s||^2 stationarity bound. Hard and near-hard instances are
    detected through bracket collapse and resolved spectrally.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    system = analyse_hessian(H)

    if gnorm == 0.0:
        if ShiftedFactorization(system, 0.0, counter).positive_definite:
            return SecularSolution(0.0, np.zeros(g.size), 0.0,
                                   SecularCase.EASY)
        return _spectral_fallback(g, H, system, sigma, counter)

    eps = float(np.finfo(float).eps)

    def phi_eval(lam):
        # Returns (phi, psi, solution) when H + lam*I is positive definite,
        # else (None, None, None): a failed Cholesky marks lam as at or
        # below the spectrum edge, a lower-bracket signal in the
        # Moré-Sorensen sense. The secant iterates on the reciprocal form
        # psi = 1/||s|| - sigma/lam, which shares the root with phi and is
        # close to linear; brackets and the stopping test use phi itself.
        fac = ShiftedFactorization(system, lam, counter)
        if not fac.positive_definite:
            return None, None, None
        x = fac.solve(g)
        snorm = float(np.linalg.norm(x))
        phi = snorm - lam / sigma
        psi = 1.0 / snorm - sigma / lam if snorm > 0.0 and lam > 0.0 else -phi
        return phi, psi, x

    lo = None          # largest lambda known to sit at or below the root
    hi = None          # smallest lambda with a valid phi < 0
    valid = []         # (lam, psi) pairs usable for secant updates
    best = None        # (lam, phi, solution) with the smallest |phi| so far

    def classify(lam):
        nonlocal lo, hi, best
        phi, psi, x = phi_eval(lam)
        if phi is None or phi > 0.0:
            lo = lam if lo is None else max(lo, lam)
        else:
            hi = lam if hi is None else min(hi, lam)
        if phi is not None:
            valid.append((lam, psi))
            if best is None or abs(phi) < abs(best[1]):
                best = (lam, phi, x)

    try:
        if warm_lambda is not None and warm_lambda > 0.0:
            lam0 = warm_lambda
        else:
            lam0 = max(0.0, -gershgorin_interval(H)[0]) + sigma * math.sqrt(gnorm)
        classify(lam0)
        classify(lam0 + 1.0)
        smallest = lam0

        steps = 0
        while True:
            if best is not None:
                lam_c, p_c, _ = best
                snorm = p_c + lam_c / sigma
                tol = min(0.5 * theta1 / sigma, 1.0e-9) * max(snorm, 1.0e-300)
                if snorm > 0.0 and abs(p_c) <= tol:
                    break
            steps += 1
            if steps > MAX_ROOT_STEPS:
                raise SecantFailureError(
                    f"secant iteration exceeded {MAX_ROOT_STEPS} safeguarded steps")

            sec_cand = math.nan
            if len(valid) >= 2:
                (la, qa), (lb, qb) = valid[-2], valid[-1]
                if qb != qa and la != lb:
                    sec_cand = lb - qb * (lb - la) / (qb - qa)
            if hi is None:
                # All evaluations sit at or left of the root: extrapolate up.
                biggest = lo if lo is not None else smallest
                cand = sec_cand
                if not np.isfinite(cand) or cand <= biggest:
                    cand = max(2.0 * biggest, biggest + 1.0)
            elif lo is None:
                # Right of the root everywhere so far: extrapolate down.
                cand = sec_cand
                if not np.isfinite(cand) or not (0.0 < cand < smallest):
                    cand = 0.5 * smallest
                if cand <= 1.0e-300:
                    raise _NeedSpectrum
            else:
                if hi - lo <= 64.0 * eps * max(hi, 1.0e-300):
                    # Bracket exhausted in floating point without meeting the
                    # residual target: the root hugs the spectrum edge.
                    raise _NeedSpectrum
                cand = sec_cand
                if not np.isfinite(cand) or not (lo < cand < hi):
                    cand = lo + 0.5 * (hi - lo)
            smallest = min(smallest, cand)
            classify(cand)
    except _NeedSpectrum:
        return _spectral_fallback(g, H, system, sigma, counter)

    lam_acc, p_acc, x_acc = best
    return SecularSolution(lam_acc, -x_acc, abs(p_acc), SecularCase.EASY)
