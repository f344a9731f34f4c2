"""Secular-equation machinery for the cubic subproblem.

phi(lambda) = ||(H + lambda I)^{-1} g|| - lambda/sigma characterizes the
global minimizer of the cubic model: in the easy case the step is
-(H + lambda* I)^{-1} g at the unique positive root; in the hard case
(gradient orthogonal to the leftmost eigenspace) the step combines the
pseudoinverse solve with an eigenvector component whose weight restores
||s|| = lambda/sigma.

Full-space solves go through ShiftedFactorization, the one place that
factors H + lambda I, so the run can count them: tridiagonal H takes an
O(n) path whose positive-definiteness test is LAPACK pttrf, anything else a
symmetric-indefinite LDL^T. A caller that shifts one H many times analyses
its structure once (analyse_hessian). Reduced (small, dense) solves use a
spectral decomposition, after which each residual evaluation costs O(m).
The full-space secant falls back to the same spectral treatment when its
bracket collapses onto the spectrum edge (the hard and near-hard cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import _compute_lwork, dgttrf, dgttrs, dpttrf

from .errors import ReducedSolveError, SecantFailureError, SingularShiftError
from .second_order import DENSE_EIG_CUTOFF, gershgorin_interval, min_eig

# Pivot magnitudes below ZERO_PIVOT_RTOL * max|B_ii| count as zero.
ZERO_PIVOT_RTOL = 1.0e-14
MAX_ROOT_STEPS = 200
# _settle_pivots sweeps vectorised while more than SCALAR_PIVOT_TAIL pivots
# are left to redo, at most MAX_PIVOT_SWEEPS times, then goes pivot by pivot.
# Its result is exact for any values; they only set its speed. Measured on
# the 28,083 tridiagonal factorizations of one round of the registry-ar2
# (n = 100, 500) and large-n (n = 5000, 20000) benchmark workloads:
# starting from pttrf's pivots at most 6 sweeps leave 16 or fewer to redo;
# only 2 calls, both after a failed pttrf at n = 500, reach the cap (one
# would need over 400 sweeps). Caps of 4 to 64 and tails of 16 to 64 run
# equally fast; a cap of 1 or 2 is 4x slower on large-n and a tail of 0 is
# 1.7x slower on registry-ar2.
MAX_PIVOT_SWEEPS = 8
SCALAR_PIVOT_TAIL = 16

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


def _settle_pivots(d: np.ndarray, e2: np.ndarray, ztol: float,
                   guess: np.ndarray) -> np.ndarray:
    """Pivots of the recursion p_i = d_i - e2_{i-1} / p_{i-1}, from a guess.

    The recursion is the unpivoted LDL^T of a tridiagonal matrix; a pivot
    below ztol in magnitude continues as -ztol. Vectorised sweeps recompute
    every pivot whose predecessor moved in the previous sweep (all of them
    in the first), so a pivot left alone is the recursion's step from its
    predecessor. Once few pivots are left to redo, or after
    MAX_PIVOT_SWEEPS sweeps, a pass in index order redoes them, going on
    from each one until a recomputed pivot stops moving: a pivot
    recomputed after its predecessor is final. By induction from p_0 the
    result is the recursion's own, bit for bit, however poor the guess; a
    close guess leaves little to redo. Returns the pivots before the -ztol
    replacement.
    """
    n = d.size
    p = np.array(guess, dtype=float)
    p[0] = -ztol if abs(d[0]) < ztol else d[0]
    raw = d.copy()
    idx = np.arange(1, n)
    # a guessed pivot may be 0; the pivot after it is redone anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_PIVOT_SWEEPS):
            if idx.size <= SCALAR_PIVOT_TAIL:
                break
            r = d[idx] - e2[idx - 1] / p[idx - 1]
            new = np.where(np.abs(r) < ztol, -ztol, r)
            redo = idx[new != p[idx]] + 1
            raw[idx] = r
            p[idx] = new
            idx = redo[redo < n]
    todo = idx.tolist() + [n]
    k = 0
    i = todo[0]
    while i < n:
        r = d[i] - e2[i - 1] / p[i - 1]
        new = -ztol if abs(r) < ztol else r
        raw[i] = r
        moved = new != p[i]
        p[i] = new
        while todo[k] <= i:
            k += 1
        i = i + 1 if moved else todo[k]
    return raw


def _tridiag_inertia(d: np.ndarray, e: np.ndarray, ztol: float):
    """Sturm-sequence inertia of a symmetric tridiagonal matrix.

    Counts the signs of the unpivoted LDL^T pivots (Sylvester); a pivot
    below ztol in magnitude counts as zero. LAPACK pttrf is the
    positive-definiteness test: it runs the same recursion compiled, but
    rounds e^2/p as (e/p)*e and stops at the first nonpositive pivot. Its
    pivots are the guess that _settle_pivots corrects to the recursion's
    values, so the counts do not depend on how pttrf rounds; that takes a
    few vector sweeps whether pttrf succeeded or failed (an indefinite
    shift, the rare lower-bracket case), see MAX_PIVOT_SWEEPS.
    """
    guess = dpttrf(d, e)[0]
    raw = _settle_pivots(d, e * e, ztol, guess)
    zero = np.abs(raw) < ztol
    n_zero = int(np.count_nonzero(zero))
    n_pos = int(np.count_nonzero(raw[~zero] > 0.0))
    return n_pos, d.size - n_pos - n_zero, n_zero


def _block_inertia(ldu: np.ndarray, ipiv: np.ndarray,
                   ztol: float) -> tuple[int, int, int]:
    """Inertia of the block-diagonal D of a Bunch-Kaufman LDL^T (sytrf).

    A 2x2 block spans rows (i, i+1) with negative ipiv at both; scanning
    from the top, blocks start at every other index of each run of negative
    entries. Its eigenvalues are mid -+ hypot(half difference, off-diagonal);
    math.hypot is kept because numpy's hypot rounds differently in the last
    bit. Eigenvalues below ztol in magnitude count as zero.
    """
    n = ipiv.size
    diag = np.diagonal(ldu)
    neg = ipiv < 0
    rows = np.arange(n)
    run_start = np.maximum.accumulate(
        np.where(neg & ~np.r_[False, neg[:-1]], rows, 0))
    first = np.flatnonzero(neg & ((rows - run_start) % 2 == 0))
    a, c, b = diag[first], diag[first + 1], ldu[first + 1, first]
    mid = 0.5 * (a + c)
    rad = np.array([math.hypot(h, o) for h, o in
                    zip((0.5 * (a - c)).tolist(), b.tolist())], dtype=float)
    eigs = np.concatenate((diag[~neg], mid - rad, mid + rad))
    zero = np.abs(eigs) < ztol
    n_zero = int(np.count_nonzero(zero))
    n_pos = int(np.count_nonzero(eigs[~zero] > 0.0))
    return n_pos, n - n_pos - n_zero, n_zero


@dataclass(frozen=True)
class ShiftedSystem:
    """H analysed once for factorizations at many shifts.

    `bands` holds (diagonal, subdiagonal) when H is tridiagonal with n >= 3;
    otherwise `dense` holds H as a float array (a sparse H densified once).
    Build it with analyse_hessian.
    """

    bands: tuple[np.ndarray, np.ndarray] | None = None
    dense: np.ndarray | None = None


def analyse_hessian(H) -> ShiftedSystem:
    """The ShiftedSystem of H; a ShiftedSystem is returned unchanged."""
    if isinstance(H, ShiftedSystem):
        return H
    bands = _tridiag_bands(H)
    if bands is not None:
        return ShiftedSystem(bands=bands)
    return ShiftedSystem(
        dense=H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float))


class ShiftedFactorization:
    """Factor handle for B = H + lambda*I with solve() and inertia.

    H is a matrix or the ShiftedSystem of one; callers that factor one H at
    many shifts analyse it once with analyse_hessian. Tridiagonal H takes an
    O(n) path: LAPACK pttrf tests positive definiteness and seeds the
    Sturm-sequence inertia (see _tridiag_inertia), gttrf/gttrs solve.
    Anything else is factored densely by Bunch-Kaufman (sytrf/sytrs), whose
    block pivots give the inertia. Inertia is (positive, negative, zero)
    pivot counts; construction raises SingularShiftError on a zero pivot.
    Every construction is one counted factorization.
    """

    def __init__(self, H, lam: float, counter: FactorizationCounter | None = None):
        if not np.isfinite(lam):
            raise ValueError("shift must be finite")
        system = analyse_hessian(H)
        if system.bands is not None:
            d, e = system.bands
            self._init_tridiagonal(d + lam, e)
        else:
            self._init_dense(system.dense, lam)
        if counter is not None:
            counter.bump()
        if self._exact_singular or self.inertia[2] > 0:
            raise SingularShiftError(
                f"H + {lam!r} I is numerically singular (zero pivot)")

    def _init_dense(self, A: np.ndarray, lam: float) -> None:
        n = A.shape[0]
        # A + lam*I without an identity matrix. Off the diagonal that sum
        # adds lam*0.0, a signed zero that can flip a -0.0 entry; adding the
        # same zero keeps B bit-identical to it.
        B = A + lam * 0.0
        np.fill_diagonal(B, np.diagonal(A) + lam)
        lwork = _compute_lwork(_sytrf_lwork, n, lower=1)
        ldu, ipiv, info = _sytrf(B, lower=1, lwork=lwork)
        if info < 0:
            raise ValueError(f"sytrf: illegal argument {-info}")
        self._ldu = ldu
        self._ipiv = ipiv
        self._tri = None
        self._exact_singular = info > 0
        self.n = n
        maxdiag = max(float(np.max(np.abs(np.diagonal(B)))), 1.0e-300)
        self._ztol = ZERO_PIVOT_RTOL * maxdiag
        self.inertia = _block_inertia(ldu, ipiv, self._ztol)

    def _init_tridiagonal(self, d: np.ndarray, e: np.ndarray) -> None:
        self.n = d.size
        maxdiag = max(float(np.max(np.abs(d))), 1.0e-300)
        self._ztol = ZERO_PIVOT_RTOL * maxdiag
        self.inertia = _tridiag_inertia(d, e, self._ztol)
        dl_f, d_f, du_f, du2_f, ipiv, info = dgttrf(e, d, e)
        if info < 0:
            raise ValueError(f"gttrf: illegal argument {-info}")
        self._tri = (dl_f, d_f, du_f, du2_f, ipiv)
        self._exact_singular = info > 0
        self._ldu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (H + lambda I) x = rhs through the stored factors."""
        rhs = np.asarray(rhs, dtype=float)
        if self._tri is not None:
            x, info = dgttrs(*self._tri, rhs)
        else:
            x, info = _sytrs(self._ldu, self._ipiv, rhs, lower=1)
        if info != 0:
            raise SingularShiftError("back-substitution failed on stored factors")
        return x


def _tridiag_bands(H):
    """(diagonal, subdiagonal) if H is tridiagonal, else None."""
    if sp.issparse(H):
        n = H.shape[0]
        if n < 3:
            return None
        coo = H.tocoo()
        if np.any(np.abs(coo.row - coo.col) > 1):
            return None
        A = H.todia()
        d = A.diagonal(0).copy()
        e = np.zeros(n - 1)
        sub = A.diagonal(-1)
        e[: sub.size] = sub
        return d, e
    A = np.asarray(H)
    n = A.shape[0]
    if n < 3:
        return None
    # one-pass scan (no temporaries) relative to any factorization cost
    d = np.diag(A)
    lo = np.diag(A, -1)
    up = np.diag(A, 1)
    band_nnz = (np.count_nonzero(d) + np.count_nonzero(lo)
                + np.count_nonzero(up))
    if np.count_nonzero(A) != band_nnz:
        return None
    return d.astype(float).copy(), lo.astype(float).copy()


def phi_R(lam: float, g, H, sigma: float,
          counter: FactorizationCounter | None = None) -> float:
    """Residual ||(H + lambda I)^{-1} g|| - lambda/sigma (one factorization)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    fac = ShiftedFactorization(H, lam, counter)
    return float(np.linalg.norm(fac.solve(np.asarray(g, dtype=float)))) - lam / sigma


def _spectrum_root(eigs: np.ndarray, c: np.ndarray, sigma: float,
                   bracket_width: float = 1000.0) -> tuple[float, float, bool]:
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
    hi = lam_S + bracket_width
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
        p = -Q @ coeff
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
    step = -Q @ (c / (eigs + lam))
    return SecularSolution(lam, step, resid, SecularCase.EASY)


def solve_secular_reduced(g_r, H_r, sigma: float,
                          theta_eig: float = 1.0e-12) -> SecularSolution:
    """Solve the projected secular equation on a small dense matrix.

    Easy case: the positive root and step -(H_r + lam I)^{-1} g_r. Hard case
    (leftmost eigenvalue negative, gradient orthogonal to its eigenspace to
    relative tolerance theta_eig, and the limit residual negative):
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
    return _solve_from_spectrum(eigs, Q, c, sigma, theta_eig)


class _NeedSpectrum(Exception):
    """Internal: the shifted iteration cannot finish; use eigenvalues."""


def _spectral_fallback(g, H, system, sigma, counter, theta_eig,
                       scale) -> SecularSolution:
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
        A = 0.5 * (A + A.T)
        eigs, Q = sla.eigh(A)
        c = Q.T @ g
        try:
            sol = _solve_from_spectrum(eigs, Q, c, sigma, theta_eig)
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
    delta = max(1.0e-10 * max(scale, abs(lam1)), 1.0e-300)
    fac = ShiftedFactorization(system, lam_S + delta, counter)
    p = -fac.solve(g_perp)
    p -= float(v1 @ p) * v1
    pnorm = float(np.linalg.norm(p))
    radius = lam_S / sigma
    if lam1 < 0.0 and abs(g1) <= theta_eig * max(gnorm, 1.0e-300) and pnorm <= radius:
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
                              warm_lambda: float | None = None,
                              theta_eig: float = 1.0e-10,
                              max_steps: int = MAX_ROOT_STEPS) -> SecularSolution:
    """Secant iteration on phi for the full-space cubic subproblem.

    The iteration evaluates phi (one factorization per evaluation, secant
    updates on the equivalent reciprocal residual, bisection safeguards on
    the bracket) from the Gershgorin-safeguarded start lambda_0, then
    performs one final factorization at the accepted multiplier to form the
    step: `counter` gains one per phi evaluation plus the final solve (or
    the spectral fallback). The residual is driven to ~1e-10 of the step
    norm, which makes the returned step satisfy both the model decrease and
    the (theta1/2)||s||^2 stationarity bound. Hard and near-hard instances are
    detected through bracket collapse and resolved spectrally.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    glo, ghi = gershgorin_interval(H)
    floor = max(0.0, -glo)
    scale = max(1.0, abs(glo), abs(ghi))
    system = analyse_hessian(H)

    if gnorm == 0.0:
        try:
            if ShiftedFactorization(system, 0.0, counter).inertia[1] == 0:
                return SecularSolution(0.0, np.zeros(g.size), 0.0,
                                       SecularCase.EASY)
        except SingularShiftError:
            pass
        return _spectral_fallback(g, H, system, sigma, counter, theta_eig,
                                  scale)

    eps = float(np.finfo(float).eps)

    def phi_eval(lam):
        # Returns (phi, psi) when H + lam*I is positive definite, else
        # (None, None): negative inertia marks lam as below the spectrum
        # edge, a lower-bracket signal in the Moré-Sorensen sense. The
        # secant iterates on the reciprocal form psi = 1/||s|| - sigma/lam,
        # which shares the root with phi and is close to linear; brackets
        # and the stopping test use phi itself.
        fac = ShiftedFactorization(system, lam, counter)
        if fac.inertia[1] > 0:
            return None, None
        snorm = float(np.linalg.norm(fac.solve(g)))
        phi = snorm - lam / sigma
        psi = 1.0 / snorm - sigma / lam if snorm > 0.0 and lam > 0.0 else -phi
        return phi, psi

    def phi_guarded(lam, lo_lim, hi_lim):
        for _ in range(3):
            try:
                phi, psi = phi_eval(lam)
                return lam, phi, psi
            except SingularShiftError:
                lam = lam + 1.0e-8 * (1.0 + abs(lam))
                if hi_lim is not None and lam >= hi_lim:
                    lam = 0.5 * (max(lo_lim, 0.0) + hi_lim)
        raise _NeedSpectrum

    lo = None          # largest lambda known to sit at or below the root
    hi = None          # smallest lambda with a valid phi < 0
    valid = []         # (lam, psi) pairs usable for secant updates
    best = None        # (lam, phi) with the smallest |phi| so far

    def classify(lam, phi, psi):
        nonlocal lo, hi, best
        if phi is None or phi > 0.0:
            lo = lam if lo is None else max(lo, lam)
        else:
            hi = lam if hi is None else min(hi, lam)
        if phi is not None:
            valid.append((lam, psi))
            if best is None or abs(phi) < abs(best[1]):
                best = (lam, phi)

    try:
        lam0 = floor + sigma * math.sqrt(gnorm)
        if warm_lambda is not None and warm_lambda > 0.0:
            lam0 = warm_lambda
        lam0, p0, q0 = phi_guarded(lam0, 0.0, None)
        classify(lam0, p0, q0)
        lam1, p1, q1 = phi_guarded(lam0 + 1.0, 0.0, None)
        classify(lam1, p1, q1)
        smallest = min(lam0, lam1)

        steps = 0
        while True:
            if best is not None:
                lam_c, p_c = best
                snorm = p_c + lam_c / sigma
                tol = min(0.5 * theta1 / sigma, 1.0e-9) * max(snorm, 1.0e-300)
                if snorm > 0.0 and abs(p_c) <= tol:
                    break
            steps += 1
            if steps > max_steps:
                raise SecantFailureError(
                    f"secant iteration exceeded {max_steps} safeguarded steps")

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
            cand, p_new, q_new = phi_guarded(
                cand, lo if lo is not None else 0.0, hi)
            smallest = min(smallest, cand)
            classify(cand, p_new, q_new)
    except _NeedSpectrum:
        return _spectral_fallback(g, H, system, sigma, counter, theta_eig,
                                  scale)

    lam_acc, p_acc = best
    step = -ShiftedFactorization(system, lam_acc, counter).solve(g)
    return SecularSolution(lam_acc, step, abs(p_acc), SecularCase.EASY)
