"""Secular-equation machinery for the cubic subproblem.

phi(lambda) = ||(H + lambda I)^{-1} g|| - lambda/sigma characterizes the
global minimizer of the cubic model: in the easy case the step is
-(H + lambda* I)^{-1} g at the unique positive root; in the hard case
(gradient orthogonal to the leftmost eigenspace) the step combines the
pseudoinverse solve with an eigenvector component whose weight restores
||s|| = lambda/sigma.

Full-space solves go through ShiftedFactorization, the one place that
factors H + lambda I, so the run can count them. It tests positive
definiteness by Cholesky in the storage the oracle chose for H (a sparse
H in its band, tridiagonal when that band is one wide; any other H dense)
and solves with that factor; a shift that is not positive definite is
solved by one pivoted factorization (sytrf, or LU on the band). It
factors a ShiftedSystem, which the nonlinear loop makes once per oracle
Hessian: the full-space solve, the Newton corrector, the rational Krylov
expansions and the eigensolves (second_order.min_eig) of an iterate all
read that one storage, made when the first of them asks for it. Reduced
(small, dense) solves use a spectral decomposition, after which each
residual evaluation costs O(m). The full-space solve is safeguarded
Newton on the secular equation, the direct solver baseline of adaptive
cubic regularization (Cartis, Gould & Toint 2011, Algorithm 6.1): each
shift costs one Cholesky factorization and two solves with it. When the
bracket of either solve collapses onto the spectrum edge (the hard and
near-hard cases) it returns the same boundary step (_boundary_step): the
solve at the bracket's upper end plus the multiple of the leftmost
eigenvector that restores ||s|| = lambda/sigma, of the two such multiples
the one of lower model value (Moré & Sorensen 1983).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import (_compute_lwork, dpbtrf, dpbtrs, dpotrf,
                                 dpotrs, dpttrf, dpttrs)

from .errors import ReducedSolveError, SecantFailureError, SingularShiftError
from .second_order import gershgorin_interval, hessian_matrix, min_eig

MAX_ROOT_STEPS = 200

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


@dataclass
class SecularSolution:
    lam: float
    step: np.ndarray
    case: SecularCase
    alpha: float | None = None


@dataclass(frozen=True)
class ShiftedSystem:
    """H stored once for factorizations at many shifts.

    `H` is the oracle's Hessian, used as it is for products: a matrix, or
    an operator that forms its matrix once (problems.GramHessian). H's
    storage class decides how it is factored: nothing scans a dense H's
    entries for a band. `band` holds a sparse H's lower band in LAPACK
    storage, row k the k-th subdiagonal, at the half-bandwidth of its
    pattern (two rows, the diagonal and the subdiagonal, when H is
    tridiagonal or diagonal); it is None for any other H, and for n < 3.
    `dense` holds H as a float array (a sparse H densified once, an
    operator H formed through second_order.hessian_matrix); it is the one
    place that forms an operator H, and factorizations read it only when
    `band` is None.
    `interval` holds H's Gershgorin bounds (lower, upper). Each is made on
    first use, so an iterate that no reader asks for costs nothing. The
    nonlinear loop keeps one per oracle Hessian on its IterateState, and
    factorizations only read it.
    """

    H: object

    @cached_property
    def band(self) -> np.ndarray | None:
        return _lower_band(self.H)

    @cached_property
    def dense(self) -> np.ndarray:
        A = hessian_matrix(self.H)
        return A.toarray() if sp.issparse(A) else A

    @cached_property
    def interval(self) -> tuple[float, float]:
        return gershgorin_interval(self.H)


def _lower_band(H) -> np.ndarray | None:
    """A sparse H's lower band storage, at the half-bandwidth kd of its
    pattern, or None for a dense or operator H, which is factored dense.

    A sparse H with n < 3 is left dense too: pttrf rejects n = 1, and runs
    at n = 2 keep their dense factorizations.
    """
    if not sp.issparse(H) or H.shape[0] < 3:
        return None
    n, coo = H.shape[0], H.tocoo()
    kd = int(np.max(np.abs(coo.row - coo.col), initial=0))
    ab = np.zeros((max(kd, 1) + 1, n))
    for k in range(kd + 1):
        ab[k, : n - k] = H.diagonal(-k)
    return ab


def _shifted_dense(A: np.ndarray, lam: float) -> np.ndarray:
    """A + lam*I as a new Fortran-ordered array, for LAPACK to overwrite."""
    B = A.copy(order="F")
    B.flat[:: B.shape[0] + 1] += lam
    return B


class ShiftedFactorization:
    """Cholesky factorization of B = H + lambda*I, with solve().

    `system` is H's ShiftedSystem, stored once for every shift of an
    iterate and never written into. B is factored by Cholesky in H's
    storage: pttrf for a tridiagonal band, pbtrf for a wider one and
    potrf for dense H. `positive_definite` is that factorization's
    success, and solve() uses its factor (pttrs, pbtrs, potrs). If B is
    not positive definite, solve() instead makes one pivoted factorization
    and solve (_pivoted_solve), raising SingularShiftError on an exact
    zero pivot. Each construction adds one to `counter`, if given; the
    Lanczos path of min_eig factors without one.
    """

    def __init__(self, system: ShiftedSystem, lam: float,
                 counter: FactorizationCounter | None = None):
        if not np.isfinite(lam):
            raise ValueError("shift must be finite")
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
        # a failed Cholesky leaves no usable factor: its storage goes now
        self._solve = solve if self.positive_definite else None
        if counter is not None:
            counter.count += 1

    def _pivoted_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve B x = rhs by one pivoted factorization of B, for a shift
        that is not positive definite: sytrf and sytrs on dense storage,
        LU on the full band (solve_banded: gtsv when tridiagonal, else
        gbsv)."""
        ab, lam = self._system.band, self._lam
        singular = f"H + {lam!r} I is singular (exact zero pivot)"
        if ab is not None:
            # solve_banded's storage: row kd + i - j holds B[i, j]
            kd, n = ab.shape[0] - 1, ab.shape[1]
            G = np.zeros((2 * kd + 1, n))
            for k in range(kd + 1):
                G[kd + k, : n - k] = ab[k, : n - k]
                G[kd - k, k:] = ab[k, : n - k]
            G[kd] += lam
            try:
                return sla.solve_banded((kd, kd), G, rhs, overwrite_ab=True,
                                        check_finite=False)
            except sla.LinAlgError as exc:
                raise SingularShiftError(singular) from exc
        B = _shifted_dense(self._system.dense, lam)
        lwork = _compute_lwork(_sytrf_lwork, B.shape[0], lower=1)
        ldu, ipiv, info = _sytrf(B, lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"sytrf: illegal argument {-info}")
        if info > 0:
            raise SingularShiftError(singular)
        return _sytrs(ldu, ipiv, rhs, lower=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (H + lambda I) x = rhs, through the Cholesky factor when
        B is positive definite."""
        rhs = np.asarray(rhs, dtype=float)
        if not self.positive_definite:
            return self._pivoted_solve(rhs)
        x, info = self._solve(rhs)
        if info != 0:
            raise SingularShiftError("back-substitution failed on stored factors")
        return x


def _spectrum_root(eigs: np.ndarray, c: np.ndarray,
                   sigma: float) -> tuple[float, bool]:
    """Safeguarded Newton for the spectral form of phi on (lam_S, inf).

    Returns (lambda, converged). The residual is driven to ~1e-13 relative
    to the step norm so lambda = sigma*||s|| holds far inside the 1e-8
    contract. converged = False means the bracket collapsed to
    floating-point resolution against the spectrum edge (a hard or
    near-hard instance) and lambda is its upper end, where phi <= 0.
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
            return lam, True
        if val > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 8.0 * eps * max(hi, 1.0e-300):
            return hi, False
        nxt = lam - val / dval if dval != 0.0 and np.isfinite(val) else math.nan
        if not np.isfinite(nxt) or not (lo < nxt < hi):
            nxt = lo + 0.5 * (hi - lo)
        lam = nxt
    raise ReducedSolveError("secular root iteration exhausted its budget")


def _boundary_step(g, H, p, v1, radius: float) -> tuple[np.ndarray, float]:
    """The boundary step p + alpha*v1 with ||p + alpha*v1|| = radius.

    Of the two roots alpha, the one of lower model value g^T s + s^T H s / 2
    (the cubic term is the same at both). ||p|| <= radius, since p is the
    solve at a shift where phi <= 0. Returns (step, alpha).
    """
    pv = float(v1 @ p)
    root = math.sqrt(max(pv * pv + radius * radius - float(p @ p), 0.0))

    def model_value(alpha):
        s = p + alpha * v1
        return float(g @ s) + 0.5 * float(s @ (H @ s))

    alpha = min((-pv - root, -pv + root), key=model_value)
    return p + alpha * v1, alpha


def solve_secular_reduced(g_r, H_r, sigma: float) -> SecularSolution:
    """Solve the projected secular equation on a small dense matrix.

    The spectral form of phi is solved by safeguarded Newton
    (_spectrum_root). Easy case: the root and step -(H_r + lam I)^{-1} g_r.
    When the bracket collapses onto the spectrum edge with lambda_1 < 0
    (the hard and near-hard cases, a zero g_r included), the step is the
    boundary step at the bracket's upper end, as in the full-space solve:
    the full spectral solve there, which keeps g_r's component on v1, plus
    the multiple of v1 that restores ||s|| = lam/sigma, the root of lower
    model value. A zero g_r with H_r positive semidefinite gives the zero
    step. H_r must be exactly symmetric (H_r == H_r.T bit for bit), as the
    oracle contract says of H (driver._project builds it so). No
    full-space factorizations.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g_r = np.asarray(g_r, dtype=float)
    H_r = np.asarray(H_r, dtype=float)
    if not (np.all(np.isfinite(g_r)) and np.all(np.isfinite(H_r))):
        raise ValueError("non-finite entries in reduced problem")
    eigs, Q = sla.eigh(H_r)
    if eigs[0] >= 0.0 and not g_r.any():
        return SecularSolution(0.0, np.zeros(g_r.size), SecularCase.EASY)
    c = Q.T @ g_r
    lam, converged = _spectrum_root(eigs, c, sigma)
    step = -(Q @ (c / (eigs + lam)))
    if converged or eigs[0] >= 0.0:
        return SecularSolution(lam, step, SecularCase.EASY)
    step, alpha = _boundary_step(g_r, H_r, step, Q[:, 0], lam / sigma)
    return SecularSolution(lam, step, SecularCase.HARD, alpha=alpha)


def _spectral_fallback(g, system: ShiftedSystem, sigma, counter, hi=None,
                       p=None) -> SecularSolution:
    """The boundary step, once the bracket collapses onto the spectrum edge.

    The step p solved at the bracket's upper end `hi` (||p|| < hi/sigma)
    plus the multiple of the leftmost eigenvector v1 that restores
    ||s|| = hi/sigma (_boundary_step). A zero gradient (p None) takes
    hi = max(0, -lambda_1) and p = 0. The eigensolve is counted as one
    factorization.
    """
    lam1, v1 = min_eig(system, want_vector=True)
    if counter is not None:
        counter.count += 1
    if p is None:
        hi, p = max(0.0, -lam1), np.zeros(g.size)
    step, alpha = _boundary_step(g, system.H, p, v1, hi / sigma)
    return SecularSolution(hi, step, SecularCase.HARD, alpha=alpha)


def solve_secular_full_secant(g, system: ShiftedSystem, sigma: float,
                              theta1: float,
                              counter: FactorizationCounter | None = None,
                              warm_lambda: float | None = None) -> SecularSolution:
    """Safeguarded Newton on the secular equation for the full-space subproblem.

    `system` is the iterate's analysed H, factored at every shift. Newton
    runs on psi(lambda) = 1/||s(lambda)|| - sigma/lambda, which shares its
    root with phi and is concave and increasing, from the warm start or
    the Gershgorin-safeguarded lambda_0. Each shift costs one
    Cholesky factorization of H + lambda I (`counter` gains one) and two
    solves with it, s(lambda) and (H + lambda I)^{-1} s for psi'. The
    bracket starts at [0, inf), since the root is sigma*||s*|| > 0: a
    failed Cholesky or phi > 0 raises its lower end, phi < 0 lowers its
    upper end, and a Newton step outside it becomes bisection, or
    max(2 lo, lo + 1) while the upper end is infinite. The residual is
    driven to ~1e-10 of the step norm, which makes the returned step, the
    solve at the shift that converged, satisfy both the model decrease and
    the (theta1/2)||s||^2 stationarity bound. A bracket that collapses onto
    the spectrum edge (the hard and near-hard cases) ends in the boundary
    step of _spectral_fallback, as does a zero gradient with H not positive
    definite.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))

    if gnorm == 0.0:
        if ShiftedFactorization(system, 0.0, counter).positive_definite:
            return SecularSolution(0.0, np.zeros(g.size), SecularCase.EASY)
        return _spectral_fallback(g, system, sigma, counter)

    if warm_lambda is not None and warm_lambda > 0.0:
        lam = warm_lambda
    else:
        lam = max(0.0, -system.interval[0]) + sigma * math.sqrt(gnorm)
    rtol = min(0.5 * theta1 / sigma, 1.0e-9)
    edge = 1.0 - 64.0 * float(np.finfo(float).eps)
    lo, hi, x_hi = 0.0, math.inf, None
    for _ in range(MAX_ROOT_STEPS):
        fac = ShiftedFactorization(system, lam, counter)
        nxt = math.nan
        if not fac.positive_definite:
            lo = lam  # at or below the spectrum edge
        else:
            x = fac.solve(g)
            snorm = float(np.linalg.norm(x))
            phi = snorm - lam / sigma
            if abs(phi) <= rtol * snorm:
                return SecularSolution(lam, -x, SecularCase.EASY)
            if phi > 0.0:
                lo = lam
            else:
                hi, x_hi = lam, x
            dpsi = float(x @ fac.solve(x)) / snorm ** 3 + sigma / lam ** 2
            nxt = lam - (1.0 / snorm - sigma / lam) / dpsi
        if lo >= edge * hi:
            # the bracket is exhausted in floating point without meeting
            # the residual target: the root hugs the spectrum edge
            return _spectral_fallback(g, system, sigma, counter, hi, -x_hi)
        if not lo < nxt < hi:
            nxt = (max(2.0 * lo, lo + 1.0) if hi == math.inf
                   else lo + 0.5 * (hi - lo))
        lam = nxt
    raise SecantFailureError(
        f"secular Newton iteration exceeded {MAX_ROOT_STEPS} safeguarded steps")
