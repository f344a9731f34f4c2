"""Secular-equation machinery for the cubic subproblem.

phi(lambda) = ||(H + lambda I)^{-1} g|| - lambda/sigma characterizes the
global minimizer of the cubic model: in the easy case the step is
-(H + lambda* I)^{-1} g at the unique positive root; in the hard case
(gradient orthogonal to the leftmost eigenspace) the step combines the
pseudoinverse solve with an eigenvector component whose weight restores
||s|| = lambda/sigma.

Full-space solves go through ShiftedFactorization, the one place that
factors H + lambda I. One function (_factor) factors it in the storage the
oracle chose for H: a sparse H in its band, tridiagonal when that band is
one wide, with any hub rows in a border over a k x k Schur complement; any
other H dense. It tests positive definiteness by Cholesky and solves with
those factors; a shift that is not positive definite is solved by one
pivoted factorization in the same storage (LU on the band, sytrf on a
dense H and on the Schur complement). It factors a ShiftedSystem, which
the nonlinear loop makes once per oracle Hessian: the full-space solve,
the Newton corrector, the rational Krylov expansions and the eigensolves
(second_order.min_eig) of an iterate all read that one storage, made when
the first of them asks for it. The system carries the run's ledger
(FactorizationCounter), which counts the factorizations and eigensolves of
the step chain, and keeps the last factorization it counted and H's
leftmost eigenpair, so that a solve after a rejected step, at the same H,
makes neither again.

Both secular solves are safeguarded root iterations with one step: the
next shift is the root of the secular equation with 1/||s|| replaced by
its third-order Taylor model and sigma/lambda kept exact (_model_root), and
where that root leaves the bracket the step doubles or bisects
(_in_bracket). The full-space solve is the direct solver baseline of
adaptive cubic regularization (Cartis, Gould & Toint 2011, Algorithm 6.1):
each shift costs one Cholesky factorization and three solves with it,
which give 1/||s|| and its first three derivatives. Reduced (small, dense)
solves use a spectral decomposition, after which each shift costs O(m).
The two share only the step; the full-space solve's warm start, stall
tests, probe and edge test are its own. When the
root of either solve hugs the spectrum edge (the hard and near-hard
cases) it returns the same boundary step (_boundary_step): the solve at a
shift just above the edge plus the multiple of the leftmost eigenvector
that restores ||s|| = lambda/sigma, of the two such multiples the one of
lower model value (Moré & Sorensen 1983). The full-space solve tests for
that edge as soon as it shows, with one eigensolve and one shift; the
reduced solve reaches it when its bracket collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import (_compute_lwork, dgbtrf, dgbtrs, dgttrf,
                                 dgttrs, dpbtrf, dpbtrs, dpotrf, dpotrs,
                                 dpttrf, dpttrs)

from .errors import (NonFiniteHessianError, ReducedSolveError,
                     SecantFailureError, SingularShiftError)
from .second_order import gershgorin_interval, min_eig

MAX_ROOT_STEPS = 200
# Newton steps on the cubic model of the secular equation per shift
MODEL_NEWTON_STEPS = 8
EPS = float(np.finfo(float).eps)

# through get_lapack_funcs, which tags the lwork query with its integer type
_sytrf, _sytrf_lwork, _sytrs = sla.get_lapack_funcs(
    ("sytrf", "sytrf_lwork", "sytrs"), dtype=np.float64)
# scipy.linalg.eigh's default driver for a standard symmetric problem
_syevr, _syevr_lwork = sla.get_lapack_funcs(
    ("syevr", "syevr_lwork"), dtype=np.float64)


class SecularCase(Enum):
    EASY = "easy"
    HARD = "hard"


@dataclass
class FactorizationCounter:
    """A run's ledger, carried by each of its ShiftedSystems: `count` is
    its n_fact, `rational` its n_rational_solves."""

    count: int = 0
    rational: int = 0


@dataclass(frozen=True, slots=True)
class ReducedSpectrum:
    """A reduced problem's H_r = Q diag(eigs) Q^T (eigs ascending) and
    c = Q^T g_r: all that its secular solve reads besides sigma."""

    eigs: np.ndarray
    Q: np.ndarray
    c: np.ndarray


@dataclass
class SecularSolution:
    """A secular solve's root `lam` and step; a reduced solve also
    returns the spectrum it rooted on (`spectrum`)."""

    lam: float
    step: np.ndarray
    case: SecularCase
    alpha: float | None = None
    spectrum: ReducedSpectrum | None = None


@dataclass(frozen=True)
class Border:
    """The hub rows of a sparse H, kept out of its band.

    `rows` are the k hub rows (and columns) of H, in index order, and
    `rest` the other n - k. `Bt` = H[rows][:, rest] (k x (n - k)) and
    `C` = H[rows][:, rows] (k x k), both dense.
    """

    rows: np.ndarray
    rest: np.ndarray
    Bt: np.ndarray
    C: np.ndarray


@dataclass(eq=False)
class ShiftedSystem:
    """H stored once for factorizations at many shifts, with what they made.

    `H` is the oracle's Hessian, used as it is for products: a matrix, or
    an operator that forms its matrix once (problems.GramHessian). H's
    storage class decides how it is factored: nothing scans a dense H's
    entries for a band. A sparse H (n >= 3) is read from its CSR pattern
    once (_lower_band). Its hub rows, if it has any, go to `border`; `band`
    holds the lower band of the other rows in LAPACK storage, row k the
    k-th subdiagonal, at the half-bandwidth of their pattern (two rows,
    the diagonal and the subdiagonal, when it is tridiagonal or
    diagonal). Without hubs `border` is None and `band` is H's own band.
    Both are None for any other H, and for n < 3.
    `dense` holds H as a float array: a sparse H through toarray(), an
    operator through np.asarray, which forms its matrix once, and a dense
    H as it is. It is the one place that densifies H, and factorizations
    read it only when `band` is None.
    `interval` holds H's Gershgorin bounds (lower, upper), read from a
    sparse H as it is and from `dense` otherwise. Each is made on first
    use, so an iterate that no reader asks for costs nothing. Each raises
    NonFiniteHessianError when the entries it reads are not all finite
    (for `interval` on a sparse H: when a bound is not), so that no
    factorization or eigensolve starts on them. Every reader
    of H's entries (the factorizations, min_eig, the Gershgorin bounds)
    goes through the iterate's ShiftedSystem: the nonlinear loop keeps one
    per oracle Hessian on its IterateState, and drops it when it accepts a
    step. No reader writes into H's storage.

    `counter` is the run's ledger (FactorizationCounter): the nonlinear
    loop gives its one counter to every system it makes, and a system made
    alone gets a fresh one. What depends on H alone is kept here for the
    iterate's later readers: `leftmost`, H's leftmost eigenpair, and
    `last`, the last counted factorization made on it (_Factored), which a
    counted ShiftedFactorization reuses at an equal shift: a rejected step
    leaves H unchanged, and the next full-space solve starts at the root
    the last one factored.
    """

    H: object
    counter: FactorizationCounter = field(default_factory=FactorizationCounter,
                                          repr=False)
    last: _Factored | None = field(default=None, init=False, repr=False)

    @cached_property
    def _sparse(self) -> tuple[np.ndarray | None, Border | None]:
        return _lower_band(self.H)

    @property
    def band(self) -> np.ndarray | None:
        return self._sparse[0]

    @property
    def border(self) -> Border | None:
        return self._sparse[1]

    @cached_property
    def dense(self) -> np.ndarray:
        if sp.issparse(self.H):
            return _finite(self.H.toarray())
        return _finite(np.asarray(self.H, dtype=float))

    @cached_property
    def interval(self) -> tuple[float, float]:
        lo, hi = gershgorin_interval(self.H if sp.issparse(self.H) else self.dense)
        # a non-finite entry of a sparse H makes a bound non-finite
        _finite(np.array([lo, hi]))
        return lo, hi

    @cached_property
    def leftmost(self) -> tuple[float, np.ndarray]:
        """H's smallest eigenvalue and a unit eigenvector, by one min_eig
        call on first use (callers must not write into the vector)."""
        return min_eig(self)


def _finite(a: np.ndarray) -> np.ndarray:
    """a, once all its entries are finite; else NonFiniteHessianError."""
    if not np.isfinite(a).all():
        raise NonFiniteHessianError("H has non-finite entries")
    return a


def _lower_band(H) -> tuple[np.ndarray | None, Border | None]:
    """A sparse H's storage for factorization: (band, border).

    Read from the CSR pattern, never from a dense H, which is factored
    dense: (None, None), as for n < 3 (pttrf rejects n = 1, and runs at
    n = 2 keep their dense factorizations). The k rows of highest degree
    become the border (Border) when that lowers the entries one
    factorization stores (_stored): the band factor of the other rows, Bt
    and its solve, and the Schur complement. Of all k, the smallest count
    wins, and the first on ties. Moving rows of a full band to the border
    only adds that solve to store, so k > 0 needs rows whose removal
    narrows the other rows' band: hubs. A banded H keeps k = 0 and its own
    band.
    """
    if not sp.issparse(H) or H.shape[0] < 3:
        return None, None
    H = H.tocsr()
    if not H.has_sorted_indices:
        H = H.sorted_indices()
    _finite(H.data)
    n, indptr, cols = H.shape[0], H.indptr, H.indices
    deg = np.diff(indptr)
    full = np.flatnonzero(deg)
    # sorted: each row's first entry is its leftmost
    kd = int(np.max(full - cols[indptr[full]], initial=0))
    best, hubs = _stored(n, 0, kd), 0
    k = 1
    # at least a diagonal is left to store beside k border rows
    while k < n and _stored(n, k, 0) < best:
        if k == 1:
            order = np.argsort(-deg, kind="stable")
            rows = np.repeat(np.arange(n), deg)
            keep = np.ones(n, dtype=bool)
        keep[order[k - 1]] = False
        pos = np.cumsum(keep) - 1
        both = keep[rows] & keep[cols]
        kd_k = int(np.max(pos[rows[both]] - pos[cols[both]], initial=0))
        if _stored(n, k, kd_k) < best:
            best, hubs, kd = _stored(n, k, kd_k), k, kd_k
        k += 1
    ab = np.zeros((max(kd, 1) + 1, n - hubs))
    if not hubs:
        for k in range(kd + 1):
            ab[k, : n - k] = H.diagonal(-k)
        return ab, None
    keep[:] = True
    keep[order[:hubs]] = False
    pos = np.cumsum(keep) - 1
    lower = keep[rows] & keep[cols] & (rows >= cols)
    r, c = pos[rows[lower]], pos[cols[lower]]
    np.add.at(ab, (r - c, c), H.data[lower])
    hub, rest = np.sort(order[:hubs]), np.flatnonzero(keep)
    top = np.zeros((hubs, n))
    for row, h in zip(top, hub):
        entries = slice(indptr[h], indptr[h + 1])
        np.add.at(row, cols[entries], H.data[entries])
    return ab, Border(hub, rest, top[:, rest], top[:, hub])


def _stored(n: int, k: int, kd: int) -> int:
    """Entries one factorization of an n x n H with k border rows stores:
    the lower band of the other n - k rows at half-bandwidth kd, Bt and
    its solve (k(n - k) each) and the Schur complement's lower triangle."""
    m = n - k
    return m * (kd + 1) - kd * (kd + 1) // 2 + 2 * k * m + k * (k + 1) // 2


def _checked(info: int, trs, name: str):
    """The solve through the factors a LAPACK factorization returned with
    `info` (a ?trs call with its factors bound), raising on a failed
    back-substitution, or None when the factorization failed."""
    if info < 0:
        raise ValueError(f"{name}: illegal argument {-info}")
    if info > 0:
        # a failed factorization leaves no usable factor: its storage goes now
        return None

    def solve(rhs):
        x, info = trs(rhs)
        if info != 0:
            raise SingularShiftError("back-substitution failed on stored factors")
        return x
    return solve


def _factor_dense(A: np.ndarray, lam: float, pivoted: bool):
    """The solve of a dense symmetric A + lam I, of which LAPACK reads the
    lower triangle of a Fortran-ordered copy: Cholesky (potrf), None when
    it is not positive definite, or pivoted (sytrf), which raises
    SingularShiftError on an exact zero pivot."""
    B = A.copy(order="F")
    B.flat[:: B.shape[0] + 1] += lam
    if not pivoted:
        c, info = dpotrf(B, lower=1, clean=0, overwrite_a=1)
        return _checked(info, partial(dpotrs, c, lower=1), "potrf")
    lwork = _compute_lwork(_sytrf_lwork, B.shape[0], lower=1)
    ldu, ipiv, info = _sytrf(B, lower=1, lwork=lwork, overwrite_a=1)
    if info > 0:
        raise SingularShiftError(f"H + {lam!r} I is singular (exact zero pivot)")
    return _checked(info, partial(_sytrs, ldu, ipiv, lower=1), "sytrf")


def _band_lu(ab: np.ndarray, lam: float):
    """The solve of a lower band plus lam I by LU with partial pivoting on
    the full band, for a shift that is not positive definite: factored once
    (gttrf when tridiagonal, else gbtrf), then gttrs or gbtrs per solve,
    which is solve_banded's gtsv or gbsv bit for bit. An exact zero pivot
    raises SingularShiftError."""
    kd, n = ab.shape[0] - 1, ab.shape[1]
    if kd == 1:
        e = ab[1, :-1]
        *factors, info = dgttrf(e, ab[0] + lam, e)
        trs = partial(dgttrs, *factors)
    else:
        # gbtrf's storage: row 2 kd + i - j holds B[i, j], the kd rows
        # above it the fill of the row interchanges
        G = np.zeros((3 * kd + 1, n))
        for k in range(kd + 1):
            G[2 * kd + k, : n - k] = ab[k, : n - k]
            G[2 * kd - k, k:] = ab[k, : n - k]
        G[2 * kd] += lam
        lu, ipiv, info = dgbtrf(G, kd, kd, overwrite_ab=1)
        trs = partial(dgbtrs, lu, kd, kd, ipiv=ipiv)
    if info > 0:
        raise SingularShiftError(
            f"H + {lam!r} I is singular (exact zero pivot)")
    return _checked(info, trs, "gttrf" if kd == 1 else "gbtrf")


def _factor(system: ShiftedSystem, lam: float, pivoted: bool):
    """The solve of B = H + lam I in the storage of H's ShiftedSystem.

    Unpivoted, B is factored by Cholesky: pttrf on a tridiagonal band,
    pbtrf on a wider one and potrf on a dense H; the result is None when B
    is not positive definite. Pivoted, for a shift that is not, B is
    factored by LU on the full band (_band_lu) or by sytrf on a dense H,
    and an exact zero pivot raises SingularShiftError. With a border of k
    hub rows (Border: A the other rows' block, Bt the hubs' coupling to
    them, C their own block) the band is A's, and the k x k Schur
    complement S = C + lam I - Bt (A + lam I)^{-1} Bt^T is factored dense
    by the same pair (potrf or sytrf): B is positive definite if and only
    if A + lam I and S are, each solve costs O(n k) beyond the band's, and
    a bordered H is never densified.
    """
    ab = system.band
    if ab is None:
        return _factor_dense(system.dense, lam, pivoted)
    if pivoted:
        solve = _band_lu(ab, lam)
    elif ab.shape[0] == 2:
        d, e, info = dpttrf(ab[0] + lam, ab[1, :-1])
        solve = _checked(info, partial(dpttrs, d, e), "pttrf")
    else:
        B = ab.copy(order="F")
        B[0] += lam
        c, info = dpbtrf(B, lower=1, overwrite_ab=1)
        solve = _checked(info, partial(dpbtrs, c, lower=1), "pbtrf")
    border = system.border
    if solve is None or border is None:
        return solve
    rows, rest, Bt = border.rows, border.rest, border.Bt
    W = solve(Bt.T)
    schur = _factor_dense(border.C - Bt @ W, lam, pivoted)
    if schur is None:
        return None

    def bordered(rhs):
        y = solve(rhs[rest])
        x = np.empty_like(rhs)
        x[rows] = schur(rhs[rows] - Bt @ y)
        x[rest] = y - W @ x[rows]
        return x
    return bordered


@dataclass(slots=True)
class _Factored:
    """One factorization of H + lam I: `cholesky`, its Cholesky solve, or
    None when H + lam I is not positive definite, and `pivoted`, the
    pivoted solve of such a shift once one has been made. It holds no
    reference to its system: the system keeps it (ShiftedSystem.last), and
    a reference back would make a cycle that only the garbage collector
    frees, so that an iterate's H and factors outlive the iterate."""

    lam: float
    cholesky: object
    pivoted: object = None


class ShiftedFactorization:
    """Cholesky factorization of B = H + lambda*I, with solve().

    `system` is H's ShiftedSystem, stored once for every shift of an
    iterate. B is factored by Cholesky in H's storage (_factor):
    `positive_definite` is that factorization's success, and solve() uses
    its factors. If B is not positive definite, the first solve() makes
    one pivoted factorization in the same storage (_factor again), kept
    for later solves, raising SingularShiftError on an exact zero pivot.

    A factorization is kept if and only if it is counted. A `counted` one,
    made by the step chain (the full-space solve's shifts, the Newton
    corrector), reuses the system's kept entry (ShiftedSystem.last) at an
    equal shift; at any other shift it factors, adds one to the system's
    counter and becomes the entry. Its pivoted solve counts with it,
    whichever construction makes it. An uncounted one (the rational Krylov
    expansions, min_eig's Lanczos factorization and _edge_anchor's
    bisection) frees the kept entry, factors and keeps nothing.
    """

    def __init__(self, system: ShiftedSystem, lam: float,
                 counted: bool = False):
        if not np.isfinite(lam):
            raise ValueError("shift must be finite")
        self._system = system
        entry = system.last
        if not counted or entry is None or entry.lam != lam:
            system.last = None  # the old factors go before the new are made
            entry = _Factored(lam, _factor(system, lam, pivoted=False))
            if counted:
                system.counter.count += 1
                system.last = entry
        self._entry = entry
        self.positive_definite = entry.cholesky is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (H + lambda I) x = rhs, through the Cholesky factors when
        B is positive definite, else through the pivoted ones."""
        rhs = np.asarray(rhs, dtype=float)
        entry = self._entry
        if entry.cholesky is not None:
            return entry.cholesky(rhs)
        if entry.pivoted is None:
            entry.pivoted = _factor(self._system, entry.lam, pivoted=True)
        return entry.pivoted(rhs)


def _spectrum_root(eigs: np.ndarray, c: np.ndarray,
                   sigma: float) -> tuple[float, bool]:
    """The full-space solve's model-root step on the spectral form of phi.

    Returns (lambda, converged). Each lambda costs O(m): with d = eigs +
    lambda, x = c/d (minus the step, in the eigenbasis), y = x/d and
    z = y/d give 1/||s|| and its first three derivatives
    (_inverse_norm_derivatives),
    and the next lambda is the root of the third-order model of 1/||s||
    with sigma/lambda kept exact (_model_root). The bracket starts at
    (lam_S, inf), lam_S = max(0, -lambda_1), and the first lambda is
    lam_S + sigma ||c||^(1/2), as in the full-space solve; where the
    model's root leaves the bracket the step is _in_bracket's. The
    residual is driven to ~1e-13 relative to the step norm so lambda =
    sigma*||s|| holds far inside the 1e-8 contract. converged = False
    means the bracket collapsed to floating-point resolution against the
    spectrum edge (a hard or near-hard instance) and lambda is its upper
    end, where phi <= 0.
    The whole solve runs in one np.errstate. It silences division by zero
    at the edge, 0/0 there (g_r with no weight on v1) and overflow: phi is
    then taken as +inf, left of the root, by tests of Python floats with
    math.isfinite. Where 1/||s|| has no derivatives in floating point (a
    zero step, or 1/||s|| cubed past the largest float) the step is
    _in_bracket's too.
    """
    lo, hi = max(0.0, -float(eigs[0])), math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = lo + sigma * math.sqrt(math.hypot(*c))
        for _ in range(MAX_ROOT_STEPS):
            d = eigs + lam
            x = c / d
            y = x / d
            snorm = math.sqrt(float(x @ x))
            phi = snorm - lam / sigma
            if not math.isfinite(phi):
                phi = math.inf
            elif abs(phi) <= 1.0e-13 * max(snorm, lam / sigma, 1.0e-300):
                return lam, True
            if phi > 0.0:
                lo = lam
            else:
                hi = lam
            if hi < math.inf and hi - lo <= 8.0 * EPS * max(hi, 1.0e-300):
                return hi, False
            try:
                mu = _model_root(lam, sigma, *_inverse_norm_derivatives(
                    x, y, y / d, snorm))
            except (OverflowError, ZeroDivisionError):
                mu = math.nan
            lam = _in_bracket(mu, lo, hi)
    if hi == math.inf:
        raise ReducedSolveError("could not bracket the secular root")
    raise ReducedSolveError("secular root iteration exhausted its budget")


def _boundary_step(g, H, p, v1, radius: float) -> tuple[np.ndarray, float]:
    """The boundary step p + alpha*v1 with ||p + alpha*v1|| = radius.

    Of the two roots alpha, the one of lower model value g^T s + s^T H s / 2
    (the cubic term is the same at both), the first on a tie. Where a value
    overflows, both are compared at the unit steps s / radius, as
    t g^T u + u^T H u / 2 with u = t s and t = 1/radius: the model values
    times t^2, which keep their order. ||p|| <= radius, since p is the
    solve at a shift where phi <= 0. Returns (step, alpha).
    """
    pv = float(v1 @ p)
    root = math.sqrt(max(pv * pv + radius * radius - float(p @ p), 0.0))

    def model_value(alpha, t=1.0):
        u = t * (p + alpha * v1)
        return t * float(g @ u) + 0.5 * float(u @ (H @ u))

    roots = (-pv - root, -pv + root)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [model_value(alpha) for alpha in roots]
        if not all(map(math.isfinite, values)):
            values = [model_value(alpha, 1.0 / radius) for alpha in roots]
    alpha = roots[values[1] < values[0]]
    return p + alpha * v1, alpha


@cache
def _syevr_work(n: int) -> tuple[int, int]:
    """dsyevr's workspace sizes (lwork, liwork) at dimension n."""
    return _compute_lwork(_syevr_lwork, n=n, lower=1)


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a finite symmetric A.

    One dsyevr call with the arguments scipy.linalg.eigh passes it by
    default (all eigenpairs, lower triangle), so the results are eigh's
    bit for bit, without its validation and workspace query per call.
    """
    lwork, liwork = _syevr_work(A.shape[0])
    eigs, Q, _, _, info = _syevr(A, compute_v=1, lower=1, lwork=lwork,
                                 liwork=liwork)
    if info != 0:
        raise ReducedSolveError(f"dsyevr failed with info = {info}")
    return eigs, Q


def solve_secular_reduced(g_r, H_r, sigma: float,
                          spectrum: ReducedSpectrum | None = None
                          ) -> SecularSolution:
    """Solve the projected secular equation on a small dense matrix.

    H_r is diagonalized by one dsyevr call (_eigh), and the spectral form
    of phi is solved by the full-space solve's model-root step
    (_spectrum_root) inside one np.errstate. `spectrum`, when given, is
    that diagonalization of this g_r and H_r, returned by an earlier solve
    (SecularSolution.spectrum): the solve then makes no eigensolve and only
    re-roots, as after a rejected step, where only sigma has changed. Easy
    case: the root and step -(H_r + lam I)^{-1} g_r.
    When the bracket collapses onto the spectrum edge with lambda_1 < 0
    (the hard and near-hard cases, a zero g_r included), the step is the
    boundary step at the bracket's upper end, as in the full-space solve:
    the full spectral solve there, which keeps g_r's component on v1, plus
    the multiple of v1 that restores ||s|| = lam/sigma, the root of lower
    model value. A zero g_r with H_r positive semidefinite gives the zero
    step. H_r must be exactly symmetric (H_r == H_r.T bit for bit), as the
    oracle contract says of H (driver._projection builds it so). Non-finite
    entries in g_r or H_r (products with a non-finite H) and a failed
    eigensolve raise ReducedSolveError. No full-space factorizations.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g_r = np.asarray(g_r, dtype=float)
    H_r = np.asarray(H_r, dtype=float)
    if spectrum is None:
        if not (np.all(np.isfinite(g_r)) and np.all(np.isfinite(H_r))):
            raise ReducedSolveError("non-finite entries in reduced problem")
        eigs, Q = _eigh(H_r)
        spectrum = ReducedSpectrum(eigs, Q, Q.T @ g_r)
    eigs, Q, c = spectrum.eigs, spectrum.Q, spectrum.c
    if eigs[0] >= 0.0 and not g_r.any():
        return SecularSolution(0.0, np.zeros(g_r.size), SecularCase.EASY,
                               spectrum=spectrum)
    lam, converged = _spectrum_root(eigs, c, sigma)
    step = -(Q @ (c / (eigs + lam)))
    if converged or eigs[0] >= 0.0:
        return SecularSolution(lam, step, SecularCase.EASY, spectrum=spectrum)
    step, alpha = _boundary_step(g_r, H_r, step, Q[:, 0], lam / sigma)
    return SecularSolution(lam, step, SecularCase.HARD, alpha=alpha,
                           spectrum=spectrum)


def _leftmost(system: ShiftedSystem) -> tuple[float, np.ndarray]:
    """H's leftmost eigenpair (ShiftedSystem.leftmost), counted on the
    system's counter as one factorization when its eigensolve is made
    here, and free when an earlier reader of the iterate made it."""
    made = "leftmost" not in vars(system)
    eig = system.leftmost
    if made:
        system.counter.count += 1
    return eig


def _spectral_fallback(g, system: ShiftedSystem, sigma, hi=None,
                       p=None) -> SecularSolution:
    """The boundary step, once the bracket collapses onto the spectrum edge.

    The step p solved at the bracket's upper end `hi` (||p|| < hi/sigma)
    plus the multiple of the leftmost eigenvector v1 that restores
    ||s|| = hi/sigma (_boundary_step). A zero gradient (p None) takes
    hi = max(0, -lambda_1) and p = 0. The leftmost pair comes from
    _leftmost, which counts its eigensolve unless the iterate already has
    it.
    """
    lam1, v1 = _leftmost(system)
    if p is None:
        hi, p = max(0.0, -lam1), np.zeros(g.size)
    step, alpha = _boundary_step(g, system.H, p, v1, hi / sigma)
    return SecularSolution(hi, step, SecularCase.HARD, alpha=alpha)


def _inverse_norm_derivatives(x, y, z, snorm: float) -> tuple[float, ...]:
    """r(lambda) = 1/||s(lambda)|| and its first three derivatives.

    x = B^{-1} g with ||x|| = snorm = p, y = B^{-1} x and z = B^{-1} y, for
    a positive definite B = H + lambda I. With a = x^T y, b = y^T y and
    c = y^T z, pi = p^2 has pi' = -2a, pi'' = 6b and pi''' = -24c, so the
    three solves the secular iteration makes at every shift give
    r' = a/p^3 > 0, r'' = 3(a^2/p^2 - b)/p^3, which Cauchy-Schwarz makes
    <= 0 (r is concave), and r''' = 15a^3/p^7 - 27ab/p^5 + 12c/p^3.
    """
    a, b, c = float(x @ y), float(y @ y), float(y @ z)
    r = 1.0 / snorm
    r3, q = r ** 3, a * r * r
    return (r, a * r3, 3.0 * (a * q - b) * r3,
            (q * (15.0 * a * q - 27.0 * b) + 12.0 * c) * r3)


def _first_order_root(lam: float, sigma: float, r: float, dr: float) -> float:
    """The positive root mu of mu (r + r' (mu - lam)) = sigma, r' > 0.

    It is the root of r' mu^2 + b mu - sigma with b = r - r' lam, taken in
    the form without cancellation. r is concave, so r + r' (mu - lam) >= r(mu)
    and the root lies left of the secular root.
    """
    b = r - dr * lam
    disc = math.sqrt(b * b + 4.0 * dr * sigma)
    return 2.0 * sigma / (b + disc) if b > 0.0 else (disc - b) / (2.0 * dr)


def _model_root(lam: float, sigma: float, r: float, dr: float, d2r: float,
                d3r: float) -> float:
    """The root mu of mu (r + r' d + r'' d^2/2 + r''' d^3/6) = sigma,
    d = mu - lam.

    The model keeps the secular equation's sigma/mu exact and replaces only
    r = 1/||s|| by its Taylor model at lam (Gould, Robinson & Thorne 2010).
    Newton's steps on it start at the first-order model's root
    (_first_order_root); where the model's slope is not positive (its
    model of r turns over before reaching sigma/mu), that first-order root
    comes back.
    """
    first = mu = _first_order_root(lam, sigma, r, dr)
    c2, c3 = 0.5 * d2r, d3r / 6.0
    for _ in range(MODEL_NEWTON_STEPS):
        d = mu - lam
        m = r + d * (dr + d * (c2 + d * c3))
        slope = m + mu * (dr + d * (d2r + 3.0 * c3 * d))
        if not slope > 0.0:
            return first
        step = (mu * m - sigma) / slope
        mu -= step
        if not abs(step) > 4.0 * EPS * mu:
            break
    return mu


def _in_bracket(mu: float, lo: float, hi: float) -> float:
    """mu where lo < mu < hi; else max(2 lo, lo + 1) while hi is infinite,
    and bisection otherwise: the safeguard of both secular solves."""
    if lo < mu < hi:
        return mu
    return max(2.0 * lo, lo + 1.0) if hi == math.inf else lo + 0.5 * (hi - lo)


def solve_secular_full_secant(g, system: ShiftedSystem, sigma: float,
                              theta1: float,
                              warm_lambda: float | None = None) -> SecularSolution:
    """Safeguarded root iteration on the secular equation, full space.

    `system` is the iterate's analysed H, factored at every shift. The
    iteration solves lambda r(lambda) = sigma, r(lambda) = 1/||s(lambda)||,
    which shares its root with phi, from the warm start or the
    Gershgorin-safeguarded lambda_0. Each shift costs one counted Cholesky
    factorization of H + lambda I, none at the shift the system last
    factored (a warm start after a rejected step), and three solves with
    it, x = s(lambda), y = (H + lambda I)^{-1} x and
    z = (H + lambda I)^{-1} y, which give r', r'' and r'''
    (_inverse_norm_derivatives). The next shift is the root of
    mu (r + r' d + r'' d^2/2 + r''' d^3/6) = sigma, d = mu - lambda
    (_model_root): only r is modelled, sigma/mu is kept exact, and the step
    costs one back-solve and no factorization beyond Newton's (the
    high-order root finding of GALAHAD's RQS, Gould, Robinson & Thorne
    2010). The bracket starts at [0, inf), since the root is
    sigma*||s*|| > 0: a failed Cholesky or phi > 0 raises its lower end,
    phi < 0 lowers its upper end. Where it does not hold the model's root,
    the step is bisection, or max(2 lo, lo + 1) while the upper end is
    infinite.
    The residual |phi| is driven below min(theta1/(2 sigma), 1e-9) of the
    step norm, which makes the returned step, the solve at the shift that
    converged, satisfy both the model decrease and the (theta1/2)||s||^2
    stationarity bound.

    The hard and near-hard cases end in the boundary step of
    _spectral_fallback. Two signs say that the root may hug the spectrum
    edge: a failed Cholesky before the call's first test shift, wherever
    the bracket's upper end is (a warm start below the edge included), and
    a step that rounding stalls, one that moves lambda toward the root by
    less than 64 eps relative. The first such step from the right of the
    root is a probe instead: the next shift is 64 eps below the upper end,
    and where phi > 0 there the bracket has collapsed (below). Otherwise
    either sign makes the next shift a test shift
    t = max(-lambda_1, lo) + 64 eps ||H||, ||H|| from the Gershgorin
    interval, since the eigensolve and the Cholesky test agree on the edge
    only to a multiple of eps ||H||; lambda_1 comes from one eigensolve per
    iterate (_leftmost), counted as a factorization. If H + t I is
    positive definite and phi(t) <= 0, the boundary step at t ends the
    solve at once (at the upper end instead when t passes it); otherwise t
    is one more iterate of the loop. A bracket that collapses onto the edge ends in the
    boundary step at its upper end, reusing that eigenpair, as does a zero
    gradient with H not positive definite.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))

    if gnorm == 0.0:
        if ShiftedFactorization(system, 0.0, counted=True).positive_definite:
            return SecularSolution(0.0, np.zeros(g.size), SecularCase.EASY)
        return _spectral_fallback(g, system, sigma)

    if warm_lambda is not None and warm_lambda > 0.0:
        lam = warm_lambda
    else:
        lam = max(0.0, -system.interval[0]) + sigma * math.sqrt(gnorm)
    rtol = min(0.5 * theta1 / sigma, 1.0e-9)
    edge = 1.0 - 64.0 * EPS
    lo, hi, x_hi = 0.0, math.inf, None
    # lam is an edge test shift; this call has made one; it has probed
    # the bracket's upper end
    test = tested = probed = False
    for _ in range(MAX_ROOT_STEPS):
        fac = ShiftedFactorization(system, lam, counted=True)
        nxt = math.nan
        if not fac.positive_definite:
            lo = lam  # at or below the spectrum edge
            at_edge = not tested
        else:
            x = fac.solve(g)
            snorm = float(np.linalg.norm(x))
            phi = snorm - lam / sigma
            if abs(phi) <= rtol * snorm:
                return SecularSolution(lam, -x, SecularCase.EASY)
            if phi > 0.0:
                lo = lam
            elif test:
                return _spectral_fallback(g, system, sigma, lam, -x)
            else:
                hi, x_hi = lam, x
            y = fac.solve(x)
            derivs = _inverse_norm_derivatives(x, y, fac.solve(y), snorm)
            nxt = _model_root(lam, sigma, *derivs)
            # a step that rounding stalls: one that moves lambda toward
            # the root by less than 64 eps relative
            at_edge = not (edge * nxt > lam if phi > 0.0
                           else nxt < edge * lam)
            if at_edge and phi < 0.0 and not probed:
                # the first such step from the right probes 64 eps below
                # the upper end: a root closer to it than that collapses
                # the bracket there
                nxt, at_edge, probed = edge * lam, False, True
        if lo >= edge * hi:
            # the bracket is exhausted in floating point without meeting
            # the residual target: the root hugs the spectrum edge
            return _spectral_fallback(g, system, sigma, hi, -x_hi)
        if at_edge and not test:
            lam = (max(-_leftmost(system)[0], lo)
                   + 64.0 * EPS * max(map(abs, system.interval)))
            if lam >= hi:
                return _spectral_fallback(g, system, sigma, hi, -x_hi)
            test = tested = True
            continue
        test = False
        lam = _in_bracket(nxt, lo, hi)
    raise SecantFailureError(
        f"secular root iteration exceeded {MAX_ROOT_STEPS} safeguarded "
        "steps")
