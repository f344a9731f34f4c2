"""Nonlinear solvers.

ar2_solve computes every trial step from the full-space secular equation;
far2_solve minimizes the cubic model over a low-dimensional subspace that is
frozen across iterations, falls back to a regularized Newton corrector with
the multiplier inherited from the subspace solve, refreshes the subspace
when both fail, and only then resorts to a full secant solve. Both share
the acceptance ratio and regularization-parameter update.

Every run records per-iteration traces, the cost counters (nonlinear
iterations, full-space factorizations, refreshes, average projected
dimension, subspace-only steps, secant calls) and a list of monitor
violations; the monitors assert the per-step decrease inequalities, the
multiplier identity lambda_hat = sigma*||s_hat||, and the sigma floor on
every iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .config import RATIONAL, SolverConfig
from .errors import (InternalInvariantError, ReducedSolveError,
                     SecantFailureError, SingularShiftError)
from .krylov import (AugmentedBasis, KrylovBasis, orth_augment, poly_expand,
                     rational_expand)
from .model import (ModelContext, model_curvature_bound, model_curvature_min,
                    symmetrize)
from .secular import (FactorizationCounter, analyse_hessian, factorize_shifted,
                      solve_secular_full_secant, solve_secular_reduced)
from .second_order import SecondOrderConfig, gershgorin_interval, min_eig


class Status(Enum):
    FIRST_ORDER = "first_order_point"
    SECOND_ORDER = "second_order_point"
    ITER_LIMIT = "iter_limit"
    TIME_LIMIT = "time_limit"
    SOLVE_FAILURE = "solve_failure"


class StepKind(Enum):
    SUBSPACE = "subspace"
    REG_NEWTON = "newton"
    SECANT = "secant"
    REJECTED = "rejected"


@dataclass
class IterateState:
    """Full state of one nonlinear iteration."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    H: object
    sigma: float
    refresh: bool = True
    basis: KrylovBasis | None = None
    step_kind_last: StepKind | None = None
    sym_cache: tuple | None = field(default=None, repr=False)

    def model_context(self) -> ModelContext:
        """The cubic model here; H is symmetrized once per Hessian value.

        sym_cache holds (H, symmetrize(H)) for the H it was made from.
        """
        if self.sym_cache is None or self.sym_cache[0] is not self.H:
            self.sym_cache = (self.H, symmetrize(self.H))
        return ModelContext._from_symmetric(self.f, self.g, self.sym_cache[1],
                                            self.sigma)


@dataclass
class IterationRecord:
    k: int
    f: float
    gnorm: float
    sigma: float
    step_kind: str
    dim: int
    accepted: bool
    rho: float


@dataclass
class RunReport:
    solver: str
    problem: str
    n: int
    status: str
    x_final: list[float]
    f_final: float
    gnorm_final: float
    n_nli: int = 0
    n_fact: int = 0
    n_refresh: int = 0
    ave_subspace_dim: float = 0.0
    n_subspace_steps: int = 0
    n_secant_calls: int = 0
    n_unsuccessful_rho: int = 0
    n_unsuccessful_club: int = 0
    n_rational_solves: int = 0
    wall_s: float = 0.0
    trace: list[IterationRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status in (Status.FIRST_ORDER.value, Status.SECOND_ORDER.value)


@dataclass
class SubspaceResult:
    """Outputs of one projected minimization."""

    lambda_hat: float
    s_hat: np.ndarray
    W: AugmentedBasis | None
    H_r: np.ndarray | None
    g_r: np.ndarray | None
    basis: KrylovBasis | None
    step_full: np.ndarray
    hess_step: np.ndarray
    model_grad_norm: float
    meets_stationarity: bool
    meets_curvature: bool | None = None
    refreshed: bool = False
    dim: int = 0
    n_rational_solves: int = 0
    failed: bool = False


def _ritz_interval(H_r: np.ndarray, H) -> tuple[float, float]:
    if H_r is not None and H_r.shape[0] >= 2:
        vals = sla.eigvalsh(H_r)
        return float(vals[0]), float(vals[-1])
    return gershgorin_interval(H)


def _stationarity_ok(grad_norm: float, shat_norm: float, theta1: float) -> bool:
    return grad_norm <= 0.5 * theta1 * shat_norm ** 2


def subspace_minimize(state: IterateState, cfg: SolverConfig) -> SubspaceResult:
    """One pass of the projected-minimization routine.

    Refreshing: rebuilds the space from scratch (seeded by the gradient),
    solving the projected secular equation at every inner dimension and
    returning as soon as the lifted step passes the stationarity test (plus
    the model-curvature test under a SecondOrderConfig); at most j_max - 1
    expansions. Frozen: a single gradient augmentation, projection and
    reduced solve against the stored basis, which is carried over unchanged.
    """
    g = state.g
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("subspace_minimize requires a nonzero gradient")
    H = state.H
    sigma = state.sigma
    so = isinstance(cfg, SecondOrderConfig)
    ctx = state.model_context() if so else None
    rational = cfg.space_kind == RATIONAL
    n_rat = 0

    def finish(sol, W, H_r, g_r, basis, step_full, hess_step, refreshed):
        grad_m = g + hess_step + sigma * float(np.linalg.norm(sol.step)) * step_full
        mgn = float(np.linalg.norm(grad_m))
        shat_norm = float(np.linalg.norm(sol.step))
        ok = _stationarity_ok(mgn, shat_norm, cfg.theta1)
        curv_ok = None
        if so and ok:
            floor = -cfg.theta2 * shat_norm
            curv_ok = (model_curvature_bound(ctx, step_full) >= floor
                       or model_curvature_min(ctx, step_full) >= floor)
        return SubspaceResult(
            lambda_hat=sol.lam, s_hat=sol.step, W=W, H_r=H_r, g_r=g_r,
            basis=basis, step_full=step_full, hess_step=hess_step,
            model_grad_norm=mgn, meets_stationarity=ok,
            meets_curvature=curv_ok, refreshed=refreshed,
            dim=W.dim, n_rational_solves=n_rat)

    def failed_result(basis, refreshed, dim):
        return SubspaceResult(
            lambda_hat=math.nan, s_hat=np.zeros(0), W=None, H_r=None, g_r=None,
            basis=basis, step_full=np.zeros_like(g), hess_step=np.zeros_like(g),
            model_grad_norm=math.inf, meets_stationarity=False,
            meets_curvature=False if so else None, refreshed=refreshed,
            dim=dim, n_rational_solves=n_rat, failed=True)

    if state.refresh:
        if rational:
            basis = KrylovBasis.fresh_rational(g, cfg.j_max, state.k)
        else:
            basis = KrylovBasis.fresh_polynomial(g, cfg.j_max, state.k)
        av_cols: list[np.ndarray] = []
        if rational:
            system = analyse_hessian(H)  # one analysis for every expansion
        else:
            av_cols.append(np.asarray(H @ basis.V[:, 0], dtype=float).ravel())

        last = None
        for _ in range(max(1, cfg.j_max - 1)):
            W = orth_augment(basis, g)
            if W.dim == basis.dim:
                HW = np.column_stack(av_cols)
            else:
                extra = np.asarray(H @ W.W[:, -1], dtype=float).ravel()
                HW = (np.column_stack(av_cols + [extra]) if av_cols
                      else extra.reshape(-1, 1))
            H_r = W.W.T @ HW
            H_r = 0.5 * (H_r + H_r.T)
            g_r = W.W.T @ g
            try:
                sol = solve_secular_reduced(g_r, H_r, sigma)
            except ReducedSolveError:
                return failed_result(basis, True, W.dim)
            step_full = W.W @ sol.step
            hess_step = HW @ sol.step
            last = (sol, W, H_r, g_r, step_full, hess_step)
            res = finish(sol, W, H_r, g_r, basis, step_full, hess_step, True)
            if res.meets_stationarity and (not so or res.meets_curvature):
                return res
            dim_before = basis.dim
            if rational:
                interval = _ritz_interval(H_r, H)
                rational_expand(system, basis, interval)
                if basis.dim > dim_before:
                    n_rat += 1
                    av_cols.append(np.asarray(H @ basis.V[:, -1], dtype=float).ravel())
            else:
                poly_expand(H, basis, hv=av_cols[-1] if av_cols else None)
                if basis.dim > dim_before:
                    av_cols.append(np.asarray(H @ basis.V[:, -1], dtype=float).ravel())
            if basis.invariant or basis.dim == dim_before:
                break
        sol, W, H_r, g_r, step_full, hess_step = last
        return finish(sol, W, H_r, g_r, basis, step_full, hess_step, True)

    # frozen branch: one augmentation, one projection, one reduced solve
    basis = state.basis
    W = orth_augment(basis, g)
    HW = np.asarray(H @ W.W)
    H_r = W.W.T @ HW
    H_r = 0.5 * (H_r + H_r.T)
    g_r = W.W.T @ g
    try:
        sol = solve_secular_reduced(g_r, H_r, sigma)
    except ReducedSolveError:
        return failed_result(basis, False, W.dim)
    step_full = W.W @ sol.step
    hess_step = HW @ sol.step
    return finish(sol, W, H_r, g_r, basis, step_full, hess_step, False)


def regularized_newton_step(state: IterateState, lambda_hat: float,
                            counter: FactorizationCounter | None = None,
                            require_positive_definite: bool = False):
    """Corrector step -(H + lambda_hat I)^{-1} g from one counted factorization.

    The curvature flag is s^T (H + lambda_hat I) s > 0, evaluated as
    s^T g < 0 (identical for the solved system, no extra product). Under
    require_positive_definite the flag instead demands zero negative inertia.
    A singular shift reports curvature_ok = False.
    """
    if lambda_hat < 0.0 or not np.isfinite(lambda_hat):
        raise ValueError("lambda_hat must be finite and nonnegative")
    try:
        fac = factorize_shifted(state.H, lambda_hat, counter)
    except SingularShiftError:
        return np.zeros_like(state.g), False
    s = -fac.solve(state.g)
    if require_positive_definite:
        ok = fac.inertia[1] == 0 and fac.inertia[2] == 0
    else:
        ok = float(s @ state.g) < 0.0
    return s, ok


def step_ratio_ok(s: np.ndarray, s_hat: np.ndarray, cfg: SolverConfig) -> bool:
    """True iff ||s|| / ||s_hat|| lies inside [c_low, c_up] (inclusive)."""
    shat_norm = float(np.linalg.norm(s_hat))
    if shat_norm == 0.0:
        raise ValueError("s_hat must be nonzero")
    ratio = float(np.linalg.norm(s)) / shat_norm
    return cfg.c_low <= ratio <= cfg.c_up


def acceptance_and_sigma_update(state: IterateState, s: np.ndarray,
                                cfg: SolverConfig, f_trial: float,
                                Hs: np.ndarray | None = None):
    """Acceptance ratio and regularization update.

    rho = (f - f_trial) / (T(0) - T(s)); accepted iff rho >= eta1. The next
    sigma is max(sigma_min, gamma1*sigma) when rho >= eta2, unchanged on
    [eta1, eta2), and gamma2*sigma otherwise. A nonpositive Taylor decrease
    contradicts the decrease guarantee and aborts.
    """
    if Hs is None:
        Hs = np.asarray(state.H @ s).ravel()
    t_dec = -(float(s @ state.g) + 0.5 * float(s @ Hs))
    if not t_dec > 0.0:
        raise InternalInvariantError(
            f"nonpositive Taylor decrease {t_dec!r} at iteration {state.k}")
    rho = (state.f - f_trial) / t_dec if np.isfinite(f_trial) else -math.inf
    accepted = rho >= cfg.eta1
    if rho >= cfg.eta2:
        sigma_next = max(cfg.sigma_min, cfg.gamma1 * state.sigma)
    elif rho >= cfg.eta1:
        sigma_next = state.sigma
    else:
        sigma_next = cfg.gamma2 * state.sigma
    return accepted, sigma_next, rho


def _taylor_decrease(g, Hs, s) -> float:
    return -(float(s @ g) + 0.5 * float(s @ Hs))


class _Monitors:
    """Always-on checks of the per-step guarantees, with round-off slack."""

    REL = 1.0e-8

    def __init__(self, f0: float):
        self.violations: list[str] = []
        self.atol = 1.0e-13 * (1.0 + abs(f0))

    def _fail(self, k, name, detail):
        self.violations.append(f"k={k}: {name}: {detail}")

    def check_step(self, k, kind, sigma, sigma_min, s_norm, shat_norm,
                   lambda_hat, t_dec, f, f_trial, accepted, eta1):
        if kind is StepKind.REG_NEWTON:
            bound = 0.5 * sigma * shat_norm * s_norm ** 2
            name = "taylor decrease >= (sigma/2)||s_hat|| ||s||^2"
        else:
            bound = sigma * s_norm ** 3 / 3.0
            name = "taylor decrease >= (sigma/3)||s||^3"
        if t_dec < bound * (1.0 - self.REL) - self.atol:
            self._fail(k, name, f"{t_dec!r} < {bound!r}")
        if lambda_hat is not None and shat_norm > 0.0:
            target = sigma * shat_norm
            if abs(lambda_hat - target) > self.REL * max(abs(lambda_hat), target):
                self._fail(k, "lambda_hat = sigma*||s_hat||",
                           f"{lambda_hat!r} vs {target!r}")
        if accepted:
            if f - f_trial < eta1 * t_dec * (1.0 - self.REL) - self.atol:
                self._fail(k, "eta1-sufficient decrease",
                           f"{f - f_trial!r} < eta1*{t_dec!r}")
            if f_trial > f + self.atol:
                self._fail(k, "monotone f on successful steps",
                           f"{f_trial!r} > {f!r}")
        if sigma < sigma_min * (1.0 - 1.0e-12):
            self._fail(k, "sigma >= sigma_min", f"{sigma!r}")

    def check_subspace_accept(self, k, model_grad_norm, shat_norm, theta1,
                              cubic_dec):
        bound = 0.5 * theta1 * shat_norm ** 2
        if model_grad_norm > bound * (1.0 + self.REL) + self.atol:
            self._fail(k, "stationarity bound on accepted subspace step",
                       f"{model_grad_norm!r} > {bound!r}")
        if cubic_dec < -self.atol:
            self._fail(k, "cubic model decrease on accepted subspace step",
                       f"{cubic_dec!r}")


def _trivial_subspace(g: np.ndarray) -> SubspaceResult:
    # Zero-gradient entry (second-order mode only): the projected problem is
    # empty; hand the engine a zero reduced step so control flows to the
    # corrector and, from there, to the full-space hard-case solve.
    z = np.zeros_like(g)
    return SubspaceResult(lambda_hat=0.0, s_hat=np.zeros(1), W=None, H_r=None,
                          g_r=None, basis=None, step_full=z, hess_step=z,
                          model_grad_norm=0.0, meets_stationarity=True,
                          meets_curvature=False, refreshed=False, dim=0)


def _warm_start(sigma, prev_step_norm, prev_lambda, prev_accepted):
    # After a rejection the iterate (and so the spectrum) is unchanged and
    # sigma only grew: the previous multiplier is a sharp lower start. After
    # an accepted step, sigma times the last step norm tracks the new root.
    if not prev_accepted and prev_lambda is not None:
        return prev_lambda
    if prev_step_norm is not None:
        return sigma * prev_step_norm
    return None


def _minimize(problem, cfg: SolverConfig, solver_label: str, frozen: bool,
              second_order: bool = False) -> RunReport:
    t0 = time.perf_counter()
    counter = FactorizationCounter()
    x = np.array(problem.x0, dtype=float)
    f, g, H = problem.eval(x, 2)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        return RunReport(solver_label, problem.name, problem.n,
                         Status.SOLVE_FAILURE.value, list(x), float(f),
                         float(np.linalg.norm(g)),
                         message="non-finite oracle values at the start")
    f0 = float(f)
    gnorm0 = float(np.linalg.norm(g))
    eps = max(cfg.eps_rel * gnorm0, 1.0e-14 * (1.0 + abs(f0)))
    state = IterateState(k=0, x=x, f=float(f), g=g, H=H, sigma=cfg.sigma0,
                         refresh=True, basis=None)
    mon = _Monitors(f0)
    trace: list[IterationRecord] = []
    dims: list[int] = []
    n_refresh = n_sub = n_sec = n_rho = n_club = n_rat = 0
    prev_step_norm = None
    prev_lambda = None
    prev_accepted = True
    status = None
    message = ""

    while True:
        gnorm = float(np.linalg.norm(state.g))
        if gnorm <= eps:
            if not second_order:
                status = Status.FIRST_ORDER
                break
            lam1, _ = min_eig(state.H)
            if lam1 >= -cfg.eps_H:
                status = Status.SECOND_ORDER
                break
        if state.k >= cfg.max_iters:
            status = Status.ITER_LIMIT
            break
        if time.perf_counter() - t0 > cfg.time_limit:
            status = Status.TIME_LIMIT
            break

        step = None
        kind = None
        lambda_hat = None
        shat_norm = None
        hess_step = None
        sub = None

        if frozen:
            if gnorm == 0.0:
                sub = _trivial_subspace(state.g)
            else:
                if state.basis is None or state.basis.dim == 0:
                    # nothing stored to freeze (zero-gradient start escape)
                    state.refresh = True
                sub = subspace_minimize(state, cfg)
            if sub.refreshed:
                n_refresh += 1
            n_rat += sub.n_rational_solves
            dims.append(sub.dim)
            state.basis = sub.basis if sub.basis is not None else state.basis
            shat_norm_sub = float(np.linalg.norm(sub.s_hat))
            take_subspace = (not sub.failed and sub.meets_stationarity
                             and (not second_order or sub.meets_curvature)
                             and shat_norm_sub > 0.0)
            if take_subspace:
                step = sub.step_full
                hess_step = sub.hess_step
                kind = StepKind.SUBSPACE
                lambda_hat = sub.lambda_hat
                shat_norm = shat_norm_sub
                n_sub += 1
            else:
                newton_ok = False
                s_newton = None
                if (not sub.failed and shat_norm_sub > 0.0
                        and np.isfinite(sub.lambda_hat) and sub.lambda_hat >= 0.0):
                    s_newton, curv_ok = regularized_newton_step(
                        state, sub.lambda_hat, counter,
                        require_positive_definite=second_order)
                    newton_ok = curv_ok and step_ratio_ok(s_newton, sub.s_hat, cfg)
                if newton_ok:
                    step = s_newton
                    kind = StepKind.REG_NEWTON
                    lambda_hat = sub.lambda_hat
                    shat_norm = shat_norm_sub
                elif state.refresh:
                    warm = _warm_start(state.sigma, prev_step_norm,
                                       prev_lambda, prev_accepted)
                    try:
                        sol = solve_secular_full_secant(
                            state.g, state.H, state.sigma, cfg.theta1, counter,
                            warm_lambda=warm)
                    except (SecantFailureError, SingularShiftError) as exc:
                        status = Status.SOLVE_FAILURE
                        message = f"full-space secular solve failed: {exc}"
                        break
                    if second_order:
                        ctx = state.model_context()
                        floor = -cfg.theta2 * float(np.linalg.norm(sol.step))
                        if model_curvature_bound(ctx, sol.step) < floor:
                            curv = model_curvature_min(ctx, sol.step)
                            if curv < floor - 1.0e-8 * max(1.0, abs(curv)):
                                status = Status.SOLVE_FAILURE
                                message = "secant step failed the model-curvature test"
                                break
                    step = sol.step
                    kind = StepKind.SECANT
                    lambda_hat = sol.lam
                    shat_norm = float(np.linalg.norm(sol.step))
                    n_sec += 1
                else:
                    # curvature/ratio rejection on a frozen space: discard it,
                    # keep sigma, and rebuild next iteration
                    n_club += 1
                    trace.append(IterationRecord(
                        state.k, state.f, gnorm, state.sigma,
                        StepKind.REJECTED.value, sub.dim, False, math.nan))
                    state.refresh = True
                    state.k += 1
                    state.step_kind_last = StepKind.REJECTED
                    continue
        else:
            warm = _warm_start(state.sigma, prev_step_norm,
                                prev_lambda, prev_accepted)
            try:
                sol = solve_secular_full_secant(
                    state.g, state.H, state.sigma, cfg.theta1, counter,
                    warm_lambda=warm)
            except (SecantFailureError, SingularShiftError) as exc:
                status = Status.SOLVE_FAILURE
                message = f"full-space secular solve failed: {exc}"
                break
            step = sol.step
            kind = StepKind.SECANT
            lambda_hat = sol.lam
            shat_norm = float(np.linalg.norm(sol.step))
            n_sec += 1

        if hess_step is None:
            hess_step = np.asarray(state.H @ step).ravel()
        f_trial = problem.eval(state.x + step, 0)[0]
        accepted, sigma_next, rho = acceptance_and_sigma_update(
            state, step, cfg, f_trial, Hs=hess_step)
        t_dec = _taylor_decrease(state.g, hess_step, step)
        s_norm = float(np.linalg.norm(step))
        mon.check_step(state.k, kind, state.sigma, cfg.sigma_min, s_norm,
                       shat_norm, lambda_hat, t_dec, state.f, f_trial,
                       accepted, cfg.eta1)
        if accepted and kind is StepKind.SUBSPACE:
            cubic_dec = t_dec - state.sigma * s_norm ** 3 / 3.0
            mon.check_subspace_accept(state.k, sub.model_grad_norm, shat_norm,
                                      cfg.theta1, cubic_dec)

        trace.append(IterationRecord(state.k, state.f, gnorm, state.sigma,
                                     kind.value, sub.dim if sub else 0,
                                     bool(accepted), float(rho)))
        if accepted:
            state.x = state.x + step
            state.sym_cache = None  # not held through the oracle's memory peak
            f, g, H = problem.eval(state.x, 2)
            if not (np.isfinite(f) and np.all(np.isfinite(g))):
                status = Status.SOLVE_FAILURE
                message = "oracle returned non-finite values at an accepted point"
                state.k += 1
                break
            state.f, state.g, state.H = float(f), g, H
            prev_step_norm = s_norm
        else:
            n_rho += 1
        if lambda_hat is not None and np.isfinite(lambda_hat):
            prev_lambda = lambda_hat
        prev_accepted = bool(accepted)
        state.sigma = sigma_next
        state.k += 1
        state.refresh = False
        state.step_kind_last = kind

    wall = time.perf_counter() - t0
    if status is None:  # pragma: no cover - defensive
        status = Status.SOLVE_FAILURE
    return RunReport(
        solver=solver_label, problem=problem.name, n=problem.n,
        status=status.value, x_final=[float(v) for v in state.x],
        f_final=float(state.f), gnorm_final=float(np.linalg.norm(state.g)),
        n_nli=state.k, n_fact=counter.count, n_refresh=n_refresh,
        ave_subspace_dim=float(np.mean(dims)) if dims else 0.0,
        n_subspace_steps=n_sub, n_secant_calls=n_sec,
        n_unsuccessful_rho=n_rho, n_unsuccessful_club=n_club,
        n_rational_solves=n_rat, wall_s=wall, trace=trace,
        violations=mon.violations, message=message)


def far2_solve(problem, cfg: SolverConfig | None = None) -> RunReport:
    """Frozen-subspace adaptive regularization run."""
    cfg = cfg or SolverConfig()
    label = "FAR2-RK" if cfg.space_kind == RATIONAL else "FAR2-PK"
    return _minimize(problem, cfg, solver_label=label, frozen=True)


def ar2_solve(problem, cfg: SolverConfig | None = None) -> RunReport:
    """Classic adaptive regularization: a full secular solve per iteration."""
    cfg = cfg or SolverConfig()
    return _minimize(problem, cfg, solver_label="AR2", frozen=False)
