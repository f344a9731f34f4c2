"""Nonlinear solvers.

One adaptive-regularization loop serves every solver. Its trial step comes
from a fixed chain of fallbacks: the minimizer of the cubic model over a
low-dimensional subspace that is frozen across iterations, then a
regularized Newton corrector with the multiplier inherited from the
subspace solve, then a full-space secular solve (only on an iteration that
rebuilt the subspace), and otherwise a rejection that rebuilds the subspace
next time. ar2_solve is the chain without its first two links, so every
step comes from the full-space solve: a safeguarded root iteration on the
secular equation, one Cholesky factorization per shift, whose next shift is
the root of the equation with 1/||s|| replaced by its third-order model, as
in the direct-solver implementations of adaptive cubic regularization.
far2_solve runs the whole chain; under a SecondOrderConfig (far2so_solve)
the loop also demands positive curvature of every step and of the final
Hessian. Reports keep the historical name "secant" for a full-space step
(StepKind.SECANT, n_secant_calls).

Every run records one trace record per iteration, and the report's
tallies (nonlinear iterations, average projected dimension, subspace-only
steps, full-space solves, rejections) are read from it; only refreshes are
counted beside it, and full-space factorizations and rational solves on the
run's FactorizationCounter, which every ShiftedSystem of the run carries. A
SolverError anywhere in an iteration ends the run with solve_failure at its
last iterate. The monitors assert the per-step decrease inequalities, the
multiplier identity lambda_hat = sigma*||s_hat||, and the sigma floor on
every iteration, and list their violations in the report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .config import RATIONAL, SolverConfig
from .errors import InternalInvariantError, SingularShiftError, SolverError
from .krylov import KrylovBasis, orth_augment, poly_expand, rational_expand
from .model import ModelContext, model_curvature_bound, model_curvature_min
from .secular import (FactorizationCounter, ReducedSpectrum,
                      ShiftedFactorization, ShiftedSystem,
                      solve_secular_full_secant, solve_secular_reduced)
from .second_order import SecondOrderConfig


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


@dataclass(eq=False)
class Projection:
    """The cubic model's data on range(W), W orthonormal: HW = H @ W,
    H_r = W^T H W, made exactly symmetric as the reduced solve needs, and
    g_r = W^T g, with `spectrum`, H_r's eigendecomposition, once a reduced
    solve has made it (secular.ReducedSpectrum)."""

    W: np.ndarray
    HW: np.ndarray
    H_r: np.ndarray
    g_r: np.ndarray
    spectrum: ReducedSpectrum | None = None


@dataclass
class IterateState:
    """Full state of one nonlinear iteration; `system` is the oracle's H,
    analysed at most once, on first use, for every shifted factorization
    and eigensolve at this iterate (a rejected step keeps it, with its
    last counted factorization and leftmost eigenpair), `basis` the
    subspace that the last refresh built (subspace_minimize stores it
    here), and `projection` the frozen space's projection at this iterate
    with its spectrum. A rejected step changes only sigma, so the next
    frozen solve reuses that projection and re-roots on its spectrum; the
    loop drops it with `system` when it accepts a step, and a refresh
    drops it when it replaces the basis."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    system: ShiftedSystem
    sigma: float
    refresh: bool = True
    basis: KrylovBasis | None = None
    projection: Projection | None = None


@dataclass(slots=True)  # a run holds one per iteration
class IterationRecord:
    k: int
    f: float
    gnorm: float
    sigma: float
    step_kind: str
    dim: int
    accepted: bool
    rho: float
    # the step's multiplier and norm; NaN, as rho is, on a rejected record
    lambda_hat: float = math.nan
    step_norm: float = math.nan


@dataclass
class RunReport:
    solver: str
    problem: str
    n: int
    status: str
    x_final: np.ndarray
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
    """Outputs of one projected minimization over a space of dimension
    s_hat.size. `passed` is its verdict: the lifted step meets the
    stationarity test, and in second-order mode the model-curvature test
    too."""

    lambda_hat: float
    s_hat: np.ndarray
    H_r: np.ndarray
    step_full: np.ndarray
    hess_step: np.ndarray
    model_grad_norm: float
    passed: bool


def _ritz_interval(H_r: np.ndarray, system: ShiftedSystem) -> tuple[float, float]:
    if H_r.shape[0] >= 2:
        vals = sla.eigvalsh(H_r)
        return float(vals[0]), float(vals[-1])
    return system.interval


def _append_product(HV: np.ndarray, H, v: np.ndarray) -> np.ndarray:
    """[HV, H v]: HV with one more column of products with H."""
    return np.hstack([HV, np.asarray(H @ v, dtype=float).reshape(-1, 1)])


def _projection(state: IterateState, W: np.ndarray,
                HW: np.ndarray | None = None) -> Projection:
    """The projection of the iterate's model onto range(W), given HW =
    H @ W or else by one product with H."""
    if HW is None:
        HW = np.asarray(state.system.H @ W)
    H_r = W.T @ HW
    return Projection(W, HW, 0.5 * (H_r + H_r.T), W.T @ state.g)


def _project(state: IterateState, cfg: SolverConfig, ctx,
             proj: Projection) -> SubspaceResult:
    """Minimize the cubic model over range(proj.W) at the iterate's sigma,
    keeping the spectrum of the reduced solve on proj; ctx is the model
    context in second-order mode, else None."""
    g, sigma = state.g, state.sigma
    sol = solve_secular_reduced(proj.g_r, proj.H_r, sigma,
                                spectrum=proj.spectrum)
    proj.spectrum = sol.spectrum
    step_full = proj.W @ sol.step
    hess_step = proj.HW @ sol.step
    shat_norm = float(np.linalg.norm(sol.step))
    mgn = float(np.linalg.norm(g + hess_step + sigma * shat_norm * step_full))
    passed = (mgn <= 0.5 * cfg.theta1 * shat_norm ** 2  # stationarity test
              and (ctx is None or _curvature_ok(ctx, step_full,
                                                -cfg.theta2 * shat_norm)))
    return SubspaceResult(
        lambda_hat=sol.lam, s_hat=sol.step, H_r=proj.H_r,
        step_full=step_full, hess_step=hess_step, model_grad_norm=mgn,
        passed=passed)


def subspace_minimize(state: IterateState, cfg: SolverConfig) -> SubspaceResult:
    """One pass of the projected-minimization routine, at a nonzero gradient.

    Refreshing: rebuilds the space from the gradient, stores it on the
    iterate (state.basis) before expanding it, and solves the projected
    secular equation at every inner dimension, returning once the result
    has passed; at most j_max - 1 expansions, none past j_max columns. V
    and H @ V grow by one column, one H·v, per expansion, the product made
    by the iteration that projects on it: the polynomial space holds g
    and is never re-augmented, the rational space is augmented with g (one
    more H·v) before each projection, and each projection serves one
    reduced solve. Frozen: one reduced solve on the iterate's projection
    onto the stored basis augmented with g, which the iterate's first
    frozen solve makes (one augmentation and H @ W) and keeps
    (state.projection); the solves after its rejected steps re-root on
    its spectrum. A solver error propagates, with the space built so far
    on the iterate.
    """
    g = state.g
    H = state.system.H
    ctx = (ModelContext(state.system, state.sigma)
           if isinstance(cfg, SecondOrderConfig) else None)

    if not state.refresh:
        if state.projection is None:
            state.projection = _projection(state, orth_augment(state.basis, g))
        return _project(state, cfg, ctx, state.projection)

    rational = cfg.space_kind == RATIONAL
    state.projection = None
    state.basis = basis = KrylovBasis.fresh(g, cfg.space_kind)
    HV = np.empty((g.size, 0))
    for _ in range(max(1, cfg.j_max - 1)):
        if HV.shape[1] < basis.dim:
            HV = _append_product(HV, H, basis.V[:, -1])
        if rational:
            W = orth_augment(basis, g)
            HW = HV if W.shape[1] == basis.dim else _append_product(HV, H, W[:, -1])
        else:
            W, HW = basis.V, HV  # g is V's first direction
        res = _project(state, cfg, ctx, _projection(state, W, HW))
        del W, HW  # hold no extra n x j array across the expansion
        if res.passed:
            return res
        if basis.dim >= cfg.j_max:
            break
        if rational:
            rational_expand(state.system, basis,
                            _ritz_interval(res.H_r, state.system))
        else:
            poly_expand(H, basis, hv=HV[:, -1])
        if basis.invariant:
            break
    return res


def regularized_newton_step(state: IterateState, lambda_hat: float,
                            require_positive_definite: bool = False
                            ) -> np.ndarray | None:
    """Corrector step s = -(H + lambda_hat I)^{-1} g from one counted
    factorization, or None when the step is refused.

    It is refused on a singular shift and when s^T (H + lambda_hat I) s
    <= 0, evaluated as s^T g >= 0 (identical for the solved system, no
    extra product). Under require_positive_definite a shift whose Cholesky
    factorization fails is refused before any solve.
    """
    if lambda_hat < 0.0 or not np.isfinite(lambda_hat):
        raise ValueError("lambda_hat must be finite and nonnegative")
    fac = ShiftedFactorization(state.system, lambda_hat, counted=True)
    if require_positive_definite and not fac.positive_definite:
        return None
    try:
        s = -fac.solve(state.g)
    except SingularShiftError:
        return None
    return s if float(s @ state.g) < 0.0 else None


def step_ratio_ok(s: np.ndarray, s_hat: np.ndarray, cfg: SolverConfig) -> bool:
    """True iff ||s|| / ||s_hat|| lies inside [c_low, c_up] (inclusive)."""
    shat_norm = float(np.linalg.norm(s_hat))
    if shat_norm == 0.0:
        raise ValueError("s_hat must be nonzero")
    ratio = float(np.linalg.norm(s)) / shat_norm
    return cfg.c_low <= ratio <= cfg.c_up


def acceptance_and_sigma_update(state: IterateState, s: np.ndarray,
                                cfg: SolverConfig, f_trial: float,
                                Hs: np.ndarray):
    """Acceptance ratio and regularization update.

    rho = (f - f_trial) / (T(0) - T(s)), with the Taylor decrease read from
    Hs = H @ s, which the caller has (the subspace solve's lifted product,
    or one product for any other step). Accepted iff rho >= eta1. The next
    sigma is max(sigma_min, gamma1*sigma) when rho >= eta2, unchanged on
    [eta1, eta2), and gamma2*sigma otherwise. A nonpositive Taylor decrease
    contradicts the decrease guarantee and aborts. Returns (accepted,
    sigma_next, rho, Taylor decrease).
    """
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
    return accepted, sigma_next, rho, t_dec


class _Monitors:
    """Always-on checks of the per-step guarantees, with round-off slack.

    check() reads the step's IterationRecord (its iteration k, f and sigma
    at the iterate, step kind, verdict, multiplier and step norm) and
    appends a "k=...: name: detail" line to `violations` for each
    guarantee the step breaks.
    """

    REL = 1.0e-8

    def __init__(self, f0: float, cfg: SolverConfig):
        self.violations: list[str] = []
        self.atol = 1.0e-13 * (1.0 + abs(f0))
        self.cfg = cfg

    def _fail(self, k, name, detail):
        self.violations.append(f"k={k}: {name}: {detail}")

    def check(self, rec: IterationRecord, shat_norm: float, t_dec: float,
              f_trial: float, model_grad_norm: float | None = None) -> None:
        """Check one step: shat_norm is the norm of the step its multiplier
        came from, t_dec its Taylor decrease, f_trial f at the trial point,
        and model_grad_norm, given for a subspace step, the norm of its
        lifted model gradient."""
        k, f, sigma, s_norm = rec.k, rec.f, rec.sigma, rec.step_norm
        lambda_hat, cfg = rec.lambda_hat, self.cfg
        if rec.step_kind == StepKind.REG_NEWTON.value:
            bound = 0.5 * sigma * shat_norm * s_norm ** 2
            name = "taylor decrease >= (sigma/2)||s_hat|| ||s||^2"
        else:
            bound = sigma * s_norm ** 3 / 3.0
            name = "taylor decrease >= (sigma/3)||s||^3"
        if t_dec < bound * (1.0 - self.REL) - self.atol:
            self._fail(k, name, f"{t_dec!r} < {bound!r}")
        if shat_norm > 0.0:
            target = sigma * shat_norm
            if abs(lambda_hat - target) > self.REL * max(abs(lambda_hat), target):
                self._fail(k, "lambda_hat = sigma*||s_hat||",
                           f"{lambda_hat!r} vs {target!r}")
        if rec.accepted:
            if f - f_trial < cfg.eta1 * t_dec * (1.0 - self.REL) - self.atol:
                self._fail(k, "eta1-sufficient decrease",
                           f"{f - f_trial!r} < eta1*{t_dec!r}")
            if f_trial > f + self.atol:
                self._fail(k, "monotone f on successful steps",
                           f"{f_trial!r} > {f!r}")
        if sigma < cfg.sigma_min * (1.0 - 1.0e-12):
            self._fail(k, "sigma >= sigma_min", f"{sigma!r}")
        if rec.accepted and model_grad_norm is not None:
            bound = 0.5 * cfg.theta1 * shat_norm ** 2
            if model_grad_norm > bound * (1.0 + self.REL) + self.atol:
                self._fail(k, "stationarity bound on accepted subspace step",
                           f"{model_grad_norm!r} > {bound!r}")
            cubic_dec = t_dec - sigma * s_norm ** 3 / 3.0
            if cubic_dec < -self.atol:
                self._fail(k, "cubic model decrease on accepted subspace step",
                           f"{cubic_dec!r}")


def _warm_start(sigma, trace: list[IterationRecord]):
    # Read from the last step taken (a frozen-space rejection takes none).
    # After a rejected step the iterate (and so the spectrum) is unchanged
    # and sigma only grew: its multiplier is a sharp lower start. After an
    # accepted step, sigma times its norm tracks the new root.
    for rec in reversed(trace):
        if rec.step_kind != StepKind.REJECTED.value:
            return sigma * rec.step_norm if rec.accepted else rec.lambda_hat
    return None


def _corrector(state: IterateState, sub: SubspaceResult, cfg: SolverConfig,
               so: bool) -> np.ndarray | None:
    """The regularized Newton step at the subspace multiplier, if it passes.

    regularized_newton_step must not refuse it (in second-order mode the
    shift must also be positive definite), and it must pass the step-ratio
    test against s_hat.
    """
    s = regularized_newton_step(state, sub.lambda_hat,
                                require_positive_definite=so)
    return s if s is not None and step_ratio_ok(s, sub.s_hat, cfg) else None


def _curvature_ok(ctx: ModelContext, s: np.ndarray, floor: float) -> bool:
    """Second-order mode's model-curvature test of a step s: the model's
    curvature at s is at least floor = -theta2*||s||, by a certified bound
    (model_curvature_bound: a Gram operator's Weyl bound, else H's Gershgorin
    interval) or else exactly, with a round-off slack of 1e-8*max(1, |curv|).
    The verdict is the same whichever bound is read: one that passes implies
    the exact test passes, and one that fails leaves the exact test to decide."""
    if model_curvature_bound(ctx, s) >= floor:
        return True
    curv = model_curvature_min(ctx, s)
    return curv >= floor - 1.0e-8 * max(1.0, abs(curv))


def _minimize(problem, cfg: SolverConfig, solver_label: str,
              frozen: bool) -> RunReport:
    t0 = time.perf_counter()
    so = isinstance(cfg, SecondOrderConfig)
    counter = FactorizationCounter()
    x = np.array(problem.x0, dtype=float)
    f, g, H = problem.eval(x, 2)
    state = IterateState(k=0, x=x, f=float(f), g=g,
                         system=ShiftedSystem(H, counter), sigma=cfg.sigma0)
    eps = max(cfg.eps_rel * float(np.linalg.norm(g)),
              1.0e-14 * (1.0 + abs(state.f)))
    mon = _Monitors(state.f, cfg)
    trace: list[IterationRecord] = []
    n_refresh = 0
    status, message = None, ""
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        status = Status.SOLVE_FAILURE
        message = "non-finite oracle values at the start"

    # every solver error ends the run at its last iterate, with the trace
    # and counts so far
    try:
        while status is None:
            gnorm = float(np.linalg.norm(state.g))
            if gnorm <= eps and (not so
                                 or state.system.leftmost[0] >= -cfg.eps_H):
                status = Status.SECOND_ORDER if so else Status.FIRST_ORDER
                break
            if state.k >= cfg.max_iters:
                status = Status.ITER_LIMIT
                break
            if time.perf_counter() - t0 > cfg.time_limit:
                status = Status.TIME_LIMIT
                break

            sub = None
            dim = 0
            hess_step = None
            usable = False
            # at a zero gradient (second-order mode only) the projected
            # problem is empty: dimension 0, on to the full-space solve
            if frozen and gnorm > 0.0:
                if state.basis is None or state.basis.dim == 0:
                    # nothing stored to freeze (zero-gradient start escape)
                    state.refresh = True
                if state.refresh:
                    # counted as it starts, so that one a solver error
                    # interrupts counts too
                    n_refresh += 1
                sub = subspace_minimize(state, cfg)
                dim = sub.s_hat.size
                shat_norm = float(np.linalg.norm(sub.s_hat))
                usable = shat_norm > 0.0

            if usable and sub.passed:
                kind, step, lambda_hat = StepKind.SUBSPACE, sub.step_full, sub.lambda_hat
                hess_step = sub.hess_step
            elif usable and (step := _corrector(state, sub, cfg, so)) is not None:
                kind, lambda_hat = StepKind.REG_NEWTON, sub.lambda_hat
            elif not frozen or state.refresh:
                sol = solve_secular_full_secant(
                    state.g, state.system, state.sigma, cfg.theta1,
                    warm_lambda=_warm_start(state.sigma, trace))
                shat_norm = float(np.linalg.norm(sol.step))
                if so and not _curvature_ok(ModelContext(state.system, state.sigma),
                                            sol.step, -cfg.theta2 * shat_norm):
                    status = Status.SOLVE_FAILURE
                    message = "secant step failed the model-curvature test"
                    break
                kind, step, lambda_hat = StepKind.SECANT, sol.step, sol.lam
            else:
                # curvature/ratio rejection on a frozen space: discard it,
                # keep sigma, and rebuild next iteration
                trace.append(IterationRecord(
                    state.k, state.f, gnorm, state.sigma,
                    StepKind.REJECTED.value, dim, False, math.nan))
                state.refresh = True
                state.k += 1
                continue

            if hess_step is None:
                hess_step = np.asarray(state.system.H @ step).ravel()
            f_trial = problem.eval(state.x + step, 0)[0]
            accepted, sigma_next, rho, t_dec = acceptance_and_sigma_update(
                state, step, cfg, f_trial, Hs=hess_step)
            rec = IterationRecord(
                state.k, state.f, gnorm, state.sigma, kind.value, dim,
                bool(accepted), float(rho), float(lambda_hat),
                float(np.linalg.norm(step)))
            mon.check(rec, shat_norm, t_dec, f_trial,
                      sub.model_grad_norm if kind is StepKind.SUBSPACE else None)
            trace.append(rec)
            state.k += 1
            if accepted:
                x_new = state.x + step
                # not held through the oracle's memory peak
                state.system = state.projection = None
                f, g, H = problem.eval(x_new, 2)
                if not (np.isfinite(f) and np.all(np.isfinite(g))):
                    # the report keeps the last iterate with finite values
                    status = Status.SOLVE_FAILURE
                    message = "oracle returned non-finite values at an accepted point"
                    break
                state.x, state.f, state.g = x_new, float(f), g
                state.system = ShiftedSystem(H, counter)
            state.sigma = sigma_next
            state.refresh = False
    except SolverError as exc:
        status = Status.SOLVE_FAILURE
        message = f"{type(exc).__name__} at iteration {state.k}: {exc}"

    kinds = [t.step_kind for t in trace]
    n_club = kinds.count(StepKind.REJECTED.value)
    return RunReport(
        solver=solver_label, problem=problem.name, n=problem.n,
        status=status.value, x_final=state.x,
        f_final=float(state.f), gnorm_final=float(np.linalg.norm(state.g)),
        n_nli=len(trace), n_fact=counter.count, n_refresh=n_refresh,
        ave_subspace_dim=float(np.mean([t.dim for t in trace])) if trace else 0.0,
        n_subspace_steps=kinds.count(StepKind.SUBSPACE.value),
        n_secant_calls=kinds.count(StepKind.SECANT.value),
        n_unsuccessful_rho=sum(not t.accepted for t in trace) - n_club,
        n_unsuccessful_club=n_club,
        n_rational_solves=counter.rational,
        wall_s=time.perf_counter() - t0, trace=trace,
        violations=mon.violations, message=message)


def far2_solve(problem, cfg: SolverConfig | None = None) -> RunReport:
    """Frozen-subspace adaptive regularization run.

    A SecondOrderConfig makes it the second-order run of far2so_solve.
    """
    cfg = cfg or SolverConfig()
    label = "FAR2-RK" if cfg.space_kind == RATIONAL else "FAR2-PK"
    return _minimize(problem, cfg, solver_label=label, frozen=True)


def far2so_solve(problem, cfg: SecondOrderConfig) -> RunReport:
    """Frozen-subspace run targeting a second-order point.

    Terminates only when both the gradient tolerance and
    lambda_min(H) >= -eps_H hold; every accepted step additionally passes the
    model-curvature test with constant theta2, and the regularized Newton
    corrector is accepted only when the shifted Hessian is strictly positive
    definite (verified by a Cholesky factorization).
    """
    if not isinstance(cfg, SecondOrderConfig):
        raise TypeError("far2so_solve requires a SecondOrderConfig")
    return _minimize(problem, cfg, solver_label="FAR2-SO", frozen=True)


def ar2_solve(problem, cfg: SolverConfig | None = None) -> RunReport:
    """Classic adaptive regularization: a full secular solve per iteration."""
    cfg = cfg or SolverConfig()
    return _minimize(problem, cfg, solver_label="AR2", frozen=False)
