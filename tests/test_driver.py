import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from far2 import driver, secular
from far2.config import POLYNOMIAL, RATIONAL, SolverConfig
from far2.driver import (IterateState, IterationRecord, Status, StepKind,
                         _Monitors, _warm_start, acceptance_and_sigma_update,
                         ar2_solve,
                         far2_solve, far2so_solve, regularized_newton_step,
                         step_ratio_ok, subspace_minimize)
from far2.errors import (EigenSolveError, InternalInvariantError,
                         ReducedSolveError, ShiftFailureError)
from far2.krylov import KrylovBasis, rational_expand
from far2.problems import ObjectiveProblem, get_problem
from far2.secular import ShiftedSystem, solve_secular_reduced
from far2.second_order import SecondOrderConfig

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def make_state(g, H, sigma=1.0, f=0.0, refresh=True, basis=None):
    g = np.asarray(g, dtype=float)
    return IterateState(k=0, x=np.zeros(g.size), f=f, g=g,
                        system=ShiftedSystem(np.asarray(H, float)),
                        sigma=sigma, refresh=refresh, basis=basis)


def quadratic_problem(diag, x0=None, name="quad-fixture"):
    diag = np.asarray(diag, dtype=float)
    n = diag.size
    x0 = np.ones(n) if x0 is None else np.asarray(x0, dtype=float)

    def ev(x, order):
        f = 0.5 * float(diag @ (x * x))
        if order == 0:
            return f, None, None
        g = diag * x
        return f, g, np.diag(diag)

    return ObjectiveProblem(name, n, x0, ev)


class TestStepRatioOk:
    def test_equal_norms(self):
        cfg = SolverConfig()
        assert step_ratio_ok(np.ones(3), np.ones(3), cfg)

    def test_below_floor(self):
        cfg = SolverConfig()
        assert not step_ratio_ok(1e-25 * np.ones(2), np.ones(2), cfg)

    def test_above_cap(self):
        cfg = SolverConfig(c_low=0.5, c_up=1.5)
        assert not step_ratio_ok(2.0 * np.ones(2), np.ones(2), cfg)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            step_ratio_ok(np.ones(2), np.zeros(2), SolverConfig())


class TestAcceptanceAndSigmaUpdate:
    def test_exact_quadratic_gives_rho_one(self):
        H = np.diag([1.0, 2.0])
        x = np.array([1.0, 1.0])
        g = H @ x
        state = make_state(g, H, sigma=0.5, f=0.5 * float(x @ H @ x))
        s = -np.linalg.solve(H + 0.1 * np.eye(2), g)
        f_trial = 0.5 * float((x + s) @ H @ (x + s))
        accepted, sigma_next, rho, _ = acceptance_and_sigma_update(
            state, s, SolverConfig(sigma0=0.5), f_trial, H @ s)
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert accepted
        assert sigma_next == pytest.approx(max(1e-8, 0.1 * 0.5))

    def test_middle_band_keeps_sigma(self):
        # engineered so rho lands in [eta1, eta2)
        state = make_state(np.array([1.0]), np.array([[0.0]]), sigma=2.0, f=1.0)
        s = np.array([-1.0])
        t_dec = 1.0
        f_trial = state.f - 0.5 * t_dec
        accepted, sigma_next, rho, t_dec_out = acceptance_and_sigma_update(
            state, s, SolverConfig(), f_trial, np.zeros(1))
        assert t_dec_out == t_dec
        assert rho == pytest.approx(0.5)
        assert accepted
        assert sigma_next == 2.0

    def test_rejection_doubles_sigma(self):
        state = make_state(np.array([1.0]), np.array([[0.0]]), sigma=3.0, f=1.0)
        s = np.array([-1.0])
        f_trial = state.f - 0.05
        accepted, sigma_next, rho, _ = acceptance_and_sigma_update(
            state, s, SolverConfig(), f_trial, np.zeros(1))
        assert rho == pytest.approx(0.05)
        assert not accepted
        assert sigma_next == pytest.approx(6.0)

    def test_nonpositive_decrease_aborts(self):
        state = make_state(np.array([1.0]), np.array([[0.0]]), f=1.0)
        with pytest.raises(InternalInvariantError):
            acceptance_and_sigma_update(state, np.array([1.0]), SolverConfig(),
                                        0.0, np.zeros(1))


class TestRegularizedNewtonStep:
    def test_direct_solve(self):
        state = make_state(np.array([3.0, 5.0]), np.diag([2.0, 4.0]))
        s = regularized_newton_step(state, 1.0)
        np.testing.assert_allclose(s, [-1.0, -1.0], atol=1e-12)

    def test_negative_curvature_flagged(self):
        # s = -(H + I)^{-1} g = (1, 0) climbs: s^T g > 0
        state = make_state(np.array([1.0, 0.0]), np.diag([-2.0, 1.0]))
        assert regularized_newton_step(state, 1.0) is None

    def test_strict_pd_gate(self):
        state = make_state(np.array([0.0, 1.0]), np.diag([-2.0, 1.0]))
        s = regularized_newton_step(state, 3.0, require_positive_definite=True)
        np.testing.assert_allclose(s, [0.0, -0.25], atol=1e-12)
        assert regularized_newton_step(
            state, 1.0, require_positive_definite=True) is None

    def test_singular_shift_reports_failure(self):
        state = make_state(np.array([0.0, 1.0]), np.diag([-1.0, 1.0]))
        assert regularized_newton_step(state, 1.0) is None


class TestSubspaceMinimize:
    def test_eigenvector_gradient_converges_at_dim_one(self):
        g = np.zeros(5)
        g[0] = 1.0
        state = make_state(g, np.eye(5), sigma=1.0, refresh=True)
        res = subspace_minimize(state, SolverConfig())
        assert res.s_hat.size == 1
        assert res.passed
        assert res.lambda_hat == pytest.approx(GOLDEN, rel=1e-8)
        np.testing.assert_allclose(res.step_full, -GOLDEN * g, atol=1e-8)

    def test_frozen_coordinate_projection(self):
        basis = KrylovBasis.fresh(np.array([1.0, 0.0, 0.0]), POLYNOMIAL)
        g = np.array([0.0, 0.0, 1.0])
        state = make_state(g, np.diag([1.0, 2.0, 3.0]), refresh=False, basis=basis)
        res = subspace_minimize(state, SolverConfig())
        assert state.basis is basis
        assert res.s_hat.size == 2
        np.testing.assert_allclose(res.H_r, np.diag([1.0, 3.0]), atol=1e-12)

    def test_zero_gradient_contract(self):
        state = make_state(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            subspace_minimize(state, SolverConfig())

    def test_multiplier_norm_identity(self, rng):
        for _ in range(5):
            n = 8
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            g = rng.standard_normal(n)
            state = make_state(g, H, sigma=float(rng.uniform(0.2, 3.0)))
            res = subspace_minimize(state, SolverConfig())
            shat = np.linalg.norm(res.s_hat)
            assert res.lambda_hat == pytest.approx(state.sigma * shat,
                                                   rel=1e-8, abs=1e-12)

    def test_rayleigh_ritz_containment(self, rng):
        A = rng.standard_normal((8, 8))
        H = 0.5 * (A + A.T)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        state = make_state(rng.standard_normal(8), H, refresh=False,
                           basis=KrylovBasis(V=Q))
        res = subspace_minimize(state, SolverConfig())
        assert res.s_hat.size == 4
        inner = np.linalg.eigvalsh(res.H_r)
        outer = np.linalg.eigvalsh(H)
        assert inner[0] >= outer[0] - 1e-10
        assert inner[-1] <= outer[-1] + 1e-10

    def test_exhausted_refresh_makes_one_product_per_projected_column(self):
        # j_max - 1 projections, on 1 to j_max - 1 columns, one H·v each;
        # the last expansion's column is never projected on and gets none
        class CountingH:
            def __init__(self, A):
                self.A, self.shape, self.products = A, A.shape, 0

            def __matmul__(self, v):
                self.products += 1
                return self.A @ v

        H = CountingH(np.diag(np.arange(1.0, 21.0)))
        state = IterateState(k=0, x=np.zeros(20), f=0.0, g=np.ones(20),
                             system=ShiftedSystem(H), sigma=1.0)
        res = subspace_minimize(state, SolverConfig(j_max=5, theta1=1e-300))
        assert not res.passed
        assert (res.s_hat.size, state.basis.dim, H.products) == (4, 5, 4)

    def test_polynomial_refresh_memory(self):
        # V and H @ V grow a column at a time and nothing else of size n x j
        # lives across an expansion: about three n x j copies at the peak
        # (8 MB each here), where rebuilding W and H @ W took six
        p = get_problem("TRIDIA", 20000)
        f, g, H = p.eval(p.x0, 2)
        state = IterateState(k=0, x=p.x0.copy(), f=float(f), g=g,
                             system=ShiftedSystem(H), sigma=1.0,
                             refresh=True)
        tracemalloc.start()
        try:
            res = subspace_minimize(state, SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.s_hat.size == 49
        assert peak < 28e6


class TestFar2Solve:
    def test_convex_quadratic_run(self):
        rep = far2_solve(quadratic_problem(np.arange(1.0, 6.0)), SolverConfig())
        assert rep.converged
        assert rep.n_refresh == 1
        assert rep.n_secant_calls == 0
        assert rep.violations == []
        # f-trace non-increasing over accepted iterations
        fs = [t.f for t in rep.trace if t.accepted]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_rosenbrock_two_dim(self):
        rep = far2_solve(get_problem("ROSENBR", 2), SolverConfig())
        assert rep.converged
        assert rep.f_final <= 1e-10
        assert rep.n_nli <= 200
        assert rep.violations == []

    def test_rational_space(self):
        rep = far2_solve(get_problem("ROSENBR", 2),
                         SolverConfig(space_kind=RATIONAL))
        assert rep.solver == "FAR2-RK"
        assert rep.converged
        assert rep.violations == []

    def test_rational_solves_counted_outside_n_fact(self):
        # basis-construction solves are tracked on their own counter, not
        # in the secular/Newton factorization count
        rep = far2_solve(get_problem("INDEF", 25),
                         SolverConfig(space_kind=RATIONAL))
        assert rep.converged
        assert rep.n_rational_solves > 0
        rerun = far2_solve(get_problem("INDEF", 25),
                           SolverConfig(space_kind=RATIONAL))
        assert rerun.n_fact == rep.n_fact  # deterministic and separate

    @pytest.mark.parametrize("j_max,n_rat", [(2, 1), (3, 2), (4, 3)])
    def test_rational_solves_count_the_last_expansion(self, j_max, n_rat):
        # the refresh ends after its last expansion without projecting on
        # it; that expansion's solve still counts
        rep = far2_solve(get_problem("TRIDIA", 25),
                         SolverConfig(space_kind=RATIONAL, j_max=j_max))
        assert rep.converged
        assert rep.n_refresh == 1
        assert rep.n_rational_solves == n_rat

    def test_rational_solves_count_the_breakdown(self, monkeypatch):
        # on DQRTIC-100 the second rational solve ends in happy breakdown
        # and adds no column; it is a solve all the same
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return rational_expand(*args, **kwargs)

        monkeypatch.setattr("far2.driver.rational_expand", counted)
        rep = far2_solve(get_problem("DQRTIC", 100),
                         SolverConfig(space_kind=RATIONAL))
        assert rep.converged
        assert rep.n_rational_solves == len(calls) == 2

    def test_single_column_polynomial_space(self):
        # j_max = 1: the refresh projects on g alone and never expands
        rep = far2_solve(get_problem("ROSENBR", 20), SolverConfig(j_max=1))
        assert rep.status in {s.value for s in Status}
        assert rep.converged
        assert rep.violations == []
        assert max(t.dim for t in rep.trace) <= 2

    def test_immediate_return_at_stationary_start(self):
        rep = far2_solve(quadratic_problem([1.0, 2.0], x0=[0.0, 0.0]))
        assert rep.status == "first_order_point"
        assert rep.n_nli == 0

    def test_sigma_floor_respected(self):
        rep = far2_solve(quadratic_problem(np.arange(1.0, 6.0)),
                         SolverConfig(sigma0=1.0, sigma_min=1e-8))
        assert all(t.sigma >= 1e-8 * (1 - 1e-12) for t in rep.trace)

    def test_sigma_running_max_stabilizes_on_convex_run(self):
        # boundedness monitor: on a strictly convex run the regularization
        # weight never grows, so its running max is flat after iteration 0
        rep = far2_solve(quadratic_problem(np.arange(1.0, 9.0)), SolverConfig())
        assert rep.converged
        sig = [t.sigma for t in rep.trace]
        run_max = np.maximum.accumulate(sig)
        assert np.isfinite(run_max[-1])
        assert run_max[-1] == run_max[0]

    def test_unsuccessful_iterations_keep_f(self):
        rep = far2_solve(get_problem("INDEF", 20), SolverConfig())
        assert rep.violations == []
        for a, b in zip(rep.trace, rep.trace[1:]):
            if not a.accepted:
                assert b.f == a.f
        assert rep.n_unsuccessful_club <= rep.n_refresh

    def test_iteration_cap(self):
        rep = far2_solve(get_problem("ROSENBR", 2), SolverConfig(max_iters=1))
        assert rep.status == "iter_limit"
        assert rep.n_nli == 1

    def test_time_limit(self):
        rep = far2_solve(get_problem("ROSENBR", 2), SolverConfig(time_limit=1e-9))
        assert rep.status == "time_limit"

    def test_sparse_hessian_end_to_end(self):
        import scipy.sparse as sp

        n = 30
        diag = np.arange(1.0, n + 1.0)

        def ev(x, order):
            f = 0.5 * float(diag @ (x * x))
            if order == 0:
                return f, None, None
            g = diag * x
            return f, g, sp.diags(diag, format="csr")

        p = ObjectiveProblem("sparse-quad", n, np.ones(n), ev)
        rep = far2_solve(p, SolverConfig())
        assert rep.converged
        assert rep.violations == []
        p2 = ObjectiveProblem("sparse-quad", n, np.ones(n), ev)
        rep2 = ar2_solve(p2, SolverConfig())
        assert rep2.converged


    def test_second_order_config_is_far2so(self):
        # the curvature tests of the subspace solve and of the loop go together
        cfg = SecondOrderConfig()
        rep = far2_solve(get_problem("INDEF", 30), cfg)
        ref = far2so_solve(get_problem("INDEF", 30), cfg)
        assert (rep.status, rep.n_nli, rep.n_fact) == (ref.status, ref.n_nli,
                                                        ref.n_fact)
        assert rep.status == "second_order_point"
        assert rep.solver == "FAR2-PK" and ref.solver == "FAR2-SO"


class TestAr2Solve:
    def test_factorizations_dominate_iterations(self):
        rep = ar2_solve(quadratic_problem(np.arange(1.0, 6.0)), SolverConfig())
        assert rep.converged
        assert rep.n_fact >= rep.n_nli
        assert rep.n_refresh == 0
        assert rep.n_subspace_steps == 0
        assert rep.violations == []

    def test_frozen_needs_fewer_factorizations(self):
        p1 = quadratic_problem(np.arange(1.0, 6.0))
        p2 = quadratic_problem(np.arange(1.0, 6.0))
        far = far2_solve(p1, SolverConfig())
        ar = ar2_solve(p2, SolverConfig())
        assert far.converged and ar.converged
        assert far.n_fact < ar.n_fact
        assert abs(far.f_final - ar.f_final) <= 1e-8

    def test_immediate_return(self):
        rep = ar2_solve(quadratic_problem([2.0, 3.0], x0=[0.0, 0.0]))
        assert rep.n_nli == 0

    def test_eigensolver_failure_ends_the_run(self, monkeypatch):
        # EG2's full-space solves collapse onto the spectrum edge, where the
        # boundary step asks min_eig for the leftmost eigenvector
        def fail(*args, **kwargs):
            raise EigenSolveError("no convergence")

        monkeypatch.setattr("far2.secular.min_eig", fail)
        rep = ar2_solve(get_problem("EG2", 30))
        assert rep.status == "solve_failure"
        assert rep.message.startswith(
            f"EigenSolveError at iteration {rep.n_nli}: ")
        assert rep.n_nli == len(rep.trace)


BLOCK_SOLVES = [(s, p) for p in ("WOODS", "POWELLSG", "BDARWHD")
                for s in ("FAR2-PK", "FAR2-RK", "AR2")]


@pytest.mark.slow
@pytest.mark.parametrize("solver,name", BLOCK_SOLVES,
                         ids=[f"{s}-{p}" for s, p in BLOCK_SOLVES])
def test_block_problems_at_paper_scale(solver, name):
    """4x4 block Hessians at n = 20000 are solved in O(n) memory.

    A dense H alone would take 3.2 GB; the bound is 64 MB per solve.
    """
    import tracemalloc

    from far2.harness import ProblemSpec, SuiteConfig, run_suite

    spec = ProblemSpec(kind="registry", name=name, n=20000)
    tracemalloc.start()
    try:
        [report] = run_suite(SuiteConfig(solvers=[solver], problems=[spec]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged, report.message
    assert report.violations == []
    assert peak < 64 * 2**20


@pytest.mark.parametrize("name,n", [("CUBE", 2001), ("WOODS", 2004)])
def test_ar2_near_hard_above_the_dense_eigen_cutoff(name, n):
    """AR2's secular solves that collapse onto the spectrum edge above
    DENSE_EIG_CUTOFF, where min_eig is iterative, end in the boundary step,
    not in a failure."""
    from far2.harness import ProblemSpec, SuiteConfig, run_suite

    spec = ProblemSpec(kind="registry", name=name, n=n)
    [report] = run_suite(SuiteConfig(solvers=["AR2"], problems=[spec]))
    assert report.converged, report.message
    assert report.violations == []


ANALYSED_ONCE = [("AR2", "ROSENBR"), ("FAR2-PK", "ROSENBR"), ("FAR2-RK", "INDEF")]


@pytest.mark.parametrize("solver,name", ANALYSED_ONCE,
                         ids=[f"{s}-{p}" for s, p in ANALYSED_ONCE])
def test_each_oracle_hessian_analysed_once(monkeypatch, solver, name):
    """The loop makes one ShiftedSystem of each Hessian it takes from the
    oracle, and the full-space solves, Newton correctors and rational
    expansions of that iterate all factor the same analysis, made at most
    once: AR2 analyses every Hessian but the final one, which it never
    factors."""
    import far2.driver as driver
    import far2.secular as secular
    from far2.harness import ProblemSpec, build_solver_config

    calls = []
    def made(H, counter):
        calls.append(1)
        return secular.ShiftedSystem(H, counter)
    monkeypatch.setattr(driver, "ShiftedSystem", made)
    bands = []
    lower_band = secular._lower_band
    monkeypatch.setattr(secular, "_lower_band",
                        lambda H: bands.append(1) or lower_band(H))
    problem = get_problem(name, 100)
    cfg = build_solver_config(solver, ProblemSpec(name=name, n=100), {})
    rep = (ar2_solve if solver == "AR2" else far2_solve)(problem, cfg)
    assert rep.converged and rep.n_fact > 0
    assert len(calls) == problem.n_H
    if solver == "AR2":
        assert len(bands) == problem.n_H - 1
    else:
        assert len(bands) <= problem.n_H


@pytest.mark.parametrize("solver", [ar2_solve, far2_solve],
                         ids=["AR2", "FAR2-PK"])
def test_loss_hessians_formed_on_demand(monkeypatch, solver):
    """A loss Hessian's matrix is formed only when a factorization or an
    eigensolve reads it: fewer are formed than evaluated, and never the
    one at the final point, which no solve factors."""
    from far2 import problems

    formed = []
    real = problems._weighted_gram
    monkeypatch.setattr(problems, "_weighted_gram",
                        lambda A, w: formed.append(w) or real(A, w))
    data = problems.remap_labels(problems.synth_classification(300, 20, seed=3), "01")
    p = problems.sigmoid_objective(data)
    hessians = []
    evaluate = p.eval

    def eval_recording(x, order=2):
        out = evaluate(x, order)
        if order == 2:
            hessians.append(out[2])
        return out

    p.eval = eval_recording
    rep = solver(p, SolverConfig(eps_rel=1e-3))
    assert rep.converged and rep.n_fact > 0
    assert len(hessians) == p.n_H and len(formed) < p.n_H
    assert not any(w is hessians[-1].w for w in formed)


@pytest.mark.parametrize("solve", [ar2_solve, far2_solve], ids=["AR2", "FAR2-PK"])
def test_nonfinite_oracle_exit_reports_the_last_finite_iterate(solve):
    # f = (x - 2)^2 / 2 whose gradient turns NaN at x >= 1.5: the run
    # accepts a step into that region and stops, reporting the iterate
    # before it together with that iterate's own oracle values
    def ev(x, order):
        f = 0.5 * float((x[0] - 2.0) ** 2)
        g = np.array([x[0] - 2.0 if x[0] < 1.5 else math.nan])
        return f, g, np.eye(1)

    problem = ObjectiveProblem("nan-gradient", 1, np.zeros(1), ev)
    rep = solve(problem)
    assert rep.status == Status.SOLVE_FAILURE.value
    assert "non-finite" in rep.message
    assert problem.eval(rep.x_final, 0)[0] == rep.f_final
    assert abs(problem.eval(rep.x_final, 1)[1][0]) == rep.gnorm_final


def assert_ends_at_last_iterate(rep, problem, error):
    """A solver error mid-run: solve_failure at the last accepted iterate,
    with the trace and counts of the iterations before it."""
    assert rep.status == Status.SOLVE_FAILURE.value
    assert rep.message.startswith(f"{error} at iteration {rep.n_nli}: ")
    assert rep.n_nli > 0 and rep.n_nli == len(rep.trace)
    assert math.isfinite(rep.f_final)
    assert problem.eval(rep.x_final, 0)[0] == rep.f_final
    assert rep.f_final <= min(t.f for t in rep.trace)
    assert not rep.violations


def test_shift_failure_ends_the_run_at_its_last_iterate(monkeypatch):
    # ROSENBR-20 under FAR2-RK makes 10 rational expansions over two
    # refreshes; the last one fails, at iteration 23
    calls = []

    def expand(*args, **kwargs):
        calls.append(1)
        if len(calls) == 10:
            raise ShiftFailureError("shift 0.5 remained singular")
        return rational_expand(*args, **kwargs)

    monkeypatch.setattr("far2.driver.rational_expand", expand)
    problem = get_problem("ROSENBR", 20)
    rep = far2_solve(problem, SolverConfig(space_kind=RATIONAL))
    assert_ends_at_last_iterate(rep, problem, "ShiftFailureError")
    # the interrupted refresh counts, with the four rational solves it made
    # before its failing fifth
    assert rep.n_fact > 0
    assert (rep.n_refresh, rep.n_rational_solves) == (2, 9)


def test_reduced_solve_failure_ends_the_run_at_its_last_iterate(monkeypatch):
    # ROSENBR-20 under FAR2-PK makes 11 projected solves in its first
    # refresh and one per frozen iteration after it; the 20th, at iteration
    # 9, raises, and no other step stands in for it
    calls = []

    def reduced(*args, **kwargs):
        calls.append(1)
        if len(calls) == 20:
            raise ReducedSolveError("could not bracket the secular root")
        return solve_secular_reduced(*args, **kwargs)

    monkeypatch.setattr("far2.driver.solve_secular_reduced", reduced)
    problem = get_problem("ROSENBR", 20)
    rep = far2_solve(problem, SolverConfig())
    assert_ends_at_last_iterate(rep, problem, "ReducedSolveError")
    assert len(calls) == 20 and rep.n_nli == 9


def test_reduced_eigensolve_failure_ends_the_run_at_its_last_iterate(monkeypatch):
    # dsyevr reports failure (info != 0) in its 20th call: a
    # ReducedSolveError, which ends the run like any other solver error.
    # A solve after a rejected step re-roots on its kept spectrum and
    # makes no dsyevr call, so the 20th call comes at iteration 23
    calls = []

    def syevr(*args, **kwargs):
        calls.append(1)
        *out, info = real(*args, **kwargs)
        return (*out, 1 if len(calls) == 20 else info)

    real = secular._syevr
    monkeypatch.setattr(secular, "_syevr", syevr)
    problem = get_problem("ROSENBR", 20)
    rep = far2_solve(problem, SolverConfig())
    assert_ends_at_last_iterate(rep, problem, "ReducedSolveError")
    assert len(calls) == 20 and rep.n_nli == 23


def test_termination_eigensolve_failure_ends_the_run(monkeypatch):
    def fail(*args, **kwargs):
        raise EigenSolveError("no convergence")

    # the termination test reads the pair the iterate's system keeps
    monkeypatch.setattr("far2.secular.min_eig", fail)
    problem = get_problem("ROSENBR", 2)
    rep = far2so_solve(problem, SecondOrderConfig())
    assert_ends_at_last_iterate(rep, problem, "EigenSolveError")
    # the failure came at the stationarity test, not before it
    assert rep.gnorm_final <= 1e-6 * rep.trace[0].gnorm


def test_records_carry_multiplier_and_step_norm():
    reports = [ar2_solve(get_problem("INDEF", 12)),
               far2_solve(get_problem("INDEF", 12))]
    records = [t for r in reports for t in r.trace]
    kinds = {t.step_kind for t in records}
    assert {"subspace", "secant", "rejected"} <= kinds
    for t in records:
        if t.step_kind == "rejected":
            assert math.isnan(t.lambda_hat) and math.isnan(t.step_norm)
        elif t.step_kind in ("subspace", "secant"):
            assert (abs(t.lambda_hat - t.sigma * t.step_norm)
                    <= 1e-8 * t.lambda_hat)


def test_warm_start_reads_the_last_step_taken():
    def rec(kind, accepted, lam=math.nan, norm=math.nan):
        return IterationRecord(0, 0.0, 1.0, 1.0, kind, 0, accepted, 0.5,
                               lam, norm)

    taken = rec("secant", True, 0.3, 0.2)
    refused = rec("newton", False, 0.7, 0.4)
    frozen_rejection = rec("rejected", False)
    assert _warm_start(2.0, []) is None
    assert _warm_start(2.0, [taken]) == 2.0 * 0.2
    assert _warm_start(2.0, [taken, refused]) == 0.7
    assert _warm_start(2.0, [refused, taken, frozen_rejection]) == 2.0 * 0.2
    assert _warm_start(2.0, [frozen_rejection]) is None


@pytest.mark.parametrize("bad", [1, 3], ids=["1st-hessian", "3rd-hessian"])
@pytest.mark.parametrize("solve,error", [(ar2_solve, "NonFiniteHessianError"),
                                         (far2_solve, "ReducedSolveError")],
                         ids=["AR2", "FAR2-PK"])
def test_nonfinite_hessian_ends_the_run_at_its_iterate(solve, error, bad,
                                                       monkeypatch):
    # ROSENBR-20 whose bad-th Hessian has a NaN diagonal entry, f and g
    # finite: AR2's first reader of H's entries (the iterate's
    # ShiftedSystem) and FAR2's projected problem (made of products with
    # H) raise a solver error, and the run ends there with the trace so
    # far; no factorization is made at that iterate
    problem = get_problem("ROSENBR", 20)
    raw = problem._raw

    def ev(x, order):
        f, g, H = raw(x, order)
        if order == 2 and problem.n_H == bad:
            H = H.copy()
            H.data[0] = math.nan
        return f, g, H

    problem._raw = ev
    factored_at = []
    factor = secular._factor

    def counted(*args, **kwargs):
        solve = factor(*args, **kwargs)
        factored_at.append(problem.n_H)
        return solve

    monkeypatch.setattr(secular, "_factor", counted)
    rep = solve(problem)
    assert rep.status == Status.SOLVE_FAILURE.value
    assert rep.message.startswith(f"{error} at iteration {rep.n_nli}: ")
    assert problem.n_H == bad and rep.n_nli == len(rep.trace)
    assert sum(t.accepted for t in rep.trace) == bad - 1
    assert bad not in factored_at
    assert problem.eval(rep.x_final, 0)[0] == rep.f_final
    assert not rep.violations


def test_dense_eigensolve_failure_ends_the_run(monkeypatch):
    # a LinAlgError of min_eig's dense eigensolver is an EigenSolveError,
    # which ends the run like any other solver error
    def fail(*args, **kwargs):
        raise sla.LinAlgError("dsyevr did not converge")

    monkeypatch.setattr("far2.second_order.sla.eigh", fail)
    problem = get_problem("ROSENBR", 2)
    rep = far2so_solve(problem, SecondOrderConfig())
    assert rep.status == Status.SOLVE_FAILURE.value
    assert rep.message.startswith(f"EigenSolveError at iteration {rep.n_nli}: ")
    assert rep.message.endswith("dsyevr did not converge")
    assert rep.n_nli == len(rep.trace)
    assert problem.eval(rep.x_final, 0)[0] == rep.f_final


# An accepted secant step that meets every monitored guarantee under the
# default SolverConfig: at iteration 3, f = 1, sigma = 1 and lambda_hat =
# sigma*||s_hat|| = 1 with ||s|| = ||s_hat|| = 1, a Taylor decrease of 1
# and f_trial = 0.
GOOD_STEP = IterationRecord(k=3, f=1.0, gnorm=1.0, sigma=1.0,
                            step_kind="secant", dim=1, accepted=True, rho=1.0,
                            lambda_hat=1.0, step_norm=1.0)
GOOD_CHECK = dict(shat_norm=1.0, t_dec=1.0, f_trial=0.0, model_grad_norm=None)


@pytest.mark.parametrize("record,check,line", [
    ({}, {"t_dec": 0.25},
     "k=3: taylor decrease >= (sigma/3)||s||^3: 0.25 < 0.3333333333333333"),
    ({"step_kind": "newton"}, {"t_dec": 0.375},
     "k=3: taylor decrease >= (sigma/2)||s_hat|| ||s||^2: 0.375 < 0.5"),
    ({"lambda_hat": 1.5}, {}, "k=3: lambda_hat = sigma*||s_hat||: 1.5 vs 1.0"),
    ({}, {"f_trial": 0.96875},
     "k=3: eta1-sufficient decrease: 0.03125 < eta1*1.0"),
    # f rises by more than atol = 1e-13; only a Taylor decrease in
    # [-atol, 0) keeps the eta1 test (its bar now about -1.05e-13) quiet
    ({"f": 0.0, "lambda_hat": 0.0, "step_norm": 0.0},
     {"shat_norm": 0.0, "t_dec": -5e-14, "f_trial": 1.02e-13},
     "k=3: monotone f on successful steps: 1.02e-13 > 0.0"),
    ({"step_kind": "subspace"}, {"model_grad_norm": 0.25},
     "k=3: stationarity bound on accepted subspace step: 0.25 > 0.05"),
    # sigma = 3 puts the cubic term at 1: a decrease of 1 - 2^-30 keeps the
    # Taylor bound within its 1e-8 relative slack but not the cubic one
    ({"step_kind": "subspace", "sigma": 3.0, "lambda_hat": 3.0},
     {"t_dec": 1.0 - 2.0 ** -30, "model_grad_norm": 0.0},
     "k=3: cubic model decrease on accepted subspace step: "
     "-9.313225746154785e-10"),
    ({"sigma": 5e-9, "lambda_hat": 5e-9}, {},
     "k=3: sigma >= sigma_min: 5e-09"),
], ids=["taylor-cubic", "taylor-corrector", "lambda-hat", "eta1", "monotone",
        "stationarity", "cubic-decrease", "sigma-floor"])
def test_each_monitor_reports_its_violation(record, check, line):
    rec = dataclasses.replace(GOOD_STEP, **record)
    mon = _Monitors(rec.f, SolverConfig())
    mon.check(rec, **{**GOOD_CHECK, **check})
    assert mon.violations == [line]


def test_a_wrong_multiplier_is_reported(monkeypatch):
    # a reduced solve whose multiplier is 1e-6 too large breaks
    # lambda_hat = sigma*||s_hat|| on the subspace steps of a FAR2-PK run
    reduced = solve_secular_reduced

    def skewed(*args, **kwargs):
        sol = reduced(*args, **kwargs)
        return dataclasses.replace(sol, lam=sol.lam * (1.0 + 1e-6))

    monkeypatch.setattr("far2.driver.solve_secular_reduced", skewed)
    rep = far2_solve(get_problem("ROSENBR", 20), SolverConfig())
    assert any(": lambda_hat = sigma*||s_hat||: " in v for v in rep.violations)


def _report_bits(rep):
    """What two runs that take the same steps agree on bit for bit."""
    return (rep.status, rep.n_nli, rep.n_fact, rep.n_rational_solves,
            [repr(dataclasses.astuple(t)) for t in rep.trace],
            rep.x_final.tobytes())


@pytest.mark.parametrize("kind", [POLYNOMIAL, RATIONAL])
@pytest.mark.parametrize("name,n", [("ROSENBR", 20), ("INDEF", 30),
                                    ("WOODS", 20)])
def test_kept_projection_changes_no_bit(monkeypatch, kind, name, n):
    # a solve after a rejected step re-roots on the kept projection; a run
    # that drops it before every subspace solve rebuilds it from the same
    # basis, g and H, and takes the same steps
    cfg = SolverConfig(space_kind=kind)
    reused = []
    real_reduced = driver.solve_secular_reduced

    def reduced(*args, spectrum=None):
        reused.append(spectrum is not None)
        return real_reduced(*args, spectrum=spectrum)

    monkeypatch.setattr(driver, "solve_secular_reduced", reduced)
    kept = far2_solve(get_problem(name, n), cfg)
    assert kept.converged and any(reused)
    real_subspace = driver.subspace_minimize

    def dropping(state, cfg):
        state.projection = None
        return real_subspace(state, cfg)

    monkeypatch.setattr(driver, "subspace_minimize", dropping)
    reused.clear()
    dropped = far2_solve(get_problem(name, n), cfg)
    assert not any(reused)
    assert _report_bits(kept) == _report_bits(dropped)


@pytest.mark.parametrize("kind", [POLYNOMIAL, RATIONAL])
def test_one_augmentation_per_frozen_iterate(monkeypatch, kind):
    # the first frozen solve at an iterate augments the basis with g and
    # projects; the solves after its rejected steps augment nothing
    frozen, augmented, refreshes, inside = [], [], [0], [False]
    real_subspace, real_augment = (driver.subspace_minimize,
                                   driver.orth_augment)

    def subspace(state, cfg):
        if state.refresh:
            refreshes[0] += 1
            return real_subspace(state, cfg)
        frozen.append((state.x.tobytes(), refreshes[0]))
        inside[0] = True
        try:
            return real_subspace(state, cfg)
        finally:
            inside[0] = False

    def augment(*args):
        augmented.append(inside[0])
        return real_augment(*args)

    monkeypatch.setattr(driver, "subspace_minimize", subspace)
    monkeypatch.setattr(driver, "orth_augment", augment)
    rep = far2_solve(get_problem("ROSENBR", 20), SolverConfig(space_kind=kind))
    assert rep.converged
    iterates = len(set(frozen))
    assert sum(augmented) == iterates < len(frozen)


def test_no_kept_projection_outlives_an_accepted_step(monkeypatch):
    # the loop drops the kept projection, with the iterate's system, before
    # the oracle evaluates an accepted point
    alive, checked = [], []
    real_projection = driver._projection

    def projection(state, W, HW=None):
        proj = real_projection(state, W, HW)
        # a polynomial refresh projects onto V itself, which the basis holds
        arrays = [proj, proj.HW] + ([] if W is state.basis.V else [proj.W])
        alive.extend(weakref.ref(a) for a in arrays)
        return proj

    problem = get_problem("ROSENBR", 20)
    real_eval = problem.eval

    def evaluate(x, order=2):
        if order == 2:
            checked.append(len(alive))
            assert all(ref() is None for ref in alive)
        return real_eval(x, order)

    monkeypatch.setattr(driver, "_projection", projection)
    monkeypatch.setattr(problem, "eval", evaluate)
    rep = far2_solve(problem, SolverConfig())
    assert rep.converged and rep.n_unsuccessful_rho > 0
    assert len(checked) > 2 and checked[-1] > 0
