import math

import numpy as np
import pytest

from far2.config import RATIONAL, SolverConfig
from far2.driver import (IterateState, StepKind, acceptance_and_sigma_update,
                         ar2_solve, far2_solve, regularized_newton_step,
                         step_ratio_ok, subspace_minimize)
from far2.errors import InternalInvariantError
from far2.krylov import KrylovBasis
from far2.problems import ObjectiveProblem, get_problem

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def make_state(g, H, sigma=1.0, f=0.0, refresh=True, basis=None):
    g = np.asarray(g, dtype=float)
    return IterateState(k=0, x=np.zeros(g.size), f=f, g=g, H=np.asarray(H, float),
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
        if order == 1:
            return f, g, None
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
        accepted, sigma_next, rho = acceptance_and_sigma_update(
            state, s, SolverConfig(sigma0=0.5), f_trial)
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert accepted
        assert sigma_next == pytest.approx(max(1e-8, 0.1 * 0.5))

    def test_middle_band_keeps_sigma(self):
        # engineered so rho lands in [eta1, eta2)
        state = make_state(np.array([1.0]), np.array([[0.0]]), sigma=2.0, f=1.0)
        s = np.array([-1.0])
        t_dec = 1.0
        f_trial = state.f - 0.5 * t_dec
        accepted, sigma_next, rho = acceptance_and_sigma_update(
            state, s, SolverConfig(), f_trial)
        assert rho == pytest.approx(0.5)
        assert accepted
        assert sigma_next == 2.0

    def test_rejection_doubles_sigma(self):
        state = make_state(np.array([1.0]), np.array([[0.0]]), sigma=3.0, f=1.0)
        s = np.array([-1.0])
        f_trial = state.f - 0.05
        accepted, sigma_next, rho = acceptance_and_sigma_update(
            state, s, SolverConfig(), f_trial)
        assert rho == pytest.approx(0.05)
        assert not accepted
        assert sigma_next == pytest.approx(6.0)

    def test_nonpositive_decrease_aborts(self):
        state = make_state(np.array([1.0]), np.array([[0.0]]), f=1.0)
        with pytest.raises(InternalInvariantError):
            acceptance_and_sigma_update(state, np.array([1.0]), SolverConfig(), 0.0)


class TestRegularizedNewtonStep:
    def test_direct_solve(self):
        state = make_state(np.array([3.0, 5.0]), np.diag([2.0, 4.0]))
        s, ok = regularized_newton_step(state, 1.0)
        np.testing.assert_allclose(s, [-1.0, -1.0], atol=1e-12)
        assert ok

    def test_negative_curvature_flagged(self):
        state = make_state(np.array([1.0, 0.0]), np.diag([-2.0, 1.0]))
        s, ok = regularized_newton_step(state, 1.0)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)
        assert not ok

    def test_strict_pd_gate(self):
        state = make_state(np.array([0.0, 1.0]), np.diag([-2.0, 1.0]))
        _, ok = regularized_newton_step(state, 3.0, require_positive_definite=True)
        assert ok
        _, ok = regularized_newton_step(state, 1.0, require_positive_definite=True)
        assert not ok

    def test_singular_shift_reports_failure(self):
        state = make_state(np.array([0.0, 1.0]), np.diag([-1.0, 1.0]))
        s, ok = regularized_newton_step(state, 1.0)
        assert not ok


class TestSubspaceMinimize:
    def test_eigenvector_gradient_converges_at_dim_one(self):
        g = np.zeros(5)
        g[0] = 1.0
        state = make_state(g, np.eye(5), sigma=1.0, refresh=True)
        res = subspace_minimize(state, SolverConfig())
        assert res.refreshed
        assert res.dim == 1
        assert res.meets_stationarity
        assert res.lambda_hat == pytest.approx(GOLDEN, rel=1e-8)
        np.testing.assert_allclose(res.step_full, -GOLDEN * g, atol=1e-8)

    def test_frozen_coordinate_projection(self):
        basis = KrylovBasis.fresh_polynomial(np.array([1.0, 0.0, 0.0]))
        g = np.array([0.0, 0.0, 1.0])
        state = make_state(g, np.diag([1.0, 2.0, 3.0]), refresh=False, basis=basis)
        res = subspace_minimize(state, SolverConfig())
        assert not res.refreshed
        assert res.dim == 2
        np.testing.assert_allclose(res.H_r, np.diag([1.0, 3.0]), atol=1e-12)
        np.testing.assert_allclose(res.g_r, np.array([0.0, 1.0]), atol=1e-12)

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
            if order == 1:
                return f, g, None
            return f, g, sp.diags(diag, format="csr")

        p = ObjectiveProblem("sparse-quad", n, np.ones(n), ev)
        rep = far2_solve(p, SolverConfig())
        assert rep.converged
        assert rep.violations == []
        p2 = ObjectiveProblem("sparse-quad", n, np.ones(n), ev)
        rep2 = ar2_solve(p2, SolverConfig())
        assert rep2.converged


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


class TestSymmetrizeOnce:
    def test_model_context_follows_h(self, rng):
        A, B = rng.standard_normal((2, 5, 5))
        state = make_state(np.ones(5), A)
        ctx = state.model_context()
        np.testing.assert_array_equal(ctx.H, 0.5 * (A + A.T))
        assert state.model_context().H is ctx.H
        state.H = B
        np.testing.assert_array_equal(state.model_context().H, 0.5 * (B + B.T))

    def test_once_per_hessian_value_and_only_under_far2so(self, monkeypatch):
        import far2.driver as driver
        from far2.second_order import SecondOrderConfig, far2so_solve

        calls = []
        symmetrize = driver.symmetrize
        monkeypatch.setattr(driver, "symmetrize",
                            lambda H: calls.append(1) or symmetrize(H))
        rep = far2_solve(get_problem("ROSENBR", 20), SolverConfig())
        assert rep.converged and calls == []
        p = get_problem("ROSENBR", 20)
        rep = far2so_solve(p, SecondOrderConfig())
        assert rep.status == "second_order_point"
        assert 0 < len(calls) <= p.n_H < rep.n_nli
