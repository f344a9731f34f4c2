import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_force_cubic_min, cubic_model_value, random_symmetric
from far2 import secular
from far2.driver import ar2_solve
from far2.errors import ReducedSolveError, SingularShiftError
from far2.model import ModelContext, model_curvature_min
from far2.problems import get_problem
from far2.secular import (SecularCase, ShiftedFactorization, ShiftedSystem,
                          solve_secular_full_secant, solve_secular_reduced)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestFactorizeShifted:
    def test_positive_definite(self):
        fac = ShiftedFactorization(ShiftedSystem(np.diag([1.0, 2.0])), 0.0)
        assert fac.positive_definite
        np.testing.assert_allclose(fac.solve(np.array([1.0, 0.0])),
                                   np.array([1.0, 0.0]))

    def test_indefinite(self):
        fac = ShiftedFactorization(ShiftedSystem(np.diag([-1.0, 1.0])), 0.0)
        assert not fac.positive_definite
        np.testing.assert_allclose(fac.solve(np.array([1.0, 1.0])),
                                   np.array([-1.0, 1.0]))

    def test_singular_shift_raises(self):
        fac = ShiftedFactorization(ShiftedSystem(np.diag([-1.0, 1.0])), 1.0)
        assert not fac.positive_definite
        with pytest.raises(SingularShiftError):
            fac.solve(np.ones(2))

    def test_tridiagonal_path_matches_dense(self, rng):
        n = 40
        d = rng.standard_normal(n) * 2
        e = rng.standard_normal(n - 1)
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        b = rng.standard_normal(n)
        fac = ShiftedFactorization(ShiftedSystem(T), 1.3)
        x = fac.solve(b)
        np.testing.assert_allclose((T + 1.3 * np.eye(n)) @ x, b, atol=1e-9)
        w = np.linalg.eigvalsh(T + 1.3 * np.eye(n))
        assert fac.positive_definite == bool(w[0] > 0)

    def test_counter_only_when_supplied(self):
        # the system's counter counts a factorization only when asked to
        system = ShiftedSystem(np.eye(4))
        ShiftedFactorization(system, 0.0)
        assert system.counter.count == 0
        ShiftedFactorization(system, 0.0, counted=True)
        assert system.counter.count == 1

    def test_lanczos_factor_is_not_kept(self):
        # above the dense cutoff min_eig factors H once for Lanczos,
        # uncounted: the counted entry goes, and nothing takes its place
        d = np.arange(1.0, 2002.0)
        system = ShiftedSystem(sp.diags([d], [0], format="csr"))
        ShiftedFactorization(system, 0.5, counted=True)
        assert system.last.lam == 0.5
        assert system.leftmost[0] == pytest.approx(1.0, rel=1e-10)
        assert system.last is None and system.counter.count == 1


class TestSolveSecularReduced:
    def test_scalar_golden(self):
        sol = solve_secular_reduced(np.array([1.0]), np.array([[1.0]]), 1.0)
        assert sol.case is SecularCase.EASY
        assert sol.lam == pytest.approx(GOLDEN, abs=1e-10)
        assert sol.step[0] == pytest.approx(-GOLDEN, abs=1e-10)

    def test_hard_case(self):
        sol = solve_secular_reduced(np.array([0.0, 1.0]), np.diag([-1.0, 1.0]), 1.0)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sol.step) == pytest.approx(1.0, rel=1e-10)
        assert abs(sol.alpha) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-10)
        assert abs(abs(sol.step[0]) - math.sqrt(3.0) / 2.0) < 1e-10
        assert sol.step[1] == pytest.approx(-0.5, abs=1e-10)

    def test_zero_gradient_definite(self):
        sol = solve_secular_reduced(np.zeros(2), np.diag([3.0, 5.0]), 1.0)
        assert sol.case is SecularCase.EASY
        assert sol.lam == 0.0
        np.testing.assert_array_equal(sol.step, np.zeros(2))

    def test_zero_gradient_indefinite_pure_eigstep(self):
        sol = solve_secular_reduced(np.zeros(2), np.diag([-2.0, 1.0]), 0.5)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(2.0)
        assert np.linalg.norm(sol.step) == pytest.approx(4.0, rel=1e-12)

    def test_norm_multiplier_identity(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 6))
            H = random_symmetric(rng, m, scale=2.0)
            g = rng.standard_normal(m)
            sigma = float(rng.uniform(0.05, 8.0))
            sol = solve_secular_reduced(g, H, sigma)
            assert (np.linalg.norm(sol.step) * sigma
                    == pytest.approx(sol.lam, rel=1e-8, abs=1e-12))
            if sol.case is SecularCase.EASY:
                resid = np.linalg.norm((H + sol.lam * np.eye(m)) @ sol.step + g)
                assert resid <= 1e-7 * max(1.0, np.linalg.norm(g))

    def test_hard_case_shifted_system_on_complement(self):
        H = np.diag([-1.0, 1.0, 2.0])
        g = np.array([0.0, 1.0, -2.0])
        sol = solve_secular_reduced(g, H, 1.0)
        assert sol.case is SecularCase.HARD
        resid = (H + sol.lam * np.eye(3)) @ sol.step + g
        # residual must vanish off the leftmost eigenspace
        assert np.linalg.norm(resid[1:]) < 1e-8
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-8)

    def test_agrees_with_brute_force(self, rng):
        # both secular solves, the reduced one and the full-space one, on
        # the same small easy instances
        for m in (1, 2, 3, 4):
            H = random_symmetric(rng, m, scale=1.5)
            g = rng.standard_normal(m)
            sigma = float(rng.uniform(0.3, 3.0))
            box = 3.0 * np.linalg.norm(g) / math.sqrt(sigma) + 3.0
            grid = 21 if m <= 3 else 9
            ref, _ = brute_force_cubic_min(g, H, sigma, box=min(box, 6.0),
                                           grid=grid)
            for sol in (solve_secular_reduced(g, H, sigma),
                        solve_secular_full_secant(g, ShiftedSystem(H),
                                                  sigma, 0.1)):
                assert cubic_model_value(sol.step, g, H, sigma) <= ref + 1e-6

    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_near_hard_agrees_with_brute_force(self, seed, m):
        # lambda_1 in [-2, -0.1] and g with weight 1e-5 of its norm on the
        # leftmost eigenvector: the root often sits so close to the spectrum
        # edge that the bracket collapses, and the step is the boundary
        # step, whose eigenvector weight must take the sign of lower model
        # value
        rng = np.random.default_rng(seed)
        H = random_symmetric(rng, m)
        eigs, Q = np.linalg.eigh(H)
        H = H - (eigs[0] + rng.uniform(0.1, 2.0)) * np.eye(m)
        g = rng.standard_normal(m) * 10.0 ** rng.uniform(-1.0, 0.0)
        g -= (Q[:, 0] @ g) * Q[:, 0]
        g += 1e-5 * np.linalg.norm(g) * Q[:, 0]
        sol = solve_secular_reduced(g, H, 1.0)
        box = 1.5 * np.linalg.norm(sol.step) + 0.1
        ref, _ = brute_force_cubic_min(g, H, 1.0, box=box,
                                       grid=21 if m == 2 else 11)
        assert cubic_model_value(sol.step, g, H, 1.0) <= ref + 1e-6

    def test_nonfinite_rejected(self):
        with pytest.raises(ReducedSolveError):
            solve_secular_reduced(np.array([np.nan]), np.array([[1.0]]), 1.0)

    def test_model_root_steps_on_easy_instances(self, monkeypatch):
        # m in [2, 40], a rotated spectrum in scale [-1, 1] and g's
        # coordinates of size scale [0.5, 1] in its eigenbasis, scale in
        # [1e-3, 1e3] (sigma too): every step is the full-space solve's
        # model root, one call of _inverse_norm_derivatives. Over seeds
        # 0-2999 the solve takes 2 to 4 of them.
        steps = []
        derivatives = secular._inverse_norm_derivatives
        monkeypatch.setattr(secular, "_inverse_norm_derivatives",
                            lambda *a: steps.append(1) or derivatives(*a))
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m, scale = int(rng.integers(2, 41)), 10.0 ** rng.uniform(-3, 3)
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            H = (Q * (scale * rng.uniform(-1.0, 1.0, m))) @ Q.T
            H = 0.5 * (H + H.T)
            c = scale * rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 1.0, m)
            steps.clear()
            sol = solve_secular_reduced(Q @ c, H, scale)
            assert sol.case is SecularCase.EASY
            assert 1 <= len(steps) <= 4
            assert np.linalg.norm(sol.step) == pytest.approx(sol.lam / scale,
                                                             rel=1e-12)


def _repeated_eigenvalues(n):
    # Q diag(1, 1, 1, 2, 2, ...) Q^T with a seeded orthogonal Q, exactly
    # symmetric
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    A = (Q * np.where(np.arange(n) < n // 2, 1.0, 2.0)) @ Q.T
    return np.tril(A) + np.tril(A, -1).T


class TestEigh:
    """secular._eigh is scipy.linalg.eigh's default path, bit for bit: a
    scipy whose eigh picks another driver or other arguments fails here."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_random_symmetric(self, n):
        A = random_symmetric(np.random.default_rng(n), n)
        self.assert_is_eigh(A)

    @pytest.mark.parametrize("A", [np.zeros((5, 5)), np.diag([3.0, -1.0, 0.0, 2.0]),
                                   _repeated_eigenvalues(6), _repeated_eigenvalues(9)],
                             ids=["zero", "diagonal", "repeated-6", "repeated-9"])
    def test_structured(self, A):
        self.assert_is_eigh(A)

    @staticmethod
    def assert_is_eigh(A):
        eigs, Q = secular._eigh(A)
        ref_eigs, ref_Q = sla.eigh(A)
        assert np.array_equal(eigs, ref_eigs)
        assert np.array_equal(Q, ref_Q)


class TestRootErrorState:
    """The root loop silences division by zero, 0/0 and overflow in one
    np.errstate per solve: no RuntimeWarning escapes it, and the caller's
    error state is the same after it returns and after it raises."""

    @staticmethod
    def cases():
        Hh = np.diag([-1.0, 1.0, 2.0])
        yield np.array([0.0, 1.0, -2.0]), Hh, 1.0          # hard case
        yield np.zeros(3), Hh, 0.5                          # pure eigenvector step
        # hard cases at both scales, sigma scaled with H so that ||s|| ~ 1
        for scale in (1e150, 1e-150):
            yield np.array([0.0, scale, scale]), scale * Hh, scale
        rng = np.random.default_rng(3)
        A, B = random_symmetric(rng, 4), rng.standard_normal((4, 4))
        for scale in (1e150, 1e-150):
            yield np.full(4, scale), scale * A, scale
            # g and H at opposite extremes, H positive definite
            yield np.full(4, 1.0 / scale), scale * (B @ B.T + np.eye(4)), 1.0
        # ||g|| overflows: the first lambda is inf, and no bracket closes
        yield np.full(2, 1.5e308), np.eye(2), 1.0

    def test_no_warning_and_state_kept(self):
        before = np.geterr()
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, H, sigma in self.cases():
                try:
                    sol = solve_secular_reduced(g, H, sigma)
                    outcomes.add(sol.case)
                except ReducedSolveError:
                    outcomes.add("raised")
                assert np.geterr() == before
        assert outcomes == {SecularCase.EASY, SecularCase.HARD, "raised"}

    def test_state_kept_when_the_bracket_fails(self, monkeypatch):
        # no step allowed: the bracket's upper end stays infinite, and the
        # solve raises inside np.errstate
        monkeypatch.setattr(secular, "MAX_ROOT_STEPS", 0)
        with np.errstate(all="raise"):
            before = np.geterr()
            with pytest.raises(ReducedSolveError, match="could not bracket"):
                solve_secular_reduced(np.array([1e8]), np.array([[1.0]]), 1.0)
            assert np.geterr() == before

    def test_state_kept_when_the_budget_runs_out(self, monkeypatch):
        # three steps bracket the root of a hard case but do not collapse
        # the bracket onto its edge
        monkeypatch.setattr(secular, "MAX_ROOT_STEPS", 3)
        with np.errstate(all="raise"):
            before = np.geterr()
            with pytest.raises(ReducedSolveError, match="exhausted its budget"):
                solve_secular_reduced(np.array([0.0, 1.0, -2.0]),
                                      np.diag([-1.0, 1.0, 2.0]), 1.0)
            assert np.geterr() == before


class TestBoundaryStepScale:
    """Where the two roots' model values overflow, the boundary step
    compares them at the unit steps s / radius, without a warning."""

    def test_reduced_hard_case_at_1e150(self):
        # sigma = 1: ||s|| = lam ~ 1e150, and s^T H s overflows
        H = 1e150 * np.diag([-1.0, 1.0, 2.0])
        g = np.array([0.0, 1e150, 1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_secular_reduced(g, H, 1.0)
        assert sol.case is SecularCase.HARD
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-14)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_root_of_lower_scaled_value(self, sign):
        # ||p + alpha e1|| = r at s_1 = -r and at s_1 = +r; at the unit
        # steps the model values are -sign * 1e150 - 5e149 and
        # sign * 1e150 - 5e149, while unscaled g^T s and s^T H s overflow to
        # infinities of opposite sign at one of them
        r = 1e150
        H = r * np.diag([-1.0, 1.0, 2.0])
        g = np.array([sign * 1e300, 0.0, 0.0])
        p = np.array([0.5 * sign * r, 0.0, 0.0])
        e1 = np.eye(3)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step, alpha = secular._boundary_step(g, H, p, e1, r)
        np.testing.assert_array_equal(step, p + alpha * e1)
        assert np.linalg.norm(step) == pytest.approx(r, rel=1e-15)
        assert step[0] == pytest.approx(-sign * r, rel=1e-15)

        def scaled(s):
            u = s / r
            return float(g @ u) / r + 0.5 * float(u @ H @ u)

        other = step.copy()
        other[0] = -other[0]
        assert scaled(step) < scaled(other)


class TestSolveSecularFullSecant:
    def test_eigenvector_gradient(self):
        g = np.eye(5)[:, 0]
        sol = solve_secular_full_secant(g, ShiftedSystem(np.eye(5)), 1.0, 0.1)
        assert sol.lam == pytest.approx(GOLDEN, rel=1e-8)
        np.testing.assert_allclose(sol.step, -GOLDEN * g, atol=1e-8)
        # stationarity bound on the returned step
        grad_m = g + np.eye(5) @ sol.step + np.linalg.norm(sol.step) * sol.step
        assert np.linalg.norm(grad_m) <= 0.05 * np.linalg.norm(sol.step) ** 2

    def test_vanishing_sigma_is_newton(self):
        H = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        g = np.ones(5)
        sol = solve_secular_full_secant(g, ShiftedSystem(H), 1e-8, 0.1)
        np.testing.assert_allclose(sol.step, -np.linalg.solve(H, g), rtol=1e-6)

    def test_zero_gradient_definite(self):
        system = ShiftedSystem(np.eye(4))
        sol = solve_secular_full_secant(np.zeros(4), system, 1.0, 0.1)
        assert sol.lam == 0.0
        assert np.linalg.norm(sol.step) == 0.0
        assert system.counter.count == 1

    def test_counter_matches_reported(self):
        g = np.ones(6)
        H = np.diag(np.arange(1.0, 7.0)) + 0.1
        system = ShiftedSystem(H)
        solve_secular_full_secant(g, system, 2.0, 0.1)
        # the Gershgorin start is not the root: at least one root step
        assert system.counter.count >= 2

    def test_hard_case_full_space(self):
        H = np.diag([-1.0, 1.0, 2.0, 3.0])
        g = np.array([0.0, 1.0, 0.5, -0.5])
        sol = solve_secular_full_secant(g, ShiftedSystem(H), 1.0, 0.1)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(1.0, rel=1e-8)
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-8)
        val = cubic_model_value(sol.step, g, H, 1.0)
        ref, _ = brute_force_cubic_min(g, H, 1.0, box=2.5, grid=13)
        assert val <= ref + 1e-6

    @pytest.mark.parametrize("kind", ["dense", "tridiagonal"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
           sigma=st.floats(0.3, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_agrees_with_brute_force(self, kind, seed, n, sigma):
        # easy instances (g keeps a large weight on the leftmost
        # eigenvector); the global minimizer has sigma ||s||^2 <=
        # ||g|| + ||H|| ||s||, which sizes the grid's box
        rng = np.random.default_rng(seed)
        H = _stored(kind, rng, n)
        A = H.toarray() if sp.issparse(H) else H
        eigs, Q = np.linalg.eigh(A)
        g = rng.standard_normal(n)
        g += 3.0 * np.linalg.norm(g) * Q[:, 0]
        sol = solve_secular_full_secant(g, ShiftedSystem(H), sigma, 0.1)
        assert sol.case is SecularCase.EASY
        h, gnorm = float(np.max(np.abs(eigs))), float(np.linalg.norm(g))
        box = 1.05 * (h + math.sqrt(h * h + 4.0 * sigma * gnorm)) / (2.0 * sigma)
        ref, _ = brute_force_cubic_min(g, A, sigma, box=box,
                                       grid=21 if n == 2 else 11)
        assert cubic_model_value(sol.step, g, A, sigma) <= ref + 1e-6

    def test_conditions_on_generic_instance(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            H = random_symmetric(rng, n, scale=2.0)
            g = rng.standard_normal(n)
            sigma = float(rng.uniform(0.1, 5.0))
            sol = solve_secular_full_secant(g, ShiftedSystem(H), sigma, 0.1)
            s = sol.step
            snorm = np.linalg.norm(s)
            assert sigma * snorm == pytest.approx(sol.lam, rel=1e-8, abs=1e-14)
            # model decrease and stationarity
            m_dec = -cubic_model_value(s, g, H, sigma)
            assert m_dec > 0.0
            grad_m = g + H @ s + sigma * snorm * s
            assert np.linalg.norm(grad_m) <= 0.5 * 0.1 * snorm**2 * (1 + 1e-8)

    def test_warm_start_converges(self):
        H = np.diag([2.0, 3.0, 10.0])
        g = np.array([1.0, -2.0, 0.5])
        system = ShiftedSystem(H)
        cold = solve_secular_full_secant(g, system, 1.0, 0.1)
        n_cold = system.counter.count
        warm = solve_secular_full_secant(g, system, 1.0, 0.1,
                                         warm_lambda=cold.lam)
        assert warm.lam == pytest.approx(cold.lam, rel=1e-8)
        assert system.counter.count - n_cold <= n_cold

    def test_warm_start_at_the_root_factors_once(self):
        # the solve meets the residual target at its first shift, whose solve
        # is the step returned
        H = np.diag([-1.0, 2.0, 3.0, 10.0])
        g = np.array([1.0, -2.0, 0.5, 0.3])
        cold = solve_secular_full_secant(g, ShiftedSystem(H), 1.0, 0.1)
        system = ShiftedSystem(H)
        warm = solve_secular_full_secant(g, system, 1.0, 0.1,
                                         warm_lambda=cold.lam)
        assert system.counter.count == 1
        assert warm.lam == cold.lam
        np.testing.assert_array_equal(warm.step, cold.step)

    @pytest.mark.parametrize("n", [7, 2001, 2004])
    def test_hard_case_at_the_spectrum_edge(self, n):
        # g orthogonal to the leftmost eigenvector of a diagonal H, with
        # min_eig dense at n = 7 and iterative above DENSE_EIG_CUTOFF: the
        # Cholesky at 2 fails below the shift 4 where phi < 0, and the
        # eigensolve and one test shift just above 3 give the boundary step
        # (the bracket took 49 factorizations to exhaust itself)
        d = np.full(n, 2.0)
        d[0] = -3.0
        H = sp.diags([d], [0], format="csr")
        g = np.zeros(n)
        g[1:] = 1.0 / math.sqrt(n - 1)
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, 1.0, 0.1)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(3.0, rel=1e-12)
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-10)
        np.testing.assert_allclose(sol.step[1:], -g[1:] / 5.0, rtol=1e-10)
        assert system.counter.count <= 4

    def test_newton_stall_at_the_spectrum_edge(self):
        # a near-hard case: g's weight 1e-13 on v1 puts the root about
        # 3.3e-14 above the pole at 3, closer than the residual target can
        # resolve. From the left, the root step reaches 3 + 3.3e-14 and stalls
        # there; the stall tests the edge at once, where the solve jumped
        # to 2 lo and bisected back (51 factorizations)
        n = 7
        d = np.full(n, 2.0)
        d[0] = -3.0
        g = np.full(n, 1.0 / math.sqrt(n - 1))
        g[0] = 1e-13
        system = ShiftedSystem(sp.diags([d], [0], format="csr"))
        sol = solve_secular_full_secant(g, system, 1.0, 0.1,
                                        warm_lambda=3.0 + 4 * 2.0**-51)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(3.0, rel=1e-12)
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-10)
        np.testing.assert_allclose(sol.step[1:], -g[1:] / 5.0, rtol=1e-10)
        assert system.counter.count <= 4

    def test_stall_from_the_right_at_the_spectrum_edge(self):
        # the leftmost eigenvector (1, -1)/sqrt(2) lives on diagonal entries
        # of 500, where adding lambda ~ 0.1 rounds to their ulp (1.1e-13),
        # so phi is a staircase in lambda. The root, 2.2e-8 above the edge
        # at 0.1, falls between two of its steps, and phi on the step right
        # of it is -2.7e-8 of ||s||. From that side each root step moves
        # lambda by about 1e-15 and leaves phi as it was; without the stall
        # test from the right the solve crept for 50 factorizations until
        # the bracket collapsed. The stall test tests the edge at once.
        a, sigma = 500.0, 1e-3
        H = np.diag([a, a, 1.0, 2.0, 3.0])
        H[0, 1] = H[1, 0] = a + 0.1
        eigs, Q = np.linalg.eigh(H)
        c = np.ones(5)
        c[0] = 22e-9 * (22e-9 - eigs[0]) / sigma
        g = Q @ c
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, sigma, 0.1,
                                        warm_lambda=1.0)
        assert sol.case is SecularCase.HARD
        assert system.counter.count == 7
        assert sigma * np.linalg.norm(sol.step) == pytest.approx(sol.lam,
                                                                 rel=1e-12)
        ref = solve_secular_reduced(g, H, sigma)
        assert cubic_model_value(sol.step, g, H, sigma) == pytest.approx(
            cubic_model_value(ref.step, g, H, sigma), rel=1e-10)

    @pytest.mark.parametrize("a,delta", [(289.12, 9.02e-8),
                                         (531.99, 3.09e-8)])
    def test_stall_from_the_left_at_the_spectrum_edge(self, a, delta):
        # the H of the test above with other diagonal entries a, and the
        # root about delta above the edge at 0.1. From the left, phi stays
        # at a few 1e-9 of ||s|| while each root step moves lambda by a
        # few ulps: without the stall test from the left the solve crept
        # for over 100 factorizations (a = 289.12) or exceeded
        # MAX_ROOT_STEPS (a = 531.99). A step of less than 64 eps relative
        # tests the edge.
        sigma = 1e-3
        H = np.diag([a, a, 1.0, 2.0, 3.0])
        H[0, 1] = H[1, 0] = a + 0.1
        eigs, Q = np.linalg.eigh(H)
        c = np.ones(5)
        c[0] = delta * (delta - eigs[0]) / sigma
        g = Q @ c
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, sigma, 0.1,
                                        warm_lambda=0.2)
        assert sol.case is SecularCase.HARD
        assert system.counter.count <= 10
        assert sigma * np.linalg.norm(sol.step) == pytest.approx(sol.lam,
                                                                 rel=1e-12)
        ref = solve_secular_reduced(g, H, sigma)
        assert cubic_model_value(sol.step, g, H, sigma) == pytest.approx(
            cubic_model_value(ref.step, g, H, sigma), rel=1e-10)

    def test_two_hard_case_solves_make_one_eigensolve(self, monkeypatch):
        # the system keeps H's leftmost pair: a second solve on it (as after
        # a rejected step) makes the same shifts but no eigensolve, and the
        # curvature at s = 0 reads the same pair
        made = []
        eig = secular.min_eig
        monkeypatch.setattr(secular, "min_eig",
                            lambda system: made.append(1) or eig(system))
        d = np.full(7, 2.0)
        d[0] = -3.0
        g = np.zeros(7)
        g[1:] = 1.0 / math.sqrt(6.0)
        system = ShiftedSystem(sp.diags([d], [0], format="csr"))
        a = solve_secular_full_secant(g, system, 1.0, 0.1)
        first = system.counter.count
        b = solve_secular_full_secant(g, system, 1.0, 0.1)
        assert a.case is b.case is SecularCase.HARD
        np.testing.assert_array_equal(a.step, b.step)
        assert made == [1] and system.counter.count - first == first - 1
        assert model_curvature_min(ModelContext(system), np.zeros(7)) == -3.0
        assert made == [1]

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 100.0])
    def test_failed_warm_start_tests_the_edge(self, monkeypatch, scale):
        # an 8 x 8 H with lambda_1 = -0.01 scale and the rest of its
        # spectrum in scale [0, 0.4], rotated (Gershgorin bounds about
        # scale (-0.2, 0.6)), and a warm start a tenth of the way to the
        # edge, below it. The failed Cholesky there sends the next shift
        # to the edge test (one eigensolve) in place of lo + 1, which
        # assumes a spectrum of scale 1: from there the solve bisected
        # back down, up to 16 factorizations at scale 0.1 and 13 at 1.
        # Where the root lies far right of the edge (scale 1e-3), the
        # test costs one or two more than that step did (5).
        made = []
        eig = secular.min_eig
        monkeypatch.setattr(secular, "min_eig",
                            lambda system: made.append(1) or eig(system))
        sigma = 1e-3
        for seed in range(20):
            rng = np.random.default_rng(seed)
            eigs = scale * np.concatenate([[-0.01], rng.uniform(0.0, 0.4, 7)])
            Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            H = (Q * eigs) @ Q.T
            H = 0.5 * (H + H.T)
            g = 0.01 * scale * rng.standard_normal(8)
            warm = 0.1 * 0.01 * scale
            assert not ShiftedFactorization(ShiftedSystem(H),
                                            warm).positive_definite
            system = ShiftedSystem(H)
            made.clear()
            sol = solve_secular_full_secant(g, system, sigma, 0.1,
                                            warm_lambda=warm)
            assert system.counter.count <= 8 and made == [1]
            assert sol.lam == pytest.approx(
                solve_secular_reduced(g, H, sigma).lam, rel=1e-9)

    @pytest.mark.parametrize("n", [7, 2001])
    def test_zero_gradient_indefinite(self, n):
        d = np.full(n, 2.0)
        d[0] = -3.0
        H = sp.diags([d], [0], format="csr")
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(np.zeros(n), system, 0.5, 0.1)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(3.0, rel=1e-12)
        assert abs(sol.step[0]) == pytest.approx(6.0, rel=1e-10)
        assert np.linalg.norm(sol.step[1:]) <= 1e-10
        # the failed Cholesky at lambda = 0 and the eigensolve
        assert system.counter.count == 2


def _stored(kind, rng, n):
    """A random symmetric H: tridiagonal or banded CSR, or a dense array."""
    if kind == "dense":
        return random_symmetric(rng, n, scale=2.0 / math.sqrt(n))
    kd = 1 if kind == "tridiagonal" else int(rng.integers(2, 6))
    H = sp.diags([rng.standard_normal(n - k) for k in range(kd + 1)],
                 list(range(kd + 1)), format="csr")
    return (H + H.T).tocsr()


class TestFullSpaceMatchesSpectral:
    """The full-space solve against the spectral solve of the same easy instance.

    Every storage runs both solves with its own factor (pttrs, pbtrs,
    potrs): one for the step and one for psi's derivative.
    """

    @pytest.mark.parametrize("kind", ["tridiagonal", "banded", "dense"])
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_same_step(self, kind, seed, sigma):
        rng = np.random.default_rng(seed)
        # a dense H is factored dense at any n
        n = int(rng.integers(8, 60) if kind == "dense" else rng.integers(8, 40))
        H = _stored(kind, rng, n)
        system = ShiftedSystem(H)
        if kind == "dense":
            assert system.band is None
        else:
            assert (system.band.shape[0] == 2) == (kind == "tridiagonal")
        A = H.toarray() if sp.issparse(H) else H
        eigs, Q = np.linalg.eigh(A)
        # weight on the leftmost eigenvector keeps the instance easy: the
        # root stays clear of the spectrum edge
        g = rng.standard_normal(n)
        g += 3.0 * np.linalg.norm(g) * Q[:, 0]
        ref = solve_secular_reduced(g, A, sigma)
        assume(ref.case is SecularCase.EASY
               and ref.lam + eigs[0] >= 0.2 * ref.lam)
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, sigma, 0.1)
        assert sol.case is SecularCase.EASY
        # with a right derivative solve the root steps need a handful of
        # shifts (Newton's took at most 6 on 300 seeds per storage), against
        # about 100 when psi' is computed without that solve
        assert system.counter.count <= 10
        assert sol.lam == pytest.approx(ref.lam, rel=1e-8)
        assert sigma * np.linalg.norm(sol.step) == pytest.approx(sol.lam,
                                                                 rel=1e-8)
        np.testing.assert_allclose(sol.step, ref.step, rtol=0,
                                   atol=1e-8 * np.linalg.norm(ref.step))


class TestFullSpaceHardCases:
    """The full-space solve on hard and near-hard instances (Cartis, Gould &
    Toint 2011, §6) against the spectral solve of the same dense H.

    H has a negative leftmost eigenvalue and g carries a weight of 0, 1e-9
    or 1e-5 of its norm on the leftmost eigenvector, so the bracket often
    collapses onto the spectrum edge and the boundary step is returned.
    """

    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.1, 10.0),
           weight=st.sampled_from([0.0, 1e-9, 1e-5]))
    @settings(max_examples=60, deadline=None)
    def test_model_value_matches_reduced(self, kind, seed, sigma, weight):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        H = _stored(kind, rng, n)
        A = H.toarray() if sp.issparse(H) else H
        eigs, Q = np.linalg.eigh(A)
        # the shift puts lambda_1 in [-2, -0.1] and keeps the eigenvectors
        A = A - (eigs[0] + rng.uniform(0.1, 2.0)) * np.eye(n)
        H = sp.csr_matrix(A) if sp.issparse(H) else A
        # a small g keeps the step inside the ball of radius -lambda_1/sigma
        # on many instances (the hard case proper): about 40% of seeds end
        # in the boundary step
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 0.0)
        g -= (Q[:, 0] @ g) * Q[:, 0]
        g += weight * np.linalg.norm(g) * Q[:, 0]
        ref = solve_secular_reduced(g, A, sigma)
        sol = solve_secular_full_secant(g, ShiftedSystem(H), sigma, 0.1)
        assert sigma * np.linalg.norm(sol.step) == pytest.approx(sol.lam,
                                                                 rel=1e-8)
        m_ref = cubic_model_value(ref.step, g, A, sigma)
        m_sol = cubic_model_value(sol.step, g, A, sigma)
        assert abs(m_sol - m_ref) <= 1e-8 * abs(m_ref)


def _arrowhead(rng, n):
    """A random symmetric CSR H: a diagonal plus one full hub row at 0."""
    H = np.diag(rng.standard_normal(n) * 3.0)
    H[0, :] = H[:, 0] = rng.standard_normal(n)
    return sp.csr_matrix(H)


class TestHalleyStep:
    """The full-space solve's root step (Halley's on psi before it): the
    root of mu (r + r' d + r'' d^2/2 + r''' d^3/6) = sigma, whose model of
    r = 1/||s|| takes r', r'' and r''' from three solves with one
    factorization."""

    @pytest.mark.parametrize("kind", ["dense", "tridiagonal", "bordered"])
    def test_second_derivative_matches_central_difference(self, kind, rng):
        n = 12
        H = _arrowhead(rng, n) if kind == "bordered" else _stored(kind, rng, n)
        system = ShiftedSystem(H)
        assert (system.border is not None) == (kind == "bordered")
        assert (system.band is None) == (kind == "dense")
        g = rng.standard_normal(n)
        lam = -system.interval[0] + 1.0

        def terms(lam):
            fac = ShiftedFactorization(system, lam)
            x = fac.solve(g)
            y = fac.solve(x)
            return secular._inverse_norm_derivatives(
                x, y, fac.solve(y), float(np.linalg.norm(x)))

        h = 1e-4 * lam
        lo, hi = terms(lam - h), terms(lam + h)
        _, dr, d2r, d3r = terms(lam)
        for k, dk in ((1, dr), (2, d2r), (3, d3r)):
            assert dk == pytest.approx((hi[k - 1] - lo[k - 1]) / (2.0 * h),
                                       rel=1e-6)
        # r is increasing and concave
        assert dr > 0.0 >= d2r

    @pytest.mark.parametrize("definite", [True, False])
    def test_derivatives_match_spectral_sums(self, definite):
        # against pi = sum c^2/(e + lam)^2, c = Q^T g, and its derivatives
        # pi^(k) = (-1)^k (k + 1)! sum c^2/(e + lam)^(k + 2), taken through
        # r = pi^(-1/2) by the chain rule, on seeds 0-39: an SPD H at
        # lam >= 0, or an indefinite one at lam > -lambda_1
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            if definite:
                B = rng.standard_normal((n, n))
                H = B @ B.T / n + 0.1 * np.eye(n)
            else:
                H = random_symmetric(rng, n, scale=2.0)
            eigs, Q = np.linalg.eigh(H)
            lam = max(0.0, -eigs[0]) + float(rng.uniform(0.1, 2.0))
            g = rng.standard_normal(n)
            w, t = (Q.T @ g) ** 2, eigs + lam
            p0, p1, p2, p3 = (k * np.sum(w / t ** (i + 2)) for i, k in
                              enumerate((1.0, -2.0, 6.0, -24.0)))
            spectral = (p0 ** -0.5,
                        -0.5 * p1 * p0 ** -1.5,
                        0.75 * p1 * p1 * p0 ** -2.5 - 0.5 * p2 * p0 ** -1.5,
                        -1.875 * p1 ** 3 * p0 ** -3.5
                        + 2.25 * p1 * p2 * p0 ** -2.5 - 0.5 * p3 * p0 ** -1.5)
            fac = ShiftedFactorization(ShiftedSystem(H), lam)
            x = fac.solve(g)
            y = fac.solve(x)
            got = secular._inverse_norm_derivatives(
                x, y, fac.solve(y), float(np.linalg.norm(x)))
            assert got == pytest.approx(spectral, rel=1e-8)

    def test_model_root_is_a_newton_fixed_point(self):
        # where _model_root returns another root than the first-order one,
        # Newton's next step from it on the model it solved is within the
        # 4 eps mu that ends its steps. The
        # residual mu m(mu) - sigma itself is not within a few eps sigma:
        # m's terms cancel, up to 2,500 eps sigma on these seeds.
        newton = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            H = random_symmetric(rng, n, scale=2.0)
            lam = max(0.0, -np.linalg.eigvalsh(H)[0]) + float(
                rng.uniform(0.1, 2.0))
            fac = ShiftedFactorization(ShiftedSystem(H), lam)
            x = fac.solve(rng.standard_normal(n))
            y = fac.solve(x)
            r, dr, d2r, d3r = secular._inverse_norm_derivatives(
                x, y, fac.solve(y), float(np.linalg.norm(x)))
            for sigma in (0.1, 1.0, 10.0):
                mu = secular._model_root(lam, sigma, r, dr, d2r, d3r)
                if mu == secular._first_order_root(lam, sigma, r, dr):
                    continue
                newton += 1
                d = mu - lam
                m = r + d * (dr + d * (0.5 * d2r + d * d3r / 6.0))
                slope = m + mu * (dr + d * (d2r + 0.5 * d3r * d))
                assert abs(mu * m - sigma) <= 4.0 * secular.EPS * mu * slope
        assert newton >= 100

    def test_stall_from_the_right_probes_the_upper_end(self):
        # the leading 4 x 4 block of a registry-ar2 CUBE-500 call (sigma
        # 4e-5, warm start 97.597455670 left of its root 97.597456974,
        # 1.3e-6 above the edge): the root of the third-order model lands
        # within ulps right of the root, where rounding keeps |phi| above
        # the residual target, and the next step is a few ulps. Bisecting
        # towards that upper end took 24 factorizations. The probe 64 eps
        # below it finds phi > 0 there, and the collapsed bracket ends in
        # the boundary step.
        H = sp.diags([[-92.23030671893729, 238.50385449356762,
                       199.99954740256712, 200.00000184522946],
                      [-41.384630650677046, -71.11841132024388,
                       -0.04669660296310426]], [0, 1], format="csr")
        H = (H + sp.triu(H, 1).T).tocsr()
        g = np.array([-14.973088164292117, 67.50842579748227,
                      -6.39721879343326, 0.008756524136510034])
        sigma = 4.000000000000002e-05
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, sigma, 0.1,
                                        warm_lambda=97.59745567034128)
        assert sol.case is SecularCase.HARD
        assert system.counter.count <= 4
        assert sol.lam == pytest.approx(97.597456974, rel=1e-11)
        assert sigma * np.linalg.norm(sol.step) == pytest.approx(sol.lam,
                                                                 rel=1e-12)
        A = H.toarray()
        ref = solve_secular_reduced(g, A, sigma)
        assert cubic_model_value(sol.step, g, A, sigma) == pytest.approx(
            cubic_model_value(ref.step, g, A, sigma), rel=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.1, 10.0),
           offset=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_first_order_root_is_left_of_the_root(self, seed, sigma, offset):
        # r concave: its tangent at any positive definite shift lies above
        # it, so mu (r + r' d) = sigma is met before mu r(mu) = sigma is
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        H = random_symmetric(rng, n, scale=2.0)
        eigs, Q = np.linalg.eigh(H)
        g = rng.standard_normal(n)
        g += 3.0 * np.linalg.norm(g) * Q[:, 0]
        ref = solve_secular_reduced(g, H, sigma)
        assume(ref.case is SecularCase.EASY)
        lam = max(0.0, -eigs[0]) + offset
        fac = ShiftedFactorization(ShiftedSystem(H), lam)
        assert fac.positive_definite
        x = fac.solve(g)
        y = fac.solve(x)
        r, dr, *_ = secular._inverse_norm_derivatives(
            x, y, fac.solve(y), float(np.linalg.norm(x)))
        mu = secular._first_order_root(lam, sigma, r, dr)
        assert 0.0 < mu <= ref.lam * (1.0 + 1e-10)

    def test_same_root_in_fewer_factorizations(self):
        # an easy case from the Gershgorin start: Newton's step on psi
        # returned lam = 4.400913671274441 after 10 factorizations and
        # Halley's after 5; the spectral solve's root is 4.400913671292303
        H = np.diag([-1.0, 0.5, 2.0, 4.0, 8.0, 16.0])
        g = np.array([1.0, -1.0, 0.5, 2.0, -0.25, 1.0])
        sigma = 10.0
        rtol = min(0.5 * 0.1 / sigma, 1e-9)
        system = ShiftedSystem(H)
        sol = solve_secular_full_secant(g, system, sigma, 0.1)
        assert sol.case is SecularCase.EASY
        assert sol.lam == pytest.approx(4.400913671274441, rel=rtol)
        assert sol.lam == pytest.approx(solve_secular_reduced(g, H, sigma).lam,
                                        rel=rtol)
        assert system.counter.count == 4

    @pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
    @pytest.mark.parametrize("weight", [1e-12, 1e-10, 1e-8])
    @pytest.mark.parametrize("start", [None, 0.25, 0.9])
    def test_near_hard_case_ends_in_the_boundary_step(self, kind, weight,
                                                      start):
        # g's weight on v1 puts the root within 4e-9 of the pole at 3;
        # from the Gershgorin start (None) or from a warm start that far
        # of the way from the pole to the root (left of it), the solve
        # still ends in the boundary step
        n = 7
        d = np.full(n, 2.0)
        d[0] = -3.0
        g = np.full(n, 1.0 / math.sqrt(n - 1))
        g[0] = weight
        if kind == "tridiagonal":
            H = sp.diags([d], [0], format="csr")
            A = H.toarray()
        else:
            Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
            A = (Q * d) @ Q.T
            H = A = 0.5 * (A + A.T)
            g = Q @ g
        ref = solve_secular_reduced(g, A, 1.0)
        warm = None if start is None else 3.0 + start * (ref.lam - 3.0)
        sol = solve_secular_full_secant(g, ShiftedSystem(H), 1.0, 0.1,
                                        warm_lambda=warm)
        assert sol.case is SecularCase.HARD
        assert sol.lam == pytest.approx(ref.lam, rel=1e-12)
        assert np.linalg.norm(sol.step) == pytest.approx(sol.lam, rel=1e-10)
        m_ref = cubic_model_value(ref.step, g, A, 1.0)
        assert cubic_model_value(sol.step, g, A, 1.0) == pytest.approx(
            m_ref, rel=1e-10)


@pytest.mark.parametrize("name", ["EG2", "WOODS"])
def test_ar2_counts_what_it_makes(name, monkeypatch):
    # n_fact is the factorizations and eigensolves made, fewer than those
    # asked for: a rejected step's solve reuses the last factorization and
    # the leftmost pair, uncounted
    made, asked = [], []

    def spy(log, fn):
        return lambda *a, **k: log.append(1) or fn(*a, **k)

    init = ShiftedFactorization.__init__
    monkeypatch.setattr(ShiftedFactorization, "__init__", spy(asked, init))
    for attr, log in (("_leftmost", asked), ("_factor", made),
                      ("min_eig", made)):
        monkeypatch.setattr(secular, attr, spy(log, getattr(secular, attr)))
    report = ar2_solve(get_problem(name, 100))
    assert report.converged and report.n_unsuccessful_rho > 0
    assert report.n_fact == len(made) < len(asked)
