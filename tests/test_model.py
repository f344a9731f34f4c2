import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from far2.model import (ModelContext, evaluate_model, model_curvature_bound,
                        model_curvature_min, model_gradient, quad_reg_value,
                        symmetrize)
from far2.second_order import min_eig

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


class TestEvaluateModel:
    def test_origin_equals_f0(self):
        ctx = ModelContext(0.0, e1(3), np.eye(3), 1.0)
        assert evaluate_model(ctx, np.zeros(3)) == (0.0, 0.0)

    def test_scalar_golden_point(self):
        # T(-lam e1) = -lam + lam^2/2, m = T + lam^3/3 with lam the golden root
        ctx = ModelContext(0.0, e1(2), np.eye(2), 1.0)
        taylor, cubic = evaluate_model(ctx, -GOLDEN * e1(2))
        assert taylor == pytest.approx(-GOLDEN + 0.5 * GOLDEN**2, abs=1e-12)
        assert cubic == pytest.approx(taylor + GOLDEN**3 / 3.0, abs=1e-12)
        assert taylor == pytest.approx(-0.4271, abs=1e-4)
        assert cubic == pytest.approx(-0.3484, abs=1e-4)

    def test_pure_cubic_term(self):
        ctx = ModelContext(5.0, np.zeros(3), np.zeros((3, 3)), 3.0)
        s = np.array([0.0, 1.0, 0.0])
        assert evaluate_model(ctx, s) == pytest.approx((5.0, 6.0))

    def test_dimension_mismatch(self):
        ctx = ModelContext(0.0, e1(3), np.eye(3), 1.0)
        with pytest.raises(ValueError):
            evaluate_model(ctx, np.zeros(4))

    @given(st.integers(2, 7), st.integers(0, 10**6), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_cubic_exceeds_taylor(self, n, seed, sigma):
        r = np.random.default_rng(seed)
        A = r.standard_normal((n, n))
        ctx = ModelContext(r.standard_normal(), r.standard_normal(n),
                           0.5 * (A + A.T), sigma)
        s = r.standard_normal(n)
        taylor, cubic = evaluate_model(ctx, s)
        assert cubic > taylor


class TestModelGradient:
    def test_at_origin_is_g(self):
        g = np.array([3.0, -1.0])
        ctx = ModelContext(0.0, g, np.diag([2.0, 5.0]), 7.0)
        np.testing.assert_allclose(model_gradient(ctx, np.zeros(2)), g)

    def test_golden_stationarity(self):
        ctx = ModelContext(0.0, e1(4), np.eye(4), 1.0)
        grad = model_gradient(ctx, -GOLDEN * e1(4))
        assert np.linalg.norm(grad) < 1e-14

    def test_matches_finite_differences(self, rng):
        n = 6
        A = rng.standard_normal((n, n))
        ctx = ModelContext(0.3, rng.standard_normal(n), 0.5 * (A + A.T), 1.7)
        s = rng.standard_normal(n)
        grad = model_gradient(ctx, s)
        h = 1e-6
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (evaluate_model(ctx, s + e)[1]
                     - evaluate_model(ctx, s - e)[1]) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1 + np.linalg.norm(grad))


class TestModelCurvatureMin:
    def test_zero_step_reduces_to_hessian(self):
        ctx = ModelContext(0.0, np.ones(2), np.diag([2.0, 5.0]), 3.0)
        assert model_curvature_min(ctx, np.zeros(2)) == pytest.approx(2.0)

    def test_two_by_two(self):
        ctx = ModelContext(0.0, np.ones(2), np.diag([-1.0, 1.0]), 1.0)
        assert model_curvature_min(ctx, e1(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_bump(self):
        ctx = ModelContext(0.0, np.ones(3), np.zeros((3, 3)), 2.0)
        assert model_curvature_min(ctx, e1(3)) == pytest.approx(2.0, abs=1e-12)

    def test_eigenvalue_lower_bound(self, rng):
        n = 5
        A = rng.standard_normal((n, n))
        ctx = ModelContext(0.0, rng.standard_normal(n), 0.5 * (A + A.T), 1.3)
        s = rng.standard_normal(n)
        lam = model_curvature_min(ctx, s)
        snorm = np.linalg.norm(s)
        M = ctx.H + ctx.sigma * snorm * np.eye(n) + ctx.sigma / snorm * np.outer(s, s)
        for _ in range(100):
            d = rng.standard_normal(n)
            assert d @ M @ d >= lam * (d @ d) - 1e-9 * max(1.0, abs(lam))


    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_matches_the_formed_matrix_bitwise(self, rng, storage):
        # up to DENSE_EIG_CUTOFF min_eig forms H + sigma ||s|| I + c s s^T
        # exactly as the matrix written out here, signed zeros included
        n = 40
        A = rng.standard_normal((n, n))
        A[rng.random((n, n)) < 0.5] = -0.0
        H = 0.5 * (A + A.T)
        s = rng.standard_normal(n)
        snorm = float(np.linalg.norm(s))
        M = H + 1.3 * snorm * np.eye(n) + (1.3 / snorm) * np.outer(s, s)
        ctx = ModelContext(0.0, np.ones(n),
                           sp.csr_matrix(H) if storage == "sparse" else H, 1.3)
        assert model_curvature_min(ctx, s) == min_eig(M)[0]


def _dense_curvature(H, s, sigma):
    """Smallest eigenvalue of the dense cubic-model Hessian, by eigvalsh."""
    snorm = float(np.linalg.norm(s))
    M = H + sigma * snorm * np.eye(s.size) + (sigma / snorm) * np.outer(s, s)
    return float(np.linalg.eigvalsh(M)[0])


class TestCurvatureCertificate:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           tight=st.booleans(), sigma=st.floats(1e-6, 1e3),
           step=st.floats(1e-6, 1e3))
    def test_never_accepts_what_the_dense_test_rejects(self, seed, n, tight,
                                                       sigma, step):
        # accepting means bound >= floor, so for every floor the bound must
        # not exceed the dense smallest eigenvalue
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(n)
        if tight:
            # diagonal H with s orthogonal to its smallest axis: the
            # Gershgorin bound plus sigma ||s|| is the exact eigenvalue
            d = rng.standard_normal(n) * rng.uniform(0.1, 100.0)
            H = np.diag(d)
            s[int(np.argmin(d))] = 0.0
            if not s.any():
                return
        else:
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 100.0)
            H = 0.5 * (A + A.T)
        s *= step / np.linalg.norm(s)
        ctx = ModelContext(0.0, rng.standard_normal(n), H, sigma)
        bound = model_curvature_bound(ctx, s)
        exact = _dense_curvature(ctx.H, s, sigma)
        assert bound <= exact
        if tight:
            assert exact - bound <= 1.0e-6 * max(1.0, abs(exact))

    def test_sparse_fallback_matches_dense_without_dense_memory(self, rng):
        n = 2500
        d = rng.standard_normal(n) * 2.0
        e = rng.standard_normal(n - 1)
        H = sp.diags([e, d, e], [-1, 0, 1], format="csr")
        s = rng.standard_normal(n) * 0.02
        ctx = ModelContext(0.0, rng.standard_normal(n), H, 0.7)
        tracemalloc.start()
        try:
            lam = model_curvature_min(ctx, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        exact = _dense_curvature(H.toarray(), s, 0.7)
        assert exact < 0.0  # the indefinite case, not the sigma ||s|| shift
        assert lam == pytest.approx(exact, abs=1e-8)
        assert peak < n * n * 8
        assert model_curvature_bound(ctx, s) <= lam

    def test_symmetric_context_keeps_h(self, rng):
        A = rng.standard_normal((4, 4))
        H = symmetrize(A)
        np.testing.assert_array_equal(
            ModelContext(0.0, np.ones(4), A, 1.0).H, H)
        assert ModelContext._from_symmetric(0.0, np.ones(4), H, 1.0).H is H


class TestQuadRegValue:
    def test_zero_step(self):
        ctx = ModelContext(4.5, np.ones(2), np.eye(2), 1.0)
        assert quad_reg_value(ctx, np.zeros(2), 3.0) == pytest.approx(4.5)

    def test_hand_arithmetic(self):
        ctx = ModelContext(0.0, np.array([3.0, 5.0]), np.diag([2.0, 4.0]), 1.0)
        val = quad_reg_value(ctx, np.array([-1.0, -1.0]), 1.0)
        assert val == pytest.approx(-4.0, abs=1e-12)

    def test_negative_multiplier_rejected(self):
        ctx = ModelContext(0.0, np.ones(2), np.eye(2), 1.0)
        with pytest.raises(ValueError):
            quad_reg_value(ctx, np.zeros(2), -0.1)

    def test_exact_shifted_solve_identity(self, rng):
        # for s solving (H + lam I)s = -g: m_Q(s) - m_Q(0) = s^T g / 2
        for _ in range(10):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
            g = rng.standard_normal(n)
            lam = abs(float(np.linalg.eigvalsh(H)[0])) + rng.uniform(0.1, 2.0)
            s = np.linalg.solve(H + lam * np.eye(n), -g)
            ctx = ModelContext(rng.standard_normal(), g, H, 1.0)
            lhs = quad_reg_value(ctx, s, lam) - quad_reg_value(ctx, np.zeros(n), lam)
            rhs = 0.5 * float(s @ g)
            assert lhs == pytest.approx(rhs, rel=1e-10)
            assert lhs < 0.0
