import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from far2.model import (CURVATURE_BOUND_RTOL, ModelContext,
                        model_curvature_bound, model_curvature_min)
from far2.problems import GramHessian
from far2.secular import ShiftedSystem
from far2.second_order import gershgorin_interval, min_eig


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


class TestModelCurvatureMin:
    def test_zero_step_reduces_to_hessian(self):
        ctx = ModelContext(ShiftedSystem(np.diag([2.0, 5.0])), 3.0)
        assert model_curvature_min(ctx, np.zeros(2)) == pytest.approx(2.0)

    def test_two_by_two(self):
        ctx = ModelContext(ShiftedSystem(np.diag([-1.0, 1.0])), 1.0)
        assert model_curvature_min(ctx, e1(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_bump(self):
        ctx = ModelContext(ShiftedSystem(np.zeros((3, 3))), 2.0)
        assert model_curvature_min(ctx, e1(3)) == pytest.approx(2.0, abs=1e-12)

    def test_eigenvalue_lower_bound(self, rng):
        n = 5
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        ctx = ModelContext(ShiftedSystem(H), 1.3)
        s = rng.standard_normal(n)
        lam = model_curvature_min(ctx, s)
        snorm = np.linalg.norm(s)
        M = H + ctx.sigma * snorm * np.eye(n) + ctx.sigma / snorm * np.outer(s, s)
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
        ctx = ModelContext(
            ShiftedSystem(sp.csr_matrix(H) if storage == "sparse" else H), 1.3)
        assert model_curvature_min(ctx, s) == min_eig(ShiftedSystem(M))[0]


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
        ctx = ModelContext(ShiftedSystem(H), sigma)
        bound = model_curvature_bound(ctx, s)
        exact = _dense_curvature(H, s, sigma)
        assert bound <= exact
        if tight:
            # the bound is exact but for its documented slack (and rounding
            # far below it)
            lo, hi = gershgorin_interval(H)
            slack = CURVATURE_BOUND_RTOL * (max(1.0, abs(lo), abs(hi))
                                            + 2.0 * sigma * step)
            assert exact - bound <= 1.01 * slack

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           N=st.integers(1, 60),
           signs=st.sampled_from(["mixed", "nonnegative", "k > n", "negative"]),
           reg=st.sampled_from([0.0, 1e-3, 1.0]), sigma=st.floats(1e-6, 1e3),
           step=st.floats(1e-6, 1e3))
    def test_operator_bound_never_accepts_what_the_dense_test_rejects(
            self, seed, n, N, signs, reg, sigma, step):
        # H = A^T diag(w) A / N + reg I as a GramHessian: the bound comes
        # from the operator's Weyl interval, read before H is formed
        rng = np.random.default_rng(seed)
        if signs == "k > n":
            N = max(N, n + 1)
        A = rng.standard_normal((N, n)) * rng.uniform(0.1, 10.0)
        w = rng.standard_normal(N) * rng.uniform(0.1, 10.0)
        if signs == "nonnegative":
            w = np.abs(w)
        elif signs == "negative":
            w = -np.abs(w)
        elif signs == "k > n":
            k = int(rng.integers(n + 1, N + 1))
            w = np.abs(w)
            w[rng.permutation(N)[:k]] *= -1.0
        H = GramHessian(A, w, N, reg)
        s = rng.standard_normal(n)
        s *= step / np.linalg.norm(s)
        bound = model_curvature_bound(ModelContext(ShiftedSystem(H), sigma), s)
        lo, hi = H.interval
        assert H._matrix is None
        M = H.toarray()
        assert bound <= _dense_curvature(M, s, sigma)
        # the interval brackets the formed matrix's spectrum, to rounding
        eigs = np.linalg.eigvalsh(M)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        assert lo <= eigs[0] + tol and eigs[-1] <= hi + tol
        if signs == "nonnegative":
            assert lo == reg

    def test_sparse_fallback_matches_dense_without_dense_memory(self, rng):
        n = 2500
        d = rng.standard_normal(n) * 2.0
        e = rng.standard_normal(n - 1)
        H = sp.diags([e, d, e], [-1, 0, 1], format="csr")
        s = rng.standard_normal(n) * 0.02
        ctx = ModelContext(ShiftedSystem(H), 0.7)
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
