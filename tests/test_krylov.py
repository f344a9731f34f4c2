import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric
from far2.config import POLYNOMIAL, RATIONAL
from far2.krylov import (KrylovBasis, orth_augment, orthonormality_defect,
                         poly_expand, rational_expand)
from far2.secular import ShiftedSystem


def laplacian(n):
    return (np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1)
            + np.diag(-np.ones(n - 1), -1))


class TestFresh:
    @pytest.mark.parametrize("g,kind", [(np.zeros(3), POLYNOMIAL),
                                        (np.zeros(3), RATIONAL),
                                        (np.ones(3), "chebyshev")],
                             ids=["zero-polynomial", "zero-rational",
                                  "unknown-kind"])
    def test_rejects_zero_seed_and_unknown_kind(self, g, kind):
        with pytest.raises(ValueError):
            KrylovBasis.fresh(g, kind)


class TestPolyExpand:
    def test_hand_lanczos_two_by_two(self):
        H = np.diag([1.0, 2.0])
        g = np.array([1.0, 1.0]) / np.sqrt(2.0)
        basis = KrylovBasis.fresh(g, POLYNOMIAL)
        poly_expand(H, basis)
        assert basis.dim == 2
        second = basis.V[:, 1]
        expected = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        assert (np.allclose(second, expected, atol=1e-12)
                or np.allclose(second, -expected, atol=1e-12))

    def test_happy_breakdown_on_eigenvector_seed(self, rng):
        g = rng.standard_normal(6)
        basis = KrylovBasis.fresh(g, POLYNOMIAL)
        poly_expand(np.eye(6), basis)
        assert basis.dim == 1
        assert basis.invariant

    def test_tridiagonal_projection(self, rng):
        H = random_symmetric(rng, 10)
        basis = KrylovBasis.fresh(rng.standard_normal(10), POLYNOMIAL)
        for _ in range(5):
            poly_expand(H, basis)
        T = basis.V.T @ H @ basis.V
        off = T - np.diag(np.diag(T)) - np.diag(np.diag(T, 1), 1) - np.diag(np.diag(T, -1), -1)
        assert np.max(np.abs(off)) <= 1e-10

    def test_nesting(self, rng):
        H = random_symmetric(rng, 9)
        basis = KrylovBasis.fresh(rng.standard_normal(9), POLYNOMIAL)
        prev = basis.V.copy()
        for _ in range(4):
            poly_expand(H, basis)
            V = basis.V
            # previous range is contained in the new one
            proj = V @ (V.T @ prev)
            assert np.max(np.abs(proj - prev)) < 1e-10
            prev = V.copy()


class TestRationalExpand:
    def test_first_column_direct_solve(self):
        H = np.diag([1.0, 2.0])
        g = np.array([1.0, 1.0]) / np.sqrt(2.0)
        basis = KrylovBasis.fresh(g, RATIONAL)
        system = ShiftedSystem(H)
        rational_expand(system, basis, (1.0, 2.0))
        # the solve counts as a rational solve, not as a factorization of
        # the run, and its factorization is not kept
        assert system.counter.rational == 1 and system.counter.count == 0
        assert system.last is None
        # the first pole is the square root of the interval's scale
        assert basis.shifts == [np.sqrt(2.0)]
        expected = g / (np.diag(H) + basis.shifts[0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(np.abs(basis.V[:, 0]), expected, atol=1e-12)
        assert basis.dim == 1

    def test_happy_breakdown_identity(self, rng):
        g = rng.standard_normal(5)
        basis = KrylovBasis.fresh(g, RATIONAL)
        system = ShiftedSystem(np.eye(5))
        rational_expand(system, basis, (1.0, 1.0))
        assert basis.dim == 1
        rational_expand(system, basis, (1.0, 1.0))
        assert basis.dim == 1
        assert basis.invariant
        assert len(basis.shifts) == 2 and basis.shifts[0] != basis.shifts[1]

    def test_rational_beats_polynomial_on_inverse_action(self, rng):
        n = 50
        H = laplacian(n)
        g = rng.standard_normal(n)
        interval = (float(np.linalg.eigvalsh(H)[0]), float(np.linalg.eigvalsh(H)[-1]))

        pk = KrylovBasis.fresh(g, POLYNOMIAL)
        for _ in range(8):
            poly_expand(H, pk)
        rk = KrylovBasis.fresh(g, RATIONAL)
        system = ShiftedSystem(H)
        for _ in range(8):
            rational_expand(system, rk, interval)

        target = np.linalg.solve(H, g)

        def residual(basis):
            W = orth_augment(basis, g)
            return np.linalg.norm(target - W @ (W.T @ target))

        assert residual(rk) < residual(pk)


class TestOrthAugment:
    def test_empty_basis_normalizes(self):
        basis = KrylovBasis.fresh(np.array([3.0, 0.0, 0.0]), RATIONAL)
        W = orth_augment(basis, np.array([3.0, 0.0, 0.0]))
        np.testing.assert_allclose(W, np.array([[1.0], [0.0], [0.0]]))

    def test_contained_gradient_returns_v(self, rng):
        basis = KrylovBasis.fresh(np.array([1.0, 0.0, 0.0]), POLYNOMIAL)
        W = orth_augment(basis, np.array([1.0, 0.0, 0.0]))
        assert W is basis.V
        # the polynomial refresh projects on V without augmenting it, so the
        # seed gradient must stay in range(V) however far the basis grows
        H = random_symmetric(rng, 12)
        g = rng.standard_normal(12)
        basis = KrylovBasis.fresh(g, POLYNOMIAL)
        for _ in range(6):
            poly_expand(H, basis)
            assert orth_augment(basis, g) is basis.V
            resid = g - basis.V @ (basis.V.T @ g)
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(g)
        assert basis.dim == 7

    def test_gram_schmidt_by_hand(self):
        basis = KrylovBasis.fresh(np.array([1.0, 0.0, 0.0]), POLYNOMIAL)
        g = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        W = orth_augment(basis, g)
        assert W.shape[1] == 2
        np.testing.assert_allclose(np.abs(W[:, 1]), np.array([0.0, 1.0, 0.0]),
                                   atol=1e-12)

    def test_zero_gradient_rejected(self):
        basis = KrylovBasis.fresh(np.ones(3), POLYNOMIAL)
        with pytest.raises(ValueError):
            orth_augment(basis, np.zeros(3))

    def test_gradient_norm_preserved(self, rng):
        H = random_symmetric(rng, 7)
        g = rng.standard_normal(7)
        basis = KrylovBasis.fresh(g, POLYNOMIAL)
        for _ in range(3):
            poly_expand(H, basis)
        gk = rng.standard_normal(7)  # outside the basis's range
        W = orth_augment(basis, gk)
        assert np.linalg.norm(W.T @ gk) == pytest.approx(np.linalg.norm(gk),
                                                         rel=1e-10)


@given(st.integers(0, 10**6), st.integers(4, 16), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_orthonormality_under_random_sequences(seed, n, n_ops):
    r = np.random.default_rng(seed)
    H = random_symmetric(r, n)
    g = r.standard_normal(n)
    basis = KrylovBasis.fresh(g, POLYNOMIAL)
    for _ in range(n_ops):
        if basis.dim < n and not basis.invariant:
            poly_expand(H, basis)
        gk = r.standard_normal(n)
        W = orth_augment(basis, gk)
        assert orthonormality_defect(W) <= 1e-10
        resid = gk - W @ (W.T @ gk)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(gk)
    assert orthonormality_defect(basis.V) <= 1e-10
