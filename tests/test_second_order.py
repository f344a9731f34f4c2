import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from conftest import random_symmetric
from far2.config import SolverConfig
from far2.driver import far2_solve
from far2 import problems
from far2.problems import (ObjectiveProblem, get_problem, logistic_objective,
                           synth_classification)
from far2 import far2so_solve
from far2.secular import ShiftedSystem
from far2.second_order import SecondOrderConfig, gershgorin_interval, min_eig


def quadratic_oracle(D, x0, name):
    D = np.asarray(D, dtype=float)

    def ev(x, order):
        f = 0.5 * float(D @ (x * x))
        if order == 0:
            return f, None, None
        g = D * x
        return f, g, np.diag(D)

    return ObjectiveProblem(name, D.size, np.asarray(x0, float), ev)


class TestMinEig:
    def test_diagonal(self):
        lam, v = min_eig(ShiftedSystem(np.diag([3.0, -2.0, 5.0])))
        assert lam == pytest.approx(-2.0)
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-12)

    def test_identity(self):
        lam, v = min_eig(ShiftedSystem(np.eye(7)))
        assert lam == pytest.approx(1.0)
        assert v.shape == (7,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 17, 120])
    def test_dense_eigenvalue_is_eigvalsh_bit_for_bit(self, rng, n):
        # dsyevr finds one eigenvalue by bisection, with or without its
        # vector
        for _ in range(5):
            H = random_symmetric(rng, n)
            lam, _ = min_eig(ShiftedSystem(H))
            assert lam == sla.eigvalsh(H, subset_by_index=[0, 0])[0]

    def test_matches_dense_oracle(self, rng):
        H = random_symmetric(rng, 20)
        lam, v = min_eig(ShiftedSystem(H))
        w, V = np.linalg.eigh(H)
        assert lam == pytest.approx(w[0], rel=1e-8, abs=1e-10)
        assert abs(abs(v @ V[:, 0]) - 1.0) < 1e-8

    @pytest.mark.parametrize("n,storage", [(30, "dense"), (2100, "dense"),
                                           (2100, "sparse")])
    def test_rank_one_term(self, rng, n, storage):
        # D + c u u^T with u on two coordinates: the spectrum is D's outside
        # them plus a 2x2 block's, so the reference costs nothing at any n;
        # above DENSE_EIG_CUTOFF the term is applied without forming it, over
        # a factorization in dense or (for the sparse D) band storage
        d = rng.uniform(-3.0, 3.0, n)
        i, j = np.argsort(d)[:2]
        u = np.zeros(n)
        u[[i, j]] = [0.8, -0.6]
        c = 2.5
        M = sp.diags(d, format="csr")
        if storage == "dense":
            # the first and last coordinates outside {i, j} rotated into
            # each other: the same spectrum in a dense array, which is
            # stored dense at every n
            kl = np.ix_(*2 * [np.setdiff1d(np.arange(n), [i, j])[[0, -1]]])
            R = np.array([[0.6, -0.8], [0.8, 0.6]])
            M = M.toarray()
            M[kl] = R @ M[kl] @ R.T
            M[kl] = 0.5 * (M[kl] + M[kl].T)
        system = ShiftedSystem(M)
        assert (system.band is None) == (storage == "dense")
        lam, v = min_eig(system, rank_one=(c, u))
        block = np.diag(d[[i, j]]) + c * np.outer(u[[i, j]], u[[i, j]])
        rest = np.delete(d, [i, j])
        assert lam == pytest.approx(min(rest.min(), np.linalg.eigvalsh(block)[0]),
                                    abs=1e-9)
        if v is not None:
            Mv = M @ v + c * (u @ v) * u
            assert np.linalg.norm(Mv - lam * v) < 1e-7

    def test_iterative_path_repeats_bit_for_bit(self):
        # above DENSE_EIG_CUTOFF the Lanczos iteration starts from a fixed
        # vector, so repeated calls return the same pair to the last bit
        p = get_problem("TRIDIA", 2100)
        system = ShiftedSystem(p.eval(p.x0 + 0.1, 2)[2])
        pairs = [min_eig(system) for _ in range(4)]
        assert len({lam for lam, _ in pairs}) == 1
        assert len({v.tobytes() for _, v in pairs}) == 1

    def test_iterative_path_on_a_clustered_hub_hessian(self):
        # above DENSE_EIG_CUTOFF: a hub row of sum n widens the Gershgorin
        # interval to [1, n], while the leftmost eigenvalue, 3.3e-12 below
        # the least diagonal entry, heads a cluster 3.3e-7 apart. Anchored
        # just below the edge, Lanczos separates it (anchored 3 below the
        # interval, it meets neither bound); the reference is the smallest
        # root of the arrowhead's secular equation
        # d_0 - lam - sum_i b_i^2 / (d_i - lam)
        n = 3000
        d = 1.0 + 1e-3 * np.linspace(0.0, 1.0, n)
        d[0] = float(n)
        b = np.full(n, 1e-4)
        H = problems._arrow(d, 0, b)
        system = ShiftedSystem(H)
        assert list(system.border.rows) == [0]
        lam, v = min_eig(system)

        def secular(mu):
            return d[0] - mu - float(np.sum(b[1:] ** 2 / (d[1:] - mu)))

        lo, hi = 0.0, d[1]
        while hi - lo > 4e-16 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if secular(mid) > 0.0 else (lo, mid)
        assert lam == pytest.approx(lo, abs=1e-15)
        assert np.linalg.norm(H @ v - lam * v) < 1e-14

    def test_gershgorin_contains_spectrum(self, rng):
        H = random_symmetric(rng, 12)
        lo, hi = gershgorin_interval(H)
        w = np.linalg.eigvalsh(H)
        assert lo <= w[0] and w[-1] <= hi


class TestSecondOrderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SecondOrderConfig(theta2=0.0)
        with pytest.raises(ValueError):
            SecondOrderConfig(eps_H=1.5)
        cfg = SecondOrderConfig()
        assert cfg.theta2 == 0.1
        assert 0.0 < cfg.eps_H < 1.0

    def test_solver_requires_so_config(self):
        p = quadratic_oracle([1.0, 2.0], [1.0, 1.0], "q")
        with pytest.raises(TypeError):
            far2so_solve(p, SolverConfig())


class TestFar2SoSolve:
    def test_convex_trajectory_matches_first_order(self):
        data = synth_classification(200, 10, seed=11)
        p1 = logistic_objective(data)
        p2 = logistic_objective(data)
        first = far2_solve(p1, SolverConfig(eps_rel=1e-3))
        second = far2so_solve(p2, SecondOrderConfig(eps_rel=1e-3))
        assert second.status == "second_order_point"
        assert [t.f for t in first.trace] == [t.f for t in second.trace]
        assert first.f_final == second.f_final

    def test_immediate_second_order_point_at_strict_minimum(self):
        p = quadratic_oracle([2.0, 1.0, 3.0], [0.0, 0.0, 0.0], "pd-start")
        rep = far2so_solve(p, SecondOrderConfig())
        assert rep.status == "second_order_point"
        assert rep.n_nli == 0

    def test_escapes_maximizer_where_first_order_stalls(self):
        D = -np.ones(5)
        first = far2_solve(quadratic_oracle(D, np.zeros(5), "max"), SolverConfig())
        assert first.status == "first_order_point" and first.n_nli == 0
        rep = far2so_solve(quadratic_oracle(D, np.zeros(5), "max"),
                           SecondOrderConfig(max_iters=20))
        assert rep.n_nli >= 1
        assert rep.f_final < 0.0
        assert rep.violations == []

    def test_saddle_escape_step_is_negative_curvature(self):
        D = np.ones(6)
        D[0] = -1.0
        rep = far2so_solve(quadratic_oracle(D, np.zeros(6), "saddle"),
                           SecondOrderConfig(max_iters=5))
        first_step = rep.trace[0]
        assert first_step.accepted
        assert first_step.step_kind == "secant"
        assert rep.f_final < 0.0

    def test_certifies_second_order_point_on_nonconvex_problem(self):
        p = get_problem("INDEF", 20)
        rep = far2so_solve(p, SecondOrderConfig(eps_H=1e-4))
        assert rep.status == "second_order_point"
        assert rep.violations == []
        _, _, H = p.eval(np.array(rep.x_final), 2)
        lam, _ = min_eig(ShiftedSystem(np.asarray(H)))
        assert lam >= -1e-4 - 1e-8
