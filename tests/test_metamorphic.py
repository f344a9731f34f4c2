"""Runs that must agree with other runs (metamorphic relations).

Rotation: the cubic model is invariant under x = Q y for an orthogonal Q,
and so are polynomial Krylov spaces, so AR2 and FAR2-PK take the same
iterations on a problem and on its rotation, whose Hessian Q^T H Q is
dense. AR2's first shift reads the Gershgorin interval, which is not
invariant, so its factorization count may move and is not compared. The
indefinite problems (INDEF, EG2) may reach other stationary points once
rotated and are left out, as is FAR2-RK, whose poles read the Gershgorin
interval too.

Full dimension: a polynomial refresh that reaches K_n(H, g) holds the
global minimizer of the cubic model in the easy case (Cartis, Gould &
Toint 2011), so its lifted step is the full-space solve's.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from far2.config import POLYNOMIAL, SolverConfig
from far2.driver import IterateState, subspace_minimize
from far2.harness import SOLVERS, ProblemSpec, build_solver_config
from far2.problems import ObjectiveProblem, get_problem
from far2.secular import SecularCase, ShiftedSystem, solve_secular_full_secant

ROTATED = [(s, p) for s in ("AR2", "FAR2-PK")
           for p in ("ROSENBR", "WOODS", "CUBE", "TRIDIA")]


def _rotated(problem: ObjectiveProblem, Q: np.ndarray) -> ObjectiveProblem:
    """problem in the coordinates y = Q^T x, with a dense, exactly
    symmetric Hessian Q^T H Q."""
    def ev(y, order):
        f, g, H = problem.eval(Q @ y, order)
        if order == 0:
            return f, None, None
        H = Q.T @ (H.toarray() if sp.issparse(H) else H) @ Q
        return f, Q.T @ g, 0.5 * (H + H.T)
    return ObjectiveProblem(problem.name, problem.n, Q.T @ problem.x0, ev)


@pytest.mark.parametrize("solver,name", ROTATED,
                         ids=[f"{s}-{p}" for s, p in ROTATED])
def test_rotation_keeps_the_run(solver, name):
    n = 20
    Q = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
    cfg = build_solver_config(solver, ProblemSpec(name=name, n=n))
    plain = SOLVERS[solver].solve(get_problem(name, n), cfg)
    turned = SOLVERS[solver].solve(_rotated(get_problem(name, n), Q), cfg)
    assert plain.converged and turned.violations == []
    assert (turned.status, turned.n_nli) == (plain.status, plain.n_nli)
    assert turned.f_final == pytest.approx(plain.f_final, rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.1, 3.0))
def test_full_dimension_refresh_is_the_full_space_step(seed, sigma):
    n, theta1 = 8, 1.0e-12
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = 0.5 * (A + A.T)
    assume(np.linalg.eigvalsh(H)[0] < 0.0)
    g = rng.standard_normal(n)
    full = solve_secular_full_secant(g, ShiftedSystem(H), sigma, theta1)
    assume(full.case is SecularCase.EASY)
    # j_max > n with a tiny theta1: no projection passes before K_n(H, g)
    cfg = SolverConfig(space_kind=POLYNOMIAL, j_max=n + 1, theta1=theta1)
    state = IterateState(k=0, x=np.zeros(n), f=0.0, g=g,
                         system=ShiftedSystem(H), sigma=sigma)
    sub = subspace_minimize(state, cfg)
    assert sub.dim == n
    np.testing.assert_allclose(sub.step_full, full.step,
                               rtol=0, atol=1e-8 * np.linalg.norm(full.step))
