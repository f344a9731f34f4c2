"""Pinned cost counts.

Performance work on the factorization and eigenvalue layers must leave every
count unchanged. These runs pin exact (n_fact, n_nli) pairs on paths that
exercise AR2's safeguarded root iteration on the secular equation (each
next shift the root of a third-order model of 1/||s|| with sigma/lambda
kept exact, and the tests of a stall on either side of the root, with the
probe below the bracket's upper end on INDEF's near-hard solves) with
tridiagonal Cholesky (ROSENBR, CUBE), band Cholesky on 4x4 block Hessians
(WOODS) and the bordered factorization of a hub Hessian (EG2: a diagonal
plus one hub row, Cholesky of the diagonal and of the 1 x 1 Schur
complement), the
reuse after a rejected step of the iterate's last factorization and of its
leftmost eigenpair (counted once each, when made), its
early exit at the spectrum edge after one eigensolve and one test shift
(ROSENBR, WOODS, EG2), which a warm start below the edge goes to at once
(WOODS-500, EG2), the bracket's exhaustion there, the boundary step
along the leftmost eigenvector (WOODS, EG2), the Newton corrector
(FAR2-PK), pivoted indefinite solves of shifts that are not positive
definite (FAR2-RK on INDEF: rational expansions and corrector steps), and
FAR2-SO on a sparse Hessian above DENSE_EIG_CUTOFF (EDENSCH-5000: curvature
tests and the iterative smallest-eigenvalue termination test) and on the
dense eigensolve path below it (EG2, INDEF and CUBE at n = 100: the model
curvature tests, the positive-definite corrector gate and the dense
termination test). FAR2-SO on the classification losses of
experiments/second-order.cfg also pins how many loss Hessians it forms:
its curvature tests read the Gram operator's bound, which forms none. A
change that moves one of them on purpose must say so and update the pin.
"""

import pytest

from far2 import problems
from far2.harness import ProblemSpec, SuiteConfig, run_suite

PINNED = [
    ("AR2", "ROSENBR", 100, 779, 415),
    ("AR2", "WOODS", 100, 236, 99),
    ("AR2", "WOODS", 500, 212, 107),
    ("AR2", "CUBE", 100, 177, 110),
    ("AR2", "EG2", 100, 26, 13),
    ("AR2", "INDEF", 100, 47, 16),
    ("FAR2-PK", "ROSENBR", 100, 486, 507),
    ("FAR2-RK", "INDEF", 100, 37, 101),
    ("FAR2-SO", "EDENSCH", 5000, 3, 6),
    ("FAR2-SO", "EG2", 100, 7, 15),
    ("FAR2-SO", "INDEF", 100, 3, 17),
    ("FAR2-SO", "CUBE", 100, 95, 96),
]


@pytest.mark.parametrize("solver,name,n,n_fact,n_nli", PINNED,
                         ids=[f"{s}-{p}-{n}" for s, p, n, _, _ in PINNED])
def test_pinned_counts(solver, name, n, n_fact, n_nli):
    spec = ProblemSpec(kind="registry", name=name, n=n)
    [report] = run_suite(SuiteConfig(solvers=[solver], problems=[spec]))
    assert report.converged
    assert report.violations == []
    assert (report.n_fact, report.n_nli) == (n_fact, n_nli)


# (kind, seed, n_fact, n_nli, Hessians formed); N = 400, n = 40
FORMED = [
    ("logistic", 1, 2, 6, 3),
    ("logistic", 2, 2, 6, 3),
    ("sigmoid", 1, 9, 44, 10),
    ("sigmoid", 2, 35, 48, 11),
]


@pytest.mark.parametrize("kind,seed,n_fact,n_nli,formed", FORMED,
                         ids=[f"FAR2-SO-{k}-{s}" for k, s, _, _, _ in FORMED])
def test_pinned_loss_formations(monkeypatch, kind, seed, n_fact, n_nli, formed):
    calls = []
    real = problems._weighted_gram
    monkeypatch.setattr(problems, "_weighted_gram",
                        lambda A, w: calls.append(w) or real(A, w))
    spec = ProblemSpec(kind=kind, source="synth", N=400, n=40, seed=seed)
    [report] = run_suite(SuiteConfig(solvers=["FAR2-SO"], problems=[spec]))
    assert report.status == "second_order_point"
    assert report.violations == []
    assert (report.n_fact, report.n_nli, len(calls)) == (n_fact, n_nli, formed)
