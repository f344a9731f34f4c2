"""Pinned cost counts.

Performance work on the factorization and eigenvalue layers must leave every
count unchanged. These runs pin exact (n_fact, n_nli) pairs on paths that
exercise the tridiagonal Sturm inertia (ROSENBR, CUBE), dense Bunch-Kaufman
factorizations (WOODS), the Newton corrector (FAR2-PK), and FAR2-SO on a
sparse Hessian above DENSE_EIG_CUTOFF (EDENSCH-5000: curvature tests and the
iterative smallest-eigenvalue termination test). A change that moves one of
them on purpose must say so and update the pin.
"""

import pytest

from far2.harness import ProblemSpec, SuiteConfig, run_suite

PINNED = [
    ("AR2", "ROSENBR", 100, 4617, 415),
    ("AR2", "WOODS", 100, 998, 99),
    ("AR2", "CUBE", 100, 1327, 110),
    ("FAR2-PK", "ROSENBR", 100, 486, 507),
    ("FAR2-SO", "EDENSCH", 5000, 3, 6),
]


@pytest.mark.parametrize("solver,name,n,n_fact,n_nli", PINNED,
                         ids=[f"{s}-{p}-{n}" for s, p, n, _, _ in PINNED])
def test_pinned_counts(solver, name, n, n_fact, n_nli):
    spec = ProblemSpec(kind="registry", name=name, n=n)
    [report] = run_suite(SuiteConfig(solvers=[solver], problems=[spec]))
    assert report.converged
    assert report.violations == []
    assert (report.n_fact, report.n_nli) == (n_fact, n_nli)
