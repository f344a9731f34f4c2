import os

# One BLAS/OpenMP thread, set before numpy loads: threaded BLAS reductions
# round differently, and iteration and factorization counts (criterion 1,
# test_counts) would otherwise depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Echo one PASS/FAIL line per acceptance criterion after every run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)


def cubic_model_value(s, g, H, sigma, f0=0.0):
    s = np.asarray(s, dtype=float)
    return (f0 + float(s @ g) + 0.5 * float(s @ (H @ s))
            + (sigma / 3.0) * float(np.linalg.norm(s)) ** 3)


def brute_force_cubic_min(g, H, sigma, box=2.0, grid=25):
    """Independent oracle: grid scan of the cubic model plus a local polish.

    Returns (value, argmin). Only usable for small dimensions.
    """
    g = np.asarray(g, dtype=float)
    m = g.size
    axes = [np.linspace(-box, box, grid)] * m
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=1)
    vals = np.array([cubic_model_value(p, g, H, sigma) for p in pts])
    best = pts[int(np.argmin(vals))]
    res = minimize(cubic_model_value, best, args=(g, H, sigma), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    res2 = minimize(cubic_model_value, best, args=(g, H, sigma), method="BFGS")
    if res2.fun < res.fun:
        res = res2
    return float(res.fun), np.asarray(res.x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)
