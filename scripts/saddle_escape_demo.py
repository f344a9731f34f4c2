#!/usr/bin/env python3
"""Second-order escape demo.

Starts both solver variants at a strict saddle (zero gradient, one negative
curvature direction). The first-order solver terminates immediately; the
second-order variant detects the negative eigenvalue, takes a pure
eigenvector step through the hard case of the secular equation, and keeps
descending.
"""

import numpy as np

from far2 import SecondOrderConfig, SolverConfig, far2_solve, far2so_solve
from far2.problems import ObjectiveProblem


def saddle(n=8):
    D = np.ones(n)
    D[0] = -1.0

    def ev(x, order):
        f = 0.5 * float(D @ (x * x))
        if order == 0:
            return f, None, None
        g = D * x
        return f, g, np.diag(D)

    return ObjectiveProblem("saddle-quadratic", n, np.zeros(n), ev)


def main():
    first = far2_solve(saddle(), SolverConfig())
    print(f"first-order run : status={first.status}, iterations={first.n_nli}")

    rep = far2so_solve(saddle(), SecondOrderConfig(eps_H=1e-4, max_iters=12))
    print(f"second-order run: status={rep.status}, iterations={rep.n_nli}, "
          f"f_final={rep.f_final:.3e}")
    for t in rep.trace[:6]:
        print(f"  k={t.k}: f={t.f: .3e}  |g|={t.gnorm:.2e}  "
              f"step={t.step_kind}  accepted={t.accepted}")
    print("the k=0 secant step is the hard-case eigenvector escape; the "
          "objective is unbounded below, so the run ends at the iteration cap")


if __name__ == "__main__":
    main()
