"""Workload definitions: which solves a round makes and on what data.

A round is the list of (solver, problem) solves of one workload. Every run
repeats the same round, so the failed share of attempted solves is the same
in every run. The seed only orders the solves and, on `classify`, chooses a
storage layout of the data (see `classification_data`); it never changes
what any solve has to do, so the counts repeat across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from far2 import (ClassificationData, ar2_solve, far2_solve, far2so_solve,
                  get_problem, logistic_objective, registry_names,
                  sigmoid_objective)
from far2.harness import ProblemSpec, build_solver_config

WORKLOADS = ("registry-ar2", "registry-far2", "large-n", "classify")

SOLVE = {"AR2": ar2_solve, "FAR2-PK": far2_solve, "FAR2-RK": far2_solve,
         "FAR2-SO": far2so_solve}
EXPECTED_STATUS = {"AR2": "first_order_point", "FAR2-PK": "first_order_point",
                   "FAR2-RK": "first_order_point",
                   "FAR2-SO": "second_order_point"}

# classify: N samples, n features, drawn once from CLASSIFY_BASE_SEED
CLASSIFY_N = 5000
CLASSIFY_FEATURES = 500
CLASSIFY_BASE_SEED = 0
CLASSIFY_LABEL_NOISE = 0.1
CLASSIFY_BLOCK = 250       # samples drawn at a time


@dataclass
class Instance:
    """One solve: the solver, how to build a fresh oracle, and its config."""

    solver: str
    kind: str            # registry | logistic | sigmoid
    name: str
    n: int
    data: ClassificationData | None = None

    @property
    def label(self) -> str:
        return f"{self.solver}/{self.name}-{self.n}"

    def build(self):
        """A fresh oracle (its evaluation counters start at zero)."""
        if self.kind == "registry":
            return get_problem(self.name, self.n)
        if self.kind == "logistic":
            return logistic_objective(self.data)
        return sigmoid_objective(self.data)

    def config(self):
        spec = ProblemSpec(kind=self.kind, name=self.name, n=self.n)
        return build_solver_config(self.solver, spec, {})

    def solve(self, problem):
        return SOLVE[self.solver](problem, self.config())


def classification_data(seed: int):
    """Features A (N x n) and labels b in {-1, +1} for `classify`.

    The samples are standard normal with labels from a planted separator,
    exactly 10% of them flipped, all drawn from CLASSIFY_BASE_SEED. The
    seed permutes the samples and the features and flips the sign of each
    feature at random. Both losses start at x = 0 and are invariant under
    these maps, so every seed poses the same problem in another layout and
    the solvers take the same path. Fresh data for every seed would move a
    round's cost by far more than any bound (15 s to 29 s over seeds 0-7).

    The samples are drawn in blocks and scattered straight into place, so
    set-up holds A once plus one block: its memory peak stays below that of
    the solves, and `peak_rss_mb` measures the solves.
    """
    base = np.random.default_rng(CLASSIFY_BASE_SEED)
    N, n = CLASSIFY_N, CLASSIFY_FEATURES
    w = base.standard_normal(n)
    rng = np.random.default_rng(seed)
    row_of = np.argsort(rng.permutation(N))    # drawn sample i lands in row row_of[i]
    cols = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    A = np.empty((N, n))
    b = np.empty(N)
    for start in range(0, N, CLASSIFY_BLOCK):
        block = base.standard_normal((min(CLASSIFY_BLOCK, N - start), n))
        dest = row_of[start:start + len(block)]
        b[dest] = np.where(block @ w >= 0.0, 1.0, -1.0)
        A[dest] = block[:, cols] * signs
    flip = row_of[base.permutation(N)[: int(CLASSIFY_LABEL_NOISE * N)]]
    b[flip] = -b[flip]
    return A, b


def build_round(workload: str, seed: int) -> list[Instance]:
    """The solves of one round, in the order the seed gives them."""
    if workload in ("registry-ar2", "registry-far2"):
        solvers = ["AR2"] if workload == "registry-ar2" else ["FAR2-PK", "FAR2-RK"]
        round_ = [Instance(s, "registry", name, n) for s in solvers
                  for name in registry_names() for n in (100, 500)]
    elif workload == "large-n":
        # AR2 is left out on CUBE: its full-space secant fails there for
        # every n > 2000 (see README)
        round_ = [Instance(s, "registry", name, 20000)
                  for name in ("TRIDIA", "QUAD", "DQRTIC", "ENGVAL1", "EDENSCH")
                  for s in ("AR2", "FAR2-PK", "FAR2-RK")]
        round_ += [Instance(s, "registry", "CUBE", 20000)
                   for s in ("FAR2-PK", "FAR2-RK")]
        round_ += [Instance("FAR2-SO", "registry", name, 5000)
                   for name in ("QUAD", "EDENSCH")]
    elif workload == "classify":
        A, b = classification_data(seed)
        pm1 = ClassificationData(A=A, b=b)
        zero_one = ClassificationData(A=A, b=np.where(b > 0.0, 1.0, 0.0))
        round_ = [Instance(s, kind, kind, CLASSIFY_FEATURES, data)
                  for s in ("AR2", "FAR2-PK", "FAR2-RK", "FAR2-SO")
                  for kind, data in (("logistic", pm1), ("sigmoid", zero_one))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    random.Random(seed).shuffle(round_)
    return round_
