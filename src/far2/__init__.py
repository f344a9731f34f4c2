"""Adaptive cubic-regularization solvers with frozen Krylov subspaces."""

from .config import POLYNOMIAL, RATIONAL, SolverConfig
from .driver import (IterateState, RunReport, Status, ar2_solve, far2_solve,
                     far2so_solve, subspace_minimize)
from .harness import (ProblemSpec, SuiteConfig, performance_profile,
                      run_suite)
from .model import ModelContext
from .problems import (ClassificationData, ObjectiveProblem, get_problem,
                       load_libsvm, logistic_objective, registry_names,
                       sigmoid_objective, synth_classification)
from .secular import (SecularCase, SecularSolution,
                      solve_secular_full_secant, solve_secular_reduced)
from .second_order import SecondOrderConfig, min_eig

__version__ = "0.1.0"

__all__ = [
    "POLYNOMIAL", "RATIONAL", "SolverConfig", "SecondOrderConfig",
    "IterateState", "RunReport", "Status", "ar2_solve", "far2_solve",
    "far2so_solve", "subspace_minimize", "ProblemSpec", "SuiteConfig",
    "performance_profile", "run_suite", "ModelContext", "ClassificationData",
    "ObjectiveProblem", "get_problem", "load_libsvm", "logistic_objective",
    "registry_names", "sigmoid_objective", "synth_classification",
    "SecularCase", "SecularSolution",
    "solve_secular_full_secant", "solve_secular_reduced", "min_eig",
    "__version__",
]
