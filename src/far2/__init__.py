"""Adaptive cubic-regularization solvers with frozen Krylov subspaces."""

from .config import POLYNOMIAL, RATIONAL, SolverConfig
from .driver import RunReport, Status, ar2_solve, far2_solve, far2so_solve
from .harness import (ProblemSpec, SuiteConfig, performance_profile,
                      run_suite)
from .problems import (ClassificationData, ObjectiveProblem, get_problem,
                       load_libsvm, logistic_objective, registry_names,
                       sigmoid_objective, synth_classification)
from .second_order import SecondOrderConfig

__version__ = "0.1.0"

__all__ = [
    "POLYNOMIAL", "RATIONAL", "SolverConfig", "SecondOrderConfig",
    "RunReport", "Status", "ar2_solve", "far2_solve", "far2so_solve",
    "ProblemSpec", "SuiteConfig", "performance_profile", "run_suite",
    "ClassificationData", "ObjectiveProblem", "get_problem", "load_libsvm",
    "logistic_objective", "registry_names", "sigmoid_objective",
    "synth_classification", "__version__",
]
