"""Exception types shared across the solver stack."""


class SolverError(Exception):
    """Base class for recoverable solver-stack failures."""


class SingularShiftError(SolverError):
    """H + lambda*I is numerically singular at the requested shift."""


class ShiftFailureError(SolverError):
    """A rational-Krylov shift could not be made nonsingular."""


class ReducedSolveError(SolverError):
    """The projected secular equation could not be solved."""


class SecantFailureError(SolverError):
    """The full-space secular solve exhausted its safeguards."""


class EigenSolveError(SolverError):
    """The smallest-eigenvalue routine did not converge."""


class NonFiniteHessianError(SolverError):
    """The entries of H that a factorization or an eigensolve reads are not
    all finite."""


class InternalInvariantError(AssertionError):
    """A quantity the decrease theory guarantees was violated; aborts the run."""


class ConfigError(ValueError):
    """Malformed suite configuration."""


class LibsvmParseError(ValueError):
    """Malformed LIBSVM-format input."""


class ProfileError(ValueError):
    """Performance profile requested on unusable inputs."""
