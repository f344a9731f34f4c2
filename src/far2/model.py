"""Local models at the current iterate.

Evaluates the second-order Taylor expansion T(s), the cubic regularized
model m(s) = T(s) + (sigma/3)||s||^3, its gradient and smallest curvature,
and the quadratic regularized model T(s) + (lambda_hat/2)||s||^2 used by the
regularized Newton corrector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .second_order import gershgorin_interval, min_eig

# model_curvature_bound lowers its bound by this share of the spectral scale
CURVATURE_BOUND_RTOL = 1.0e-8


def symmetrize(H):
    """0.5 * (H + H^T), sparse or dense."""
    if not sp.issparse(H):
        H = np.asarray(H, dtype=float)
    return 0.5 * (H + H.T)


@dataclass(frozen=True)
class ModelContext:
    """Frozen oracle data (f, g, H, sigma) at one iterate.

    H is symmetrized on construction so that model operations never see
    oracle round-off asymmetry. Immutable; all model operations are pure.
    """

    f0: float
    g: np.ndarray
    H: object = field(repr=False)
    sigma: float = 1.0

    def __post_init__(self):
        self._settle(symmetrize(self.H))

    @classmethod
    def _from_symmetric(cls, f0: float, g, H, sigma: float) -> "ModelContext":
        """A context around an H that symmetrize() already produced.

        Lets a caller symmetrize once per Hessian evaluation rather than
        once per context; H is kept, not copied.
        """
        ctx = object.__new__(cls)
        for name, value in (("f0", f0), ("g", g), ("sigma", sigma)):
            object.__setattr__(ctx, name, value)
        ctx._settle(H)
        return ctx

    def _settle(self, H) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        g = np.asarray(self.g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient has non-finite entries")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)
        if H.shape != (g.size, g.size):
            raise ValueError("H and g dimensions disagree")

    @property
    def n(self) -> int:
        return self.g.size

    @cached_property
    def gershgorin(self) -> tuple[float, float]:
        """Gershgorin bounds (lower, upper) on the spectrum of H."""
        return gershgorin_interval(self.H)

    def hess_product(self, s: np.ndarray) -> np.ndarray:
        out = self.H @ s
        return np.asarray(out).ravel()


def _check_dim(ctx: ModelContext, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (ctx.n,):
        raise ValueError(f"step has dimension {s.shape}, expected ({ctx.n},)")
    return s


def evaluate_model(ctx: ModelContext, s, Hs=None) -> tuple[float, float]:
    """Return (T(s), m(s)) with m(s) = T(s) + (sigma/3)||s||^3.

    Pass a precomputed Hs to reuse the Hessian product within one check.
    """
    s = _check_dim(ctx, s)
    if Hs is None:
        Hs = ctx.hess_product(s)
    taylor = ctx.f0 + float(s @ ctx.g) + 0.5 * float(s @ Hs)
    cubic = taylor + (ctx.sigma / 3.0) * float(np.linalg.norm(s)) ** 3
    return taylor, cubic


def model_gradient(ctx: ModelContext, s, Hs=None) -> np.ndarray:
    """Gradient of the cubic model: g + H s + sigma ||s|| s."""
    s = _check_dim(ctx, s)
    if Hs is None:
        Hs = ctx.hess_product(s)
    return ctx.g + Hs + ctx.sigma * float(np.linalg.norm(s)) * s


def model_curvature_min(ctx: ModelContext, s) -> float:
    """Smallest eigenvalue of the cubic-model Hessian at s.

    The Hessian is H + sigma ||s|| I + (sigma/||s||) s s^T for s != 0 and
    reduces to H at s = 0 (the continuous limit; the curvature test is only
    ever applied at nonzero trial steps). H + sigma ||s|| I keeps the
    storage of H (a sparse H stays sparse) and min_eig adds the rank-one
    term, forming it only where it forms a dense matrix anyway.
    """
    s = _check_dim(ctx, s)
    snorm = float(np.linalg.norm(s))
    if snorm == 0.0:
        lam, _ = min_eig(ctx.H)
        return lam
    shift = ctx.sigma * snorm
    if sp.issparse(ctx.H):
        A = ctx.H + shift * sp.identity(ctx.n, format="csr")
    else:
        # equals H + shift * eye(n) bit for bit: off the diagonal -0.0 + 0.0
        A = ctx.H + shift * 0.0
        A.flat[:: ctx.n + 1] += shift
    lam, _ = min_eig(A, rank_one=(ctx.sigma / snorm, s))
    return lam


def model_curvature_bound(ctx: ModelContext, s) -> float:
    """A lower bound on model_curvature_min(ctx, s) without an eigensolve.

    The rank-one term (sigma/||s||) s s^T is positive semidefinite, so the
    smallest eigenvalue is at least gershgorin_lo(H) + sigma ||s||. The
    bound is lowered by CURVATURE_BOUND_RTOL of the spectral scale, far
    more than the rounding in the Gershgorin sums and in the eigensolve, so
    a curvature test passed by the bound is passed by model_curvature_min.
    """
    s = _check_dim(ctx, s)
    lo, hi = ctx.gershgorin
    shift = ctx.sigma * float(np.linalg.norm(s))
    scale = max(1.0, abs(lo), abs(hi)) + 2.0 * shift
    return lo + shift - CURVATURE_BOUND_RTOL * scale


def quad_reg_value(ctx: ModelContext, s, lambda_hat: float, Hs=None) -> float:
    """Quadratic regularized model T(s) + (lambda_hat/2)||s||^2."""
    if lambda_hat < 0.0:
        raise ValueError("lambda_hat must be nonnegative")
    s = _check_dim(ctx, s)
    taylor, _ = evaluate_model(ctx, s, Hs=Hs)
    return taylor + 0.5 * lambda_hat * float(s @ s)
