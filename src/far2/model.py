"""Local models at the current iterate.

Holds the curvature data (H's analysis and sigma) of the cubic regularized
model m(s) = f + g^T s + s^T H s / 2 + (sigma/3)||s||^3 and the smallest
curvature of m at a step, exactly (model_curvature_min) or as a lower bound
without an eigensolve of H (model_curvature_bound), for the second-order
curvature tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import GramHessian
from .secular import ShiftedSystem
from .second_order import min_eig

# model_curvature_bound lowers its bound by this share of the spectral scale:
# far above the rounding of the Gershgorin sums (a few eps per entry of a
# row) and of the Gram operator's Weyl bound (about n eps lambda_max / N)
CURVATURE_BOUND_RTOL = 1.0e-8


@dataclass(frozen=True)
class ModelContext:
    """The analysed Hessian and the regularization weight at one iterate.

    `system` is the iterate's ShiftedSystem, whose storage of H is read
    and never written; H is used as the oracle returned it, exactly
    symmetric. Immutable; all model operations are pure.
    """

    system: ShiftedSystem = field(repr=False)
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def _check_dim(ctx: ModelContext, s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    n = ctx.system.H.shape[0]
    if s.shape != (n,):
        raise ValueError(f"step has dimension {s.shape}, expected ({n},)")
    return s


def model_curvature_min(ctx: ModelContext, s) -> float:
    """Smallest eigenvalue of the cubic-model Hessian at s.

    The Hessian is H + sigma ||s|| I + (sigma/||s||) s s^T for s != 0 and
    reduces to H at s = 0 (the continuous limit; the curvature test is only
    ever applied at nonzero trial steps), whose smallest eigenvalue the
    system keeps (ShiftedSystem.leftmost). min_eig applies the shift and the
    rank-one term, forming them only where it forms a dense matrix anyway.
    """
    s = _check_dim(ctx, s)
    snorm = float(np.linalg.norm(s))
    if snorm == 0.0:
        return ctx.system.leftmost[0]
    return min_eig(ctx.system, shift=ctx.sigma * snorm,
                   rank_one=(ctx.sigma / snorm, s))[0]


def model_curvature_bound(ctx: ModelContext, s) -> float:
    """A lower bound on model_curvature_min(ctx, s) without an eigensolve of H.

    The rank-one term (sigma/||s||) s s^T is positive semidefinite, so the
    smallest eigenvalue is at least the lower end of a certified interval
    on H's spectrum plus sigma ||s||. The interval is the operator's own
    Weyl bound when H is a GramHessian (GramHessian.interval, which does
    not form H), and H's Gershgorin interval (ctx.system.interval)
    otherwise. The bound is lowered by CURVATURE_BOUND_RTOL of the spectral
    scale, far more than the rounding in either interval and in the
    eigensolve, so a curvature test passed by the bound is passed by
    model_curvature_min.
    """
    s = _check_dim(ctx, s)
    H = ctx.system.H
    lo, hi = H.interval if isinstance(H, GramHessian) else ctx.system.interval
    shift = ctx.sigma * float(np.linalg.norm(s))
    scale = max(1.0, abs(lo), abs(hi)) + 2.0 * shift
    return lo + shift - CURVATURE_BOUND_RTOL * scale
