"""Objective oracles.

A registry of classic unconstrained test problems coded from their standard
algebraic definitions (CUTEst-style names and starting points), logistic and
sigmoid classification losses, synthetic data generation, LIBSVM-format
ingestion, and a finite-difference derivative checker.

Every oracle evaluates f alone (order 0) or f, g and H (order 2), the two
orders the solvers ask for; ObjectiveProblem.eval serves order 1 from
order 2.

The banded registry problems (tridiagonal, diagonal or 4 x 4 blocks) and
the hub-coupled ARWHEAD, NONDIA and EG2 (a diagonal plus one full hub row
and column, or for EG2 a diagonal where its hub couplings vanish) return a
scipy.sparse CSR Hessian at every n, built vectorised. HILBERT and INDEF
return dense arrays: INDEF's two hubs would fit the same storage, but CSR
products round differently from dense ones and move its chaotic FAR2 runs
to other stationary points. The classification
losses return a GramHessian: an operator whose products with H need no
matrix (Hessian-free products, Pearlmutter 1994), and which forms its dense
matrix once, when a factorization or an eigensolve first reads H's entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.special import expit

from .errors import LibsvmParseError


class ObjectiveProblem:
    """Smooth objective oracle with per-order evaluation counters.

    eval(x, order) returns (f, g, H) with g/H set for order >= 1 / order 2;
    n_f, n_g, n_H count the calls of each order. H is exactly symmetric,
    H == H.T bit for bit, so callers use it without symmetrizing.
    raw_eval(x, order) evaluates order 0, (f, None, None), or order 2,
    (f, g, H): the solvers ask for f alone at trial points and for all
    three at accepted points, never for g alone. eval(x, 1), which the
    derivative checks ask for, evaluates order 2 and drops H.
    """

    def __init__(self, name, n, x0, raw_eval):
        self.name = name
        self.n = int(n)
        self.x0 = np.asarray(x0, dtype=float)
        self._raw = raw_eval
        self.n_f = 0
        self.n_g = 0
        self.n_H = 0

    def eval(self, x, order: int = 2):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        if order == 0:
            self.n_f += 1
            return self._raw(x, 0)
        if order == 1:
            self.n_g += 1
            f, g, _ = self._raw(x, 2)
            return f, g, None
        if order != 2:
            raise ValueError("order must be 0, 1 or 2")
        self.n_H += 1
        return self._raw(x, 2)

    def __repr__(self):
        return f"ObjectiveProblem({self.name!r}, n={self.n})"


def _diagonal(d):
    i = np.arange(d.size + 1, dtype=np.int32)
    return sp.csr_matrix((np.array(d, dtype=float), i[:-1], i), shape=(d.size, d.size))


def _tridiag(main, lower):
    """Symmetric tridiagonal CSR matrix with diagonals main and lower.

    Row i holds H[i, i-1:i+2] in data[3i-1:3i+2], clipped at both ends.
    """
    n = main.size
    m = 3 * n - 2
    data = np.empty(m)
    data[0::3], data[1::3], data[2::3] = main, lower, lower
    i = np.arange(n, dtype=np.int32)
    indices = np.empty(m, dtype=np.int32)
    indices[0::3], indices[1::3], indices[2::3] = i, i[1:], i[:-1]
    indptr = np.clip(np.arange(-1, m + 2, 3, dtype=np.int32), 0, m)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _arrow(diag, hub, coupling):
    """Symmetric CSR matrix: diagonal `diag` plus one hub row and column,
    hub = 0 or n - 1, with H[hub, j] = H[j, hub] = coupling[j] for j != hub.

    The hub row holds all n entries; every other row its hub entry and its
    diagonal entry, in column order.
    """
    n = diag.size
    i = np.arange(n, dtype=np.int32)
    top = np.array(coupling, dtype=float)
    top[hub] = diag[hub]
    other = np.delete(i, hub)
    at_hub, own = (0, 1) if hub == 0 else (1, 0)
    pair_idx = np.empty((n - 1, 2), dtype=np.int32)
    pair_val = np.empty((n - 1, 2))
    pair_idx[:, at_hub], pair_idx[:, own] = hub, other
    pair_val[:, at_hub], pair_val[:, own] = top[other], diag[other]
    if hub == 0:
        indices = np.concatenate([i, pair_idx.ravel()])
        data = np.concatenate([top, pair_val.ravel()])
        indptr = np.concatenate([[0], n + 2 * i])
    else:
        indices = np.concatenate([pair_idx.ravel(), i])
        data = np.concatenate([pair_val.ravel(), top])
        indptr = np.concatenate([2 * i, [3 * n - 2]])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _block_diag4(blocks: int, entries: dict):
    """Block-diagonal CSR matrix of `blocks` symmetric 4 x 4 blocks B.

    entries maps (i, j), i <= j, to B[i, j] = B[j, i]: one value per block or
    one for all. Entries not named are structural zeros.
    """
    pattern = sorted(set(entries) | {(j, i) for i, j in entries})
    data = np.empty((blocks, len(pattern)))
    for k, (i, j) in enumerate(pattern):
        data[:, k] = entries[min(i, j), max(i, j)]
    rows, cols = np.array(pattern, dtype=np.int32).T
    indptr = np.zeros(4 * blocks + 1, dtype=np.int32)
    np.cumsum(np.tile(np.bincount(rows, minlength=4), blocks), out=indptr[1:])
    indices = (4 * np.arange(blocks, dtype=np.int32)[:, None] + cols).ravel()
    return sp.csr_matrix((data.ravel(), indices, indptr), shape=(4 * blocks,) * 2)


# --- registry problems ----------------------------------------------------

def _rosenbr(n):
    """Chained Rosenbrock; start alternates (-1.2, 1). n = 2 is the classic."""
    def ev(x, order):
        d = x[1:] - x[:-1] ** 2
        e = 1.0 - x[:-1]
        f = 100.0 * float(d @ d) + float(e @ e)
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * d - 2.0 * e
        g[1:] += 200.0 * d
        main = np.zeros(n)
        main[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        main[1:] += 200.0
        lower = -400.0 * x[:-1]
        return f, g, _tridiag(main, lower)
    x0 = np.where(np.arange(n) % 2 == 0, -1.2, 1.0)
    return x0, ev


def _quad(n):
    """Convex quadratic f = 0.5 * sum(i * x_i^2); start at ones."""
    diag = np.arange(1.0, n + 1.0)
    def ev(x, order):
        f = 0.5 * float(diag @ (x * x))
        if order == 0:
            return f, None, None
        g = diag * x
        return f, g, _diagonal(diag)
    return np.ones(n), ev


def _arwhead(n):
    """Arrowhead function sum((x_i^2 + x_n^2)^2 - 4 x_i + 3); start at ones."""
    def ev(x, order):
        xn = x[-1]
        t = x[:-1] ** 2 + xn ** 2
        f = float((t ** 2).sum() - 4.0 * x[:-1].sum() + 3.0 * (n - 1))
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[:-1] = 4.0 * x[:-1] * t - 4.0
        g[-1] = float(4.0 * xn * t.sum())
        d = np.empty(n)
        d[:-1] = 4.0 * t + 8.0 * x[:-1] ** 2
        d[-1] = float((4.0 * t + 8.0 * xn ** 2).sum())
        return f, g, _arrow(d, n - 1, 8.0 * x * xn)
    return np.ones(n), ev


def _bdarwhd(n):
    """Block-diagonal arrowhead: blocks of 4 with the 4th variable as hub."""
    def ev(x, order):
        y = x.reshape(-1, 4)
        hub = y[:, 3:4]
        t = y[:, :3] ** 2 + hub ** 2
        f = float((t ** 2).sum() - 4.0 * y[:, :3].sum() + 3.0 * 3 * (n // 4))
        if order == 0:
            return f, None, None
        G = np.zeros_like(y)
        G[:, :3] = 4.0 * y[:, :3] * t - 4.0
        G[:, 3] = (4.0 * hub * t).sum(axis=1)
        g = G.ravel()
        entries = {(j, 3): 8.0 * y[:, j] * y[:, 3] for j in range(3)}
        entries.update({(j, j): 4.0 * t[:, j] + 8.0 * y[:, j] ** 2
                        for j in range(3)})
        entries[3, 3] = (4.0 * t + 8.0 * hub ** 2).sum(axis=1)
        return f, g, _block_diag4(n // 4, entries)
    return np.ones(n), ev


def _dqrtic(n):
    """Separable quartic sum((x_i - i)^4); start at 2."""
    i = np.arange(1.0, n + 1.0)
    def ev(x, order):
        r = x - i
        f = float((r ** 4).sum())
        if order == 0:
            return f, None, None
        g = 4.0 * r ** 3
        return f, g, _diagonal(12.0 * r ** 2)
    return 2.0 * np.ones(n), ev


def _tridia(n):
    """Convex quadratic (x_1-1)^2 + sum_i i*(2 x_i - x_{i-1})^2; start at ones."""
    w = np.arange(2.0, n + 1.0)
    def ev(x, order):
        r = 2.0 * x[1:] - x[:-1]
        f = float((x[0] - 1.0) ** 2 + (w * r * r).sum())
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 4.0 * w * r
        g[:-1] += -2.0 * w * r
        main = np.zeros(n)
        main[0] = 2.0
        main[1:] += 8.0 * w
        main[:-1] += 2.0 * w
        lower = -4.0 * w
        return f, g, _tridiag(main, lower)
    return np.ones(n), ev


def _engval1(n):
    """sum((x_i^2 + x_{i+1}^2)^2 - 4 x_i + 3); start at 2."""
    def ev(x, order):
        t = x[:-1] ** 2 + x[1:] ** 2
        f = float((t ** 2).sum() - 4.0 * x[:-1].sum() + 3.0 * (n - 1))
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[:-1] += 4.0 * x[:-1] * t - 4.0
        g[1:] += 4.0 * x[1:] * t
        main = np.zeros(n)
        main[:-1] += 4.0 * t + 8.0 * x[:-1] ** 2
        main[1:] += 4.0 * t + 8.0 * x[1:] ** 2
        lower = 8.0 * x[:-1] * x[1:]
        return f, g, _tridiag(main, lower)
    return 2.0 * np.ones(n), ev


def _nondia(n):
    """Shanno's nondiagonal Rosenbrock variant; start at -ones."""
    def ev(x, order):
        r = x[0] - x[1:] ** 2
        f = float((x[0] - 1.0) ** 2 + 100.0 * (r * r).sum())
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0) + 200.0 * r.sum()
        g[1:] = -400.0 * x[1:] * r
        d = np.empty(n)
        d[0] = 2.0 + 200.0 * (n - 1)
        d[1:] = -400.0 * r + 800.0 * x[1:] ** 2
        return f, g, _arrow(d, 0, -400.0 * x)
    return -np.ones(n), ev


def _woods(n):
    """Extended Woods function on blocks of 4; start tiles (-3, -1, -3, -1)."""
    def ev(x, order):
        y = x.reshape(-1, 4)
        x1, x2, x3, x4 = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        a = x2 - x1 ** 2
        b = x4 - x3 ** 2
        c = x2 + x4 - 2.0
        d = x2 - x4
        f = float((100.0 * a * a + (1.0 - x1) ** 2 + 90.0 * b * b
                   + (1.0 - x3) ** 2 + 10.0 * c * c + 0.1 * d * d).sum())
        if order == 0:
            return f, None, None
        G = np.empty_like(y)
        G[:, 0] = -400.0 * x1 * a - 2.0 * (1.0 - x1)
        G[:, 1] = 200.0 * a + 20.0 * c + 0.2 * d
        G[:, 2] = -360.0 * x3 * b - 2.0 * (1.0 - x3)
        G[:, 3] = 180.0 * b + 20.0 * c - 0.2 * d
        g = G.ravel()
        return f, g, _block_diag4(n // 4, {
            (0, 0): 1200.0 * x1 ** 2 - 400.0 * x2 + 2.0, (0, 1): -400.0 * x1,
            (1, 1): 220.2, (1, 3): 19.8,
            (2, 2): 1080.0 * x3 ** 2 - 360.0 * x4 + 2.0, (2, 3): -360.0 * x3,
            (3, 3): 200.2})
    return np.tile([-3.0, -1.0, -3.0, -1.0], n // 4), ev


def _powellsg(n):
    """Extended Powell singular function; start tiles (3, -1, 0, 1)."""
    def ev(x, order):
        y = x.reshape(-1, 4)
        x1, x2, x3, x4 = y[:, 0], y[:, 1], y[:, 2], y[:, 3]
        a = x1 + 10.0 * x2
        b = x3 - x4
        c = x2 - 2.0 * x3
        d = x1 - x4
        f = float((a * a + 5.0 * b * b + c ** 4 + 10.0 * d ** 4).sum())
        if order == 0:
            return f, None, None
        G = np.empty_like(y)
        G[:, 0] = 2.0 * a + 40.0 * d ** 3
        G[:, 1] = 20.0 * a + 4.0 * c ** 3
        G[:, 2] = 10.0 * b - 8.0 * c ** 3
        G[:, 3] = -10.0 * b - 40.0 * d ** 3
        g = G.ravel()
        dd = 120.0 * d ** 2
        cc = 12.0 * c ** 2
        return f, g, _block_diag4(n // 4, {
            (0, 0): 2.0 + dd, (0, 1): 20.0, (0, 3): -dd,
            (1, 1): 200.0 + cc, (1, 2): -2.0 * cc,
            (2, 2): 10.0 + 4.0 * cc, (2, 3): -10.0, (3, 3): 10.0 + dd})
    return np.tile([3.0, -1.0, 0.0, 1.0], n // 4), ev


def _edensch(n):
    """16 + sum((x_i-2)^4 + (x_i x_{i+1} - 2 x_{i+1})^2 + (x_{i+1}+1)^2); start 0."""
    def ev(x, order):
        a = x[:-1] - 2.0
        t = x[1:] * a
        u = x[1:] + 1.0
        f = 16.0 + float((a ** 4).sum() + (t * t).sum() + (u * u).sum())
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[:-1] += 4.0 * a ** 3 + 2.0 * t * x[1:]
        g[1:] += 2.0 * t * a + 2.0 * u
        main = np.zeros(n)
        main[:-1] += 12.0 * a ** 2 + 2.0 * x[1:] ** 2
        main[1:] += 2.0 * a ** 2 + 2.0
        lower = 4.0 * a * x[1:]
        return f, g, _tridiag(main, lower)
    return np.zeros(n), ev


def _cube(n):
    """(x_1-1)^2 + sum 100 (x_i - x_{i-1}^3)^2; start alternates (-1.2, 1)."""
    def ev(x, order):
        r = x[1:] - x[:-1] ** 3
        f = float((x[0] - 1.0) ** 2 + 100.0 * (r * r).sum())
        if order == 0:
            return f, None, None
        g = np.zeros_like(x)
        g[0] = 2.0 * (x[0] - 1.0)
        g[1:] += 200.0 * r
        g[:-1] += -600.0 * x[:-1] ** 2 * r
        main = np.zeros(n)
        main[0] = 2.0
        main[1:] += 200.0
        main[:-1] += -1200.0 * x[:-1] * r + 1800.0 * x[:-1] ** 4
        lower = -600.0 * x[:-1] ** 2
        return f, g, _tridiag(main, lower)
    x0 = np.where(np.arange(n) % 2 == 0, -1.2, 1.0)
    return x0, ev


def _eg2(n):
    """sum_{i<n} sin(x_1 + x_i^2 - 1) + 0.5 sin(x_n^2); start at zeros."""
    def ev(x, order):
        u = x[0] + x[: n - 1] ** 2 - 1.0
        xn = x[-1]
        f = float(np.sin(u).sum() + 0.5 * np.sin(xn * xn))
        if order == 0:
            return f, None, None
        cu = np.cos(u)
        g = np.zeros_like(x)
        g[0] += cu.sum()
        g[: n - 1] += 2.0 * x[: n - 1] * cu
        g[-1] += xn * np.cos(xn * xn)
        su = np.sin(u)
        # each term: -sin(u_j) v_j v_j^T + 2 cos(u_j) e_j e_j^T,
        # with v_j = e_0 + 2 x_j e_j (both hit x_0 when j = 0); x_n is
        # coupled to nothing, so its hub entry is an explicit zero
        d, coupling = np.zeros(n), np.zeros(n)
        v0 = 1.0 + 2.0 * x[0]
        d[0] += -su[0] * v0 * v0 + 2.0 * cu[0]
        if n > 2:
            xs = x[1: n - 1]
            sj = su[1:]
            cj = cu[1:]
            d[0] += -sj.sum()
            coupling[1: n - 1] += -2.0 * xs * sj
            d[1: n - 1] += -4.0 * xs ** 2 * sj + 2.0 * cj
        d[-1] += np.cos(xn * xn) - 2.0 * xn * xn * np.sin(xn * xn)
        if not coupling[1:].any():
            # no hub coupling (at the start point, for one): a diagonal H
            return f, g, _diagonal(d)
        return f, g, _arrow(d, 0, coupling)
    return np.zeros(n), ev


def _hilbert(n):
    """Quadratic 0.5 x^T A x on the Hilbert matrix; start at -3.

    A is formed at each evaluation, so an instance between evaluations
    holds O(n) memory, not O(n^2).
    """
    i = np.arange(1, n + 1)
    def ev(x, order):
        A = 1.0 / (i[:, None] + i[None, :] - 1.0)
        Ax = A @ x
        f = 0.5 * float(x @ Ax)
        if order == 0:
            return f, None, None
        return f, Ax, A
    return -3.0 * np.ones(n), ev


def _indef(n):
    """100 sum sin(x_i/100) + 0.5 sum_{1<i<n} cos(2 x_i - x_1 - x_n).

    Indefinite-Hessian test problem; start x_i = i/(n+1).
    """
    def ev(x, order):
        u = 2.0 * x[1:-1] - x[0] - x[-1]
        f = float(100.0 * np.sin(0.01 * x).sum() + 0.5 * np.cos(u).sum())
        if order == 0:
            return f, None, None
        g = np.cos(0.01 * x).copy()
        su = np.sin(u)
        g[1:-1] += -su
        g[0] += 0.5 * su.sum()
        g[-1] += 0.5 * su.sum()
        cu = np.cos(u)
        H = np.zeros((n, n))
        d = -0.01 * np.sin(0.01 * x)
        H[np.arange(n), np.arange(n)] = d
        # -0.5 cos(u_i) w w^T with w = 2 e_i - e_0 - e_{n-1}
        idx = np.arange(1, n - 1)
        H[idx, idx] += -2.0 * cu
        H[0, 0] += -0.5 * cu.sum()
        H[-1, -1] += -0.5 * cu.sum()
        H[0, -1] += -0.5 * cu.sum()
        H[-1, 0] += -0.5 * cu.sum()
        H[idx, 0] += cu
        H[0, idx] += cu
        H[idx, -1] += cu
        H[-1, idx] += cu
        return f, g, H
    x0 = np.arange(1, n + 1) / (n + 1.0)
    return x0, ev


@dataclass(frozen=True)
class _RegistryEntry:
    builder: object
    min_n: int = 2
    multiple_of: int = 1
    note: str = ""


REGISTRY = {
    "ROSENBR": _RegistryEntry(_rosenbr, 2, 1, "chained Rosenbrock"),
    "QUAD": _RegistryEntry(_quad, 1, 1, "convex diagonal quadratic"),
    "ARWHEAD": _RegistryEntry(_arwhead, 2, 1, "arrowhead"),
    "BDARWHD": _RegistryEntry(_bdarwhd, 4, 4, "block-diagonal arrowhead"),
    "DQRTIC": _RegistryEntry(_dqrtic, 1, 1, "diagonal quartic"),
    "TRIDIA": _RegistryEntry(_tridia, 2, 1, "tridiagonal quadratic"),
    "ENGVAL1": _RegistryEntry(_engval1, 2, 1, "Engvall function"),
    "NONDIA": _RegistryEntry(_nondia, 2, 1, "nondiagonal Rosenbrock variant"),
    "WOODS": _RegistryEntry(_woods, 4, 4, "extended Woods"),
    "POWELLSG": _RegistryEntry(_powellsg, 4, 4, "extended Powell singular"),
    "EDENSCH": _RegistryEntry(_edensch, 2, 1, "Eden-Schittkowski chain"),
    "CUBE": _RegistryEntry(_cube, 2, 1, "chained cube"),
    "EG2": _RegistryEntry(_eg2, 3, 1, "trigonometric chain"),
    "HILBERT": _RegistryEntry(_hilbert, 2, 1, "Hilbert quadratic"),
    "INDEF": _RegistryEntry(_indef, 3, 1, "indefinite trigonometric"),
}


def registry_names() -> list[str]:
    return sorted(REGISTRY)


def registry_entry(name: str, n: int) -> _RegistryEntry:
    """The registry entry of `name`, once n meets its dimension rule."""
    key = name.upper()
    if key not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; see registry_names()")
    entry = REGISTRY[key]
    if n < entry.min_n or n % entry.multiple_of != 0:
        raise ValueError(
            f"{key} needs n >= {entry.min_n}"
            + (f" and n % {entry.multiple_of} == 0" if entry.multiple_of > 1 else ""))
    return entry


def get_problem(name: str, n: int) -> ObjectiveProblem:
    """Instantiate a registry problem at dimension n."""
    n = int(n)
    x0, ev = registry_entry(name, n).builder(n)
    return ObjectiveProblem(name.upper(), n, x0, ev)


# --- classification objectives --------------------------------------------

def _weighted_gram(A, w):
    """sum_i w_i a_i a_i^T over the rows a_i of A, exactly symmetric.

    The rows with w_i >= 0 are gathered first into one N x n buffer, which
    is scaled in place by sqrt|w_i|; each sign's contiguous slice B then
    gives B^T B by a symmetric rank-k update (BLAS syrk), which computes
    one triangle and mirrors it. Together the two updates cost half the
    general product (A^T W) A, and the buffer is the only N x n temporary.
    """
    pos = w >= 0.0
    rows = np.concatenate((np.flatnonzero(pos), np.flatnonzero(~pos)))
    B = A[rows]
    B *= np.sqrt(np.abs(w[rows]))[:, None]
    k = int(np.count_nonzero(pos))
    G = B[:k].T @ B[:k]
    if k < w.size:
        G -= B[k:].T @ B[k:]
    return G


def _row_sq_norms(A):
    """A callable that returns A's squared row norms, computed on its first
    call (the first interval a loss Hessian is asked for) and then kept."""
    return cache(lambda: np.einsum("ij,ij->i", A, A))


class GramHessian:
    """The classification Hessian A^T diag(w) A / N + reg I, as an operator.

    Holds A (not copied), the sample weights w, N and the diagonal term
    reg. Until the matrix is formed, `H @ V` (V a vector or an n x k array)
    is the Hessian-free product A^T (w * (A V)) / N + reg V, computed
    row-wise as ((V^T A^T) * w) A: two gemms on A as stored, which with
    one BLAS thread take about half the time of A^T (w * (A V)) for 2 to
    20 columns (N = 5000, n = 500). toarray() forms the
    matrix once by symmetric rank-k updates (_weighted_gram), exactly
    symmetric, and caches it; from then on `@` multiplies by the matrix.
    np.asarray(H) is toarray(). `interval` bounds H's spectrum without
    forming it. row_sq, if given, is a _row_sq_norms callable shared by all
    the Hessians of one loss, so A's squared row norms are computed once.
    """

    def __init__(self, A: np.ndarray, w: np.ndarray, N: int, reg: float = 0.0,
                 row_sq=None):
        self.A, self.w, self.N, self.reg = A, w, N, reg
        self.shape = (A.shape[1], A.shape[1])
        self._matrix = None
        self._row_sq = row_sq or _row_sq_norms(A)

    @cached_property
    def interval(self) -> tuple[float, float]:
        """Certified bounds (lower, upper) on H's spectrum, H never formed.

        H = (Bp^T Bp - Bn^T Bn) / N + reg I, where Bn holds the k rows of A
        with w_i < 0 scaled by sqrt(-w_i). Bp^T Bp is positive semidefinite,
        so by Weyl's inequality lambda_min(H) >= reg - lambda_max(Bn Bn^T)/N,
        the top eigenvalue taken from the smaller Gram matrix of Bn, k x k
        or (k > n) n x n; with k = 0 the lower end is reg exactly. The upper
        end, reg + sum_{w_i > 0} w_i ||a_i||^2 / N, is the trace of the
        positive part: loose, but it reads only w and A's squared row norms,
        never the N - k positive rows.
        """
        neg = np.flatnonzero(self.w < 0.0)
        top = 0.0
        if neg.size:
            B = self.A[neg]
            B *= np.sqrt(-self.w[neg])[:, None]
            G = B @ B.T if neg.size <= B.shape[1] else B.T @ B
            m = G.shape[0]
            top = float(sla.eigvalsh(G, subset_by_index=[m - 1, m - 1])[0])
        hi = self.reg + float(np.maximum(self.w, 0.0) @ self._row_sq()) / self.N
        return self.reg - top / self.N, hi

    def toarray(self) -> np.ndarray:
        if self._matrix is None:
            H = _weighted_gram(self.A, self.w)
            H /= self.N
            if self.reg:
                H.flat[:: H.shape[0] + 1] += self.reg
            self._matrix = H
        return self._matrix

    def __array__(self, dtype=None, copy=None):
        return np.array(self.toarray(), dtype=dtype, copy=copy)

    def __matmul__(self, V):
        if self._matrix is not None:
            return self._matrix @ V
        V = np.asarray(V, dtype=float)
        HV = (((V.T @ self.A.T) * self.w) @ self.A).T / self.N
        if self.reg:
            HV += self.reg * V
        return HV


@dataclass
class ClassificationData:
    """Feature matrix and labels for a binary task."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # sparse feature matrices are accepted and densified: the losses'
        # Hessian products and formed Hessians work on a dense A
        if sp.issparse(self.A):
            self.A = self.A.toarray()
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("A must be N x n with one label per row")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("non-finite feature entries")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("non-finite labels")

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def remap_labels(data: ClassificationData, convention: str) -> ClassificationData:
    """The data with labels in {-1,+1} ('pm1') or {0,1} ('01').

    A positive label goes to the positive class, any other to the negative
    one; two distinct labels in one class are a ValueError (the data is
    not two-class as labelled). The feature matrix is shared with `data`,
    not copied.
    """
    b = data.b
    if np.unique(b[b > 0.0]).size > 1 or np.unique(b[b <= 0.0]).size > 1:
        raise ValueError(f"labels {np.unique(b).tolist()} do not form two "
                         "classes, positive and not")
    if convention == "pm1":
        nb = np.where(b > 0.0, 1.0, -1.0)
    elif convention == "01":
        nb = np.where(b > 0.0, 1.0, 0.0)
    else:
        raise ValueError("convention must be 'pm1' or '01'")
    return ClassificationData(A=data.A, b=nb)


def logistic_objective(data: ClassificationData) -> ObjectiveProblem:
    """Regularized logistic loss (1/N) sum log(1+exp(-b a^T x)) + ||x||^2/(2N).

    Labels must be in {-1,+1}; strictly convex (the regularizer keeps the
    Hessian at or above I/N). Start at the origin. H = B^T B / N + I/N
    with B = diag(sqrt(w)) A and w = sigma (1 - sigma) >= 0, a GramHessian
    whose matrix, when formed, costs one symmetric rank-k update.
    """
    if not set(np.unique(data.b)) <= {-1.0, 1.0}:
        raise ValueError("logistic labels must lie in {-1, +1}")
    A, b, N = data.A, data.b, data.N
    n = data.n
    row_sq = _row_sq_norms(A)

    def ev(x, order):
        t = b * (A @ x)
        f = float(np.logaddexp(0.0, -t).mean() + 0.5 * float(x @ x) / N)
        if order == 0:
            return f, None, None
        sig = expit(t)
        g = A.T @ ((sig - 1.0) * b) / N + x / N
        return f, g, GramHessian(A, sig * (1.0 - sig), N, 1.0 / N, row_sq=row_sq)

    return ObjectiveProblem(f"logistic[N={N}]", n, np.zeros(n), ev)


def sigmoid_objective(data: ClassificationData) -> ObjectiveProblem:
    """Sigmoid least-squares loss (1/N) sum (b - 1/(1+exp(-a^T x)))^2.

    Labels must be in {0,1}; nonconvex. Start at the origin. The Hessian
    weights w change sign, so H = (Bp^T Bp - Bn^T Bn) / N, where Bp and Bn
    hold the rows of A with w >= 0 and w < 0 scaled by sqrt|w|: a
    GramHessian whose matrix, when formed, costs two symmetric rank-k
    updates on one gathered buffer.
    """
    if not set(np.unique(data.b)) <= {0.0, 1.0}:
        raise ValueError("sigmoid labels must lie in {0, 1}")
    A, b, N = data.A, data.b, data.N
    n = data.n
    row_sq = _row_sq_norms(A)

    def ev(x, order):
        p = expit(A @ x)
        r = b - p
        f = float(r @ r) / N
        if order == 0:
            return f, None, None
        q = p * (1.0 - p)
        g = A.T @ (-2.0 * r * q) / N
        return f, g, GramHessian(A, 2.0 * (q * q - r * q * (1.0 - 2.0 * p)), N,
                                 row_sq=row_sq)

    return ObjectiveProblem(f"sigmoid[N={N}]", n, np.zeros(n), ev)


def synth_classification(N: int, n: int, seed: int) -> ClassificationData:
    """Standard-normal features with a planted separator and 10% label noise.

    Deterministic for a fixed seed; labels in {-1,+1}.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, n))
    w = rng.standard_normal(n)
    b = np.where(A @ w >= 0.0, 1.0, -1.0)
    flip = rng.random(N) < 0.1
    b[flip] = -b[flip]
    return ClassificationData(A=A, b=b)


# --- LIBSVM format ----------------------------------------------------------

def load_libsvm(path, n_features: int | None = None,
                labels: str | None = None) -> ClassificationData:
    """Read sparse 'label idx:val ...' lines with 1-based indices.

    Feature dimension defaults to the largest index seen; an index beyond
    a given n_features, or given twice in one line, is a LibsvmParseError.
    `labels` may remap to 'pm1' or '01'.
    """
    rows = []
    targets = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise LibsvmParseError(f"line {lineno}: bad label {parts[0]!r}") from exc
            if not math.isfinite(label):
                raise LibsvmParseError(f"line {lineno}: non-finite label {parts[0]!r}")
            targets.append(label)
            entries = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":")
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise LibsvmParseError(f"line {lineno}: bad entry {tok!r}") from exc
                if idx < 1:
                    raise LibsvmParseError(f"line {lineno}: index {idx} not 1-based")
                if n_features is not None and idx > n_features:
                    raise LibsvmParseError(f"line {lineno}: index {idx} beyond "
                                           f"n_features = {n_features}")
                if not math.isfinite(val):
                    raise LibsvmParseError(f"line {lineno}: non-finite entry {tok!r}")
                if idx in entries:
                    raise LibsvmParseError(f"line {lineno}: index {idx} repeated")
                entries[idx] = val
                max_idx = max(max_idx, idx)
            rows.append(entries)
    if not rows:
        raise LibsvmParseError(f"{path}: no data lines")
    n = n_features if n_features is not None else max_idx
    A = np.zeros((len(rows), n))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            A[r, idx - 1] = val
    data = ClassificationData(A=A, b=np.asarray(targets))
    if labels is not None:
        data = remap_labels(data, labels)
    return data


def save_libsvm(data: ClassificationData, path) -> None:
    """Write in sparse LIBSVM format (zeros omitted, 1-based indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, lab in zip(data.A, data.b):
            toks = [f"{lab:g}"]
            toks += [f"{j + 1}:{v:.17g}" for j, v in enumerate(row) if v != 0.0]
            fh.write(" ".join(toks) + "\n")


# --- derivative checking ----------------------------------------------------

def fd_gradient(problem: ObjectiveProblem, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient with h = eps^{1/3} (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        fp = problem.eval(x + e, 0)[0]
        fm = problem.eval(x - e, 0)[0]
        g[i] = (fp - fm) / (2.0 * h[i])
    return g


def fd_hessian(problem: ObjectiveProblem, x: np.ndarray) -> np.ndarray:
    """Central finite differences of the analytic gradient."""
    x = np.asarray(x, dtype=float)
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        gp = problem.eval(x + e, 1)[1]
        gm = problem.eval(x - e, 1)[1]
        cols.append((gp - gm) / (2.0 * h[i]))
    H = np.column_stack(cols)
    return 0.5 * (H + H.T)


def check_derivatives(problem: ObjectiveProblem, n_points: int = 5,
                      seed: int = 0, spread: float = 0.5) -> tuple[float, float]:
    """Worst relative gradient / Hessian errors at x0 and random perturbations.

    Gradient error is ||g - g_fd|| / (1 + ||g||); Hessian error is the
    max-entry deviation relative to 1 + max|H|.
    """
    rng = np.random.default_rng(seed)
    points = [problem.x0.copy()]
    points += [problem.x0 + spread * rng.standard_normal(problem.n)
               for _ in range(n_points)]
    worst_g = worst_h = 0.0
    for x in points:
        _, g, H = problem.eval(x, 2)
        H = H.toarray() if sp.issparse(H) else np.asarray(H)
        gfd = fd_gradient(problem, x)
        worst_g = max(worst_g, float(np.linalg.norm(g - gfd))
                      / (1.0 + float(np.linalg.norm(g))))
        hfd = fd_hessian(problem, x)
        worst_h = max(worst_h, float(np.max(np.abs(H - hfd)))
                      / (1.0 + float(np.max(np.abs(H)))))
    return worst_g, worst_h
