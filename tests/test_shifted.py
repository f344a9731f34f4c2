"""ShiftedFactorization against a reference copy of its earlier form.

The reference below factors exactly as the class did before it analysed H
once, tested positive definiteness with pttrf and counted block pivots
vectorised: a fresh tridiagonal scan per shift, a Python Sturm loop, dense
B = A + lam * eye(n) and a Python loop over the Bunch-Kaufman blocks. The
class must give the same inertia, raise SingularShiftError in the same
cases and return bit-identical solutions; away from the spectrum the
inertia must also match eigvalsh's sign counts.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import _compute_lwork, dgttrf, dgttrs, dpttrf

from far2.errors import SingularShiftError
from far2.secular import (ZERO_PIVOT_RTOL, ShiftedSystem, analyse_hessian,
                          factorize_shifted, solve_secular_full_secant)
import far2.secular as secular


def _ref_sturm(d, e, ztol):
    pos = neg = zero = 0
    p_prev = None
    for i in range(d.size):
        p = d[i] if i == 0 else d[i] - e[i - 1] * e[i - 1] / p_prev
        if abs(p) < ztol:
            zero += 1
            p = -ztol
        elif p > 0.0:
            pos += 1
        else:
            neg += 1
        p_prev = p
    return pos, neg, zero


def _ref_raw_pivots(d, e, ztol):
    """The Sturm loop's pivots before the -ztol replacement."""
    raw = np.empty(d.size)
    p_prev = None
    for i in range(d.size):
        p = d[i] if i == 0 else d[i] - e[i - 1] * e[i - 1] / p_prev
        raw[i] = p
        p_prev = -ztol if abs(p) < ztol else p
    return raw


def _ref_block_eigs(ldu, ipiv):
    eigs = []
    i = 0
    while i < ipiv.size:
        if ipiv[i] < 0:
            a, c, b = ldu[i, i], ldu[i + 1, i + 1], ldu[i + 1, i]
            mid = 0.5 * (a + c)
            rad = math.hypot(0.5 * (a - c), b)
            eigs.extend((mid - rad, mid + rad))
            i += 2
        else:
            eigs.append(ldu[i, i])
            i += 1
    return eigs


def _ref_bands(H):
    if sp.issparse(H):
        n = H.shape[0]
        coo = H.tocoo()
        if n < 3 or np.any(np.abs(coo.row - coo.col) > 1):
            return None
        A = H.todia()
        e = np.zeros(n - 1)
        sub = A.diagonal(-1)
        e[: sub.size] = sub
        return A.diagonal(0).copy(), e
    A = np.asarray(H)
    if A.shape[0] < 3:
        return None
    d, lo, up = np.diag(A), np.diag(A, -1), np.diag(A, 1)
    if np.count_nonzero(A) != (np.count_nonzero(d) + np.count_nonzero(lo)
                               + np.count_nonzero(up)):
        return None
    return d.astype(float).copy(), lo.astype(float).copy()


def _ref_factor(H, lam):
    """(inertia, solve) of the earlier ShiftedFactorization; raises alike."""
    bands = _ref_bands(H)
    if bands is not None:
        d, e = bands
        d = d + lam
        ztol = ZERO_PIVOT_RTOL * max(float(np.max(np.abs(d))), 1.0e-300)
        inertia = _ref_sturm(d, e, ztol)
        dl, df, du, du2, ipiv, info = dgttrf(e.copy(), d.copy(), e.copy())

        def solve(rhs):
            return dgttrs(dl, df, du, du2, ipiv, rhs)[0]
    else:
        A = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
        n = A.shape[0]
        B = A + lam * np.eye(n)
        sytrf, sytrf_lwork, sytrs = sla.get_lapack_funcs(
            ("sytrf", "sytrf_lwork", "sytrs"), (B,))
        ldu, ipiv, info = sytrf(B, lower=1,
                                lwork=_compute_lwork(sytrf_lwork, n, lower=1))
        ztol = ZERO_PIVOT_RTOL * max(float(np.max(np.abs(np.diag(B)))), 1.0e-300)
        counts = [0, 0, 0]
        for ev in _ref_block_eigs(ldu, ipiv):
            counts[2 if abs(ev) < ztol else 0 if ev > 0.0 else 1] += 1
        inertia = tuple(counts)

        def solve(rhs):
            return sytrs(ldu, ipiv, rhs, lower=1)[0]
    if info > 0 or inertia[2] > 0:
        raise SingularShiftError("reference: zero pivot")
    return inertia, solve


def _shifts(rng, w, kind):
    """A shift of the given kind against the spectrum w of H."""
    j = int(rng.integers(w.size))
    if kind == "random":
        return float(rng.uniform(w[0] - 1.0, w[-1] + 1.0))
    lam = -float(w[j])
    if kind == "eigen":
        return lam
    for _ in range(int(rng.integers(1, 4))):  # a few ulps either side
        lam = float(np.nextafter(lam, np.inf if kind == "above" else -np.inf))
    return lam


def _assert_same(H, lam, rhs):
    try:
        ref = _ref_factor(H, lam)
    except SingularShiftError:
        with pytest.raises(SingularShiftError):
            factorize_shifted(H, lam)
        return None
    fac = factorize_shifted(H, lam)
    assert fac.inertia == ref[0]
    assert fac.solve(rhs).tobytes() == ref[1](rhs).tobytes()
    return fac


def _tridiagonal(rng, n, kind):
    if kind == "laplacian":  # long chains of near-unit pivot amplification
        d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
    else:
        d, e = rng.standard_normal(n) * 3.0, rng.standard_normal(n - 1)
        e[rng.random(n - 1) < 0.1] = 0.0
    return d, e


SHIFT_KINDS = st.sampled_from(["random", "eigen", "above", "below"])


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           kind=st.sampled_from(["random", "laplacian"]),
           storage=st.sampled_from(["dense", "sparse"]), shift=SHIFT_KINDS)
    def test_tridiagonal(self, seed, n, kind, storage, shift):
        rng = np.random.default_rng(seed)
        d, e = _tridiagonal(rng, n, kind)
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        H = sp.csr_matrix(T) if storage == "sparse" else T
        w = np.linalg.eigvalsh(T)
        _assert_same(H, _shifts(rng, w, shift), rng.standard_normal(n))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           zeros=st.booleans(), asym=st.booleans(), shift=SHIFT_KINDS)
    def test_dense(self, seed, n, zeros, asym, shift):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        rhs = rng.standard_normal(n)
        if zeros:
            # two blocks coupled by -0.0 and a right-hand side that vanishes
            # on one: the solution's zeros there keep the signs B gives them
            k = int(rng.integers(0, n + 1))
            H[k:, :k] = H[:k, k:] = 0.0
            H = -H
            rhs[:k] = 0.0
        w = np.linalg.eigvalsh(0.5 * (H + H.T))
        if asym and not zeros:
            # oracle round-off: the factorization reads the lower half
            H = H + 1.0e-14 * rng.standard_normal((n, n))
        _assert_same(H, _shifts(rng, w, shift), rhs)

    @pytest.mark.parametrize("lam", [0.0, 0.5, -0.5])
    def test_signed_zero_couplings(self, lam):
        # A + lam * I turns the -0.0 couplings into +0.0 for lam >= 0, and
        # the solution's zeros in the first block show it
        H = np.array([[-2.0, -3.5, -1.0, -0.0], [-3.5, 1.5, -1.0, -0.0],
                      [-1.0, -1.0, 5.0, -0.0], [-0.0, -0.0, -0.0, 2.0]])
        _assert_same(H, lam, np.array([0.0, 0.0, 0.0, 1.0]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "laplacian"]), shift=SHIFT_KINDS)
    def test_long_tridiagonal(self, seed, kind, shift):
        # n = 3000: indefinite shifts fail pttrf early and near-singular ones
        # leave long chains of moving pivots for the in-order pass
        rng = np.random.default_rng(seed)
        n = 3000
        d, e = _tridiagonal(rng, n, kind)
        H = sp.diags([e, d, e], [-1, 0, 1], format="csr")
        w = sla.eigvalsh_tridiagonal(d, e)
        _assert_same(H, _shifts(rng, w, shift), rng.standard_normal(n))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           tri=st.booleans())
    def test_inertia_matches_eigenvalue_counts(self, seed, n, tri):
        rng = np.random.default_rng(seed)
        if tri and n >= 3:
            d, e = _tridiagonal(rng, n, "random")
            H = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        else:
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
        w = np.linalg.eigvalsh(H)
        lam = float(rng.uniform(w[0] - 1.0, w[-1] + 1.0))
        if np.min(np.abs(w + lam)) < 1.0e-6:
            return
        fac = factorize_shifted(H, lam)
        assert fac.inertia == (int((w + lam > 0).sum()),
                               int((w + lam < 0).sum()), 0)


class TestSettlePivots:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           kind=st.sampled_from(["random", "laplacian"]), shift=SHIFT_KINDS,
           guess=st.sampled_from(["pttrf", "diagonal", "noise", "zeros"]))
    def test_bitwise_from_any_guess(self, seed, n, kind, shift, guess):
        rng = np.random.default_rng(seed)
        d, e = _tridiagonal(rng, n, kind)
        w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1) + np.diag(e, 1))
        d = d + _shifts(rng, w, shift)
        ztol = ZERO_PIVOT_RTOL * max(float(np.max(np.abs(d))), 1.0e-300)
        start = {"pttrf": lambda: dpttrf(d, e)[0], "diagonal": lambda: d,
                 "noise": lambda: rng.standard_normal(n),
                 "zeros": lambda: np.zeros(n)}[guess]()
        raw = secular._settle_pivots(d, e * e, ztol, start)
        assert raw.tobytes() == _ref_raw_pivots(d, e, ztol).tobytes()


class TestAnalyseOnce:
    def test_system_gives_same_factorization(self, rng):
        n = 30
        d, e = _tridiagonal(rng, n, "random")
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        system = analyse_hessian(sp.csr_matrix(T))
        assert isinstance(system, ShiftedSystem) and system.bands is not None
        assert analyse_hessian(system) is system
        b = rng.standard_normal(n)
        for lam in (0.5, 3.0, 7.0):
            a, c = factorize_shifted(system, lam), factorize_shifted(T, lam)
            assert a.inertia == c.inertia
            assert a.solve(b).tobytes() == c.solve(b).tobytes()

    def test_non_tridiagonal_sparse_densified_once(self):
        H = sp.random(20, 20, density=0.3, random_state=1) + 5 * sp.eye(20)
        system = analyse_hessian(H + H.T)
        assert system.bands is None
        np.testing.assert_array_equal(system.dense, (H + H.T).toarray())

    def test_secant_scans_h_once(self, monkeypatch, rng):
        calls = []
        scan = secular._tridiag_bands
        monkeypatch.setattr(secular, "_tridiag_bands",
                            lambda H: calls.append(1) or scan(H))
        n = 50
        d, e = _tridiagonal(rng, n, "random")
        H = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        sol = solve_secular_full_secant(rng.standard_normal(n), H, 1.0, 0.1)
        assert sol.n_factorizations >= 3
        assert len(calls) == 1
