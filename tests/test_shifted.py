"""ShiftedFactorization against independent dense references.

For every storage H's class selects (a sparse H in its band: diagonal and
tridiagonal, kd = 2-4, 4x4 blocks, full width; a sparse H with hub rows in
border form; a dense H dense),
`positive_definite` must agree with eigvalsh on H + lam I for shifts at
least 1e-8 ||H|| from the spectrum, and solve() must match
numpy.linalg.solve to a relative residual of 1e-10, at positive definite
and indefinite shifts alike. H is stored once, by the caller, and no
factorization writes into that storage; a shift that is not positive
definite is factored again, with pivoting, the first time a caller solves
with it. The system keeps its last counted factorization, which a second
counted construction at the same shift reuses without counting it; an
uncounted one keeps nothing. No kept factorization refers back to its
system.
"""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_symmetric
import far2.secular as secular
from far2.errors import SingularShiftError
from far2.harness import ProblemSpec, SuiteConfig, run_suite
from far2.model import ModelContext, model_curvature_bound
from far2.problems import GramHessian, get_problem, registry_names
from far2.secular import (ShiftedFactorization, ShiftedSystem,
                          solve_secular_full_secant)

GAP = 1.0e-8        # shifts at least GAP * ||H|| from the spectrum
RESIDUAL = 1.0e-10  # relative residual of solve()


def _banded(rng, n, kd):
    """Random symmetric H with half-bandwidth exactly kd."""
    H = np.diag(rng.standard_normal(n) * 3.0)
    for k in range(1, kd + 1):
        v = rng.standard_normal(n - k)
        if k < kd:
            v[rng.random(n - k) < 0.1] = 0.0
        H += np.diag(v, -k) + np.diag(v, k)
    return H


def _tridiagonal(rng, n, kind):
    if kind == "laplacian":  # long chains of near-unit pivot amplification
        d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
    elif kind == "diagonal":
        d, e = rng.standard_normal(n) * 3.0, np.zeros(n - 1)
    else:
        d, e = rng.standard_normal(n) * 3.0, rng.standard_normal(n - 1)
        e[rng.random(n - 1) < 0.1] = 0.0
    return d, e


def _blocks(rng, n):
    """Random symmetric 4x4 blocks on the diagonal (half-bandwidth 3)."""
    H = np.zeros((n, n))
    for o in range(0, n, 4):
        A = rng.standard_normal((4, 4))
        H[o:o + 4, o:o + 4] = A + A.T
    return H


def _shift(rng, w, kind):
    """A shift of the given kind against the spectrum w of H."""
    scale = max(float(np.max(np.abs(w))), 1.0)
    if kind == "random":
        return float(rng.uniform(w[0] - 1.0, w[-1] + 1.0))
    # within a few GAP of an eigenvalue, on either side
    side = 1.0 if kind == "above" else -1.0
    return -float(w[int(rng.integers(w.size))]) + side * GAP * scale * (
        1.0 + 3.0 * float(rng.random()))


def _far(w, lam):
    """True iff lam is at least GAP * ||H|| from the spectrum w of H."""
    return np.min(np.abs(w + lam)) >= GAP * max(float(np.max(np.abs(w))), 1.0)


def _check(H, lam, rhs, rows=None):
    """positive_definite and solve() of H + lam I against dense references.

    rows is the number of band-storage rows H's storage must have,
    "dense" for dense storage, or None to leave the storage unchecked.
    """
    T = H.toarray() if sp.issparse(H) else np.asarray(H)
    w = np.linalg.eigvalsh(T)
    assert _far(w, lam)
    system = ShiftedSystem(H)
    if rows == "dense":
        assert system.band is None
    elif rows is not None:
        assert system.band.shape[0] == rows
    B = T + lam * np.eye(T.shape[0])
    fac = ShiftedFactorization(system, lam)
    assert fac.positive_definite == bool(w[0] + lam > 0.0)
    x, ref = fac.solve(rhs), np.linalg.solve(B, rhs)
    norm_B = float(np.max(np.abs(w + lam)))
    for y in (x, ref):
        residual = np.linalg.norm(B @ y - rhs)
        assert residual <= RESIDUAL * (norm_B * np.linalg.norm(y)
                                       + np.linalg.norm(rhs))
    # backward-stable solutions agree to the condition number
    cond = norm_B / float(np.min(np.abs(w + lam)))
    assert np.linalg.norm(x - ref) <= RESIDUAL * cond * np.linalg.norm(ref)
    return fac


SHIFT_KINDS = st.sampled_from(["random", "above", "below"])
STORAGE = st.sampled_from(["dense", "sparse"])


def _stored(T, storage):
    return sp.csr_matrix(T) if storage == "sparse" else T


def _rows(storage, rows):
    """The storage _check expects: a sparse H in `rows` band rows, a dense
    H dense whatever its pattern."""
    return rows if storage == "sparse" else "dense"


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           kind=st.sampled_from(["random", "laplacian", "diagonal"]),
           storage=STORAGE, shift=SHIFT_KINDS)
    def test_tridiagonal(self, seed, n, kind, storage, shift):
        rng = np.random.default_rng(seed)
        d, e = _tridiagonal(rng, n, kind)
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        w = np.linalg.eigvalsh(T)
        lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        _check(_stored(T, storage), lam, rng.standard_normal(n),
               rows=_rows(storage, 2))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 60),
           kd=st.integers(2, 4), storage=STORAGE, shift=SHIFT_KINDS)
    def test_banded(self, seed, n, kd, storage, shift):
        rng = np.random.default_rng(seed)
        T = _banded(rng, n, kd)
        w = np.linalg.eigvalsh(T)
        lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        _check(_stored(T, storage), lam, rng.standard_normal(n),
               rows=_rows(storage, kd + 1))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 15),
           storage=STORAGE, shift=SHIFT_KINDS)
    def test_block_diagonal(self, seed, blocks, storage, shift):
        rng = np.random.default_rng(seed)
        n = 4 * blocks
        T = _blocks(rng, n)
        w = np.linalg.eigvalsh(T)
        lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        _check(_stored(T, storage), lam, rng.standard_normal(n),
               rows=_rows(storage, 4))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           zeros=st.booleans(), asym=st.booleans(), storage=STORAGE,
           shift=SHIFT_KINDS)
    def test_dense(self, seed, n, zeros, asym, storage, shift):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        rhs = rng.standard_normal(n)
        if zeros:
            # two decoupled blocks and a right-hand side that vanishes on one
            k = int(rng.integers(0, n + 1))
            H[k:, :k] = H[:k, k:] = 0.0
            rhs[:k] = 0.0
        w = np.linalg.eigvalsh(H)
        lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        # a sparse H is stored in its full band (kd = n - 1, n rows) at
        # any n >= 3; n < 3 stays dense
        rows = _rows(storage, n) if n >= 3 else "dense"
        if asym and not zeros:
            # oracle round-off: the factorization reads the lower half
            E = 1.0e-14 * rng.standard_normal((n, n))
            fac = ShiftedFactorization(
                ShiftedSystem(H + np.tril(E, -1).T), lam)
            ref = ShiftedFactorization(ShiftedSystem(H), lam)
            assert fac.positive_definite == ref.positive_definite
            np.testing.assert_array_equal(fac.solve(rhs), ref.solve(rhs))
            return
        _check(_stored(H, storage), lam, rhs, rows=None if zeros else rows)

    @pytest.mark.parametrize("lam", [0.0, 0.5, -0.5])
    def test_signed_zero_couplings(self, lam):
        # -0.0 couplings stay out of the CSR pattern and decouple the last
        # variable (half-bandwidth 2); all three shifts are indefinite, so
        # the pivoted band factorization solves
        H = sp.csr_matrix(np.array(
            [[-2.0, -3.5, -1.0, -0.0], [-3.5, 1.5, -1.0, -0.0],
             [-1.0, -1.0, 5.0, -0.0], [-0.0, -0.0, -0.0, 2.0]]))
        fac = _check(H, lam, np.array([0.0, 0.0, 0.0, 1.0]), rows=3)
        assert not fac.positive_definite

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["random", "laplacian"]), shift=SHIFT_KINDS)
    def test_long_tridiagonal(self, seed, kind, shift):
        # n = 3000, sparse: indefinite shifts fail pttrf early and solve
        # through solve_banded (gtsv)
        rng = np.random.default_rng(seed)
        n = 3000
        d, e = _tridiagonal(rng, n, kind)
        H = sp.diags([e, d, e], [-1, 0, 1], format="csr")
        w = sla.eigvalsh_tridiagonal(d, e)
        lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        fac = ShiftedFactorization(ShiftedSystem(H), lam)
        assert fac.positive_definite == bool(w[0] + lam > 0.0)
        rhs = rng.standard_normal(n)
        x = fac.solve(rhs)
        residual = np.linalg.norm(H @ x + lam * x - rhs)
        norm_B = float(np.max(np.abs(w + lam)))
        assert residual <= RESIDUAL * (norm_B * np.linalg.norm(x)
                                       + np.linalg.norm(rhs))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           tri=st.booleans())
    def test_positive_definite_matches_eigenvalues(self, seed, n, tri):
        rng = np.random.default_rng(seed)
        if tri and n >= 3:
            d, e = _tridiagonal(rng, n, "random")
            H = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        else:
            A = rng.standard_normal((n, n))
            H = 0.5 * (A + A.T)
        w = np.linalg.eigvalsh(H)
        lam = float(rng.uniform(w[0] - 1.0, w[-1] + 1.0))
        assume(_far(w, lam))
        fac = ShiftedFactorization(ShiftedSystem(H), lam)
        assert fac.positive_definite == bool(np.all(w + lam > 0.0))


class TestIndefiniteSolve:
    @pytest.mark.parametrize("exact", [False, True], ids=["computed", "exact"])
    def test_zero_pivot_regression(self, exact):
        # tridiag(-1, 2, -1) at n = 3 has eigenvalues 2 - sqrt(2), 2 and
        # 2 + sqrt(2), shifted by minus the middle one as eigvalsh computes
        # it (1.9999999999999998 in IEEE double) and by exactly -2
        T = np.diag([2.0] * 3) + np.diag([-1.0] * 2, -1) + np.diag([-1.0] * 2, 1)
        lam = -2.0 if exact else -float(np.linalg.eigvalsh(T)[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = ShiftedFactorization(ShiftedSystem(T), lam)
            assert not fac.positive_definite
            try:
                x = fac.solve(np.ones(3))
            except SingularShiftError:
                return
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("H", [
        sp.csr_matrix(np.diag([-1.0, 2.0, 3.0, 4.0])),
        sp.csr_matrix(np.diag([-1.0, 2.0, 3.0, 4.0]) + np.diag([1.0, 0.5], 2)
                      + np.diag([1.0, 0.5], -2)),
        np.diag(np.arange(-1.0, 39.0)) + 0.1,
    ], ids=["tridiagonal", "banded", "dense"])
    def test_indefinite_factor_only_when_solved(self, H, monkeypatch):
        built = []

        def counted(factor):
            return lambda *a, **k: built.append(1) or factor(*a, **k)

        for name in ("_sytrf", "dgttrf", "dgbtrf"):
            monkeypatch.setattr(secular, name, counted(getattr(secular, name)))
        system = ShiftedSystem(H)
        fac = ShiftedFactorization(system, 0.0, counted=True)
        assert not fac.positive_definite and built == []
        rhs = np.ones(H.shape[0])
        x = fac.solve(rhs)
        assert built == [1]
        # the pivoted factors are kept: later solves, and a second
        # construction at the same shift, reuse them
        assert fac.solve(rhs).tobytes() == x.tobytes()
        again = ShiftedFactorization(system, 0.0, counted=True)
        assert again.solve(rhs).tobytes() == x.tobytes()
        assert built == [1] and system.counter.count == 1
        np.testing.assert_allclose(H @ x, rhs, atol=1e-10)

    @pytest.mark.parametrize("H", [
        sp.csr_matrix(np.diag([1.0, 0.0, 2.0])),
        # kd = 2, with H's second row and column zero
        sp.csr_matrix(np.diag([1.0, 0.0, 2.0, 3.0]) + np.diag([1.0, 0.0], 2)
                      + np.diag([1.0, 0.0], -2)),
        np.ones((40, 40)),
    ], ids=["tridiagonal", "banded", "dense"])
    def test_singular_shift_raises_on_solve(self, H):
        fac = ShiftedFactorization(ShiftedSystem(H), 0.0)
        assert not fac.positive_definite
        with pytest.raises(SingularShiftError):
            fac.solve(np.ones(H.shape[0]))


class TestAnalyseOnce:
    def test_system_gives_same_factorization(self, rng):
        n = 30
        for T in (np.diag(rng.standard_normal(n)) + np.diag(np.ones(n - 1), 1)
                  + np.diag(np.ones(n - 1), -1), _banded(rng, n, 3)):
            system = ShiftedSystem(sp.csr_matrix(T))
            ab = system.band
            for k in range(ab.shape[0]):
                np.testing.assert_array_equal(ab[k, : n - k], np.diagonal(T, -k))
            b = rng.standard_normal(n)
            for lam in (0.5, 3.0, 7.0):
                a = ShiftedFactorization(system, lam)
                c = ShiftedFactorization(ShiftedSystem(sp.csr_matrix(T)), lam)
                assert a.positive_definite == c.positive_definite
                assert a.solve(b).tobytes() == c.solve(b).tobytes()

    def test_non_tridiagonal_sparse_densified_once(self):
        # a sparse H of any width keeps its band, and `dense` (read by
        # min_eig below its cutoff) densifies it once
        H = sp.random(40, 40, density=0.3, random_state=1) + 5 * sp.eye(40)
        H = (H + H.T).tocsr()
        coo = H.tocoo()
        kd = int(np.max(np.abs(coo.row - coo.col)))
        system = ShiftedSystem(H)
        assert kd > 32 and system.band.shape == (kd + 1, 40)
        np.testing.assert_array_equal(system.dense, H.toarray())
        assert system.dense is system.dense

    def test_operator_band_forms_nothing(self, rng):
        # an operator H is stored dense: `band` neither scans nor forms it,
        # and `dense` forms it once
        A = rng.standard_normal((30, 8))
        H = GramHessian(A, rng.uniform(-1.0, 1.0, 30), 30)
        system = ShiftedSystem(H)
        assert system.band is None and H._matrix is None
        assert system.dense is H.toarray()

    def test_secant_scans_h_once(self, monkeypatch, rng):
        # the caller's system stores H once: the solve factors it at every
        # shift and never reads H's storage class again
        calls = []
        scan = secular._lower_band
        monkeypatch.setattr(secular, "_lower_band",
                            lambda H: calls.append(1) or scan(H))
        n = 50
        d, e = _tridiagonal(rng, n, "random")
        A = rng.standard_normal((n, n))
        for H in (sp.diags([e, d, e], [-1, 0, 1], format="csr"),
                  sp.csr_matrix(_banded(rng, n, 3)), A + A.T):
            calls.clear()
            system = ShiftedSystem(H)
            solve_secular_full_secant(rng.standard_normal(n), system, 1.0,
                                      0.1)
            assert system.counter.count >= 3
            assert len(calls) == 1

    def test_interval_computed_once_for_every_reader(self, monkeypatch):
        # the curvature bound and the full-space solve's first shift read
        # the same cached Gershgorin interval, made on first use
        calls = []
        bounds = secular.gershgorin_interval
        monkeypatch.setattr(secular, "gershgorin_interval",
                            lambda H: calls.append(1) or bounds(H))
        H = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        system = ShiftedSystem(H)
        assert calls == []
        model_curvature_bound(ModelContext(system, 1.0), np.ones(3))
        solve_secular_full_secant(np.ones(3), system, 1.0, 0.1)
        assert system.interval == (0.0, 4.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["tridiagonal", "band", "dense"])
    def test_factorizations_leave_system_unchanged(self, kind, rng):
        # one stored system serves every shift of an iterate, so no
        # factorization or solve, at positive definite and indefinite
        # shifts, may write into its band or dense storage (or into H,
        # which a dense system holds without a copy)
        n = 40
        if kind == "tridiagonal":
            d, e = _tridiagonal(rng, n, "random")
            H = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        elif kind == "band":
            H = _banded(rng, n, 3)
        else:
            A = rng.standard_normal((n, n))
            H = A + A.T
        system = ShiftedSystem(H if kind == "dense" else sp.csr_matrix(H))
        stored = system.dense if kind == "dense" else system.band
        assert stored is not None and (kind != "band" or stored.shape[0] == 4)
        before, H_before = stored.copy(), H.copy()
        w = np.linalg.eigvalsh(H)
        assert w[0] < 0.0
        rhs = rng.standard_normal(n)
        for lam in (-w[0] + 1.0, -0.5 * (w[0] + w[-1]), -w[0] - 1e-3):
            fac = ShiftedFactorization(system, lam)
            assert fac.positive_definite == bool(w[0] + lam > 0.0)
            fac.solve(rhs)
            assert stored.tobytes() == before.tobytes()
            assert H.tobytes() == H_before.tobytes()


def _hubbed(rng, n, hubs, tridiagonal):
    """Random symmetric H: a diagonal or tridiagonal rest plus a full hub
    row and column at each index in `hubs`."""
    H = np.diag(rng.standard_normal(n) * 3.0)
    if tridiagonal:
        e = rng.standard_normal(n - 1)
        H += np.diag(e, -1) + np.diag(e, 1)
    for h in hubs:
        H[h, :] = H[:, h] = rng.standard_normal(n)
    return H


HUBS = st.sampled_from([("first",), ("last",), ("middle",), ("first", "last"),
                        ("first", "middle"), ("middle", "last")])


class TestBordered:
    """Hub rows go to a border: Cholesky of the rest's band and of the
    k x k Schur complement when H + lam I is positive definite, LU on the
    band and sytrf on the Schur complement when it is not, and never a
    dense H."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 60),
           where=HUBS, tridiagonal=st.booleans(),
           shift=st.sampled_from(["definite", "random", "above", "below"]))
    def test_against_reference(self, seed, n, where, tridiagonal, shift):
        rng = np.random.default_rng(seed)
        hubs = sorted({"first": 0, "middle": n // 2, "last": n - 1}[w]
                      for w in where)
        T = _hubbed(rng, n, hubs, tridiagonal)
        w = np.linalg.eigvalsh(T)
        if shift == "definite":
            lam = -float(w[0]) + float(rng.uniform(0.0, 2.0))
        else:
            lam = _shift(rng, w, shift)
        assume(_far(w, lam))
        # an indefinite shift is solved through A + lam I, the rest, which
        # must then be as far from singular as H + lam I is
        rest = np.delete(np.delete(T, hubs, 0), hubs, 1)
        assume(_far(np.linalg.eigvalsh(rest), lam))
        system = ShiftedSystem(sp.csr_matrix(T))
        assert list(system.border.rows) == hubs
        _check(system.H, lam, rng.standard_normal(n), rows=2)
        ShiftedFactorization(system, lam).solve(rng.standard_normal(n))
        assert "dense" not in vars(system)

    @pytest.mark.parametrize("singular", ["schur", "rest"])
    def test_exact_zero_pivot_raises(self, singular):
        # a hub over ones: S = C - Bt A^{-1} Bt^T = (n - 1) - (n - 1) = 0
        # at lam = 0, or a zero row in the rest, which the hub skips
        n = 8
        H = np.eye(n)
        H[0, 1:] = H[1:, 0] = 1.0
        H[0, 0] = n - 1.0
        if singular == "rest":
            H[0, 0] = 1.0
            H[3, :] = H[:, 3] = 0.0
        system = ShiftedSystem(sp.csr_matrix(H))
        assert list(system.border.rows) == [0]
        fac = ShiftedFactorization(system, 0.0)
        assert not fac.positive_definite
        with pytest.raises(SingularShiftError):
            fac.solve(np.ones(n))
        assert "dense" not in vars(system)

    @pytest.mark.parametrize("n", [8, 500])
    def test_registry_storage(self, n, monkeypatch):
        # read from the CSR arrays: banded Hessians keep k = 0 and their
        # band, diagonal by diagonal; the hub Hessians border their hub
        def no_coo(*args, **kwargs):
            raise AssertionError("the band is read without tocoo")

        monkeypatch.setattr(sp.csr_matrix, "tocoo", no_coo)
        hubs = {"ARWHEAD": n - 1, "NONDIA": 0, "EG2": 0}
        for name in registry_names():
            p = get_problem(name, n)
            H = p.eval(p.x0 + 0.1, 2)[2]
            if not sp.issparse(H):
                continue
            band, border = secular._lower_band(H)
            if name in hubs:
                assert list(border.rows) == [hubs[name]], name
                assert band.shape == (2, n - 1), name
                continue
            assert border is None, name
            for k in range(band.shape[0]):
                np.testing.assert_array_equal(band[k, : n - k],
                                              H.diagonal(-k))

    def test_hub_problems_in_linear_memory(self):
        # n = 20000: a dense H would take 3.2 GB, a bordered one O(n);
        # FAR2-RK's rational expansions factor that bordered storage too
        tracemalloc.start()
        try:
            for name in ("ARWHEAD", "NONDIA", "EG2"):
                spec = ProblemSpec(kind="registry", name=name, n=20000)
                for report in run_suite(SuiteConfig(
                        solvers=["AR2", "FAR2-PK", "FAR2-RK"],
                        problems=[spec])):
                    assert report.converged, (report.solver, name)
                    assert report.violations == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


def _system_of(kind, rng, n=30):
    """A ShiftedSystem of a random H in the given storage, and H dense."""
    if kind == "tridiagonal":
        d, e = _tridiagonal(rng, n, "random")
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
    elif kind == "band":
        T = _banded(rng, n, 3)
    elif kind == "bordered":
        T = _hubbed(rng, n, [0], tridiagonal=True)
    else:
        T = random_symmetric(rng, n, scale=2.0)
    return ShiftedSystem(T if kind == "dense" else sp.csr_matrix(T)), T


KINDS = ["tridiagonal", "band", "bordered", "dense"]


class TestLastFactorization:
    """A system keeps the last counted factorization made on it: a counted
    construction at an equal shift reuses it and counts nothing, any other
    shift factors, counts one and replaces it, and the pivoted solve of a
    counted shift counts with it, whichever construction makes it. An
    uncounted construction frees the entry, factors and keeps nothing."""

    @pytest.fixture
    def made(self, monkeypatch):
        calls = []
        factor = secular._factor
        monkeypatch.setattr(
            secular, "_factor",
            lambda system, lam, pivoted: (calls.append((lam, pivoted))
                                          or factor(system, lam, pivoted)))
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_shift_reuses(self, kind, made, rng):
        system, T = _system_of(kind, rng)
        lam = 1.0 - float(np.linalg.eigvalsh(T)[0])
        rhs = rng.standard_normal(T.shape[0])
        first = ShiftedFactorization(system, lam, counted=True)
        x = first.solve(rhs)
        again = ShiftedFactorization(system, lam, counted=True)
        assert again.positive_definite and first.positive_definite
        assert again.solve(rhs).tobytes() == x.tobytes()
        assert system.counter.count == 1 and made == [(lam, False)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_other_shift_replaces(self, kind, made, rng):
        system, T = _system_of(kind, rng)
        lam = 1.0 - float(np.linalg.eigvalsh(T)[0])
        rhs = rng.standard_normal(T.shape[0])
        first = ShiftedFactorization(system, lam, counted=True)
        x = first.solve(rhs)
        ShiftedFactorization(system, lam + 1.0, counted=True)
        assert system.last.lam == lam + 1.0 and system.counter.count == 2
        # the replaced factors stay with the factorization that holds them
        assert first.solve(rhs).tobytes() == x.tobytes()
        again = ShiftedFactorization(system, lam, counted=True)
        assert again.solve(rhs).tobytes() == x.tobytes()
        assert system.counter.count == 3
        assert made == [(lam, False), (lam + 1.0, False), (lam, False)]

    def test_equal_h_in_another_system_shares_nothing(self, made, rng):
        H = random_symmetric(rng, 20) + 10.0 * np.eye(20)
        a_system, b_system = ShiftedSystem(H), ShiftedSystem(H)
        a = ShiftedFactorization(a_system, 0.5, counted=True)
        b = ShiftedFactorization(b_system, 0.5, counted=True)
        assert a_system.counter.count == b_system.counter.count == 1
        assert made == [(0.5, False)] * 2
        rhs = rng.standard_normal(20)
        assert a.solve(rhs).tobytes() == b.solve(rhs).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_failed_cholesky_is_remembered(self, kind, made, rng):
        system, T = _system_of(kind, rng)
        w = np.linalg.eigvalsh(T)
        lam = -0.5 * float(w[0] + w[1])  # between the two leftmost
        assert _far(w, lam)
        rhs = rng.standard_normal(T.shape[0])
        first = ShiftedFactorization(system, lam, counted=True)
        again = ShiftedFactorization(system, lam, counted=True)
        assert not first.positive_definite and not again.positive_definite
        assert system.counter.count == 1 and made == [(lam, False)]
        # the reuse makes the pivoted solve its entry lacks, which counts
        # with the shift's one factorization
        x = again.solve(rhs)
        assert system.counter.count == 1
        assert made == [(lam, False), (lam, True)]
        assert first.solve(rhs).tobytes() == x.tobytes()
        third = ShiftedFactorization(system, lam, counted=True)
        assert third.solve(rhs).tobytes() == x.tobytes()
        assert system.counter.count == 1 and len(made) == 2
        np.testing.assert_allclose(T @ x + lam * x, rhs,
                                   atol=1e-8 * np.linalg.norm(rhs))

    @pytest.mark.parametrize("kind", KINDS)
    def test_uncounted_at_the_kept_shift_factors_anew(self, kind, made, rng):
        system, T = _system_of(kind, rng)
        lam = 1.0 - float(np.linalg.eigvalsh(T)[0])
        rhs = rng.standard_normal(T.shape[0])
        x = ShiftedFactorization(system, lam, counted=True).solve(rhs)
        fac = ShiftedFactorization(system, lam)
        assert fac.solve(rhs).tobytes() == x.tobytes()
        assert made == [(lam, False)] * 2
        assert system.last is None and system.counter.count == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_uncounted_elsewhere_drops_the_entry(self, kind, made, rng):
        system, T = _system_of(kind, rng)
        lam = 1.0 - float(np.linalg.eigvalsh(T)[0])
        ShiftedFactorization(system, lam, counted=True)
        assert system.last.lam == lam
        fac = ShiftedFactorization(system, lam + 1.0)
        assert fac.positive_definite and system.last is None
        # a counted construction at either shift factors and counts anew
        ShiftedFactorization(system, lam + 1.0, counted=True)
        assert system.counter.count == 2 and system.last.lam == lam + 1.0
        assert made == [(lam, False), (lam + 1.0, False), (lam + 1.0, False)]


@pytest.mark.parametrize("kind", KINDS)
def test_system_dies_with_its_last_reference(kind, rng):
    # the kept factorization refers to no system: without the garbage
    # collector, a system and its factors go with its last reference
    system, T = _system_of(kind, rng)
    w = np.linalg.eigvalsh(T)
    lam = -0.5 * float(w[0] + w[1])  # not positive definite: pivoted too
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fac = ShiftedFactorization(system, lam, counted=True)
        fac.solve(rng.standard_normal(T.shape[0]))
        assert system.last.pivoted is not None
        dead = weakref.ref(system)
        del fac, system
        assert dead() is None
    finally:
        if was_enabled:
            gc.enable()


class TestBandLU:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
           kd=st.integers(1, 4), cols=st.sampled_from([None, 3]))
    @settings(max_examples=100, deadline=None)
    def test_matches_solve_banded(self, seed, n, kd, cols):
        # the pivoted band solve, factored once, is solve_banded's (gtsv
        # or gbsv) bit for bit
        rng = np.random.default_rng(seed)
        kd = min(kd, n - 1)
        ab = rng.standard_normal((kd + 1, n))
        lam = float(rng.standard_normal())
        rhs = rng.standard_normal(n if cols is None else (n, cols))
        G = np.zeros((2 * kd + 1, n))
        for k in range(kd + 1):
            G[kd + k, : n - k] = ab[k, : n - k]
            G[kd - k, k:] = ab[k, : n - k]
        G[kd] += lam
        ref = sla.solve_banded((kd, kd), G, rhs)
        assert secular._band_lu(ab, lam)(rhs).tobytes() == ref.tobytes()
