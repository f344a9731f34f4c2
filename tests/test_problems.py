import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from far2 import ar2_solve, far2_solve, problems
from far2.errors import LibsvmParseError
from far2.problems import (REGISTRY, ClassificationData, check_derivatives,
                           fd_gradient, fd_hessian, get_problem, load_libsvm,
                           logistic_objective, registry_names, remap_labels,
                           save_libsvm, sigmoid_objective, synth_classification)


def _sized(name: str, n: int):
    entry = REGISTRY[name]
    n = max(entry.min_n, n)
    return get_problem(name, n + (-n) % entry.multiple_of)


_LOSS_DATA = synth_classification(80, 6, seed=3)
# (label, factory of a fresh oracle): every registry problem at its
# smallest valid n and at n = 100, and both classification losses
ORACLES = [(f"{name}-{n}", lambda name=name, n=n: _sized(name, n))
           for name in registry_names() for n in (1, 100)] + [
    ("logistic", lambda: logistic_objective(_LOSS_DATA)),
    ("sigmoid", lambda: sigmoid_objective(remap_labels(_LOSS_DATA, "01")))]


@pytest.mark.parametrize("make", [m for _, m in ORACLES],
                         ids=[label for label, _ in ORACLES])
def test_solvers_and_checks_ask_the_oracle_for_orders_0_and_2(make):
    # the raw evaluator of an oracle implements orders 0 and 2 only: an AR2
    # solve, a FAR2-PK solve and the derivative check ask for no other
    asked = set()

    def wrapped(problem):
        raw = problem._raw

        def ev(x, order):
            asked.add(order)
            return raw(x, order)
        problem._raw = ev
        return problem

    ar2_solve(wrapped(make()))
    far2_solve(wrapped(make()))
    check_derivatives(wrapped(make()), n_points=1)
    assert asked == {0, 2}


class TestRegistry:
    def test_names_present(self):
        names = registry_names()
        for expected in ("ROSENBR", "ARWHEAD", "BDARWHD", "DQRTIC", "TRIDIA",
                         "ENGVAL1", "NONDIA", "WOODS", "POWELLSG", "EDENSCH",
                         "CUBE", "EG2", "HILBERT", "INDEF", "QUAD"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_problem("NOSUCH", 10)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            get_problem("WOODS", 10)  # needs a multiple of 4
        with pytest.raises(ValueError):
            get_problem("ROSENBR", 1)

    def test_rosenbrock_minimizer(self):
        p = get_problem("ROSENBR", 2)
        f, g, _ = p.eval(np.array([1.0, 1.0]), 2)
        assert f == pytest.approx(0.0, abs=1e-14)
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-12)

    def test_tridia_hessian_tridiagonal_pd(self, rng):
        p = get_problem("TRIDIA", 6)
        for _ in range(3):
            x = p.x0 + rng.standard_normal(6)
            _, _, H = p.eval(x, 2)
            H = H.toarray()
            off = H - np.diag(np.diag(H)) - np.diag(np.diag(H, 1), 1) - np.diag(np.diag(H, -1), -1)
            assert np.max(np.abs(off)) == 0.0
            assert np.linalg.eigvalsh(H)[0] > 0.0

    def test_dqrtic_hessian_diagonal(self):
        p = get_problem("DQRTIC", 5)
        _, _, H = p.eval(p.x0, 2)
        H = H.toarray()
        assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0

    def test_counters_track_orders(self, rng):
        # every oracle: eval(x, 1) is eval(x, 2)'s f and g, bit for bit,
        # without H, and is counted as a gradient evaluation
        for label, make in ORACLES:
            p = make()
            for x in (p.x0, p.x0 + 0.1 * rng.standard_normal(p.n)):
                p.eval(x, 0)
                f1, g1, H1 = p.eval(x, 1)
                f2, g2, _ = p.eval(x, 2)
                assert f1 == f2 and np.array_equal(g1, g2), label
                assert H1 is None, label
            assert (p.n_f, p.n_g, p.n_H) == (2, 2, 2), label
        with pytest.raises(ValueError):
            p.eval(p.x0, 3)

    @pytest.mark.parametrize("n", [8, 500])
    def test_hessian_storage(self, n):
        # the oracle decides the storage, the same at every n: CSR but for
        # HILBERT and INDEF (INDEF stays dense: a CSR INDEF's products move
        # its chaotic FAR2 runs). The hub Hessians of ARWHEAD, NONDIA and
        # EG2 are a diagonal plus one full hub row and column.
        banded = {"ROSENBR", "TRIDIA", "ENGVAL1", "EDENSCH", "CUBE", "QUAD",
                  "DQRTIC", "WOODS", "POWELLSG", "BDARWHD"}
        hubs = {"ARWHEAD": -1, "NONDIA": 0, "EG2": 0}
        for name in registry_names():
            entry = REGISTRY[name]
            m = max(n, entry.min_n)
            m += (-m) % entry.multiple_of
            p = get_problem(name, m)
            _, _, H = p.eval(p.x0, 2)
            if name == "EG2":
                # no hub coupling at its start point: a CSR diagonal there
                assert sp.issparse(H) and H.nnz == m
                H = p.eval(p.x0 + 0.1, 2)[2]
            if name in banded or name in hubs:
                assert sp.issparse(H) and H.format == "csr", name
                assert H.has_canonical_format, name
            else:
                assert isinstance(H, np.ndarray), name
            if name in hubs:
                hub = hubs[name] % m
                rows = np.diff(H.indptr)
                assert rows[hub] == m and H.nnz == 3 * m - 2, name
                assert (H != H.T).nnz == 0, name
            assert H.shape == (m, m)

    @pytest.mark.parametrize("name", ["ROSENBR", "EG2", "INDEF", "CUBE", "NONDIA"])
    def test_quick_derivative_check(self, name):
        entry = REGISTRY[name]
        n = max(entry.min_n, 8)
        n += (-n) % entry.multiple_of
        p = get_problem(name, n)
        eg, eh = check_derivatives(p, n_points=2, seed=5)
        assert eg <= 1e-5
        assert eh <= 1e-4


class TestLogistic:
    def test_value_at_origin(self, rng):
        data = synth_classification(40, 5, seed=1)
        p = logistic_objective(data)
        f, _, _ = p.eval(np.zeros(5), 0)
        assert f == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_at_origin(self):
        data = synth_classification(30, 4, seed=2)
        p = logistic_objective(data)
        _, g, _ = p.eval(np.zeros(4), 1)
        expected = -(data.b[:, None] * data.A).sum(axis=0) / (2.0 * data.N)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_hessian_floor(self, rng):
        data = synth_classification(25, 4, seed=3)
        p = logistic_objective(data)
        for _ in range(5):
            x = rng.standard_normal(4)
            _, _, H = p.eval(x, 2)
            w = np.linalg.eigvalsh(H - np.eye(4) / data.N)
            assert w[0] >= -1e-12

    def test_label_validation(self):
        bad = ClassificationData(A=np.ones((3, 2)), b=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            logistic_objective(bad)


class TestSigmoid:
    def test_value_at_origin(self):
        data = remap_labels(synth_classification(20, 3, seed=4), "01")
        p = sigmoid_objective(data)
        f, _, _ = p.eval(np.zeros(3), 0)
        assert f == pytest.approx(0.25, rel=1e-12)

    def test_single_sample_gradient(self):
        data = ClassificationData(A=np.array([[1.0, 0.0]]), b=np.array([1.0]))
        p = sigmoid_objective(data)
        _, g, _ = p.eval(np.zeros(2), 1)
        np.testing.assert_allclose(g, np.array([-0.25, 0.0]), atol=1e-14)

    def test_bounded(self, rng):
        data = remap_labels(synth_classification(15, 3, seed=5), "01")
        p = sigmoid_objective(data)
        for _ in range(10):
            f, _, _ = p.eval(3.0 * rng.standard_normal(3), 0)
            assert 0.0 <= f <= 1.0

    def test_label_validation(self):
        bad = ClassificationData(A=np.ones((2, 2)), b=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            sigmoid_objective(bad)

    def test_derivatives(self):
        data = remap_labels(synth_classification(30, 4, seed=6), "01")
        p = sigmoid_objective(data)
        eg, eh = check_derivatives(p, n_points=3, seed=7)
        assert eg <= 1e-5 and eh <= 1e-4


def _reference_hessian(kind, data, x):
    """The general product (A^T W) A / N (+ I/N): correct, not symmetric."""
    A, b, N = data.A, data.b, data.N
    if kind == "logistic":
        sig = 1.0 / (1.0 + np.exp(-b * (A @ x)))
        w = sig * (1.0 - sig)
        return (A.T * w) @ A / N + np.eye(data.n) / N, w
    p = 1.0 / (1.0 + np.exp(-(A @ x)))
    r = b - p
    q = p * (1.0 - p)
    w = 2.0 * (q * q - r * q * (1.0 - 2.0 * p))
    return (A.T * w) @ A / N, w


def _loss(kind, data):
    """The loss on data with the labels it takes, and those data."""
    if kind == "logistic":
        return logistic_objective(data), data
    data = remap_labels(data, "01")
    return sigmoid_objective(data), data


class TestClassificationHessian:
    # H, once formed, is a Gram product of one row-scaled copy of A
    # (symmetric rank-k updates): exactly symmetric, and the general
    # product to rounding

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid"])
    def test_exactly_symmetric_and_matches_reference(self, kind):
        p, data = _loss(kind, synth_classification(300, 12, seed=9))
        rng = np.random.default_rng(10)
        points = [p.x0] + [rng.standard_normal(12) for _ in range(3)]
        signs = set()
        for x in points:
            H = np.asarray(p.eval(x, 2)[2])
            assert np.array_equal(H, H.T)
            ref, w = _reference_hessian(kind, data, x)
            signs.update(np.unique(np.sign(w[w != 0.0])))
            assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))
        if kind == "sigmoid":
            # x0 gives only positive weights, the random points both signs
            assert signs == {-1.0, 1.0}

    def test_sigmoid_all_weights_negative(self):
        # every label 1 and every a^T x < log(1/2): each weight is negative,
        # so the positive slice is empty and H = -Bn^T Bn / N
        rng = np.random.default_rng(11)
        A = np.abs(rng.standard_normal((200, 6)))
        A[:, 0] += 1.0
        data = ClassificationData(A=A, b=np.ones(200))
        x = np.zeros(6)
        x[0] = -5.0
        H = np.asarray(sigmoid_objective(data).eval(x, 2)[2])
        ref, w = _reference_hessian("sigmoid", data, x)
        assert np.all(w < 0.0)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid"])
    def test_formed_once_as_the_gram_matrix(self, kind, monkeypatch):
        # the operator's matrix is _weighted_gram's, then /N and (logistic)
        # + I/N, bit for bit, and it is formed on the first request only
        p, data = _loss(kind, synth_classification(300, 12, seed=14))
        x = np.random.default_rng(15).standard_normal(12)
        H = p.eval(x, 2)[2]
        ref = problems._weighted_gram(data.A, H.w)
        ref /= data.N
        if kind == "logistic":
            ref.flat[:: data.n + 1] += 1.0 / data.N
        calls = []
        real = problems._weighted_gram
        monkeypatch.setattr(problems, "_weighted_gram",
                            lambda A, w: calls.append(w) or real(A, w))
        M = H.toarray()
        assert M.tobytes() == ref.tobytes()
        assert np.asarray(H) is M and H.toarray() is M
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid"])
    def test_products_match_the_formed_matrix(self, kind):
        # before formation the Hessian-free product agrees with the matrix
        # to rounding; after it, `@` is the matrix product
        p, _ = _loss(kind, synth_classification(300, 12, seed=16))
        rng = np.random.default_rng(17)
        H = p.eval(rng.standard_normal(12), 2)[2]
        vectors = [rng.standard_normal(12), rng.standard_normal((12, 4))]
        before = [H @ V for V in vectors]
        M = H.toarray()
        for V, HV in zip(vectors, before):
            assert HV.shape == V.shape
            np.testing.assert_allclose(HV, M @ V, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(M @ V)))
            assert np.array_equal(H @ V, M @ V)

    @pytest.mark.parametrize("kind", ["logistic", "sigmoid"])
    def test_one_sample_sized_temporary(self, kind):
        # forming H allocates one N x n buffer plus O(n^2) and O(N) arrays;
        # separate per-sign copies of A would need up to twice that
        N, n = 8000, 100
        p, _ = _loss(kind, synth_classification(N, n, seed=12))
        x = np.random.default_rng(13).standard_normal(n)
        np.asarray(p.eval(x, 2)[2])
        tracemalloc.start()
        try:
            np.asarray(p.eval(x, 2)[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (N * n + 4 * n * n + 16 * N)


class TestLibsvm:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        data = load_libsvm(path)
        np.testing.assert_allclose(data.A, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(data.b, [1.0, -1.0])

    def test_label_remap(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:1\n-1 2:1\n")
        data = load_libsvm(path, labels="01")
        np.testing.assert_array_equal(data.b, [1.0, 0.0])

    def test_round_trip(self, tmp_path, rng):
        A = rng.standard_normal((3, 4))
        A[0, 2] = 0.0
        data = ClassificationData(A=A, b=np.array([1.0, -1.0, 1.0]))
        path = tmp_path / "rt.txt"
        save_libsvm(data, path)
        back = load_libsvm(path, n_features=4)
        np.testing.assert_allclose(back.A, data.A)
        np.testing.assert_array_equal(back.b, data.b)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:0.5\n-1 oops\n")
        with pytest.raises(LibsvmParseError, match="line 2"):
            load_libsvm(path)

    @pytest.mark.parametrize("line", ["nan 2:1", "inf 2:1", "-inf 2:1",
                                      "-1 2:nan", "+1 1:inf"])
    def test_non_finite_value_reports_number(self, tmp_path, line):
        # float() parses these, and remap_labels would put a nan label in
        # the negative class and an inf one in the positive class
        path = tmp_path / "bad.txt"
        path.write_text(f"+1 1:0.5\n{line}\n-1 1:1\n")
        with pytest.raises(LibsvmParseError, match="line 2: non-finite"):
            load_libsvm(path, labels="pm1")

    def test_non_finite_labels_rejected(self):
        for label in (np.nan, np.inf):
            with pytest.raises(ValueError, match="labels"):
                ClassificationData(A=np.ones((2, 2)), b=np.array([1.0, label]))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(LibsvmParseError):
            load_libsvm(path)

    def test_index_beyond_n_features_rejected(self, tmp_path):
        # a narrower n_features does not truncate the rows
        path = tmp_path / "wide.txt"
        path.write_text("1 1:0.5 3:2.0\n-1 2:1.0 5:4.0\n1 4:1.5\n")
        with pytest.raises(LibsvmParseError,
                           match="line 1: index 3 beyond n_features = 2"):
            load_libsvm(path, n_features=2)
        assert load_libsvm(path, n_features=5).A.shape == (3, 5)


class TestRemapLabels:
    @pytest.mark.parametrize("labels,pm1,zero_one", [
        ([1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 0.0, 1.0]),
        ([0.0, 1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, 1.0, 0.0]),
        ([3.0], [1.0], [1.0]),
    ], ids=["pm1", "01", "one-sample"])
    def test_two_classes_map(self, labels, pm1, zero_one):
        data = ClassificationData(A=np.ones((len(labels), 2)),
                                  b=np.array(labels))
        np.testing.assert_array_equal(remap_labels(data, "pm1").b, pm1)
        np.testing.assert_array_equal(remap_labels(data, "01").b, zero_one)

    @pytest.mark.parametrize("labels", [[1.0, 2.0, 1.0], [-1.0, 0.0, 1.0]],
                             ids=["1-2", "three-classes"])
    def test_two_labels_in_one_class_rejected(self, labels):
        data = ClassificationData(A=np.ones((3, 2)), b=np.array(labels))
        for convention in ("pm1", "01"):
            with pytest.raises(ValueError, match="two classes"):
                remap_labels(data, convention)

    def test_synthetic_data_keeps_its_labels(self):
        data = synth_classification(50, 3, seed=8)
        np.testing.assert_array_equal(remap_labels(data, "pm1").b, data.b)


class TestSynthClassification:
    def test_deterministic(self):
        a = synth_classification(100, 5, seed=7)
        b = synth_classification(100, 5, seed=7)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)

    def test_labels(self):
        data = synth_classification(50, 3, seed=8)
        assert set(np.unique(data.b)) <= {-1.0, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_classification(0, 3, seed=1)

    def test_planted_separator_recoverable(self):
        # the solver itself is the oracle: a logistic fit on the planted
        # data must beat 80% training accuracy despite the 10% label noise
        from far2 import SolverConfig, far2_solve

        data = synth_classification(300, 8, seed=12)
        prob = logistic_objective(data)
        rep = far2_solve(prob, SolverConfig(eps_rel=1e-4))
        assert rep.converged
        x = np.array(rep.x_final)
        acc = float(np.mean(np.where(data.A @ x >= 0.0, 1.0, -1.0) == data.b))
        assert acc >= 0.8


class TestClassificationData:
    def test_sample_count_is_read_only(self):
        data = synth_classification(6, 2, seed=1)
        assert data.N == 6
        with pytest.raises(AttributeError):
            data.N = 3

    @pytest.mark.parametrize("convention", ["pm1", "01"])
    def test_relabelled_data_shares_the_features(self, convention):
        data = synth_classification(6, 2, seed=1)
        assert remap_labels(data, convention).A is data.A


def test_fd_helpers_consistent_on_quadratic():
    p = get_problem("QUAD", 4)
    x = p.x0 + 0.3
    g_fd = fd_gradient(p, x)
    _, g, H = p.eval(x, 2)
    np.testing.assert_allclose(g_fd, g, rtol=1e-7, atol=1e-9)
    H_fd = fd_hessian(p, x)
    np.testing.assert_allclose(H_fd, H.toarray(), rtol=1e-6, atol=1e-7)



class TestBandedAssembly:
    @pytest.mark.parametrize("n", [1, 2, 3, 500])
    def test_tridiag_matches_summed_diagonals(self, n):
        from far2.problems import _tridiag
        rng = np.random.default_rng(n)
        main = rng.standard_normal(n)
        lower = rng.standard_normal(n - 1)
        H = _tridiag(main, lower)
        H.check_format(full_check=True)
        expected = np.diag(main) + np.diag(lower, -1) + np.diag(lower, 1)
        np.testing.assert_array_equal(H.toarray(), expected)

    def test_block_diag4_matches_per_block_fill(self):
        from far2.problems import _block_diag4
        rng = np.random.default_rng(4)
        entries = {(0, 0): rng.standard_normal(3), (0, 3): rng.standard_normal(3),
                   (1, 2): 19.8, (2, 2): rng.standard_normal(3)}
        H = _block_diag4(3, entries)
        H.check_format(full_check=True)
        expected = np.zeros((12, 12))
        for b in range(3):
            for (i, j), v in entries.items():
                expected[4 * b + i, 4 * b + j] = expected[4 * b + j, 4 * b + i] = (
                    v if np.isscalar(v) else v[b])
        np.testing.assert_array_equal(H.toarray(), expected)
        assert H.nnz == 3 * 6  # only the named entries and their mirrors
