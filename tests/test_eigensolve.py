import logging
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

import fibercell as fc
from fibercell import NotSPDError, eigensolve
from fibercell.eigensolve import EigenConvergenceError


def test_identity_factor_has_unit_pivots():
    factor = fc.factorize_spd(sp.identity(5, format="csc"))
    assert np.allclose(factor.pivots, 1.0)


def test_factor_solve_matches_dense_elimination():
    K1, _ = fc.assemble_1d(4, 1.0)
    factor = fc.factorize_spd(K1)
    e1 = np.zeros(3)
    e1[0] = 1.0
    x = factor.solve(e1)
    x_dense = np.linalg.solve(K1.toarray(), e1)  # dense elimination oracle
    assert np.allclose(x, x_dense, atol=1e-12)


def test_indefinite_matrix_rejected():
    with pytest.raises(NotSPDError):
        fc.factorize_spd(sp.diags([1.0, -1.0]).tocsc())


def test_shifted_indefinite_rejected():
    n = 40
    K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    with pytest.raises(NotSPDError):
        fc.factorize_spd((K - 3.0 * sp.identity(n)).tocsc())


def test_zero_diagonal_indefinite_rejected():
    # eigenvalues +-1: SuperLU swaps rows and shows two positive pivots,
    # which only the diagonal check sees through
    with pytest.raises(NotSPDError, match="left the diagonal"):
        fc.factorize_spd(sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_identity_pencil_eigenvalues():
    eye = sp.identity(10, format="csr")
    pairs = fc.smallest_eigenpairs(eye, eye, 3)
    assert [p.value for p in pairs] == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def test_2x2_diagonal_pencil_oracle():
    K = np.diag([2.0, 8.0])
    M = np.diag([1.0, 2.0])
    values, vectors = fc.dense_eigen_oracle(K, M)
    assert values == pytest.approx([2.0, 4.0], rel=1e-14)
    # M-orthonormal columns
    assert np.allclose(vectors.T @ M @ vectors, np.eye(2), atol=1e-14)


def test_dense_oracle_rejects_non_spd_mass():
    with pytest.raises(NotSPDError):
        fc.dense_eigen_oracle(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_dense_oracle_passes_other_linalg_errors(monkeypatch):
    # only eigh's failed Cholesky of M means "not SPD"
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(fc.eigensolve.scipy.linalg, "eigh", fail)
    with pytest.raises(np.linalg.LinAlgError) as info:
        fc.dense_eigen_oracle(np.eye(3), np.eye(3))
    assert not isinstance(info.value, NotSPDError)


def test_dense_oracle_size_limit():
    n = fc.eigensolve.DENSE_ORACLE_MAX_N + 1
    with pytest.raises(ValueError):
        fc.dense_eigen_oracle(sp.identity(n), sp.identity(n))


def test_lanczos_matches_dense_on_mode_pencil(geometry, mesh16):
    # the second case holds the double eigenvalue 652.352 at ranks 7 and 8,
    # whose second copy a single Krylov space from the all-ones start misses
    mesh20 = fc.generate_mesh(geometry, 20)
    for mesh, eps, j, k in ((mesh16, 0.3, 1, 6), (mesh20, 0.4, 8, 8)):
        K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh), eps, (j * math.pi) ** 2)
        values, _ = fc.dense_eigen_oracle(K, M)
        pairs = fc.smallest_eigenpairs(K, M, k)
        assert len(pairs) == k
        for pair, ref in zip(pairs, values[:k]):
            assert abs(pair.value - ref) <= max(1e-9, 1e-9 * abs(ref))
    assert values[6] == pytest.approx(652.352, rel=1e-6)
    assert values[7] == pytest.approx(values[6], rel=1e-10)
    # the degenerate pair stays M-orthonormal to the rest, and its basis
    # inside the eigenspace is reproducible bit for bit
    V = np.column_stack([p.vector for p in pairs])
    assert np.allclose(V.T @ (M @ V), np.eye(k), rtol=0, atol=1e-8)
    again = fc.smallest_eigenpairs(K, M, k)
    assert [p.value for p in again] == [p.value for p in pairs]
    assert np.array_equal(np.column_stack([p.vector for p in again]), V)


def test_accepted_pairs_meet_contract(mesh16):
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 0.2, math.pi ** 2)
    pairs = fc.smallest_eigenpairs(K, M, 5, tol=1e-9)
    values = [p.value for p in pairs]
    assert values == sorted(values)
    for i, pi in enumerate(pairs):
        assert pi.residual <= 1e-9
        for pj in pairs[i + 1:]:
            assert abs(pi.vector @ (M @ pj.vector)) <= 1e-8
        assert pi.vector @ (M @ pi.vector) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shift", [0.0, 1.0, 10.0])
def test_shift_invariance(mesh16, shift):
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 0.5, math.pi ** 2)
    base = fc.smallest_eigenpairs(K, M, 3)
    shifted = fc.smallest_eigenpairs(K + shift * M, M, 3)
    for a, b in zip(base, shifted):
        assert b.value - a.value == pytest.approx(shift, abs=1e-9 * max(1.0, a.value))
    # simple ground-state vector unchanged up to sign
    overlap = abs(base[0].vector @ (M @ shifted[0].vector))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_degenerate_multiplicity_recovered():
    # 2D Laplacian Neumann-free pencil with known double eigenvalues via a
    # diagonal test matrix: lambda = {1, 2, 2, 3}
    K = sp.diags([1.0, 2.0, 2.0, 3.0]).tocsr()
    M = sp.identity(4, format="csr")
    pairs = fc.smallest_eigenpairs(K, M, 3)
    assert [p.value for p in pairs] == pytest.approx([1.0, 2.0, 2.0], rel=1e-12)


def test_probe_exhaustion_raises():
    # the smallest eigenvalue has 40 copies; k=4 lets each probe round take
    # only 2 of them, so the sixth round still finds copies below the k-th
    K = sp.diags(np.r_[np.ones(40), np.arange(2.0, 22.0)]).tocsr()
    M = sp.identity(60, format="csr")
    with pytest.raises(EigenConvergenceError, match="after 6 rounds"):
        fc.smallest_eigenpairs(K, M, 4)


def test_k_out_of_range(mesh16):
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 1.0, 1.0)
    with pytest.raises(ValueError):
        fc.smallest_eigenpairs(K, M, K.shape[0])
    with pytest.raises(ValueError):
        fc.smallest_eigenpairs(K, M, 0)


def test_off_centre_fiber_pencil_converges(mesh64):
    # a fiber centre moved by 1e-6 used to make converge raise
    # EigenConvergenceError ("only 0 of 8") on exactly this pencil
    off_centre = fc.CellGeometry(center=(0.5 + 1e-6, 0.5))
    mesh = fc.generate_mesh(off_centre, 64)
    gamma = (8 * math.pi) ** 2
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh), 0.4, gamma)
    pairs = fc.smallest_eigenpairs(K, M, 8, tol=1e-9)
    K_c, M_c = fc.assemble_mode_pencil(fc.CellOperators(mesh64), 0.4, gamma)
    ref = fc.smallest_eigenpairs(K_c, M_c, 8, tol=1e-9)
    assert len(pairs) == 8
    for pair, expected in zip(pairs, ref):
        assert pair.residual <= 1e-9
        assert pair.value == pytest.approx(expected.value, rel=1e-8)


def _oracle_pencils(mesh12, mesh16):
    ops12 = fc.CellOperators(mesh12)
    for eps in (1.0, 0.2, 0.05):
        for j in (1, 3, 8):
            K, M = fc.assemble_mode_pencil(ops12, eps, (j * math.pi) ** 2)
            yield f"mesh12 eps={eps} j={j}", K, M
    K1, M1 = fc.assemble_1d(64, 1.0)
    yield "1D, 64 intervals", K1, M1
    K_D, M_D, _ = fc.assemble_dirichlet_disk(mesh16)
    yield "mesh16 Dirichlet disk", K_D, M_D


def _gap_midpoints(values, count):
    """(shifts, counts below): the midpoints of ``count`` gaps spread over
    an ascending spectrum, never inside a double."""
    gaps = np.flatnonzero(np.diff(values) > 1e-6 * values[1:])
    picks = gaps[np.unique(np.linspace(0, len(gaps) - 1, count).round().astype(int))]
    return 0.5 * (values[picks] + values[picks + 1]), picks + 1


def test_inertia_count_matches_dense_oracle(mesh12, mesh16):
    for name, K, M in _oracle_pencils(mesh12, mesh16):
        values, _ = fc.dense_eigen_oracle(K, M)
        shifts, expected = _gap_midpoints(values, 12)
        assert len(shifts) >= 10, name
        counts = [fc.inertia_count(K, M, s) for s in np.r_[0.5 * values[0], shifts]]
        assert counts == [0] + list(expected), name


def test_below_returns_exactly_the_dense_values_below(mesh12):
    # eps=0.2, j=3 has doubles at ranks 3-4 and 5-6; k=3 under a bound
    # above rank 4 splits the first double, and both of its copies must be
    # found before the third value is certified
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh12), 0.2, (3 * math.pi) ** 2)
    values, _ = fc.dense_eigen_oracle(K, M)
    shifts, expected = _gap_midpoints(values[:12], 11)
    for below, count in zip(shifts, expected):
        for k in (3, 8):
            pairs = fc.smallest_eigenpairs(K, M, k, below=below)
            assert len(pairs) == min(k, count)
            for pair, ref in zip(pairs, values):
                assert pair.value < below
                assert abs(pair.value - ref) <= 1e-9 * ref
    assert fc.smallest_eigenpairs(K, M, 3, below=0.5 * values[0]) == []


def test_inertia_count_refuses_to_guess():
    # a zero diagonal makes SuperLU leave the diagonal: no congruence
    K = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="left the diagonal"):
        fc.inertia_count(K, sp.identity(2, format="csr"), 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        fc.inertia_count(sp.identity(3, format="csc"), sp.identity(3, format="csr"), 1.0)


def test_inertia_count_refuses_a_non_finite_pivot():
    # the infinite pivot of K - 1.5 M used to count as positive: 1 below
    K = sp.diags([1.0, math.inf, 2.0]).tocsc()
    with pytest.raises(np.linalg.LinAlgError, match="non-finite pivot"):
        fc.inertia_count(K, sp.identity(3, format="csr"), 1.5)


def test_probe_exhaustion_names_the_count():
    # every copy of a 40-fold eigenvalue is counted; six projected rounds
    # find twelve of them
    K = sp.diags(np.r_[np.ones(40), np.arange(2.0, 22.0)]).tocsr()
    M = sp.identity(60, format="csr")
    with pytest.raises(EigenConvergenceError,
                       match=r"inertia counts 42 eigenvalues below 3\.99999996\b.*found \d+ after 6 rounds"):
        fc.smallest_eigenpairs(K, M, 4)


def test_ties_with_the_kth_value_need_not_be_found():
    # any three unit vectors answer the identity pencil: the count sits
    # strictly below the third value, so its 97 other copies are not hunted
    eye = sp.identity(100, format="csr")
    pairs = fc.smallest_eigenpairs(eye, eye, 3)
    assert [pair.value for pair in pairs] == pytest.approx([1.0] * 3, rel=1e-12)


def test_double_kth_value_costs_one_factorization(mesh64, monkeypatch):
    # mode 1 at eps=0.1 has its 8th value on a double; certifying that value
    # itself took a projected round and a second factorization of K
    calls = {"factorize_spd": 0, "eigsh": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(eigensolve, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(eigensolve, name, spy)
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh64), 0.1, math.pi ** 2)
    pairs = fc.smallest_eigenpairs(K, M, 8)
    assert len(pairs) == 8
    assert calls == {"factorize_spd": 1, "eigsh": 1}


def test_bound_next_to_the_spectrum_retries_on_k(mesh16, monkeypatch, caplog):
    # mode 2 at eps=0.05 under mode 1's 12th value (times 1 + 1e-8): that
    # bound sits 6.7e-5 (relative) below mode 2's 12th value, and the solve
    # with K - below M leaves a residual of 7.35e-9 at its smallest value;
    # the pencil is solved again as a call without the bound for its count
    calls = []
    factorize_spd = eigensolve.factorize_spd

    def spy(K):
        calls.append("factorize_spd")
        return factorize_spd(K)

    ops = fc.CellOperators(mesh16)
    K1, M1 = fc.assemble_mode_pencil(ops, 0.05, math.pi ** 2)
    below = fc.smallest_eigenpairs(K1, M1, 12)[-1].value * (1 + 1e-8)
    K, M = fc.assemble_mode_pencil(ops, 0.05, (2 * math.pi) ** 2)
    monkeypatch.setattr(eigensolve, "factorize_spd", spy)
    with caplog.at_level(logging.DEBUG, logger="fibercell.eigensolve"):
        pairs = fc.smallest_eigenpairs(K, M, 12, below=below)
    values, _ = fc.dense_eigen_oracle(K, M, 11)
    assert len(pairs) == 11 and all(pair.residual <= 1e-9 for pair in pairs)
    assert [pair.value for pair in pairs] == pytest.approx(values, rel=1e-10)
    assert calls == ["factorize_spd"]
    assert re.search(r"missed at shift=1107\.58681\d*, solved without the bound: "
                     r"residual", caplog.text)
    assert [pair.value for pair in pairs] == [
        pair.value for pair in fc.smallest_eigenpairs(K, M, 11)]


def test_a_pencil_releases_each_factor_before_the_next(monkeypatch):
    # the factor of K is released before the count factors K - sigma M, and
    # the count's before a projected round factors K again; a bound whose
    # own factor serves the solve makes no second factor
    calls = []
    real_splu = eigensolve.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu
            calls.append("splu")

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def __del__(self):
            calls.append("free")

    monkeypatch.setattr(eigensolve, "splu", lambda *a, **kw: Factor(real_splu(*a, **kw)))
    K = sp.diags(np.arange(1.0, 41.0)).tocsr()
    eye = sp.identity(40, format="csr")
    assert [p.value for p in fc.smallest_eigenpairs(K, eye, 3)] == pytest.approx([1, 2, 3])
    assert calls == ["splu", "free", "splu", "free"]
    calls.clear()
    assert len(fc.smallest_eigenpairs(K, eye, 3, below=2.5)) == 2
    assert calls == ["splu", "free"]
    calls.clear()
    double = sp.diags(np.r_[1.0, 1.0, np.arange(2.0, 40.0)]).tocsr()
    pairs = fc.smallest_eigenpairs(double, eye, 3)
    assert [p.value for p in pairs] == pytest.approx([1, 1, 2])
    assert calls == ["splu", "free", "splu", "free", "splu", "free"]


def test_dense_pencils_read_as_their_csr_copies():
    # a dense K used to raise AttributeError ('tocsc') where a dense M was
    # already converted; every entry point now reads both as CSR
    K, M = np.diag(np.arange(1.0, 8.0)), np.eye(7)
    Ks, Ms = sp.csr_matrix(K), sp.csr_matrix(M)
    for k_in, m_in in ((K, M), (K, Ms), (Ks, M)):
        assert [p.value for p in fc.smallest_eigenpairs(k_in, m_in, 3)] == [
            p.value for p in fc.smallest_eigenpairs(Ks, Ms, 3)]
        assert fc.inertia_count(k_in, m_in, 3.5) == fc.inertia_count(Ks, Ms, 3.5) == 3
    assert np.array_equal(fc.factorize_spd(K).pivots, fc.factorize_spd(Ks).pivots)


def test_csr_input_is_not_copied(monkeypatch):
    # the pencil reader keeps a CSR input's arrays: ARPACK gets K and M
    # themselves, not copies
    K = sp.diags(np.arange(1.0, 41.0)).tocsr()
    eye = sp.identity(40, format="csr")
    seen = []
    real_eigsh = eigensolve.eigsh

    def eigsh_spy(A, *args, M=None, **kwargs):
        seen.append((A, M))
        return real_eigsh(A, *args, M=M, **kwargs)

    monkeypatch.setattr(eigensolve, "eigsh", eigsh_spy)
    fc.smallest_eigenpairs(K, eye, 3)
    assert seen and all(np.shares_memory(A.data, K.data)
                        and np.shares_memory(B.data, eye.data) for A, B in seen)


def _no_convergence(*args, **kwargs):
    raise eigensolve.ArpackNoConvergence("no convergence", np.empty(0), np.empty((40, 0)))


@pytest.mark.parametrize("call,error,match", [
    (lambda: fc.factorize_spd(np.ones((2, 3))), ValueError, "must be square"),
    (lambda: fc.dense_eigen_oracle(np.eye(3), np.eye(3), count=0), ValueError,
     "count must be >= 1"),
    # a count of 2.5 gave 2 values and True 1
    (lambda: fc.dense_eigen_oracle(np.eye(3), np.eye(3), count=2.5), ValueError,
     r"count must be >= 1 and an int, got 2\.5"),
    (lambda: fc.dense_eigen_oracle(np.eye(3), np.eye(3), count=True), ValueError,
     "count must be >= 1 and an int, got True"),
    # k = 2.5 raised SystemError from ARPACK and k = True a TypeError
    (lambda: fc.smallest_eigenpairs(np.diag(np.arange(1.0, 41.0)), np.eye(40), 2.5),
     ValueError, r"k must be >= 1 and an int, got 2\.5"),
    (lambda: fc.smallest_eigenpairs(np.diag(np.arange(1.0, 41.0)), np.eye(40), True),
     ValueError, "k must be >= 1 and an int, got True"),
    (lambda: fc.smallest_eigenpairs(sp.diags(np.arange(1.0, 41.0)).tocsr(),
                                    sp.identity(40, format="csr"), 3),
     EigenConvergenceError, "only 0 of 3 eigenpairs converged")])
def test_refusals(call, error, match, monkeypatch):
    # every ARPACK call fails to converge, with no Ritz pair to offer
    monkeypatch.setattr(eigensolve, "eigsh", _no_convergence)
    with pytest.raises(error, match=match):
        call()
