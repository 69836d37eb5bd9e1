import math

import numpy as np
import pytest
import scipy.sparse as sp

import fibercell as fc
from fibercell import NotSPDError
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
        pencil = fc.assemble_mode_pencil(mesh, eps, (j * math.pi) ** 2)
        values, _ = fc.dense_eigen_oracle(pencil.K, pencil.M)
        pairs = fc.smallest_eigenpairs(pencil.K, pencil.M, k)
        assert len(pairs) == k
        for pair, ref in zip(pairs, values[:k]):
            assert abs(pair.value - ref) <= max(1e-9, 1e-9 * abs(ref))
    assert values[6] == pytest.approx(652.352, rel=1e-6)
    assert values[7] == pytest.approx(values[6], rel=1e-10)
    # the degenerate pair stays M-orthonormal to the rest, and its basis
    # inside the eigenspace is reproducible bit for bit
    V = np.column_stack([p.vector for p in pairs])
    assert np.allclose(V.T @ (pencil.M @ V), np.eye(k), rtol=0, atol=1e-8)
    again = fc.smallest_eigenpairs(pencil.K, pencil.M, k)
    assert [p.value for p in again] == [p.value for p in pairs]
    assert np.array_equal(np.column_stack([p.vector for p in again]), V)


def test_accepted_pairs_meet_contract(mesh16):
    pencil = fc.assemble_mode_pencil(mesh16, 0.2, math.pi ** 2)
    pairs = fc.smallest_eigenpairs(pencil.K, pencil.M, 5, tol=1e-9)
    values = [p.value for p in pairs]
    assert values == sorted(values)
    M = pencil.M
    for i, pi in enumerate(pairs):
        assert pi.residual <= 1e-9
        for pj in pairs[i + 1:]:
            assert abs(pi.vector @ (M @ pj.vector)) <= 1e-8
        assert pi.vector @ (M @ pi.vector) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shift", [0.0, 1.0, 10.0])
def test_shift_invariance(mesh16, shift):
    pencil = fc.assemble_mode_pencil(mesh16, 0.5, math.pi ** 2)
    base = fc.smallest_eigenpairs(pencil.K, pencil.M, 3)
    shifted = fc.smallest_eigenpairs(pencil.K + shift * pencil.M, pencil.M, 3)
    for a, b in zip(base, shifted):
        assert b.value - a.value == pytest.approx(shift, abs=1e-9 * max(1.0, a.value))
    # simple ground-state vector unchanged up to sign
    overlap = abs(base[0].vector @ (pencil.M @ shifted[0].vector))
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
    pencil = fc.assemble_mode_pencil(mesh16, 1.0, 1.0)
    with pytest.raises(ValueError):
        fc.smallest_eigenpairs(pencil.K, pencil.M, pencil.K.shape[0])
    with pytest.raises(ValueError):
        fc.smallest_eigenpairs(pencil.K, pencil.M, 0)


def test_cluster_widths_detector():
    widths = fc.cluster_widths([1.0, 2.0, 2.0 + 1e-9, 5.0])
    assert widths == [1, 2, 1]


def test_off_centre_fiber_pencil_converges(mesh64):
    # a fiber centre moved by 1e-6 used to make converge raise
    # EigenConvergenceError ("only 0 of 8") on exactly this pencil
    off_centre = fc.build_cell_geometry(center=(0.5 + 1e-6, 0.5))
    mesh = fc.generate_mesh(off_centre, 64)
    gamma = (8 * math.pi) ** 2
    pencil = fc.assemble_mode_pencil(mesh, 0.4, gamma)
    pairs = fc.smallest_eigenpairs(pencil.K, pencil.M, 8, tol=1e-9)
    centred = fc.assemble_mode_pencil(mesh64, 0.4, gamma)
    ref = fc.smallest_eigenpairs(centred.K, centred.M, 8, tol=1e-9)
    assert len(pairs) == 8
    for pair, expected in zip(pairs, ref):
        assert pair.residual <= 1e-9
        assert pair.value == pytest.approx(expected.value, rel=1e-8)
