import logging
import math

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import fibercell as fc
from fibercell import eigensolve, spectrum
from fibercell.assembly import symmetry_sectors
from fibercell.mesh import TriMesh, d4_permutations


def test_uniform_mode_ground_state(mesh16):
    spec = fc.mode_spectrum(mesh16, 1.0, 1, 1.0, 1)
    assert spec.values[0] == pytest.approx(math.pi ** 2, rel=1e-10)


def test_high_contrast_ground_state_below_bound(mesh16, params):
    # (fundamentalestimate): lambda_eps^1 <= mu1 + eps^2 lambda_1^0
    spec = fc.mode_spectrum(mesh16, 0.05, 1, 1.0, 1)
    assert spec.values[0] < params.mu1 + 0.05 ** 2 * math.pi ** 2


def test_gamma_swap_reproduces_other_mode(mesh16):
    s2 = fc.mode_spectrum(mesh16, 0.3, 2, 1.0, 3)
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 0.3, (2 * math.pi) ** 2)
    pairs = fc.smallest_eigenpairs(K, M, 3)
    for a, b in zip(s2.pairs, pairs):
        assert a.value == pytest.approx(b.value, rel=1e-12)


def test_merged_ground_state_from_mode_one(mesh16):
    merged = fc.merged_spectrum(mesh16, 0.3, 1)
    assert merged[0].j == 1 and merged[0].rank == 1


def test_merged_nondecreasing_and_positive(mesh16):
    merged = fc.merged_spectrum(mesh16, 0.3, 6)
    values = [e.value for e in merged]
    assert values == sorted(values)
    assert values[0] > 0.0


def test_merged_bound_first_five(mesh64, params):
    # first 5 merged values at eps = 0.1 below mu1 + eps^2 lambda_5^0
    merged = fc.merged_spectrum(mesh64, 0.1, 5)
    bound = params.mu1 + 0.01 * (5 * math.pi) ** 2
    assert all(e.value < bound for e in merged)


@pytest.mark.parametrize("k_total", [3, 8, 12])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
def test_lazy_merge_matches_full_merge(mesh16, eps, k_total, monkeypatch):
    # full per-mode spectra for two modes past k_total, merged afterwards
    full = sorted(((p.value, j, rank)
                   for j in range(1, k_total + 3)
                   for rank, p in enumerate(
                       fc.mode_spectrum(mesh16, eps, j, 1.0, k_total).pairs, start=1)))
    solved = []
    assemble = spectrum.assemble_mode_pencil

    def recording(operators, eps, gamma):
        solved.append(round(math.sqrt(gamma) / math.pi))
        return assemble(operators, eps, gamma)

    monkeypatch.setattr(spectrum, "assemble_mode_pencil", recording)
    merged = fc.merged_spectrum(mesh16, eps, k_total)
    assert max(solved) <= k_total
    assert [(e.j, e.rank) for e in merged] == [(j, rank) for _, j, rank in full[:k_total]]
    assert [e.value for e in merged] == pytest.approx([v for v, _, _ in full[:k_total]],
                                                      rel=1e-10)


def test_merge_solves_only_counted_pairs(mesh16, monkeypatch):
    # per (mode, sector) pencil: mode 1's first sector solves below the disk
    # ceiling, every later one below min(ceiling, k-th value so far); each
    # factors K - sigma M once, for its inertia count at the bound, and that
    # factor drives an ARPACK round of exactly the count, or none when the
    # count is 0; no factor of K is made; a sector that counts 0 is not
    # solved again at that eps, and the merge ends, by mode k_total, when no
    # sector is left
    work = []
    factorize_spd, symmetric_lu = eigensolve.factorize_spd, eigensolve._symmetric_lu
    eigsh, solve = eigensolve.eigsh, spectrum.smallest_eigenpairs
    assemble = spectrum.assemble_mode_pencil

    def factor_spy(K):
        work.append("factor")
        return factorize_spd(K)

    def lu_spy(A, *args, **kwargs):
        work.append("lu")
        return symmetric_lu(A, *args, **kwargs)

    def eigsh_spy(A, k, **kwargs):
        work.append(k)
        return eigsh(A, k, **kwargs)

    assembled, pencils = [], []

    def assemble_spy(operators, eps, gamma):
        assembled.append((round(math.sqrt(gamma) / math.pi), operators))
        return assemble(operators, eps, gamma)

    def solve_spy(K, M, k, tol, below):
        start = len(work)
        pairs = solve(K, M, k, tol=tol, below=below)
        pencils.append((*assembled[-1], K, M, below, work[start:], len(pairs)))
        return pairs

    ops = fc.CellOperators(mesh16)
    # the disk solve is not a mode pencil: it runs before the spies
    mu1_h = spectrum._disk_mu1(ops, 1e-9)
    ceiling = (mu1_h + 0.2 ** 2 * (8 * math.pi) ** 2) * (1 + 1e-8)
    monkeypatch.setattr(eigensolve, "factorize_spd", factor_spy)
    monkeypatch.setattr(eigensolve, "_symmetric_lu", lu_spy)
    monkeypatch.setattr(eigensolve, "eigsh", eigsh_spy)
    monkeypatch.setattr(spectrum, "smallest_eigenpairs", solve_spy)
    monkeypatch.setattr(spectrum, "assemble_mode_pencil", assemble_spy)
    merged = fc.merged_spectrum(mesh16, 0.2, 8, operators=ops)
    assert len(merged) == 8
    sectors = [sector_ops for _, sector_ops in ops.sectors]
    assert len(sectors) == 5
    modes = [j for j, *_ in pencils]
    j_end = modes[-1]
    assert modes == sorted(modes) and set(modes) == set(range(1, j_end + 1))
    assert pencils[0][:2] == (1, sectors[0]) and pencils[0][4] == ceiling
    for j, sector_ops, K, M, below, calls, found in pencils:
        assert below <= ceiling and any(sector_ops is s for s in sectors)
        count = fc.inertia_count(K, M, below)
        assert found == count
        assert (calls == ["lu"]) if count == 0 else (calls[:2] == ["lu", count])
        assert calls.count("lu") == 1 and "factor" not in calls
    for i, (_, sector_ops, *_, found) in enumerate(pencils):
        if found == 0:
            assert all(later[1] is not sector_ops for later in pencils[i + 1:])
    last = {id(sector_ops): found for _, sector_ops, *_, found in pencils}
    assert len(last) == 5 and not any(last.values())
    assert j_end <= 8 and all(e.j < j_end for e in merged)
    assert any(found for j, *_, found in pencils if j == 1)


@pytest.mark.parametrize("k_total", [3, 8, 12])
@pytest.mark.parametrize("eps", [1.0, 0.2, 0.05])
@pytest.mark.parametrize("mesh_name", ["mesh12", "mesh16"])
def test_sector_merge_matches_dense_whole_pencils(mesh_name, eps, k_total, request):
    # the sector path against a dense merge of the whole mode pencils
    mesh = request.getfixturevalue(mesh_name)
    ops = fc.CellOperators(mesh)
    assert [sector.name for sector, _ in ops.sectors] == ["A1", "A2", "B1", "B2", "E"]
    pencils = {j: fc.assemble_mode_pencil(ops, eps, (j * math.pi) ** 2)
               for j in range(1, k_total + 1)}
    dense = sorted((value, j, rank) for j, (K, M) in pencils.items()
                   for rank, value in enumerate(
                       fc.dense_eigen_oracle(K, M, count=k_total)[0], start=1))[:k_total]
    merged = fc.merged_spectrum(mesh, eps, k_total, tol=1e-9)
    assert [(e.j, e.rank) for e in merged] == [(j, rank) for _, j, rank in dense]
    assert [e.value for e in merged] == pytest.approx([v for v, _, _ in dense], rel=1e-10)
    for e in merged:
        K, M = pencils[e.j]
        v = e.pair.vector
        Kv = K @ v
        assert e.pair.residual == np.linalg.norm(Kv - e.value * (M @ v)) / np.linalg.norm(Kv)
        assert e.pair.residual <= 1e-9
    # the pairs of one mode, the two copies of an E value among them, are
    # M-orthonormal
    for j in {e.j for e in merged}:
        M = pencils[j][1]
        V = np.column_stack([e.pair.vector for e in merged if e.j == j])
        assert np.abs(V.T @ (M @ V) - np.eye(V.shape[1])).max() <= 1e-10


def test_off_centre_merge_matches_dense_whole_pencils():
    # no D4 symmetry, so the merge runs the one-sector path under the disk
    # ceiling, against a dense merge of the whole mode pencils
    mesh = fc.generate_mesh(fc.CellGeometry(center=(0.5, 0.500001)), 16)
    assert [s.name for s in symmetry_sectors(mesh)] == ["whole"]
    ops = fc.CellOperators(mesh)
    for eps in (1.0, 0.2, 0.05):
        for k_total in (3, 8, 12):
            pencils = {j: fc.assemble_mode_pencil(ops, eps, (j * math.pi) ** 2)
                       for j in range(1, k_total + 1)}
            dense = sorted((value, j, rank) for j, (K, M) in pencils.items()
                           for rank, value in enumerate(
                               fc.dense_eigen_oracle(K, M, count=k_total)[0],
                               start=1))[:k_total]
            merged = fc.merged_spectrum(mesh, eps, k_total, tol=1e-9)
            assert [(e.j, e.rank) for e in merged] == [(j, rank) for _, j, rank in dense]
            assert [e.value for e in merged] == pytest.approx(
                [v for v, _, _ in dense], rel=1e-10)
            for e in merged:
                K, M = pencils[e.j]
                Kv = K @ e.pair.vector
                residual = np.linalg.norm(Kv - e.value * (M @ e.pair.vector))
                assert e.pair.residual == residual / np.linalg.norm(Kv) <= 1e-9


def test_merge_runs_on_a_projection(mesh12):
    # a projection has no mesh, so it is its own whole sector; the merge
    # used to raise AttributeError reading its mesh
    ops = fc.CellOperators(mesh12)
    same = ops.project(sp.identity(len(mesh12.vertices)))
    gammas = {1: math.pi ** 2}
    a = spectrum._lazy_merge(same, 0.5, gammas, 3, 1e-9)
    b = spectrum._lazy_merge(ops, 0.5, gammas, 3, 1e-9)
    assert [value for value, _, _ in a] == pytest.approx([value for value, _, _ in b],
                                                         rel=1e-10)


def test_renumbered_mesh_merges_whole(mesh16):
    # the D4 permutations are the grid's index maps, so mesh16 in another
    # vertex order has none; its whole pencils give the sectors' values
    order = np.random.default_rng(7).permutation(len(mesh16.vertices))
    renumbered = replace(mesh16, vertices=mesh16.vertices[order],
                         triangles=np.argsort(order)[mesh16.triangles])
    assert d4_permutations(renumbered) is None
    values = [e.value for e in fc.merged_spectrum(renumbered, 0.2, 8)]
    assert values == pytest.approx([e.value for e in fc.merged_spectrum(mesh16, 0.2, 8)],
                                   rel=1e-10)


def test_ceiling_below_the_kth_value_raises(mesh16, monkeypatch):
    # half the disk value puts the ceiling under the 8th value: the merge
    # finds fewer than 8 values below it and refuses to return them
    disk = spectrum.discrete_disk_mu1
    monkeypatch.setattr(spectrum, "discrete_disk_mu1",
                        lambda mesh, tol: 0.5 * disk(mesh, tol=tol))
    with pytest.raises(ValueError, match="of 8 values below the ceiling"):
        fc.merged_spectrum(mesh16, 0.2, 8)


def test_merge_logs_its_work(mesh16, caplog):
    # one DEBUG line per merge: the ceiling, the pencils solved, the sectors
    # dropped and the lifted pairs returned against those kept.  At eps 0.2
    # and k 8 the disk ceiling cuts the pairs returned from 35, the same
    # merge without a bound, to 9
    ops = fc.CellOperators(mesh16)
    gammas = {j: (j * math.pi) ** 2 for j in range(1, 9)}
    with caplog.at_level(logging.DEBUG, logger="fibercell.spectrum"):
        spectrum._lazy_merge(ops, 0.2, gammas, 8, 1e-9)
        fc.merged_spectrum(mesh16, 0.2, 8, operators=ops)
    lines = [r.getMessage() for r in caplog.records if r.name == "fibercell.spectrum"]
    ceiling = (ops.disk_mu1[1e-9] + 0.2 ** 2 * (8 * math.pi) ** 2) * (1 + 1e-8)
    assert lines == [
        "merge eps=0.2 k=8 ceiling=None: 17 pencils solved, 5 sectors dropped, "
        "35 pairs returned, 8 kept",
        f"merge eps=0.2 k=8 ceiling={ceiling}: 12 pencils solved, 5 sectors "
        "dropped, 9 pairs returned, 8 kept"]


def test_merge_builds_one_operator_set_per_mesh(mesh16, monkeypatch):
    # the mesh's set serves every mode and sector pencil; the only other
    # set is the disk's, on the fibre sub-mesh
    built, init = [], fc.CellOperators.__init__

    def spy(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(fc.CellOperators, "__init__", spy)
    fc.merged_spectrum(mesh16, 0.2, 8)
    assert len(built) == 2 and built[0] is mesh16
    assert (built[1].tags == fc.FIBER).all()


def test_disk_value_is_solved_once_per_operator_set(mesh16, monkeypatch):
    # every eps of a sweep reads the disk value the first merge solved
    disk, calls = spectrum.discrete_disk_mu1, []

    def spy(mesh, tol):
        calls.append(tol)
        return disk(mesh, tol=tol)

    monkeypatch.setattr(spectrum, "discrete_disk_mu1", spy)
    ops = fc.CellOperators(mesh16)
    for eps in (0.4, 0.2):
        fc.merged_spectrum(mesh16, eps, 3, operators=ops)
    assert calls == [1e-9]
    assert ops.disk_mu1 == {1e-9: disk(mesh16)}


def test_e_copies_are_m_orthogonal_turns(mesh16):
    # an E value comes twice: the second vector is the first turned by 90
    # degrees, and the two are M-orthogonal
    ops = fc.CellOperators(mesh16)
    sector = next(sector for sector, _ in ops.sectors if sector.name == "E")
    spec = fc.mode_spectrum(mesh16, 0.2, 1, 1.0, 8)
    K, M = fc.assemble_mode_pencil(ops, 0.2, math.pi ** 2)
    pairs = spec.pairs
    twins = [(a, b) for a, b in zip(pairs, pairs[1:]) if a.value == b.value]
    assert twins
    for a, b in twins:
        assert np.array_equal(b.vector, a.vector[sector.rotation])
        assert abs(a.vector @ (M @ b.vector)) <= 1e-12
        assert a.vector @ (M @ a.vector) == pytest.approx(1.0, rel=1e-12)


def test_residual_gate_is_on_the_whole_pencil(mesh16, monkeypatch):
    # a sector pair that its own pencil accepted is still refused when its
    # lifted vector misses tol on the whole pencil
    solve = spectrum.smallest_eigenpairs

    def off_by_1e6(K, M, k, tol, below):
        return [eigensolve.EigenPair(p.value * (1 + 1e-6), p.vector, 0.0)
                for p in solve(K, M, k, tol=tol, below=below)]

    monkeypatch.setattr(spectrum, "smallest_eigenpairs", off_by_1e6)
    with pytest.raises(eigensolve.EigenConvergenceError, match="above tolerance"):
        fc.mode_spectrum(mesh16, 0.2, 1, 1.0, 3)


def test_k_that_fills_a_sector_solves_the_whole_pencil(geometry):
    # at n_div 8 sector A2 has 12 unknowns, fewer than k = 20
    mesh = fc.generate_mesh(geometry, 8)
    sizes = [ops.shape[0] for _, ops in fc.CellOperators(mesh).sectors]
    assert sizes == [25, 12, 16, 20, 36] and len(mesh.vertices) == 145
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh), 0.3, math.pi ** 2)
    spec = fc.mode_spectrum(mesh, 0.3, 1, 1.0, 20)
    assert spec.values == pytest.approx(fc.dense_eigen_oracle(K, M, count=20)[0],
                                        rel=1e-10)


def test_sequential_sweeps_deterministic(geometry):
    # the eps values run one after another; two sweeps give equal rows
    a = fc.convergence_sweep(geometry, [0.4, 0.3, 0.2], 16, 5)
    b = fc.convergence_sweep(geometry, [0.4, 0.3, 0.2], 16, 5)
    assert [row.eps for row in a.rows] == [0.4] * 5 + [0.3] * 5 + [0.2] * 5
    assert a.rows == b.rows
    assert a.reorderings == b.reorderings


def test_operator_set_serves_every_pencil(mesh16):
    # pencils from one shared set equal pencils that build their own
    ops = fc.CellOperators(mesh16)
    for eps, j in ((0.3, 1), (0.05, 4)):
        a = spectrum._lazy_merge(ops, eps, {j: (j * math.pi) ** 2}, 3, 1e-9)
        b = fc.mode_spectrum(mesh16, eps, j, 1.0, 3)
        assert [value for value, _, _ in a] == [p.value for p in b.pairs]
    merged = fc.merged_spectrum(mesh16, 0.3, 6, operators=ops)
    assert [e.value for e in merged] == [e.value for e in
                                         fc.merged_spectrum(mesh16, 0.3, 6)]


def test_discrete_merge_subset_matches_full_dense(mesh12):
    # the production merge over the discrete vertical eigenvalues keeps the
    # values of the full dense spectrum of every discrete mode pencil
    K1, M1 = fc.assemble_1d(8, 1.0)
    gammas, _ = fc.dense_eigen_oracle(K1, M1)
    ops, full = fc.CellOperators(mesh12), []
    for gamma in gammas:
        K, M = fc.assemble_mode_pencil(ops, 0.2, float(gamma))
        full.extend(fc.dense_eigen_oracle(K, M)[0][:8])
    merged = fc.discrete_mode_merge(mesh12, 8, 0.2, 8)
    assert merged == pytest.approx(sorted(full)[:8], rel=1e-11)


def test_kron_oracle_equals_discrete_merge(mesh12):
    # the production merge against the unseparated pencil, also at high
    # contrast and on an off-centre mesh, which has no D4 symmetry and so
    # runs the one-sector path: the whole mode pencils
    off_centre = fc.generate_mesh(fc.CellGeometry(center=(0.5, 0.500001)), 12)
    assert [s.name for s in symmetry_sectors(off_centre)] == ["whole"]
    for mesh, eps in ((mesh12, 1.0), (mesh12, 0.2), (mesh12, 0.05),
                      (off_centre, 1.0), (off_centre, 0.2), (off_centre, 0.05)):
        v3 = fc.kron_3d_oracle(mesh, 8, eps, 8)
        vm = fc.discrete_mode_merge(mesh, 8, eps, 8)
        assert np.max(np.abs(v3 - vm) / np.abs(vm)) <= 1e-9


def test_kron_uniform_is_sum_of_1d_and_2d(mesh12):
    # eps = 1: tensor eigenvalues are sums of 2D Neumann-square and 1D
    # Dirichlet discrete eigenvalues
    v3 = fc.kron_3d_oracle(mesh12, 8, 1.0, 5)
    K1, M1 = fc.assemble_1d(8, 1.0)
    g1, _ = fc.dense_eigen_oracle(K1, M1)
    M2 = fc.CellOperators(mesh12).mass(1.0, 1.0)
    K2 = fc.CellOperators(mesh12).stiffness(1.0, 1.0)
    nu, _ = fc.dense_eigen_oracle(K2, M2)
    sums = np.sort((nu[:, None] + g1[None, :]).ravel())[:5]
    assert np.allclose(v3, sums, rtol=1e-9)


def test_kron_matches_production_merge(mesh12):
    # discretization difference only: discrete vs analytic vertical values
    v3 = fc.kron_3d_oracle(mesh12, 8, 0.2, 1)
    merged = fc.merged_spectrum(mesh12, 0.2, 1)
    assert v3[0] == pytest.approx(merged[0].value, rel=0.02)


def test_cell_height_comes_from_the_mesh():
    # every other test runs at height 1, where a height taken from the wrong
    # place would go unnoticed
    mesh = fc.generate_mesh(fc.CellGeometry(height=2.0), 12)
    v3 = fc.kron_3d_oracle(mesh, 8, 0.5, 6)
    assert np.max(np.abs(v3 - fc.discrete_mode_merge(mesh, 8, 0.5, 6)) / v3) <= 1e-9
    ground = fc.merged_spectrum(mesh, 0.5, 3)[0].value
    # a one-pair solve agrees with the merge's three-pair solve to rounding
    assert ground == pytest.approx(fc.mode_spectrum(mesh, 0.5, 1, 2.0, 1).values[0],
                                   rel=1e-12)
    assert ground < fc.mode_spectrum(mesh, 0.5, 1, 1.0, 1).values[0]
    assert v3[0] == pytest.approx(ground, rel=0.02)


def test_kron_size_guards(geometry, mesh16):
    with pytest.raises(ValueError):
        fc.kron_3d_oracle(fc.generate_mesh(geometry, 48), 8, 0.5, 4)
    with pytest.raises(ValueError):
        fc.kron_3d_oracle(mesh16, 64, 0.5, 4)


def test_kron_size_guard_survives_mesh_file(tmp_path, geometry, mesh64):
    # the guard counts vertices, so a mesh read from a file is refused too
    path = tmp_path / "mesh64.txt"
    fc.write_mesh(mesh64, path)
    back = fc.read_mesh(path, geometry)
    assert len(back.vertices) == len(mesh64.vertices)
    with pytest.raises(ValueError, match="n_div <= 40"):
        fc.kron_3d_oracle(back, 8, 0.5, 4)


def test_kron_size_guard_refuses_hand_built_mesh(mesh64):
    mesh = TriMesh(vertices=mesh64.vertices, triangles=mesh64.triangles,
                   tags=mesh64.tags, geometry=mesh64.geometry)
    with pytest.raises(ValueError, match="n_div <= 40"):
        fc.kron_3d_oracle(mesh, 8, 0.5, 4)


def test_eigenvector_error_decreases_with_eps(mesh16, params):
    # above the mesh's own error floor the eps halvings shrink both errors
    root = fc.limit_eigenvalues(params, 1)[0]
    errs = []
    for eps in (0.4, 0.2, 0.1):
        spec = fc.mode_spectrum(mesh16, eps, 1, 1.0, 1)
        errs.append(fc.eigenvector_error(spec.pairs[0], 1, root, mesh16))
    e_f = [e[0] for e in errs]
    e_m = [e[1] for e in errs]
    assert e_m[0] > e_m[1] > e_m[2]
    assert e_f[0] > e_f[1] > e_f[2]


def test_uniform_ground_state_matrix_error_small(mesh16, params):
    # eps = 1 ground state is constant in y: the matrix profile already
    # matches the vertical mode up to scaling
    root = fc.limit_eigenvalues(params, 1)[0]
    spec = fc.mode_spectrum(mesh16, 1.0, 1, 1.0, 1)
    _, e_m = fc.eigenvector_error(spec.pairs[0], 1, root, mesh16)
    assert e_m < 0.05


@pytest.mark.parametrize("j, e_f, e_m", [
    (1, 0.2852836599091609, 0.13391368518232225),
    (2, 0.2277427925764741, 0.15220586256870422),
    (3, 0.5604808330067536, 0.24778657671102178),
])
def test_eigenvector_error_pinned(mesh16, params, j, e_f, e_m):
    # values of the per-call midpoint rule before it was hoisted out of
    # eigenvector_error, on a smooth synthetic field
    root = fc.limit_eigenvalues(params, 3)[j - 1]
    x, y = mesh16.vertices[:, 0], mesh16.vertices[:, 1]
    w = 1.0 + 0.3 * np.cos(2 * np.pi * j * x) * np.sin(np.pi * y) + 0.2 * (x - 0.5) ** 2
    pair = fc.EigenPair(value=root.lam, vector=w, residual=0.0)
    got = fc.eigenvector_error(pair, j, root, mesh16)
    assert got == pytest.approx((e_f, e_m), rel=1e-12, abs=0)
    shared = fc.eigenvector_error(pair, j, root, mesh16)
    assert shared == got


def test_midpoint_rule_integrates_quadratics(mesh16, geometry):
    # exact for quadratics: int (x - 1/2)^2 over the cell is 1/12
    rule = mesh16.midpoint_rule
    x = mesh16.vertices[:, 0]
    total = sum(q @ (0.5 * (x[e[0]] + x[e[1]]) - 0.5) ** 2
                for e, q in ((rule.fiber_ends, rule.fiber_weights),
                             (rule.matrix_ends, rule.matrix_weights)))
    assert total == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert rule.fiber_weights.sum() == pytest.approx(mesh16.fiber_area(), rel=1e-13)
    assert np.all((0.0 <= rule.fiber_rho) & (rule.fiber_rho <= geometry.radius))


def test_eigenvector_error_label_mismatch(mesh16, params):
    root = fc.limit_eigenvalues(params, 2)[1]
    spec = fc.mode_spectrum(mesh16, 0.2, 1, 1.0, 1)
    with pytest.raises(ValueError):
        fc.eigenvector_error(spec.pairs[0], 1, root, mesh16)


def test_same_pencil_eigenvectors_m_orthogonal(mesh16):
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 0.2, math.pi ** 2)
    pairs = fc.smallest_eigenpairs(K, M, 4)
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            assert abs(a.vector @ (M @ b.vector)) <= 1e-8


def test_sweep_invariants_small(geometry):
    # coarse, fast sweep exercising the full report path
    report = fc.convergence_sweep(geometry, [0.4, 0.2], 16, 3)
    assert report.c_h > 0
    by_eps = {}
    for row in report.rows:
        assert row.lambda_eps > 0
        assert row.slack >= -report.c_h - 1e-9
        by_eps.setdefault(row.k, {})[row.eps] = row
    # monotone eps-trend of the eigenvalues where the mode label is stable
    # (transient reorderings are reported, not asserted)
    for k, entries in by_eps.items():
        if entries[0.2].j == entries[0.4].j and entries[0.2].rank == entries[0.4].rank:
            assert entries[0.2].lambda_eps <= entries[0.4].lambda_eps + 1e-10


def test_sweep_requires_decreasing_eps(geometry):
    with pytest.raises(ValueError):
        fc.convergence_sweep(geometry, [0.1, 0.2], 16, 2)


def test_report_files(tmp_path, geometry):
    report = fc.convergence_sweep(geometry, [0.4, 0.2], 16, 2)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    report.write_csv(csv_path, "cafe")
    report.write_json(json_path, "cafe")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# config_hash=cafe"
    assert lines[1] == "eps,k,j,lambda_eps,bound,slack,lambda_limit,gap,e_F,e_M"
    assert len(lines) == 2 + 2 * 2
    import json
    doc = json.loads(json_path.read_text())
    assert doc["mesh_hash"] == report.mesh_hash
    assert len(doc["rows"]) == 4


@pytest.mark.parametrize("call,match", [
    (lambda mesh: fc.mode_spectrum(mesh, 0.2, 0, 1.0, 3), "mode index j must be >= 1"),
    (lambda mesh: fc.merged_spectrum(mesh, 0.2, 0), "k_total must be >= 1"),
    # a non-finite height gave a NaN gamma, seen as a singular factor
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1, math.nan, 2),
     "gamma must be positive and finite"),
    # gamma_j comes from one rule, which checks j and the height: L = -1
    # gave the spectrum of L = 1, L = 0 a ZeroDivisionError, and j = 1.5 and
    # j = True (like k_total = True) ran as modes that do not exist
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1, -1.0, 1),
     r"height must be a finite number > 0, got -1\.0"),
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1, 0.0, 1),
     r"height must be a finite number > 0, got 0\.0"),
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1.5, 1.0, 1),
     r"mode index j must be >= 1 and an int, got 1\.5"),
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, True, 1.0, 1),
     "mode index j must be >= 1 and an int, got True"),
    (lambda mesh: fc.merged_spectrum(mesh, 0.5, True),
     "k_total must be >= 1 and an int, got True"),
    # eps = -0.2 gave the spectrum of eps = 0.2, eps = 0 a ZeroDivisionError
    (lambda mesh: fc.kron_3d_oracle(mesh, 8, -0.2, 4), r"eps must lie in \(0, 1\]"),
    (lambda mesh: fc.kron_3d_oracle(mesh, 8, 2.0, 4), r"eps must lie in \(0, 1\]"),
    (lambda mesh: fc.kron_3d_oracle(mesh, 8, 0.0, 4), r"eps must lie in \(0, 1\]"),
    # the discrete merge clamped k to the vertex count; it now has the
    # production contract
    (lambda mesh: fc.discrete_mode_merge(mesh, 8, 0.2, len(mesh.vertices)),
     "must be smaller than the pencil size"),
    # k = 0 raised IndexError from the merge's last value, k = True ran as 1
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1, 1.0, 0), "k must be >= 1 and an int, got 0"),
    (lambda mesh: fc.mode_spectrum(mesh, 0.5, 1, 1.0, True),
     "k must be >= 1 and an int, got True"),
    (lambda mesh: fc.discrete_mode_merge(mesh, 8, 0.5, 0), "k must be >= 1 and an int")])
def test_refusals(mesh12, call, match):
    with pytest.raises(ValueError, match=match):
        call(mesh12)
