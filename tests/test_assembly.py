import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import fibercell as fc
from fibercell import FIBER, MATRIX
from fibercell.assembly import symmetry_sectors
from fibercell.mesh import TriMesh, d4_permutations


def _single_triangle_mesh(geometry):
    """Right triangle (0,0),(1,0),(0,1) tagged FIBER."""
    return TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   triangles=np.array([[0, 1, 2]]),
                   tags=np.array([FIBER]), geometry=geometry)


def _disk(mesh):
    """The disk pencil of ``mesh``, on a CellOperators set built here."""
    return fc.assemble_dirichlet_disk(fc.CellOperators(mesh))


def _interface_nodes(mesh):
    """The vertices of both a fiber and a matrix triangle."""
    return np.intersect1d(mesh.triangles[mesh.tags == FIBER],
                          mesh.triangles[mesh.tags == MATRIX])


def test_stiffness_constants_in_kernel(mesh16):
    K = fc.CellOperators(mesh16).stiffness(1.0, 1.0)
    row_sums = np.asarray(K.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-12


def test_single_right_triangle_stiffness(geometry):
    # hand P1 element integrals: diag (1, 1/2, 1/2)
    mesh = _single_triangle_mesh(geometry)
    K = fc.CellOperators(mesh).stiffness(1.0, 1.0).toarray()
    assert np.allclose(np.diag(K), [1.0, 0.5, 0.5], atol=1e-15)
    assert np.allclose(K, K.T, atol=0)


def test_fiber_weight_scales_linearly(mesh16):
    K1 = fc.CellOperators(mesh16).stiffness(1.0, 1.0)
    K4 = fc.CellOperators(mesh16).stiffness(4.0, 4.0)
    assert abs(K4 - 4.0 * K1).max() < 1e-12


def test_mass_total_equals_area(geometry, mesh16):
    M = fc.CellOperators(mesh16).mass(1.0, 1.0)
    assert M.sum() == pytest.approx(geometry.side ** 2, rel=1e-12)


def test_single_triangle_mass(geometry):
    mesh = _single_triangle_mesh(geometry)
    M = fc.CellOperators(mesh).mass(1.0, 1.0).toarray()
    area = 0.5
    assert np.allclose(np.diag(M), area / 6.0, atol=1e-15)
    assert M[0, 1] == pytest.approx(area / 12.0, abs=1e-15)


def test_mass_fiber_weight_scaling(mesh16):
    # fiber block scaled by eps^2 = 0.01: total = 0.01*|D_h| + |C\D_h|
    M = fc.CellOperators(mesh16).mass(0.01, 1.0)
    expect = 0.01 * mesh16.fiber_area() + mesh16.matrix_area()
    assert M.sum() == pytest.approx(expect, rel=1e-12)


def test_mode_pencil_weights_and_definiteness(mesh16):
    ops = fc.CellOperators(mesh16)
    K, M = fc.assemble_mode_pencil(ops, 0.1, math.pi ** 2)
    # K = stiffness(1, eps^-2) + gamma*mass(eps^2, 1) exactly
    K_expect = ops.stiffness(1.0, 100.0) + math.pi ** 2 * ops.mass(0.01, 1.0)
    assert abs(K - K_expect).max() < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) > 0.0


def test_mode_pencil_gamma_linearity(mesh16):
    # differencing two gammas recovers the weighted mass exactly
    ops = fc.CellOperators(mesh16)
    K1, _ = fc.assemble_mode_pencil(ops, 0.2, 1.0)
    K2, _ = fc.assemble_mode_pencil(ops, 0.2, 3.0)
    M_w = ops.mass(0.04, 1.0)
    assert abs((K2 - K1) / 2.0 - M_w).max() < 1e-12


def test_mode_pencil_invalid_arguments(mesh16):
    ops = fc.CellOperators(mesh16)
    with pytest.raises(ValueError):
        fc.assemble_mode_pencil(ops, 0.1, 0.0)
    with pytest.raises(ValueError):
        fc.assemble_mode_pencil(ops, 1.5, 1.0)
    # a non-finite gamma built a pencil with non-finite entries
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            fc.assemble_mode_pencil(ops, 0.5, gamma)


def test_uniform_pencil_ground_state_is_gamma(mesh16):
    # eps = 1 collapses the weights; lowest eigenvalue = gamma with a
    # constant eigenvector under the natural lateral boundary
    gamma = math.pi ** 2
    K, M = fc.assemble_mode_pencil(fc.CellOperators(mesh16), 1.0, gamma)
    pairs = fc.smallest_eigenpairs(K, M, 1)
    assert pairs[0].value == pytest.approx(gamma, rel=1e-10)


def test_dirichlet_disk_eigenvalue(mesh64, geometry):
    # Bessel-zero formula oracle: mu_1 = (j_{0,1}/r)^2
    K_D, M_D, interior = _disk(mesh64)
    mu1 = (fc.bessel_j0_zero(1) / geometry.radius) ** 2
    val = fc.smallest_eigenpairs(K_D, M_D, 1)[0].value
    assert val == pytest.approx(mu1, rel=0.01)


def test_dirichlet_disk_degenerate_pair(mesh64, geometry):
    # first nonradial disk mode (j_{1,1}/r)^2 is a double eigenvalue
    K_D, M_D, _ = _disk(mesh64)
    vals = [p.value for p in fc.smallest_eigenpairs(K_D, M_D, 3)]
    assert abs(vals[1] - vals[2]) <= 1e-6 * vals[1]
    j11 = 3.8317059702075125
    assert vals[1] == pytest.approx((j11 / geometry.radius) ** 2, rel=0.01)


def test_dirichlet_disk_excludes_interface(mesh16):
    _, _, interior = _disk(mesh16)
    assert not set(interior) & set(_interface_nodes(mesh16))


def test_disk_interior_touches_no_matrix_triangle():
    # the one measured mesh where two circle vertices touch only fiber
    # triangles: a rule by distance to the circle pins them, the tag rule
    # frees them, and on the larger trial space mu1_h is lower (min-max)
    geometry = fc.CellGeometry(center=(0.5, 0.495))
    mesh = fc.generate_mesh(geometry, 64)
    K_D, M_D, interior = _disk(mesh)
    used = np.unique(mesh.triangles[mesh.tags == FIBER])
    dist = np.hypot(*(mesh.vertices[used] - geometry.center).T) - geometry.radius
    by_distance = used[np.abs(dist) > 1e-12 * geometry.side]
    assert set(by_distance) < set(interior)
    assert len(interior) == len(by_distance) + 2
    keep = np.isin(interior, by_distance)
    pinned = fc.smallest_eigenpairs(K_D[keep][:, keep], M_D[keep][:, keep], 1)[0].value
    assert pinned == pytest.approx(92.66552376, rel=1e-9)
    mu1_h = fc.discrete_disk_mu1(mesh)
    assert mu1_h == pytest.approx(92.59637967, rel=1e-9)
    assert mu1_h < pinned


def test_1d_matrices_and_eigenvalues():
    K1, M1 = fc.assemble_1d(64, 1.0)
    pairs = fc.smallest_eigenpairs(K1, M1, 2)
    assert pairs[0].value == pytest.approx(math.pi ** 2, rel=0.002)
    assert pairs[1].value == pytest.approx(4 * math.pi ** 2, rel=0.002)

    K1, M1 = fc.assemble_1d(64, 2.0)
    pairs = fc.smallest_eigenpairs(K1, M1, 1)
    assert pairs[0].value == pytest.approx(math.pi ** 2 / 4, rel=0.002)

    with pytest.raises(ValueError):
        fc.assemble_1d(1, 1.0)


def test_1d_matrix_entries():
    K1, M1 = fc.assemble_1d(4, 1.0)
    h = 0.25
    assert K1[0, 0] == pytest.approx(2 / h)
    assert K1[0, 1] == pytest.approx(-1 / h)
    assert M1[0, 0] == pytest.approx(2 * h / 3)
    assert M1[0, 1] == pytest.approx(h / 6)


def test_galerkin_monotonicity_disk(geometry, mesh16, mesh64):
    # min-max on refining meshes, up to the O(h) snapping perturbation
    vals = []
    for mesh in (mesh16, fc.generate_mesh(geometry, 32), mesh64):
        K_D, M_D, _ = _disk(mesh)
        vals.append(fc.smallest_eigenpairs(K_D, M_D, 1)[0].value)
    assert vals[0] > vals[1] > vals[2]


def test_degenerate_triangle_rejected(geometry):
    bad = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                  triangles=np.array([[0, 1, 2]]),
                  tags=np.array([FIBER]), geometry=geometry)
    with pytest.raises(ValueError):
        fc.CellOperators(bad)


def test_non_finite_triangle_rejected(geometry):
    # a nan area passed the areas <= 0 test and built nan operators
    bad = TriMesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]),
                  triangles=np.array([[0, 1, 2]]),
                  tags=np.array([FIBER]), geometry=geometry)
    with pytest.raises(ValueError, match="non-finite"):
        fc.CellOperators(bad)


def _fiber_on_the_circle(geometry):
    """One fiber triangle whose three vertices lie on the circle, and no
    matrix triangle."""
    return TriMesh(vertices=np.array([[0.75, 0.5], [0.5, 0.75], [0.25, 0.5]]),
                   triangles=np.array([[0, 1, 2]]),
                   tags=np.array([FIBER]), geometry=geometry)


def _fiber_inside_the_matrix(geometry):
    """That fiber triangle with a matrix triangle on each edge: all three
    fiber vertices are interface nodes."""
    return TriMesh(vertices=np.array([[0.75, 0.5], [0.5, 0.75], [0.25, 0.5],
                                      [0.75, 0.75], [0.25, 0.75], [0.5, 0.25]]),
                   triangles=np.array([[0, 1, 2], [1, 0, 3], [2, 1, 4], [0, 2, 5]]),
                   tags=np.array([FIBER, MATRIX, MATRIX, MATRIX]), geometry=geometry)


def _fiber_part_off_the_matrix(geometry):
    """Two fiber parts: a pair of fiber triangles around the free vertex 0,
    with matrix triangles on three of their vertices, and a fiber square
    that touches no matrix triangle, whose K_D block is the singular
    Neumann Laplacian."""
    vertices = np.array([[0.5, 0.5], [0.6, 0.5], [0.5, 0.6], [0.4, 0.5],
                         [0.6, 0.6], [0.4, 0.6], [0.7, 0.5],
                         [0.1, 0.1], [0.2, 0.1], [0.2, 0.2], [0.1, 0.2]])
    triangles = np.array([[0, 1, 2], [0, 2, 3],          # fiber, grounded
                          [1, 4, 2], [2, 5, 3], [1, 6, 4],  # matrix
                          [7, 8, 9], [7, 9, 10]])         # fiber, floating
    tags = np.array([FIBER, FIBER, MATRIX, MATRIX, MATRIX, FIBER, FIBER])
    return TriMesh(vertices=vertices, triangles=triangles, tags=tags,
                   geometry=geometry)


@pytest.mark.parametrize("call,match", [
    (lambda g: fc.CellOperators(_single_triangle_mesh(g)).stiffness(0.0, 1.0),
     "weights must be positive"),
    (lambda g: fc.CellOperators(_single_triangle_mesh(g)).stiffness(math.nan, 1.0),
     "weights must be positive and finite"),
    (lambda g: fc.CellOperators(_single_triangle_mesh(g)).stiffness(math.inf, 1.0),
     "weights must be positive and finite"),
    (lambda g: _disk(replace(_single_triangle_mesh(g), tags=np.array([MATRIX]))),
     "no fiber triangles"),
    (lambda g: _disk(_fiber_on_the_circle(g)),
     "no fiber/matrix interface"),
    (lambda g: _disk(_fiber_part_off_the_matrix(g)),
     "no fiber/matrix interface on a part of the fiber"),
    (lambda g: _disk(_fiber_inside_the_matrix(g)),
     "no interior disk nodes"),
    # h > r leaves one free node: the disk solve failed on a pencil of size 1
    (lambda g: fc.discrete_disk_mu1(fc.generate_mesh(
        fc.CellGeometry(center=(0.4, 0.55), radius=0.11), 8)),
     "1 interior disk node, too few for a disk pencil"),
    # L = -1 gave a negative-definite pair, L = NaN NaN entries and n = 2.5
    # a bare numpy TypeError
    (lambda g: fc.assemble_1d(4, -1.0), r"L must be a finite number > 0, got -1\.0"),
    (lambda g: fc.assemble_1d(4, math.nan), "L must be a finite number > 0, got nan"),
    (lambda g: fc.assemble_1d(2.5, 1.0),
     r"need at least 2 intervals, and an int, got 2\.5")])
def test_refusals(geometry, call, match):
    with pytest.raises(ValueError, match=match):
        call(geometry)


def _sub_mesh_disk(mesh):
    """The disk pencil built the old way, as an oracle: a second operator
    set on the fibre sub-mesh, sliced to the fibre nodes off the interface."""
    fiber = mesh.tags == FIBER
    ops = fc.CellOperators(replace(mesh, triangles=mesh.triangles[fiber],
                                   tags=mesh.tags[fiber]))
    used = np.unique(mesh.triangles[fiber])
    interior = used[~np.isin(used, _interface_nodes(mesh))]
    return (ops.stiffness(1.0, 1.0)[interior][:, interior].tocsr(),
            ops.mass(1.0, 1.0)[interior][:, interior].tocsr(), interior)


@pytest.mark.parametrize("center,radius,n_div", [
    ((0.5, 0.5), 0.25, 16), ((0.5, 0.5), 0.25, 64), ((0.5, 0.495), 0.3, 16),
    ((0.5, 0.495), 0.3, 64), ((0.5, 0.495), 0.25, 64)])
def test_disk_pencil_is_the_limit_sets_free_block(center, radius, n_div):
    # the free block of the full cell's limit set holds the sub-mesh set's
    # pencil bit for bit, and the limit set's matrix stiffness vanishes up
    # to the rounding of its sums: its columns span ker K_M
    mesh = fc.generate_mesh(fc.CellGeometry(center=center, radius=radius), n_div)
    ops = fc.CellOperators(mesh)
    *pencil, free = fc.assemble_dirichlet_disk(ops)
    *oracle, interior = _sub_mesh_disk(mesh)
    assert np.array_equal(free, interior)
    for A, B in zip(pencil, oracle):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, name), getattr(B, name))
    assert ops.limit is ops.limit and ops.limit.shape == (len(free) + 1,) * 2
    assert np.abs(ops.limit.stiff_matrix).max() < 1e-14 * np.abs(ops.stiff_matrix).sum()


def test_limit_set_needs_a_mesh(mesh16):
    # a projection has no mesh to read the free nodes from
    with pytest.raises(ValueError, match="no mesh, so no limit set"):
        fc.CellOperators(mesh16).limit.limit


@pytest.mark.parametrize("radius", [0.2, 0.2496, 0.25, 0.2504])
@pytest.mark.parametrize("n_div", [16, 32])
def test_five_orthonormal_sectors(radius, n_div):
    mesh = fc.generate_mesh(fc.CellGeometry(radius=radius), n_div)
    sectors = symmetry_sectors(mesh)
    assert [s.name for s in sectors] == ["A1", "A2", "B1", "B2", "E"]
    assert [s.copies for s in sectors] == [1, 1, 1, 1, 2]
    sizes = [s.basis.shape[1] for s in sectors]
    assert sum(sizes) + sizes[-1] == len(mesh.vertices)
    for s in sectors:
        P = s.basis
        assert np.diff(P.indptr).max() == 1
        assert abs(P.T @ P - sp.identity(P.shape[1])).max() <= 1e-15
    # the sectors are mutually orthogonal, and E's columns are odd in u
    # and even in v
    P = sp.hstack([s.basis for s in sectors]).tocsc()
    assert abs(P.T @ P - sp.identity(P.shape[1])).max() <= 1e-15
    E = sectors[-1]
    perms = d4_permutations(mesh)
    assert abs(E.basis[perms[4]] + E.basis).max() == 0  # u -> -u
    assert abs(E.basis[perms[5]] - E.basis).max() == 0  # v -> -v
    assert np.array_equal(E.rotation, perms[3])


def test_asymmetric_meshes_are_one_sector(mesh16):
    tags = mesh16.tags.copy()
    tags[np.flatnonzero(tags == FIBER)[0]] = MATRIX
    for mesh in (fc.generate_mesh(fc.CellGeometry(center=(0.5, 0.500001)), 16),
                 replace(mesh16, tags=tags)):
        (sector,) = symmetry_sectors(mesh)
        assert sector.name == "whole" and sector.copies == 1
        assert abs(sector.basis - sp.identity(len(mesh.vertices))).max() == 0


def test_a_set_without_the_symmetry_is_its_own_sector(mesh16):
    # an off-centre mesh's set and a projection, which has no mesh, are
    # one whole sector each, served by the set itself: no copy is made
    off_centre = fc.generate_mesh(fc.CellGeometry(center=(0.5, 0.500001)), 16)
    projected = fc.CellOperators(mesh16).project(sp.identity(len(mesh16.vertices)))
    for ops in (fc.CellOperators(off_centre), projected):
        ((sector, sector_ops),) = ops.sectors
        assert sector.name == "whole" and sector.copies == 1 and sector_ops is ops
        assert abs(sector.basis - sp.identity(ops.shape[0])).max() == 0


def test_projection_onto_the_identity_is_exact(mesh16):
    # B = I gives back this set's parts and pattern to the bit
    ops = fc.CellOperators(mesh16)
    same = ops.project(sp.identity(len(mesh16.vertices)))
    assert same.shape == ops.shape and same.mesh is None
    assert np.array_equal(same.indices, ops.indices)
    assert np.array_equal(same.indptr, ops.indptr)
    for name in ("stiff_fiber", "stiff_matrix", "mass_fiber", "mass_matrix"):
        assert np.array_equal(getattr(same, name), getattr(ops, name))


def test_projected_parts_are_symmetric_basis_products(mesh16):
    ops = fc.CellOperators(mesh16)
    for sector, projected in ops.sectors:
        P = sector.basis
        for weights in ((1.0, 0.05 ** -2), (2.0, 3.0)):
            full = P.T @ ops.stiffness(*weights) @ P
            part = projected.stiffness(*weights)
            assert abs(part - part.T).max() == 0
            assert abs(part - full).max() <= 1e-12 * abs(full).max()
            full = P.T @ ops.mass(*weights) @ P
            part = projected.mass(*weights)
            assert abs(part - part.T).max() == 0
            assert abs(part - full).max() <= 1e-12 * abs(full).max()


def test_projection_refuses_overlapping_columns(mesh16):
    n = len(mesh16.vertices)
    with pytest.raises(ValueError, match="at most one stored entry"):
        fc.CellOperators(mesh16).project(np.ones((n, 2)))
    with pytest.raises(ValueError, match="one row per vertex"):
        fc.CellOperators(mesh16).project(sp.identity(n - 1))
