import hashlib
import math
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import fibercell as fc
from fibercell import FIBER, MATRIX
from fibercell.mesh import (TriMesh, d4_permutations, signed_areas, structured_mesh,
                            unique_edges)


# content_hash of reference meshes centred at (0.5, 0.5): any change to the
# grid, the snapping or the flip decisions that moves a byte shows here
GOLDEN_HASHES = {
    (0.2496, 16): "f25a04762943cbae3318a137f0b12eb34ae7adcbaf9a1ff25c5a042722dc8554",
    (0.2496, 32): "ea933c90788381116c12c5ac37ccc8fbc58b69e292c1d26e8d9c4f93bb74cf33",
    (0.2496, 64): "52e4fae29f1a7533f5eb8e072bd08eb639bfd705de1bb851c95ed6412959df2e",
    (0.2496, 128): "11a8ef4670c13bc00e92128d9cfc26b06ce2c3e1f37d532c1f9edb334033497d",
    (0.25, 16): "4c5b3dbf3df48dadd5e9de249eb08a8e06bbf4c7beb4008b439d5f1ee9d6920a",
    (0.25, 32): "ac180e55de01a4ccfad7ac716ba1527eb93394b78630834ec8a5883074b0f9fd",
    (0.25, 64): "34486959c2718d7cdb47641563c99b02e8ff3ebedad9f43aedab68462b25bb28",
    (0.25, 128): "8640a4bd2e1ac572fc8a7608bcdf2d5fde9f7744a5747b12dffb8b07322981fa",
    (0.2504, 16): "4d23a6059f0e410edc99b09d2f09989f5b494bfa0010b5c0cb4d33e12d378a68",
    (0.2504, 32): "c12cd1c2564adc390027dac4a40e5d7eb056712cc422d3a9238e4a845f91aef9",
    (0.2504, 64): "f3ab004b3862a682490912730de26cd5aebda614f6b8c7de1bfbb61ebeaabe7a",
    (0.2504, 128): "e05cd3917c1ef26d79a0d5418737826927a961db4da6fdb76bbcffd54719e98b",
}


@pytest.mark.parametrize("radius,n_div", sorted(GOLDEN_HASHES))
def test_golden_mesh_hashes(radius, n_div):
    geometry = fc.CellGeometry(center=(0.5, 0.5), radius=radius)
    mesh = fc.generate_mesh(geometry, n_div)
    assert mesh.content_hash() == GOLDEN_HASHES[radius, n_div]


# one input per snap and repair branch that the centred goldens never reach:
# content_hash of the mesh, or the MeshQualityError text
BRANCH_GOLDENS = [
    # flips of low-angle (not inscribed, not inverted) triangles rescue the
    # mesh; a repair flipping only inscribed or inverted ones fails the gate
    ((0.5, 0.495), 0.25, 64,
     "b89c429f4fa11a770a2ac88aaab5654a0aa18b11ad1518801a3bb9103ac7e2cc"),
    ((0.4, 0.55), 0.2, 64,
     "05ac85fd298eb762b00f283ac9b3071ca6ede686cc19b290b8f16a81d24c0787"),
    ((0.3, 0.3), 0.1, 12,
     "1cd177353e5a544fae29062902d5234bc40be7e76df31c1ff7a15f9b2abf6dfb"),
    # three sweeps flip an edge
    ((0.4, 0.55), 0.11, 8,
     "baf46c0ba1b8fb27a8bc011c53d43aadc0b35821d911ee485ef348039a616644"),
    # pass 2 meets crossed edges whose nearer end is on the cell boundary
    # and projects the other end instead
    ((0.5, 0.5), 0.46, 8,
     "1b9eaee862bd3fb21b90d3951eeeb4a65599d6ad7ef6877c66228f7d3fdb2ce7"),
    ((0.5, 0.5), 0.49, 16,
     "16546906d3e841958a79238def22c7179332f760c40fb134cb31dac7c047fbef"),
    # the gate rejects what is left after low-angle flips
    ((0.61, 0.52), 0.25, 48,
     "snapped mesh below the quality floor at n_div=48, radius 0.25: triangle "
     "6672 at centroid (0.721570, 0.748807) has min angle 11.09 deg (floor 15) "
     "and area 3.097e-05"),
]


@pytest.mark.parametrize("center,radius,n_div,expected", BRANCH_GOLDENS)
def test_branch_golden_meshes(center, radius, n_div, expected):
    geometry = fc.CellGeometry(center=center, radius=radius)
    try:
        got = fc.generate_mesh(geometry, n_div).content_hash()
    except fc.MeshQualityError as err:
        got = str(err)
    assert got == expected


def test_unsnapped_uniform_mesh_min_angle_45():
    verts, tris = structured_mesh(1.0, 8)
    q = fc.mesh_quality((verts, tris))
    assert q.min_angle == pytest.approx(45.0, abs=1e-9)
    assert q.max_angle == pytest.approx(90.0, abs=1e-9)


def test_snapped_mesh_respects_quality_floor(geometry):
    mesh = fc.generate_mesh(geometry, 32)
    q = fc.mesh_quality(mesh)
    assert q.min_angle >= 15.0
    assert q.min_area > 0.0


def test_below_minimum_resolution_rejected(geometry):
    with pytest.raises(ValueError):
        fc.generate_mesh(geometry, 4)


def test_quality_error_names_worst_triangle():
    # r = 0.252 fails at n_div 32, 64 and 128, so refining is no remedy
    geometry = fc.CellGeometry(radius=0.252)
    with pytest.raises(fc.MeshQualityError,
                       match=r"centroid \(0\.394930, 0\.721036\) has min angle 13\.18"):
        fc.generate_mesh(geometry, 32)


def test_empty_mesh_quality_rejected():
    with pytest.raises(ValueError):
        fc.mesh_quality((np.zeros((0, 2)), np.zeros((0, 3), dtype=int)))


def test_fiber_area_convergence(geometry, mesh16, mesh64):
    exact = geometry.disk_area
    err16 = abs(mesh16.fiber_area() - exact) / exact
    err64 = abs(mesh64.fiber_area() - exact) / exact
    assert err16 < 0.02
    assert err64 < 0.002
    # at least first-order decay under 4x refinement
    assert err16 / err64 >= 4.0


def test_tags_partition_and_total_area(geometry, mesh16):
    assert set(np.unique(mesh16.tags)) == {FIBER, MATRIX}
    total = mesh16.fiber_area() + mesh16.matrix_area()
    assert total == pytest.approx(geometry.side ** 2, rel=1e-12)


# every golden mesh with h = side / n_div below the radius; at (0.4, 0.55),
# r 0.11, n_div 8 (h = 0.125) one vertex of a fiber and a matrix triangle
# stays 0.0325 off the circle
CONFORMING = [((0.5, 0.5), radius, n_div) for radius, n_div in sorted(GOLDEN_HASHES)] + [
    (center, radius, n_div) for center, radius, n_div, expected in BRANCH_GOLDENS
    if radius > 1.0 / n_div and len(expected) == 64]  # a hash, not an error text


@pytest.mark.parametrize("center,radius,n_div", CONFORMING,
                         ids=[f"{x},{y}-r{r}-n{n}" for (x, y), r, n in CONFORMING])
def test_interface_nodes_on_circle(center, radius, n_div):
    # the generator conforms: the interface nodes, the fiber vertices that
    # are not free, which the tags alone name, lie on the circle
    geometry = fc.CellGeometry(center=center, radius=radius)
    mesh = fc.generate_mesh(geometry, n_div)
    pts = mesh.vertices[np.setdiff1d(mesh.triangles[mesh.tags == FIBER], mesh.free_nodes)]
    dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    assert len(pts) > 0
    assert np.all(np.abs(dist - radius) <= 1e-12 * geometry.side)


@pytest.mark.parametrize("n_div", [16, 32, 64])
def test_conforming_interface_edges(geometry, n_div):
    """Every edge is shared by at most 2 triangles and every fiber/matrix
    edge has both endpoints on the circle."""
    mesh = fc.generate_mesh(geometry, n_div)
    c = np.asarray(geometry.center)
    sd = np.hypot(mesh.vertices[:, 0] - c[0],
                  mesh.vertices[:, 1] - c[1]) - geometry.radius

    edge_tris = {}
    for ti, t in enumerate(mesh.triangles):
        for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edge_tris.setdefault((min(u, v), max(u, v)), []).append(ti)
    counts = Counter(len(ts) for ts in edge_tris.values())
    assert set(counts) <= {1, 2}

    bad = 0
    for (a, b), ts in edge_tris.items():
        if len(ts) == 2 and mesh.tags[ts[0]] != mesh.tags[ts[1]]:
            if abs(sd[a]) > 1e-12 or abs(sd[b]) > 1e-12:
                bad += 1
    assert bad == 0


def test_generation_deterministic(geometry):
    a = fc.generate_mesh(geometry, 24)
    b = fc.generate_mesh(geometry, 24)
    assert a.content_hash() == b.content_hash()
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.tags, b.tags)


def test_positive_signed_areas(mesh16):
    assert signed_areas(mesh16.vertices, mesh16.triangles).min() > 0.0


def test_mesh_text_roundtrip(tmp_path, geometry, mesh16):
    path = tmp_path / "mesh.txt"
    fc.write_mesh(mesh16, path)
    back = fc.read_mesh(path, geometry)
    assert np.array_equal(back.triangles, mesh16.triangles)
    assert np.array_equal(back.tags, mesh16.tags)
    assert np.allclose(back.vertices, mesh16.vertices, rtol=0, atol=0)
    assert np.array_equal(back.free_nodes, mesh16.free_nodes)
    assert back.geometry == geometry
    head = path.read_text().splitlines()[0].split()
    assert head == [str(len(mesh16.vertices)), str(len(mesh16.triangles))]


def test_mesh_text_bytes_pinned(tmp_path, mesh16):
    # the text format, byte for byte
    path = tmp_path / "mesh.txt"
    fc.write_mesh(mesh16, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "df548a04b63c36af131d8d48b3cebdd9397ec6d29c06df2073b51aab4cfee7a2")


def _written_mesh8(tmp_path, geometry):
    """Path and text rows of a written n_div=8 mesh (145 vertices and 256
    triangles): one header, then the vertex rows, then the triangle rows."""
    path = tmp_path / "mesh.txt"
    fc.write_mesh(fc.generate_mesh(geometry, 8), path)
    return path, path.read_text().splitlines()


def _refused(path, geometry, rows, why):
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + why):
        fc.read_mesh(path, geometry)


def test_read_mesh_refuses_missing_rows(tmp_path, geometry):
    # a file cut short used to read as 251 of the 256 triangles it declares
    path, rows = _written_mesh8(tmp_path, geometry)
    _refused(path, geometry, rows[:-5], "256 triangles")


def test_read_mesh_refuses_empty_mesh(tmp_path, geometry):
    # used to warn that the input held no data, then fail on the shape
    _refused(tmp_path / "mesh.txt", geometry, ["0 0"], "0 vertices and 0 triangles")


def test_read_mesh_refuses_wrong_column_count(tmp_path, geometry):
    path, rows = _written_mesh8(tmp_path, geometry)
    rows[1] += " 0.5"
    _refused(path, geometry, rows, "columns")


def test_read_mesh_refuses_index_out_of_range(tmp_path, geometry):
    # used to fail only inside CellOperators, with a bare IndexError
    path, rows = _written_mesh8(tmp_path, geometry)
    rows[-1] = "0 1 1000000 1"
    _refused(path, geometry, rows, "vertex index")


def test_read_mesh_refuses_unknown_tag(tmp_path, geometry):
    # tag 7 was counted in neither fiber_area() nor matrix_area(), yet
    # assembled as matrix
    path, rows = _written_mesh8(tmp_path, geometry)
    i, j, k, _ = rows[-1].split()
    rows[-1] = f"{i} {j} {k} 7"
    _refused(path, geometry, rows, "tag")


def test_read_mesh_refuses_non_finite_coordinates(tmp_path, geometry):
    # a nan vertex used to build nan operators, refused only by the
    # eigensolver as a singular matrix
    path, rows = _written_mesh8(tmp_path, geometry)
    rows[1] = "nan 0.5"
    _refused(path, geometry, rows, "not finite")


def test_read_mesh_refuses_unused_vertex(tmp_path, geometry):
    # a vertex in no triangle used to read as a free node: mu1_h came out,
    # then the merge failed on an exactly singular K - sigma M
    path, rows = _written_mesh8(tmp_path, geometry)
    rows[0] = "146 256"
    rows.insert(146, "0.5 0.5")
    _refused(path, geometry, rows, "vertex 145 is used by no triangle")


def test_mesh_stores_four_fields(mesh16):
    # a hand-built copy derives the same free nodes as the original
    assert [f.name for f in fields(TriMesh)] == ["vertices", "triangles", "tags",
                                                 "geometry"]
    copy = TriMesh(vertices=mesh16.vertices.copy(), triangles=mesh16.triangles.copy(),
                   tags=mesh16.tags.copy(), geometry=mesh16.geometry)
    assert np.array_equal(copy.free_nodes, mesh16.free_nodes)


def test_replace_derives_areas_afresh(mesh16):
    # the areas cache is no field, so replace cannot carry a stale one over
    mesh16.areas()
    sub = replace(mesh16, triangles=mesh16.triangles[:10], tags=mesh16.tags[:10])
    areas = signed_areas(mesh16.vertices, mesh16.triangles[:10])
    assert np.array_equal(sub.areas(), areas)
    assert sub.fiber_area() == float(areas[sub.tags == FIBER].sum())
    assert sub.matrix_area() == float(areas[sub.tags == MATRIX].sum()) > 0.0


def test_mesh_equality_is_identity(mesh16):
    # field-wise equality compared arrays and raised "truth value of an
    # array is ambiguous"
    copy = replace(mesh16, vertices=mesh16.vertices.copy())
    assert (copy == mesh16) is False
    assert mesh16 == mesh16
    assert len({mesh16, copy}) == 2


def test_unique_edges_shape(mesh16):
    edges = unique_edges(mesh16.triangles)
    assert edges.shape[1] == 2
    assert np.all(edges[:, 0] < edges[:, 1])
    t = mesh16.triangles
    rows = np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    assert np.array_equal(edges, np.unique(rows, axis=0))


def test_quality_h_max(geometry, mesh16):
    q = fc.mesh_quality(mesh16)
    assert q.h_max <= math.sqrt(2) * geometry.side / 16 * 1.5


@pytest.mark.parametrize("block,extra,why", [
    (slice(1, 146), " 0.5", "vertex rows need 2 columns"),
    (slice(146, None), " 0", "triangle rows 4")], ids=["vertices", "triangles"])
def test_read_mesh_refusals(tmp_path, geometry, block, extra, why):
    # every row of a block widened: loadtxt reads it, the column check
    # refuses it (one widened row trips loadtxt first)
    path, rows = _written_mesh8(tmp_path, geometry)
    rows[block] = [row + extra for row in rows[block]]
    _refused(path, geometry, rows, why)


def _images(mesh):
    # the eight symmetries of the square in the row order of d4_permutations
    u, v = (mesh.vertices - 0.5 * mesh.geometry.side).T
    return [(u, v), (-v, u), (-u, -v), (v, -u), (-u, v), (u, -v), (v, u), (-v, -u)]


@pytest.mark.parametrize("radius", [0.2, 0.2496, 0.25, 0.2504])
@pytest.mark.parametrize("n_div", [16, 32])
def test_centred_mesh_has_the_square_symmetries(radius, n_div):
    mesh = fc.generate_mesh(fc.CellGeometry(radius=radius), n_div)
    perms = d4_permutations(mesh)
    assert perms.shape == (8, len(mesh.vertices))
    assert np.array_equal(perms[0], np.arange(len(mesh.vertices)))
    for perm, image in zip(perms, _images(mesh)):
        assert np.array_equal(np.sort(perm), np.arange(len(mesh.vertices)))
        moved = mesh.vertices[perm] - 0.5
        assert np.abs(moved - np.column_stack(image)).max() <= 1e-12
        tris = {tuple(sorted(t)): tag for t, tag in zip(mesh.triangles.tolist(), mesh.tags)}
        assert all(tris[tuple(sorted(perm[t]))] == tag
                   for t, tag in zip(mesh.triangles.tolist(), mesh.tags))


def test_symmetry_survives_the_text_format(tmp_path, geometry, mesh16):
    path = tmp_path / "mesh.txt"
    fc.write_mesh(mesh16, path)
    assert np.array_equal(d4_permutations(fc.read_mesh(path, geometry)),
                          d4_permutations(mesh16))


def test_asymmetric_meshes_have_no_permutations(mesh16):
    off_centre = fc.generate_mesh(fc.CellGeometry(center=(0.5, 0.500001)), 16)
    assert d4_permutations(off_centre) is None
    tags = mesh16.tags.copy()
    tags[np.flatnonzero(tags == FIBER)[0]] = MATRIX
    assert d4_permutations(replace(mesh16, tags=tags)) is None
    far = mesh16.vertices.copy()
    far[0] = (1e12, 1e12)  # outside the cell, so far from its image
    assert d4_permutations(replace(mesh16, vertices=far)) is None


# sha256 of d4_permutations(mesh).tobytes(): the grid's index maps, so one
# digest per n_div at every centred radius
GOLDEN_PERMUTATIONS = {
    16: "6efba372e2c9e25985c736df6841f1f7670f6feed21d9ef0041c3939a20a43c4",
    32: "06ea4cf6dae94caf6a5ffa58eb0e5122522e53724185b8990471ed59afa346e3",
    64: "19b2cde4dde6cb26ab1b826af37a8143f8e58864d7e9b7dde92954ed7e83a729",
    128: "c30f2a37dc1d5d5e6793c64fd88f5ceeefbefaff2c611ac3e646efc6d0e9a819",
}


@pytest.mark.parametrize("radius", [0.2496, 0.25])
@pytest.mark.parametrize("n_div", sorted(GOLDEN_PERMUTATIONS))
def test_golden_permutations(radius, n_div):
    perms = d4_permutations(fc.generate_mesh(fc.CellGeometry(radius=radius), n_div))
    assert hashlib.sha256(perms.tobytes()).hexdigest() == GOLDEN_PERMUTATIONS[n_div]
