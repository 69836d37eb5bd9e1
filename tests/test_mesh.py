import hashlib
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import fibercell as fc
from fibercell import FIBER, MATRIX
from fibercell.mesh import TriMesh, signed_areas, structured_mesh, unique_edges


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
    geometry = fc.build_cell_geometry(center=(0.5, 0.5), radius=radius)
    mesh = fc.generate_mesh(geometry, n_div)
    assert mesh.content_hash() == GOLDEN_HASHES[radius, n_div]


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
    geometry = fc.build_cell_geometry(radius=0.252)
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


def test_interface_nodes_on_circle(geometry, mesh64):
    c = np.asarray(geometry.center)
    pts = mesh64.vertices[mesh64.interface_nodes]
    dist = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
    assert np.all(np.abs(dist - geometry.radius) <= 1e-12 * geometry.side)
    assert len(mesh64.interface_nodes) > 0


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
    assert np.array_equal(back.interface_nodes, mesh16.interface_nodes)
    assert back.geometry == geometry
    head = path.read_text().splitlines()[0].split()
    assert head == [str(len(mesh16.vertices)), str(len(mesh16.triangles))]


def test_mesh_text_bytes_pinned(tmp_path, mesh16):
    # the text format, byte for byte
    path = tmp_path / "mesh.txt"
    fc.write_mesh(mesh16, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "df548a04b63c36af131d8d48b3cebdd9397ec6d29c06df2073b51aab4cfee7a2")


def test_mesh_stores_four_fields(mesh16):
    # a hand-built copy derives the same interface nodes as the original
    assert [f.name for f in fields(TriMesh)] == ["vertices", "triangles", "tags",
                                                 "geometry"]
    copy = TriMesh(vertices=mesh16.vertices.copy(), triangles=mesh16.triangles.copy(),
                   tags=mesh16.tags.copy(), geometry=mesh16.geometry)
    assert np.array_equal(copy.interface_nodes, mesh16.interface_nodes)


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
