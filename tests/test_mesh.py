import math
from collections import Counter

import numpy as np
import pytest

import fibercell as fc
from fibercell import FIBER, MATRIX
from fibercell.mesh import signed_areas, structured_mesh, unique_edges


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
    assert (back.n_div, back.h) == (16, mesh16.h)
    head = path.read_text().splitlines()[0].split()
    assert head == [str(len(mesh16.vertices)), str(len(mesh16.triangles))]


def test_boundary_nodes_count(geometry, mesh16):
    # 4 * n_div grid points on the outer square
    assert len(mesh16.boundary_nodes) == 4 * 16


def test_unique_edges_shape(mesh16):
    edges = unique_edges(mesh16.triangles)
    assert edges.shape[1] == 2
    assert np.all(edges[:, 0] < edges[:, 1])


def test_quality_h_max(geometry, mesh16):
    q = fc.mesh_quality(mesh16)
    assert q.h_max <= math.sqrt(2) * geometry.side / 16 * 1.5
