"""Boundary-fitted triangulation of the square cell with the disk resolved.

The generator starts from an ``n_div x n_div`` grid, each square split into
four triangles through its center.  Vertices near the circle are projected
radially onto it in two passes: first every vertex within h/4 of it, then,
by one array rule over the pass-1 positions, the end nearer the crossing of
every edge the circle still crosses (the first such edge through a vertex
wins).  So the fiber/matrix interface becomes a polygon whose vertices
lie on the circle on every tested mesh with h below the radius; on a
coarser one a vertex of a fiber and a matrix triangle can stay off it.
Inscribed, inverted and low-angle triangles left by snapping are removed
by deterministic edge flips: each sweep scores every triangle once (-1 if
inscribed or inverted, else its minimum angle) and tries flips for those
scoring below the floor one by one; the last sweep's areas and angles
feed the quality gate.  The result is rejected unless every triangle
keeps a positive area and a minimum angle above the floor.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CellGeometry

FIBER = 0
MATRIX = 1

MIN_ANGLE_FLOOR = 15.0
_REPAIR_SWEEPS = 12    # edge-flip sweeps before the quality gate decides
_SNAP_FRACTION = 0.25  # pass-1 snap band, relative to grid spacing


class MeshQualityError(RuntimeError):
    """Raised when the snapped and repaired mesh keeps an inverted triangle
    or one below the minimum-angle floor.  Refining does not always help:
    for some radii every tested n_div fails."""


@dataclass
class QualityReport:
    min_angle: float
    max_angle: float
    min_area: float
    h_max: float


@dataclass(frozen=True)
class MidpointRule:
    """Edge-midpoint quadrature of a mesh (exact for quadratics), split by
    material.  Each point is the midpoint of one triangle edge, given by the
    vertex indices of the edge's two ends and weighted by a third of the
    triangle's area; ``fiber_rho`` is the distance of each fiber point from
    the fiber centre, clipped to [0, r]."""

    fiber_ends: np.ndarray       # (2, n_fiber_points)
    fiber_weights: np.ndarray
    fiber_rho: np.ndarray
    matrix_ends: np.ndarray      # (2, n_matrix_points)
    matrix_weights: np.ndarray


@dataclass(eq=False)
class TriMesh:
    """Fitted triangulation of the cell cross-section.

    The four fields are all a mesh stores; the rest is derived on first
    read and cached, so ``dataclasses.replace`` never carries it over.
    Two meshes are equal only if they are the same object, so a mesh can
    key a set or dict; compare ``content_hash()`` for equal contents.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Counter-clockwise vertex triples.
    tags : (nt,) int array
        FIBER (0) or MATRIX (1) per triangle.
    geometry : CellGeometry
    free_nodes : int array (derived)
        Indices of the vertices of no matrix triangle, in order: where
        ker K_M, the kernel of the matrix stiffness, leaves a function
        free.  Read from ``triangles`` and ``tags`` alone; the other fiber
        vertices are the interface nodes, of a matrix triangle too.
    areas() : (nt,) float array (derived)
        Signed triangle areas.
    midpoint_rule : MidpointRule (derived)
        Edge-midpoint quadrature split by material.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tags: np.ndarray
    geometry: CellGeometry

    @cached_property
    def free_nodes(self) -> np.ndarray:
        matrix = self.triangles[self.tags == MATRIX].ravel()
        return np.flatnonzero(np.bincount(matrix, minlength=len(self.vertices)) == 0)

    @cached_property
    def _areas(self) -> np.ndarray:
        return signed_areas(self.vertices, self.triangles)

    def areas(self) -> np.ndarray:
        return self._areas

    @cached_property
    def midpoint_rule(self) -> MidpointRule:
        tri = self.triangles
        ends = np.stack([tri, np.roll(tri, -1, axis=1)])      # (2, nt, 3)
        weights = np.repeat(self.areas()[:, None] / 3.0, 3, axis=1)
        fiber = self.tags == FIBER
        matrix = self.tags == MATRIX
        g = self.geometry
        mids = 0.5 * (self.vertices[ends[0][fiber]] + self.vertices[ends[1][fiber]])
        rho = np.hypot(mids[..., 0] - g.center[0], mids[..., 1] - g.center[1])
        return MidpointRule(fiber_ends=ends[:, fiber].reshape(2, -1),
                            fiber_weights=weights[fiber].ravel(),
                            fiber_rho=np.clip(rho, 0.0, g.radius).ravel(),
                            matrix_ends=ends[:, matrix].reshape(2, -1),
                            matrix_weights=weights[matrix].ravel())

    def fiber_area(self) -> float:
        return float(self.areas()[self.tags == FIBER].sum())

    def matrix_area(self) -> float:
        return float(self.areas()[self.tags == MATRIX].sum())

    def content_hash(self) -> str:
        """SHA-256 over vertex coordinates, connectivity and tags."""
        hsh = hashlib.sha256()
        hsh.update(np.ascontiguousarray(self.vertices).tobytes())
        hsh.update(np.ascontiguousarray(self.triangles).tobytes())
        hsh.update(np.ascontiguousarray(self.tags).tobytes())
        return hsh.hexdigest()


def structured_mesh(side: float, n_div: int):
    """Uniform criss-cross grid: corners plus square centers, 4 triangles
    per square.  Returns (vertices, triangles)."""
    h = side / n_div
    xs = np.linspace(0.0, side, n_div + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    corners = np.column_stack([gx.ravel(), gy.ravel()])
    cs = (xs[:-1] + xs[1:]) / 2.0
    cx, cy = np.meshgrid(cs, cs, indexing="ij")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    vertices = np.vstack([corners, centers])

    ncor = (n_div + 1) ** 2
    ii, jj = np.meshgrid(np.arange(n_div), np.arange(n_div), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    a = ii * (n_div + 1) + jj
    b = (ii + 1) * (n_div + 1) + jj
    c = (ii + 1) * (n_div + 1) + jj + 1
    d = ii * (n_div + 1) + jj + 1
    p = ncor + ii * n_div + jj
    triangles = np.empty((4 * n_div * n_div, 3), dtype=np.int64)
    triangles[0::4] = np.column_stack([a, b, p])
    triangles[1::4] = np.column_stack([b, c, p])
    triangles[2::4] = np.column_stack([c, d, p])
    triangles[3::4] = np.column_stack([d, a, p])
    return vertices, triangles


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))


def triangle_angles(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """All interior angles in degrees, shape (nt, 3)."""
    p = vertices[triangles]
    e0 = p[:, 1] - p[:, 0]
    e1 = p[:, 2] - p[:, 1]
    e2 = p[:, 0] - p[:, 2]

    def ang(u, v):
        cosv = -(u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        return np.degrees(np.arccos(np.clip(cosv, -1.0, 1.0)))

    return np.column_stack([ang(e2, e0), ang(e0, e1), ang(e1, e2)])


def _edge_keys(triangles: np.ndarray, nv: int) -> np.ndarray:
    """Undirected edge keys ``min * nv + max``, edges (0,1), (1,2), (2,0) of
    each triangle in row order: entry ``3 * ti + k`` belongs to triangle ti."""
    t = np.asarray(triangles, dtype=np.int64)
    u, v = t, np.roll(t, -1, axis=1)
    return (np.minimum(u, v) * nv + np.maximum(u, v)).ravel()


def unique_edges(triangles: np.ndarray) -> np.ndarray:
    """Sorted ``(a, b)`` rows, a < b, one per undirected edge."""
    nv = int(np.max(triangles)) + 1
    keys = np.unique(_edge_keys(triangles, nv))
    return np.column_stack([keys // nv, keys % nv])


def _signed_distance(points, center, radius) -> np.ndarray:
    return np.hypot(points[:, 0] - center[0], points[:, 1] - center[1]) - radius


def mesh_quality(mesh) -> QualityReport:
    """Angle/area/size summary of a mesh.

    Accepts a :class:`TriMesh` or a ``(vertices, triangles)`` pair.
    Raises ValueError on an empty mesh.
    """
    if isinstance(mesh, TriMesh):
        vertices, triangles = mesh.vertices, mesh.triangles
    else:
        vertices, triangles = mesh
    triangles = np.asarray(triangles)
    if triangles.size == 0:
        raise ValueError("mesh has no triangles")
    angles = triangle_angles(vertices, triangles)
    areas = signed_areas(vertices, triangles)
    p = vertices[triangles]
    lengths = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1)], axis=1)
    return QualityReport(min_angle=float(angles.min()),
                         max_angle=float(angles.max()),
                         min_area=float(areas.min()),
                         h_max=float(lengths.max()))


def generate_mesh(geometry: CellGeometry, n_div: int) -> TriMesh:
    """Generate the fitted, tagged triangulation.

    Parameters
    ----------
    geometry : CellGeometry
    n_div : int
        Grid subdivisions per side, at least 8.

    Raises
    ------
    ValueError
        If n_div < 8.
    MeshQualityError
        If snapping and repair leave an inverted triangle or one with an
        angle below ``MIN_ANGLE_FLOOR`` degrees; the message names the
        worst one.
    """
    if n_div < 8:
        raise ValueError(f"n_div must be >= 8, got {n_div}")
    vertices, triangles = structured_mesh(geometry.side, n_div)
    h = geometry.side / n_div
    center = np.asarray(geometry.center)
    r = geometry.radius

    on_circle = _snap_to_circle(vertices, triangles, center, r, h, geometry.side)
    triangles, areas, angles = _repair_triangles(vertices, triangles, on_circle,
                                                 center, r, h)
    if areas.min() <= 0.0 or angles.min() < MIN_ANGLE_FLOOR:
        worst = int(np.argmin(np.where(areas <= 0.0, -1.0, angles)))
        x, y = vertices[triangles[worst]].mean(axis=0)
        raise MeshQualityError(
            f"snapped mesh below the quality floor at n_div={n_div}, radius "
            f"{r:g}: triangle {worst} at centroid ({x:.6f}, {y:.6f}) has min "
            f"angle {angles[worst]:.2f} deg (floor {MIN_ANGLE_FLOOR:g}) and area "
            f"{areas[worst]:.3e}")

    centroids = vertices[triangles].mean(axis=1)
    tags = np.where(_signed_distance(centroids, center, r) < 0.0,
                    FIBER, MATRIX).astype(np.int64)
    return TriMesh(vertices=vertices, triangles=triangles, tags=tags,
                   geometry=geometry)


def _snap_to_circle(vertices, triangles, center, r, h, side) -> np.ndarray:
    """Two-pass radial projection of near-circle vertices onto the circle.

    Pass 1 projects every vertex within h/4 of the circle.  Pass 2 reads
    only pass-1 positions: an edge crosses where its ends' signed distances
    have opposite signs and neither end is on the circle.  Its nearer end to
    the crossing (the root t in (0, 1) of |a + t(b - a) - c| = r; a when
    t < 0.5) is projected, or the other end if that one is on the cell
    boundary, or neither if both are.  The first crossing edge through a
    vertex in edge order wins, so every crossed edge ends up with a node on
    the circle.  Boundary vertices never move.  Mutates ``vertices``;
    returns the on-circle mask.
    """
    tol = 1e-12 * side
    locked = ((np.abs(vertices) <= tol) | (np.abs(vertices - side) <= tol)).any(axis=1)

    def project(idx):
        d = vertices[idx] - center
        vertices[idx] = center + d * (r / np.hypot(d[..., 0], d[..., 1]))[..., None]

    sd = _signed_distance(vertices, center, r)
    on_circle = (np.abs(sd) <= _SNAP_FRACTION * h) & ~locked
    project(np.flatnonzero(on_circle))

    a, b = unique_edges(triangles).T
    cross = (sd[a] * sd[b] < 0.0) & ~on_circle[a] & ~on_circle[b]
    a, b = a[cross], b[cross]
    f, d = vertices[a] - center, vertices[b] - vertices[a]
    qa, qb = (d * d).sum(axis=1), 2.0 * (f * d).sum(axis=1)
    qc = (f * f).sum(axis=1) - r * r
    t = (-qb - np.sign(qc) * np.sqrt(qb * qb - 4.0 * qa * qc)) / (2 * qa)
    v = np.where(t < 0.5, a, b)
    v = np.where(locked[v], a + b - v, v)
    moved = []
    for i, j, k in zip(a.tolist(), b.tolist(), v.tolist()):
        if not (locked[k] or on_circle[i] or on_circle[j]):
            on_circle[k] = True
            moved.append(k)
    project(np.array(moved, dtype=np.int64))
    return on_circle


def _repair_triangles(vertices, triangles, on_circle, center, r, h):
    """Edge-flip repair of snapping artifacts.

    Snapping can inscribe a whole triangle in the circle (three on-circle
    vertices are nearly collinear) or invert it.  Flipping such a triangle's
    long edge against its off-circle neighbor removes the sliver without
    moving any vertex.  Chords that genuinely separate fiber from matrix
    (both endpoints on the circle, neighbors strictly on opposite sides) are
    never flipped, so interface conformity is preserved.

    Each sweep scores every triangle (-1 if inscribed or inverted, else
    its minimum angle) and visits those below ``MIN_ANGLE_FLOOR`` in index
    order, with edge partners from the adjacency at the sweep's start; a
    flip must raise the pair's lower score, and a flipped triangle is not
    touched again in the sweep.  Returns the triangles with the signed
    areas and minimum angles of the last sweep, which the gate reads.
    """
    tris = np.array(triangles, dtype=np.int64)
    nv = len(vertices)
    sdn = _signed_distance(vertices, center, r)
    for sweep in range(_REPAIR_SWEEPS + 1):
        areas = signed_areas(vertices, tris)
        angles = triangle_angles(vertices, tris).min(axis=1)
        score = np.where(on_circle[tris].all(axis=1) | (areas <= 0.0), -1.0, angles)
        candidates = np.flatnonzero(score < MIN_ANGLE_FLOOR)
        if sweep == _REPAIR_SWEEPS or not candidates.size:
            break
        keys = _edge_keys(tris, nv)
        order = np.argsort(keys, kind="stable")
        sorted_keys, owner = keys[order], order // 3
        touched = set()
        for ti in candidates.tolist():
            if ti in touched:
                continue
            t = tris[ti].tolist()
            by_length = sorted(
                ((np.linalg.norm(vertices[t[k]] - vertices[t[(k + 1) % 3]]),
                  (min(t[k], t[(k + 1) % 3]), max(t[k], t[(k + 1) % 3])))
                 for k in range(3)), reverse=True)
            for _, (a, b) in by_length:
                lo, hi = np.searchsorted(sorted_keys, [a * nv + b, a * nv + b + 1])
                partners = [x for x in owner[lo:hi].tolist() if x != ti]
                if not partners or partners[0] in touched:
                    continue
                tj = partners[0]
                p = [x for x in t if x not in (a, b)][0]
                q = [x for x in tris[tj].tolist() if x not in (a, b)][0]
                if p == q:
                    continue
                if on_circle[a] and on_circle[b]:
                    sp, sq = sdn[p], sdn[q]
                    if abs(sp) > 1e-9 * h and abs(sq) > 1e-9 * h and sp * sq < 0:
                        continue  # true interface chord
                s = signed_areas(vertices, np.array([[p, q, a], [p, q, b]]))
                new = np.array([(p, q, x) if sx > 0 else (q, p, x)
                                for x, sx in zip((a, b), s)])
                if ((signed_areas(vertices, new) <= 1e-16).any()
                        or on_circle[new].all(axis=1).any()):
                    continue
                cur = min(score[ti], score[tj])
                if triangle_angles(vertices, new).min() > cur + 1e-9:
                    tris[[ti, tj]] = new
                    touched.update((ti, tj))
                    break
        if not touched:
            break
    return tris, areas, angles


def d4_permutations(mesh: TriMesh):
    """The eight symmetries of the square cell as vertex permutations, or
    None when the mesh does not have them.

    Rows are the rotations by 0, 90, 180 and 270 degrees about the cell
    centre, then the reflections u -> -u, v -> -v, (u, v) -> (v, u) and
    (u, v) -> (-v, -u) of the centred coordinates (u, v); ``perms[g, i]``
    is the vertex that g moves vertex i onto.  The two generators, the 90
    degree rotation and u -> -u, are the index maps of the
    ``structured_mesh`` grid, whose vertex order snapping, repair and the
    text format all keep: with nv = 2 n^2 + 2 n + 1, corner (i, j) is
    vertex i (n + 1) + j and square centre (i, j) is (n + 1)^2 + i n + j;
    the rotation sends corner (i, j) to (n - j, i) and centre (i, j) to
    (n - 1 - j, i), the reflection corner (i, j) to (n - i, j) and centre
    (i, j) to (n - 1 - i, j).  The mesh has the symmetry when each
    generator moves every vertex within 1e-12 * side of its image and
    every triangle onto a triangle with the same tag, so a mesh with an
    off-centre fibre, a re-tagged triangle or another vertex order gets
    None; the other six rows are the generators' products.
    """
    nv = len(mesh.vertices)
    n = (math.isqrt(max(2 * nv - 1, 0)) - 1) // 2
    if 2 * n * n + 2 * n + 1 != nv:
        return None
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    ci, cj = np.divmod(np.arange(n * n), n)

    def grid(corner, centre):
        # the vertex index of each corner's and each centre's image (i, j)
        return np.concatenate([corner[0] * (n + 1) + corner[1],
                               (n + 1) ** 2 + centre[0] * n + centre[1]])

    rot = grid((n - j, i), (n - 1 - cj, ci))
    flip = grid((n - i, j), (n - 1 - ci, cj))
    side = mesh.geometry.side
    centred = mesh.vertices - 0.5 * side
    u, v = centred.T

    def triangle_keys(triangles):
        # sorted, one per triangle from its sorted vertices and its tag (0 or 1)
        t = np.sort(triangles, axis=1)
        return np.sort(((t[:, 0] * nv + t[:, 1]) * nv + t[:, 2]) * 2 + mesh.tags)

    keys = triangle_keys(mesh.triangles)

    def symmetry(perm, x, y):
        return (np.abs(centred[perm] - np.column_stack([x, y])).max() <= 1e-12 * side
                and np.array_equal(triangle_keys(perm[mesh.triangles]), keys))

    if not (symmetry(rot, -v, u) and symmetry(flip, -u, v)):
        return None
    rot2 = rot[rot]
    rot3 = rot[rot2]
    # g after h moves vertex i onto perm_g[perm_h[i]]
    return np.array([np.arange(nv), rot, rot2, rot3,
                     flip, rot2[flip], rot3[flip], rot[flip]])


def write_mesh(mesh: TriMesh, path) -> None:
    """Write the text format: header ``nv nt``, then ``x y`` per vertex,
    then ``i j k tag`` per triangle (0-based; tag 0=FIBER, 1=MATRIX)."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, np.column_stack([mesh.triangles, mesh.tags]), fmt="%d")


def read_mesh(path, geometry: CellGeometry) -> TriMesh:
    """Read the text format written by :func:`write_mesh` as a mesh of the
    cell ``geometry``; nothing is inferred from the file.

    Raises ValueError, naming the path, unless the header ``nv nt`` (both
    positive) is followed by exactly nv vertex rows of 2 finite coordinates
    and nt triangle rows of 4, every vertex index lies in [0, nv), every
    vertex is used by a triangle and every tag is FIBER or MATRIX.
    """
    with open(path) as fh:
        header, rows = fh.readline(), fh.read().splitlines()
    try:
        nv, nt = map(int, header.split())
        if nv < 1 or nt < 1:
            raise ValueError(f"the header declares {nv} vertices and {nt} triangles")
        if len(rows) != nv + nt:
            raise ValueError(f"the header declares {nv} vertices and {nt} "
                             f"triangles, but {len(rows)} rows follow it")
        vertices = np.loadtxt(rows[:nv], ndmin=2)
        table = np.loadtxt(rows[nv:], dtype=np.int64, ndmin=2)
        if vertices.shape[1] != 2 or table.shape[1] != 4:
            raise ValueError("vertex rows need 2 columns and triangle rows 4")
        if not np.isfinite(vertices).all():
            raise ValueError("a vertex coordinate is not finite")
        if table[:, :3].min() < 0 or table[:, :3].max() >= nv:
            raise ValueError(f"a vertex index lies outside [0, {nv})")
        if len(unused := np.setdiff1d(np.arange(nv), table[:, :3])):
            raise ValueError(f"vertex {unused[0]} is used by no triangle")
        if not np.isin(table[:, 3], (FIBER, MATRIX)).all():
            raise ValueError(f"a tag is neither {FIBER} (fiber) nor {MATRIX} (matrix)")
    except ValueError as err:
        raise ValueError(f"mesh file {path}: {err}") from None
    return TriMesh(vertices=vertices, triangles=table[:, :3].copy(),
                   tags=table[:, 3].copy(), geometry=geometry)
