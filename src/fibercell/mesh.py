"""Boundary-fitted triangulation of the square cell with the disk resolved.

The generator starts from an ``n_div x n_div`` grid, each square split into
four triangles through its center.  Vertices near the circle are projected
radially onto it in two passes (close vertices first, then the nearest
endpoint of every edge the circle still crosses), so that the fiber/matrix
interface becomes a polygon whose vertices all lie on the circle.  Inscribed
sliver triangles produced by snapping are removed by deterministic edge
flips, and the result is rejected unless every triangle keeps a positive
area and a minimum angle above the quality floor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .geometry import CellGeometry

FIBER = 0
MATRIX = 1

MIN_ANGLE_FLOOR = 15.0
_SNAP_FRACTION = 0.25  # pass-1 snap band, relative to grid spacing


class MeshQualityError(RuntimeError):
    """Raised when snapping cannot produce a valid mesh; refine n_div."""


@dataclass
class QualityReport:
    min_angle: float
    max_angle: float
    min_area: float
    h_max: float


@dataclass
class TriMesh:
    """Immutable fitted triangulation of the cell cross-section.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Counter-clockwise vertex triples.
    tags : (nt,) int array
        FIBER (0) or MATRIX (1) per triangle.
    interface_nodes : int array
        Vertex indices lying on the circle |p - center| = radius.
    boundary_nodes : int array
        Vertex indices on the outer square boundary.
    geometry : CellGeometry
    h : float
        Grid spacing side / n_div.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tags: np.ndarray
    interface_nodes: np.ndarray
    boundary_nodes: np.ndarray
    geometry: CellGeometry
    h: float
    n_div: int = 0
    _areas: np.ndarray = field(default=None, repr=False)

    def areas(self) -> np.ndarray:
        if self._areas is None:
            self._areas = signed_areas(self.vertices, self.triangles)
        return self._areas

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


def unique_edges(triangles: np.ndarray) -> np.ndarray:
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    e.sort(axis=1)
    return np.unique(e, axis=0)


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


def generate_mesh(geometry: CellGeometry, n_div: int,
                  min_angle: float = MIN_ANGLE_FLOOR) -> TriMesh:
    """Generate the fitted, tagged triangulation.

    Parameters
    ----------
    geometry : CellGeometry
    n_div : int
        Grid subdivisions per side, at least 8.
    min_angle : float
        Quality floor in degrees; violation raises MeshQualityError.

    Raises
    ------
    ValueError
        If n_div < 8.
    MeshQualityError
        If snapping leaves an inverted or sub-`min_angle` triangle; the
        caller must refine.
    """
    if n_div < 8:
        raise ValueError(f"n_div must be >= 8, got {n_div}")
    vertices, triangles = structured_mesh(geometry.side, n_div)
    h = geometry.side / n_div
    center = np.asarray(geometry.center)
    r = geometry.radius

    vertices = vertices.copy()
    on_circle = _snap_to_circle(vertices, triangles, center, r, h, geometry.side)
    triangles = _repair_triangles(vertices, triangles, on_circle, center, r, h,
                                  min_angle)

    areas = signed_areas(vertices, triangles)
    angles = triangle_angles(vertices, triangles)
    if areas.min() <= 0.0 or angles.min() < min_angle:
        raise MeshQualityError(
            f"snapped mesh quality below floor at n_div={n_div}: "
            f"min area {areas.min():.3e}, min angle {angles.min():.2f} deg; "
            "refine n_div")

    centroids = vertices[triangles].mean(axis=1)
    dist = np.hypot(centroids[:, 0] - center[0], centroids[:, 1] - center[1])
    tags = np.where(dist < r, FIBER, MATRIX).astype(np.int64)

    sd = np.hypot(vertices[:, 0] - center[0], vertices[:, 1] - center[1]) - r
    interface_nodes = np.where(np.abs(sd) <= 1e-12 * geometry.side)[0]
    tol = 1e-12 * geometry.side
    on_bnd = ((np.abs(vertices[:, 0]) <= tol)
              | (np.abs(vertices[:, 0] - geometry.side) <= tol)
              | (np.abs(vertices[:, 1]) <= tol)
              | (np.abs(vertices[:, 1] - geometry.side) <= tol))
    boundary_nodes = np.where(on_bnd)[0]

    return TriMesh(vertices=vertices, triangles=triangles, tags=tags,
                   interface_nodes=interface_nodes, boundary_nodes=boundary_nodes,
                   geometry=geometry, h=h, n_div=n_div)


def _snap_to_circle(vertices, triangles, center, r, h, side) -> np.ndarray:
    """Two-pass radial projection of near-circle vertices onto the circle.

    Pass 1 projects every vertex within h/4 of the circle.  Pass 2 walks the
    remaining crossed edges and projects the endpoint nearest the crossing,
    so every edge the circle crosses ends up with a node on the circle.
    Outer-boundary vertices never move.  Mutates ``vertices``; returns the
    on-circle mask.
    """
    tol = 1e-12 * side
    locked = ((vertices[:, 0] <= tol) | (vertices[:, 0] >= side - tol)
              | (vertices[:, 1] <= tol) | (vertices[:, 1] >= side - tol))

    def project(idx):
        d = np.hypot(*(vertices[idx] - center))
        vertices[idx] = center + (vertices[idx] - center) * (r / d)

    dist = np.hypot(vertices[:, 0] - center[0], vertices[:, 1] - center[1])
    sd = dist - r
    on_circle = np.zeros(len(vertices), dtype=bool)

    pass1 = np.where((np.abs(sd) <= _SNAP_FRACTION * h) & ~locked)[0]
    for idx in pass1:
        project(idx)
        on_circle[idx] = True

    # candidate edges: circle can only cross edges whose endpoints are within
    # one edge length of it
    edges = unique_edges(triangles)
    sd = np.hypot(vertices[:, 0] - center[0], vertices[:, 1] - center[1]) - r
    near = np.abs(sd) <= 1.5 * h
    cand = edges[near[edges[:, 0]] & near[edges[:, 1]]]
    for a, b in cand:
        if on_circle[a] or on_circle[b]:
            continue
        pa, pb = vertices[a], vertices[b]
        sa = np.hypot(*(pa - center)) - r
        sb = np.hypot(*(pb - center)) - r
        if sa * sb >= 0.0:
            continue
        d = pb - pa
        f = pa - center
        qa = d @ d
        qb = 2.0 * (f @ d)
        qc = f @ f - r * r
        disc = qb * qb - 4.0 * qa * qc
        if disc <= 0.0:
            continue
        sq = np.sqrt(disc)
        for t in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)):
            if 0.0 < t < 1.0:
                v = a if t < 0.5 else b
                if locked[v]:
                    v = b if v == a else a
                    if locked[v]:
                        break
                project(v)
                on_circle[v] = True
                break
    return on_circle


def _tri_min_angle(vertices, tri) -> float:
    p = vertices[list(tri)]
    e0, e1, e2 = p[1] - p[0], p[2] - p[1], p[0] - p[2]
    out = []
    for u, v in ((e2, e0), (e0, e1), (e1, e2)):
        c = -(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        out.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return min(out)


def _sarea(vertices, i, j, k) -> float:
    return 0.5 * ((vertices[j][0] - vertices[i][0]) * (vertices[k][1] - vertices[i][1])
                  - (vertices[j][1] - vertices[i][1]) * (vertices[k][0] - vertices[i][0]))


def _repair_triangles(vertices, triangles, on_circle, center, r, h,
                      min_angle, max_sweeps=12):
    """Edge-flip repair of snapping artifacts.

    Snapping can inscribe a whole triangle in the circle (three on-circle
    vertices are nearly collinear) or invert it.  Flipping such a triangle's
    long edge against its off-circle neighbor removes the sliver without
    moving any vertex.  Chords that genuinely separate fiber from matrix
    (both endpoints on the circle, neighbors strictly on opposite sides) are
    never flipped, so interface conformity is preserved.
    """
    tris = [tuple(t) for t in triangles]

    def sdn(i):
        return np.hypot(*(vertices[i] - center)) - r

    for _ in range(max_sweeps):
        candidates = [ti for ti, t in enumerate(tris)
                      if on_circle[list(t)].all()
                      or _sarea(vertices, *t) <= 0.0
                      or _tri_min_angle(vertices, t) < min_angle]
        if not candidates:
            break
        edge_map = {}
        for ti, t in enumerate(tris):
            for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edge_map.setdefault((min(u, v), max(u, v)), []).append(ti)
        touched = set()
        flips = 0
        for ti in candidates:
            if ti in touched:
                continue
            t = tris[ti]
            by_length = sorted(
                ((np.linalg.norm(vertices[t[k]] - vertices[t[(k + 1) % 3]]),
                  (min(t[k], t[(k + 1) % 3]), max(t[k], t[(k + 1) % 3])))
                 for k in range(3)), reverse=True)
            for _, e in by_length:
                a, b = e
                partners = [x for x in edge_map[e] if x != ti]
                if not partners:
                    continue
                tj = partners[0]
                if tj in touched:
                    continue
                p = [x for x in tris[ti] if x not in e][0]
                q = [x for x in tris[tj] if x not in e][0]
                if p == q:
                    continue
                if on_circle[a] and on_circle[b]:
                    sp, sq = sdn(p), sdn(q)
                    if abs(sp) > 1e-9 * h and abs(sq) > 1e-9 * h and sp * sq < 0:
                        continue  # true interface chord
                t1 = (p, q, a) if _sarea(vertices, p, q, a) > 0 else (q, p, a)
                t2 = (p, q, b) if _sarea(vertices, p, q, b) > 0 else (q, p, b)
                if _sarea(vertices, *t1) <= 1e-16 or _sarea(vertices, *t2) <= 1e-16:
                    continue
                if on_circle[list(t1)].all() or on_circle[list(t2)].all():
                    continue
                cur = min(_tri_min_angle(vertices, tris[ti]),
                          _tri_min_angle(vertices, tris[tj]))
                if (_sarea(vertices, *tris[ti]) <= 0.0
                        or _sarea(vertices, *tris[tj]) <= 0.0
                        or on_circle[list(tris[ti])].all()
                        or on_circle[list(tris[tj])].all()):
                    cur = -1.0
                new = min(_tri_min_angle(vertices, t1), _tri_min_angle(vertices, t2))
                if new > cur + 1e-9:
                    tris[ti] = t1
                    tris[tj] = t2
                    touched.update((ti, tj))
                    flips += 1
                    break
        if flips == 0:
            break
    return np.array(tris, dtype=np.int64)


def write_mesh(mesh: TriMesh, path) -> None:
    """Write the text format: header ``nv nt``, then ``x y`` per vertex,
    then ``i j k tag`` per triangle (0-based; tag 0=FIBER, 1=MATRIX)."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.tags):
            fh.write(f"{i} {j} {k} {tag}\n")


def read_mesh(path, geometry: CellGeometry = None) -> TriMesh:
    """Read the text format written by :func:`write_mesh`; ``n_div`` and ``h``
    follow from the grid nodes on the bottom edge."""
    with open(path) as fh:
        nv, nt = map(int, fh.readline().split())
        vertices = np.empty((nv, 2))
        for i in range(nv):
            vertices[i] = [float(v) for v in fh.readline().split()]
        triangles = np.empty((nt, 3), dtype=np.int64)
        tags = np.empty(nt, dtype=np.int64)
        for i in range(nt):
            parts = fh.readline().split()
            triangles[i] = [int(v) for v in parts[:3]]
            tags[i] = int(parts[3])
    # grid nodes on the bottom edge: n_div + 1 of them, spaced by h
    xmin, ymin = vertices.min(axis=0)
    side = vertices[:, 0].max() - xmin
    n_div = int(np.count_nonzero(vertices[:, 1] - ymin <= 1e-12 * side)) - 1
    h = side / n_div
    interface_nodes = np.array([], dtype=np.int64)
    boundary_nodes = np.array([], dtype=np.int64)
    if geometry is not None:
        c = np.asarray(geometry.center)
        sd = np.hypot(vertices[:, 0] - c[0], vertices[:, 1] - c[1]) - geometry.radius
        interface_nodes = np.where(np.abs(sd) <= 1e-12 * geometry.side)[0]
        tol = 1e-12 * geometry.side
        on_bnd = ((np.abs(vertices[:, 0]) <= tol)
                  | (np.abs(vertices[:, 0] - geometry.side) <= tol)
                  | (np.abs(vertices[:, 1]) <= tol)
                  | (np.abs(vertices[:, 1] - geometry.side) <= tol))
        boundary_nodes = np.where(on_bnd)[0]
    return TriMesh(vertices=vertices, triangles=triangles, tags=tags,
                   interface_nodes=interface_nodes, boundary_nodes=boundary_nodes,
                   geometry=geometry, h=h, n_div=n_div)
