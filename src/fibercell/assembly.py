"""P1 finite-element assembly with material-dependent coefficients.

Element matrices use the exact closed P1 formulas (no quadrature):
stiffness entries (b_i b_j + c_i c_j) / (4A) from the barycentric gradient
components, mass A/12 * [[2,1,1],[1,2,1],[1,1,2]].  ``CellOperators``
scatters them once per mesh into fiber and matrix parts on one sparsity
pattern; material weights, which encode the high-contrast coefficients of
the mode problem, then scale and add those parts.  On a mesh with the
symmetries of the square, the parts are also projected once onto the
orthonormal basis of each D4 symmetry sector, where every pencil is again
a weighted sum of four parts; any other set is its own whole sector.
The projection onto ker K_M, the limit set, holds the fibre's Dirichlet
pencil as its free block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry import is_number
from .mesh import FIBER, TriMesh, d4_permutations

_PARTS = ("stiff_fiber", "stiff_matrix", "mass_fiber", "mass_matrix")
# on the rows of ``d4_permutations`` (rotations by 0, 90, 180, 270 degrees,
# then the reflections u -> -u, v -> -v, across u = v and across u = -v):
# the characters of D4's four 1-dimensional representations, and for its
# 2-dimensional one E the (1, 1) entry, whose projector keeps the functions
# odd in u and even in v
_SECTOR_WEIGHTS = {
    "A1": (1, 1, 1, 1, 1, 1, 1, 1),
    "A2": (1, 1, 1, 1, -1, -1, -1, -1),
    "B1": (1, -1, 1, -1, 1, 1, -1, -1),
    "B2": (1, -1, 1, -1, -1, -1, 1, 1),
    "E": (1, 0, -1, 0, -1, 1, 0, 0),
}


def _element_geometry(mesh: TriMesh):
    p = mesh.vertices[mesh.triangles]
    areas = mesh.areas()
    if not np.all(np.isfinite(areas) & (areas > 0.0)):
        raise ValueError("mesh contains a degenerate, inverted or non-finite triangle")
    # b_i = y_j - y_k, c_i = x_k - x_j, cyclic
    x = p[..., 0]
    y = p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return areas, b, c


def _check_weights(w_fiber: float, w_matrix: float) -> None:
    if not (0.0 < w_fiber < np.inf and 0.0 < w_matrix < np.inf):
        raise ValueError("material weights must be positive and finite")


@dataclass(frozen=True)
class Sector:
    """One symmetry sector of the vertex functions: the span of the
    orthonormal columns of ``basis`` (n x m CSR, at most one nonzero per
    row).  Each eigenpair of a pencil projected onto it stands for
    ``copies`` eigenpairs of the whole pencil; the second copy of a lifted
    vector w is ``w[rotation]``, w turned by 90 degrees."""

    name: str
    basis: sp.csr_matrix
    copies: int = 1
    rotation: np.ndarray = None


def whole_sector(n: int) -> Sector:
    """All n vertex functions as one sector, with basis I."""
    return Sector("whole", sp.identity(n, format="csr"))


def symmetry_sectors(mesh: TriMesh) -> list[Sector]:
    """The sectors A1, A2, B1, B2 and E of the D4 symmetry that
    ``d4_permutations`` finds in ``mesh``, or ``[whole_sector(n)]`` when it
    finds none.

    Each vertex orbit gives a 1-dimensional sector the sum of its
    character over the orbit as a column, normalized, or no column where
    that sum vanishes.  E gets the sums of its (1, 1) entry from the
    orbit's first vertex and from that vertex's mirror across u = v; the
    two are orthogonal, or parallel, and then the second is dropped.
    Columns run in orbit order.  The sector sizes add up to n with E
    counted twice (Bossavit, CMAME 56, 1986)."""
    n = len(mesh.vertices)
    perms = d4_permutations(mesh)
    if perms is None:
        return [whole_sector(n)]
    # every vertex lies in one orbit, so a sum over an orbit has at most one
    # entry per vertex: its weight on the vertices of that orbit
    first, orbit = np.unique(perms.min(axis=0), return_inverse=True)
    sectors = []
    for name, weights in _SECTOR_WEIGHTS.items():
        sums = [np.bincount(perms[:, seeds].ravel(), np.repeat(weights, len(first)), n)
                for seeds in ((first, perms[6, first]) if name == "E" else (first,))]
        # orbit order, and within an orbit the sum from the first vertex first
        slot = np.stack([orbit * 2 + half for half in range(len(sums))])
        weight = np.stack(sums)
        if name == "E":
            parallel = np.bincount(orbit, sums[0] * sums[1], len(first)) != 0
            weight[1, parallel[orbit]] = 0.0
        live = weight != 0.0
        slot, weight = slot[live], weight[live]
        columns, column = np.unique(slot, return_inverse=True)
        norms = np.sqrt(np.bincount(column, weight * weight))
        rows = np.nonzero(live)[1]
        basis = sp.csr_matrix((weight / norms[column], (rows, column)),
                              shape=(n, len(columns)))
        sectors.append(Sector(name, basis, 2, perms[3]) if name == "E"
                       else Sector(name, basis))
    return sectors


class CellOperators:
    """Unit-weight stiffness and mass of the fiber and of the matrix
    triangles, K_F, K_M, M_F, M_M, on one shared CSR pattern.

    Any material-weighted operator is then a sum of ``data`` arrays on that
    pattern; a mode pencil is

        K = K_F + eps^-2 K_M + gamma (eps^2 M_F + M_M),   M = M_F + M_M.

    Every mode pencil is assembled from a set passed in
    (``assemble_mode_pencil``): ``convergence_sweep`` and ``validate``
    build one set per mesh and share it over every pencil and eps of that
    mesh, the disk pencil included: it is the free block of ``limit``, a
    projection of the set.  ``mesh`` is the mesh the set was built from,
    and None for a set made by ``project``.  ``disk_mu1`` maps an
    eigensolver tol to the mesh's discrete disk value, filled by the merge
    that needs it.
    """

    def __init__(self, mesh: TriMesh):
        areas, b, c = _element_geometry(mesh)
        self.mesh = mesh
        self.disk_mu1 = {}
        tri = mesh.triangles
        n = len(mesh.vertices)
        slot = self._pattern(np.repeat(tri, 3, axis=1).ravel() * n
                             + np.tile(tri, (1, 3)).ravel(), n)
        fiber = np.repeat(mesh.tags == FIBER, 9)

        def split(local):
            local = local.ravel()
            return (np.bincount(slot, np.where(fiber, local, 0.0), len(self.indices)),
                    np.bincount(slot, np.where(fiber, 0.0, local), len(self.indices)))

        self.stiff_fiber, self.stiff_matrix = split(
            (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
            / (4.0 * areas)[:, None, None])
        template = (np.ones((3, 3)) + np.eye(3)) / 12.0
        self.mass_fiber, self.mass_matrix = split(areas[:, None, None] * template)

    def _pattern(self, keys: np.ndarray, n: int) -> np.ndarray:
        """Sets the n x n CSR pattern of the entries with keys row * n + col
        and returns each entry's slot in ``data``."""
        # the sorted unique keys are the CSR order of the pattern
        keys, slot = np.unique(keys, return_inverse=True)
        self.shape = (n, n)
        # every operator shares these two arrays, so nothing may sort them
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        return slot

    def project(self, basis) -> CellOperators:
        """This set projected onto the columns of ``basis`` (n x m, sparse
        or dense, at most one stored entry per row): the four parts B^t X B
        on one union m x m pattern, so a pencil of the projected set is
        again a sum of ``data`` arrays.  The parts come out exactly
        symmetric, and with B = I equal to this set's; the projected set
        has no mesh."""
        basis = sp.csr_matrix(basis)
        n, m = basis.shape
        one = np.diff(basis.indptr)
        if n != self.shape[0] or (one > 1).any():
            raise ValueError("basis needs one row per vertex, each with at "
                             "most one stored entry")
        # a row without an entry weighs 0, so its entries of X drop out
        column = np.zeros(n, dtype=np.int64)
        column[one == 1] = basis.indices
        weight = np.zeros(n)
        weight[one == 1] = basis.data
        # X is symmetric, so B^t X B = T + T^t, where T sums the entries
        # i <= j of X, the diagonal halved, each at the (lower, higher) pair
        # of the columns of i and j
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        upper = np.flatnonzero(rows <= self.indices)
        rows, cols = rows[upper], self.indices[upper]
        scale = weight[rows] * weight[cols] * np.where(rows == cols, 0.5, 1.0)
        live = np.flatnonzero(scale)
        upper, scale = upper[live], scale[live]
        a, b = column[rows[live]], column[cols[live]]
        keys, slot = np.unique(np.minimum(a, b) * m + np.maximum(a, b),
                               return_inverse=True)
        lower, higher = np.divmod(keys, m)
        off = np.flatnonzero(lower != higher)
        double = np.where(lower == higher, 2.0, 1.0)
        projected = object.__new__(CellOperators)
        projected.mesh = None
        place = projected._pattern(np.concatenate([keys, higher[off] * m + lower[off]]), m)
        for name in _PARTS:
            t = np.bincount(slot, scale * getattr(self, name)[upper], len(keys))
            setattr(projected, name, np.bincount(
                place, np.concatenate([double * t, t[off]]), len(place)))
        return projected

    @cached_property
    def sectors(self) -> list:
        """(sector, this set projected onto its basis) for each of the
        mesh's ``symmetry_sectors``, projected on first read.  A set that
        is one whole sector, made by ``project`` (no mesh) or of a mesh
        without the D4 symmetry (``d4_permutations`` finds it only in the
        ``structured_mesh`` vertex order), is its own:
        ``[(whole_sector(n), self)]``, with no projection and no copy."""
        sectors = [] if self.mesh is None else symmetry_sectors(self.mesh)
        if len(sectors) < 2:
            return [(whole_sector(self.shape[0]), self)]
        return [(sector, self.project(sector.basis)) for sector in sectors]

    @cached_property
    def limit(self) -> CellOperators:
        """This set projected onto ker K_M, on first read: by Z, whose
        column 0 is the indicator of the nodes of the matrix triangles and
        whose other columns are the unit vectors of the mesh's
        ``free_nodes``, in node order.  Its block ``[1:, 1:]`` is the
        pencil of the free nodes alone, which touch only fiber triangles.
        Raises ValueError on a set made by ``project``, which has no mesh
        to read Z from."""
        if self.mesh is None:
            raise ValueError("a projected operator set has no mesh, so no limit set")
        n, free = self.shape[0], self.mesh.free_nodes
        column = np.zeros(n, dtype=np.int64)
        column[free] = np.arange(1, len(free) + 1)
        return self.project(sp.csr_matrix((np.ones(n), column, np.arange(n + 1)),
                                          shape=(n, len(free) + 1)))

    def _csr(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def stiffness(self, w_fiber: float, w_matrix: float) -> sp.csr_matrix:
        """w_F K_F + w_M K_M."""
        _check_weights(w_fiber, w_matrix)
        return self._csr(w_fiber * self.stiff_fiber + w_matrix * self.stiff_matrix)

    def mass(self, w_fiber: float, w_matrix: float) -> sp.csr_matrix:
        """w_F M_F + w_M M_M."""
        _check_weights(w_fiber, w_matrix)
        return self._csr(w_fiber * self.mass_fiber + w_matrix * self.mass_matrix)


def assemble_mode_pencil(operators: CellOperators, eps: float, gamma: float):
    """Pencil (K, M) of the 2D problem obtained by separating one vertical
    mode: K = stiffness(1, eps^-2) + gamma * mass(eps^2, 1), M = mass(1, 1),
    with weight pairs (fiber, matrix), both CSR on the pattern of
    ``operators``, a mesh's CellOperators set or a projection of one.

    Parameters
    ----------
    operators : CellOperators
        The four unit-weight parts the pencil sums; no part is assembled
        here.
    eps : float in (0, 1]
        Contrast parameter.
    gamma : finite float > 0
        Vertical eigenvalue (j pi / L)^2 of the separated mode
        (``vertical_eigenvalues``); gamma <= 0 would lose positive
        definiteness under the natural lateral boundary.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not (0.0 < gamma < np.inf):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    ops = operators
    return (ops._csr(ops.stiff_fiber + eps ** -2 * ops.stiff_matrix
                     + gamma * (eps ** 2 * ops.mass_fiber + ops.mass_matrix)),
            ops._csr(ops.mass_fiber + ops.mass_matrix))


def assemble_dirichlet_disk(operators: CellOperators):
    """The Dirichlet pencil of the fitted disk: the block ``[1:, 1:]`` of
    ``operators.limit``, unit-weight stiffness and mass over the mesh's
    ``free_nodes``, where ker K_M, the kernel of the matrix stiffness,
    leaves a function free.  They touch no matrix triangle, so the nodes
    of the matrix triangles carry the homogeneous Dirichlet condition,
    and the first eigenvalue of the pair is mu1_h, the pole of delta_h,
    the mesh copy of delta.

    Returns
    -------
    (K_D, M_D, free) where ``free`` maps reduced indices to mesh vertex
    indices.

    Raises
    ------
    ValueError
        If ``operators`` has no mesh (``CellOperators.limit``); if the
        mesh's tags hold no fiber triangle; if a free node is not joined to
        column 0 of the limit set, the matrix nodes, in the graph of its
        mass (a connected part of the fiber with no vertex on a matrix
        triangle: no node of it would carry the Dirichlet condition, and
        K_D would be singular); or if fewer than 2 nodes are free, which
        leaves no pencil to solve.
    """
    from scipy.sparse.csgraph import connected_components

    limit = operators.limit
    if not (operators.mesh.tags == FIBER).any():
        raise ValueError("mesh has no fiber triangles")
    M = limit.mass(1.0, 1.0)
    if connected_components(M, directed=False)[0] > 1:
        raise ValueError("no fiber/matrix interface on a part of the fiber: none "
                         "of its vertices touches a matrix triangle, so none "
                         "carries the Dirichlet condition")
    free = operators.mesh.free_nodes
    if len(free) < 2:
        raise ValueError(f"{len(free)} interior disk node, too few for a disk pencil"
                         if len(free) else "no interior disk nodes; mesh too coarse")
    return limit.stiffness(1.0, 1.0)[1:, 1:], M[1:, 1:], free


def assemble_1d(n: int, L: float):
    """P1 matrices of -d^2/dx^2 on (0, L), Dirichlet rows eliminated.

    Returns the (n-1) x (n-1) tridiagonal pair
    K1 = (1/h) tridiag(-1, 2, -1), M1 = (h/6) tridiag(1, 4, 1).  Raises
    ValueError unless n is an int >= 2 and L a number > 0 by
    ``is_number``.
    """
    if not (is_number(n, int) and n >= 2):
        raise ValueError(f"need at least 2 intervals, and an int, got {n!r}")
    if not (is_number(L) and L > 0):
        raise ValueError(f"L must be a finite number > 0, got {L!r}")
    h = L / n
    m = n - 1
    main = np.full(m, 2.0 / h)
    off = np.full(m - 1, -1.0 / h)
    K1 = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    main_m = np.full(m, 2.0 * h / 3.0)
    off_m = np.full(m - 1, h / 6.0)
    M1 = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    return K1, M1

