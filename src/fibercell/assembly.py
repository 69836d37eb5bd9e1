"""P1 finite-element assembly with material-dependent coefficients.

Element matrices use the exact closed P1 formulas (no quadrature):
stiffness entries (b_i b_j + c_i c_j) / (4A) from the barycentric gradient
components, mass A/12 * [[2,1,1],[1,2,1],[1,1,2]].  ``CellOperators``
scatters them once per mesh into fiber and matrix parts on one sparsity
pattern; material weights, which encode the high-contrast coefficients of
the mode problem, then scale and add those parts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from .mesh import FIBER, TriMesh


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
    if w_fiber <= 0 or w_matrix <= 0:
        raise ValueError("material weights must be positive")


class CellOperators:
    """Unit-weight stiffness and mass of the fiber and of the matrix
    triangles, K_F, K_M, M_F, M_M, on one shared CSR pattern.

    Any material-weighted operator is then a sum of ``data`` arrays on that
    pattern; a mode pencil is

        K = K_F + eps^-2 K_M + gamma (eps^2 M_F + M_M),   M = M_F + M_M.

    The production path (``convergence_sweep``) builds one set per mesh
    and passes it to every pencil of that mesh; the oracles build their
    own.
    """

    def __init__(self, mesh: TriMesh):
        areas, b, c = _element_geometry(mesh)
        n = len(mesh.vertices)
        tri = mesh.triangles
        # sorted unique row * n + col keys are the CSR order of the pattern;
        # ``slot`` sends every local entry to its place in ``data``
        keys, slot = np.unique(np.repeat(tri, 3, axis=1).ravel() * n
                               + np.tile(tri, (1, 3)).ravel(), return_inverse=True)
        self.shape = (n, n)
        # every operator shares these two arrays, so nothing may sort them
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        fiber = np.repeat(mesh.tags == FIBER, 9)
        nnz = len(keys)

        def split(local):
            local = local.ravel()
            return (np.bincount(slot, np.where(fiber, local, 0.0), nnz),
                    np.bincount(slot, np.where(fiber, 0.0, local), nnz))

        self.stiff_fiber, self.stiff_matrix = split(
            (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
            / (4.0 * areas)[:, None, None])
        template = (np.ones((3, 3)) + np.eye(3)) / 12.0
        self.mass_fiber, self.mass_matrix = split(areas[:, None, None] * template)

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


def assemble_mode_pencil(mesh: TriMesh, eps: float, gamma: float,
                         operators: CellOperators = None):
    """Pencil (K, M) of the 2D problem obtained by separating one vertical
    mode: K = stiffness(1, eps^-2) + gamma * mass(eps^2, 1), M = mass(1, 1),
    with weight pairs (fiber, matrix), both CSR on the operators' pattern.

    Parameters
    ----------
    eps : float in (0, 1]
        Contrast parameter.
    gamma : float > 0
        Vertical eigenvalue (j pi / L)^2 of the separated mode; gamma <= 0
        would lose positive definiteness under the natural lateral boundary.
    operators : CellOperators of ``mesh``, optional
        Built here, and dropped after the call, when not given.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    ops = CellOperators(mesh) if operators is None else operators
    K = ops._csr(ops.stiff_fiber + eps ** -2 * ops.stiff_matrix
                 + gamma * (eps ** 2 * ops.mass_fiber + ops.mass_matrix))
    M = ops._csr(ops.mass_fiber + ops.mass_matrix)
    return K, M


def assemble_dirichlet_disk(mesh: TriMesh):
    """Unit-weight stiffness/mass over the fiber triangles, restricted to
    nodes strictly inside the disk (interface nodes carry the homogeneous
    Dirichlet condition).

    Returns
    -------
    (K_D, M_D, interior) where ``interior`` maps reduced indices to mesh
    vertex indices.
    """
    fiber_tris = mesh.triangles[mesh.tags == FIBER]
    if len(fiber_tris) == 0:
        raise ValueError("mesh has no fiber triangles")
    used = np.unique(fiber_tris)
    on_interface = np.zeros(len(mesh.vertices), dtype=bool)
    on_interface[mesh.interface_nodes] = True
    interior = used[~on_interface[used]]
    if len(interior) == 0:
        raise ValueError("no interior disk nodes; mesh too coarse")

    ops = CellOperators(replace(mesh, triangles=fiber_tris,
                                tags=np.full(len(fiber_tris), FIBER)))
    K_D = ops.stiffness(1.0, 1.0)[interior][:, interior].tocsr()
    M_D = ops.mass(1.0, 1.0)[interior][:, interior].tocsr()
    return K_D, M_D, interior


def assemble_1d(n: int, L: float):
    """P1 matrices of -d^2/dx^2 on (0, L), Dirichlet rows eliminated.

    Returns the (n-1) x (n-1) tridiagonal pair
    K1 = (1/h) tridiag(-1, 2, -1), M1 = (h/6) tridiag(1, 4, 1).
    """
    if n < 2:
        raise ValueError(f"need at least 2 intervals, got {n}")
    h = L / n
    m = n - 1
    main = np.full(m, 2.0 / h)
    off = np.full(m - 1, -1.0 / h)
    K1 = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    main_m = np.full(m, 2.0 * h / 3.0)
    off_m = np.full(m - 1, h / 6.0)
    M1 = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    return K1, M1

