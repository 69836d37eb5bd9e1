"""Spectrum of the contrast problem: mode merge, 3D oracle, convergence.

Coefficients depend only on the cross-section and the vertical boundary
condition is Dirichlet, so separated fields w(y) sin(j pi x3 / L) decouple
the 3D problem into one 2D pencil per vertical mode; the 3D spectrum is the
sorted merge over modes.  At the discrete level the same identity is exact
with the Kronecker-assembled tensor pencil and the *discrete* vertical
eigenvalues, which gives the validation oracle.  Convergence machinery
pairs merged eigenvalues with limit roots by mode label and measures the
bound slack, the limit gap and the eigenvector structure errors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import __version__ as _pkg_version
from .assembly import (CellOperators, assemble_1d, assemble_dirichlet_disk,
                       assemble_mode_pencil)
from .eigensolve import (EigenPair, dense_eigen_oracle, smallest_eigenpairs,
                         DENSE_ORACLE_MAX_N)
from .geometry import CellGeometry
from .limit import (DispersionParams, LimitRoot, limit_eigenvalues, u0_eval)
from .mesh import FIBER, MATRIX, TriMesh, generate_mesh


@dataclass
class ModeSpectrum:
    """Eigenpairs of one vertical mode's 2D pencil."""

    eps: float
    j: int
    gamma: float
    pairs: list[EigenPair]
    mesh: TriMesh

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])


@dataclass
class MergedEigenvalue:
    """One entry of the merged spectrum with its mode label."""

    value: float
    j: int
    rank: int  # 1-based rank within mode j
    pair: EigenPair


@dataclass
class ReportRow:
    eps: float
    k: int
    j: int
    rank: int
    lambda_eps: float
    bound: float
    slack: float
    lambda_limit: float
    gap: float
    e_fiber: float
    e_matrix: float


@dataclass
class ConvergenceReport:
    """Rows of the epsilon sweep plus the shared mesh/limit metadata."""

    rows: list[ReportRow]
    geometry: CellGeometry
    n_div: int
    mu1_exact: float
    mu1_discrete: float
    c_h: float
    roots: list[LimitRoot]
    mesh_hash: str = ""
    eig_tol: float = 1e-9
    reorderings: list = field(default_factory=list)

    def write_csv(self, path, config_hash: str = "") -> None:
        with open(path, "w", newline="") as fh:
            if config_hash:
                fh.write(f"# config_hash={config_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["eps", "k", "j", "lambda_eps", "bound", "slack",
                             "lambda_limit", "gap", "e_F", "e_M"])
            for row in self.rows:
                writer.writerow([f"{row.eps:.17g}", row.k, row.j,
                                 f"{row.lambda_eps:.17g}", f"{row.bound:.17g}",
                                 f"{row.slack:.17g}", f"{row.lambda_limit:.17g}",
                                 f"{row.gap:.17g}", f"{row.e_fiber:.17g}",
                                 f"{row.e_matrix:.17g}"])

    def write_json(self, path, config_hash: str = "") -> None:
        payload = {
            "config_hash": config_hash,
            "version": _pkg_version,
            "mesh_hash": self.mesh_hash,
            "n_div": self.n_div,
            "mu1_exact": self.mu1_exact,
            "mu1_discrete": self.mu1_discrete,
            "c_h": self.c_h,
            "eig_tol": self.eig_tol,
            "reorderings": self.reorderings,
            "rows": [{"eps": r.eps, "k": r.k, "j": r.j, "rank": r.rank,
                      "lambda_eps": r.lambda_eps, "bound": r.bound,
                      "slack": r.slack, "lambda_limit": r.lambda_limit,
                      "gap": r.gap, "e_F": r.e_fiber, "e_M": r.e_matrix}
                     for r in self.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def mode_spectrum(mesh: TriMesh, eps: float, j: int, L: float, k: int,
                  tol: float = 1e-9, operators: CellOperators = None) -> ModeSpectrum:
    """k smallest eigenpairs of the pencil of vertical mode j, assembled
    from ``operators`` (the mesh's CellOperators, built here if None)."""
    if j < 1:
        raise ValueError("mode index j must be >= 1")
    gamma = (j * math.pi / L) ** 2
    pencil = assemble_mode_pencil(mesh, eps, gamma, operators=operators)
    pairs = smallest_eigenpairs(pencil.K, pencil.M, k, tol=tol)
    return ModeSpectrum(eps=eps, j=j, gamma=gamma, pairs=pairs, mesh=mesh)


def merged_spectrum(mesh: TriMesh, eps: float, k_total: int,
                    L: float = None, tol: float = 1e-9,
                    operators: CellOperators = None) -> list[MergedEigenvalue]:
    """The k_total smallest values of the per-mode spectra, solved lazily.

    Ties break by (value, j).  Mode pencils increase with j, so
    lambda_r(j) >= lambda_r(j-1): mode j solves only for as many pairs as
    mode j-1 placed in the running top k_total, and the merge is complete
    once a mode places none or its smallest eigenvalue reaches the k-th
    merged value.  That happens by mode k_total at the latest: K grows
    with gamma by at least eps^2 M, so each mode's smallest eigenvalue
    exceeds the previous mode's, and after mode k_total the k_total ground
    values seen so far bound the k-th merged value by mode k_total's own.
    Every mode pencil comes from ``operators`` (built here if None).
    """
    if L is None:
        L = mesh.geometry.height
    if k_total < 1:
        raise ValueError("k_total must be >= 1")
    if operators is None:
        operators = CellOperators(mesh)

    merged: list[MergedEigenvalue] = []
    need = k_total
    for j in range(1, k_total + 1):
        spec = mode_spectrum(mesh, eps, j, L, need, tol=tol, operators=operators)
        merged += [MergedEigenvalue(value=pair.value, j=j, rank=rank, pair=pair)
                   for rank, pair in enumerate(spec.pairs, start=1)]
        merged.sort(key=lambda e: (e.value, e.j, e.rank))
        del merged[k_total:]
        need = sum(e.j == j for e in merged)
        if need == 0 or merged[-1].value <= spec.pairs[0].value:
            break
    return merged


def kron_3d_oracle(mesh: TriMesh, n1d: int, eps: float, L: float,
                   k: int, tol: float = 1e-9,
                   operators: CellOperators = None) -> np.ndarray:
    """k smallest eigenvalues of the unseparated tensor-product pencil

        K3 = K2(1, eps^-2) x M1 + M2(eps^2, 1) x K1,   M3 = M2(1,1) x M1,

    with the 2D factors from ``operators`` (built here if None).  Dense
    when the product size allows it, the ARPACK shift-invert solve of
    ``smallest_eigenpairs`` otherwise.
    """
    if mesh.n_div and mesh.n_div > 40:
        raise ValueError("3D oracle is restricted to coarse meshes (n_div <= 40)")
    if n1d > 32:
        raise ValueError("3D oracle is restricted to n1d <= 32")
    if operators is None:
        operators = CellOperators(mesh)
    K1, M1 = assemble_1d(n1d, L)
    K3 = (sp.kron(operators.stiffness(1.0, eps ** -2), M1)
          + sp.kron(operators.mass(eps ** 2, 1.0), K1)).tocsr()
    M3 = sp.kron(operators.mass(1.0, 1.0), M1).tocsr()
    return _smallest_values(K3, M3, k, tol)


def discrete_mode_merge(mesh: TriMesh, n1d: int, eps: float, L: float,
                        k: int, tol: float = 1e-9,
                        operators: CellOperators = None) -> np.ndarray:
    """Merge of 2D pencil spectra over the *discrete* vertical eigenvalues
    of (K1, M1); equals the 3D tensor spectrum exactly in exact arithmetic.
    Mode pencils come from ``operators`` (built here if None)."""
    if operators is None:
        operators = CellOperators(mesh)
    K1, M1 = assemble_1d(n1d, L)
    gammas, _ = dense_eigen_oracle(K1, M1)
    per_mode = min(k, len(mesh.vertices))
    values = []
    for gamma in gammas:
        pencil = assemble_mode_pencil(mesh, eps, float(gamma), operators=operators)
        values.extend(_smallest_values(pencil.K, pencil.M, per_mode, tol))
    values.sort()
    return np.array(values[:k])


def _smallest_values(K, M, k: int, tol: float) -> np.ndarray:
    """k smallest eigenvalues of the pencil: dense LAPACK when its size
    allows it, the ARPACK shift-invert solve otherwise."""
    if K.shape[0] <= DENSE_ORACLE_MAX_N:
        return dense_eigen_oracle(K, M, count=k)[0]
    return np.array([p.value for p in smallest_eigenpairs(K, M, k, tol=tol)])


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


def midpoint_rule(mesh: TriMesh) -> MidpointRule:
    """The edge-midpoint rule of ``mesh``; build it once per mesh."""
    tri = mesh.triangles
    ends = np.stack([tri, np.roll(tri, -1, axis=1)])      # (2, nt, 3)
    weights = np.repeat(mesh.areas()[:, None] / 3.0, 3, axis=1)
    fiber = mesh.tags == FIBER
    matrix = mesh.tags == MATRIX
    geometry = mesh.geometry
    mids = 0.5 * (mesh.vertices[ends[0][fiber]] + mesh.vertices[ends[1][fiber]])
    rho = np.hypot(mids[..., 0] - geometry.center[0], mids[..., 1] - geometry.center[1])
    return MidpointRule(fiber_ends=ends[:, fiber].reshape(2, -1),
                        fiber_weights=weights[fiber].ravel(),
                        fiber_rho=np.clip(rho, 0.0, geometry.radius).ravel(),
                        matrix_ends=ends[:, matrix].reshape(2, -1),
                        matrix_weights=weights[matrix].ravel())


def eigenvector_error(pair: EigenPair, j: int, root: LimitRoot, mesh: TriMesh,
                      L: float = None, rule: MidpointRule = None):
    """L2 errors of the separated FEM field against the limit eigenvector.

    The FEM pair is scale/sign-aligned to the limit field by the full-cell
    L2 inner product; the vertical factors sin(j pi x3/L) are shared and
    normalized, so both errors reduce to 2D integrals evaluated with the
    edge-midpoint rule ``rule`` of ``mesh`` (built here if None):

    * e_F: relative L2(fiber) error of alpha*w against lam*u0 + 1,
    * e_M: relative L2(matrix) error of alpha*w against the constant 1.
    """
    if root.j != j:
        raise ValueError(f"mode label mismatch: pair from mode {j}, root mode {root.j}")
    if rule is None:
        rule = midpoint_rule(mesh)
    lam = root.lam
    w = pair.vector
    w_f = 0.5 * (w[rule.fiber_ends[0]] + w[rule.fiber_ends[1]])
    w_m = 0.5 * (w[rule.matrix_ends[0]] + w[rule.matrix_ends[1]])
    g = lam * u0_eval(lam, rule.fiber_rho, mesh.geometry.radius) + 1.0
    q_f, q_m = rule.fiber_weights, rule.matrix_weights

    alpha = (q_f @ (w_f * g) + q_m @ w_m) / (q_f @ (w_f * w_f) + q_m @ (w_m * w_m))
    err_f = math.sqrt(q_f @ (alpha * w_f - g) ** 2 / (q_f @ (g * g)))
    err_m = math.sqrt(q_m @ (alpha * w_m - 1.0) ** 2 / q_m.sum())
    return err_f, err_m


def discrete_disk_mu1(mesh: TriMesh, tol: float = 1e-9) -> float:
    """First Dirichlet eigenvalue of the fitted disk on this mesh."""
    K_D, M_D, _ = assemble_dirichlet_disk(mesh)
    return smallest_eigenpairs(K_D, M_D, 1, tol=tol)[0].value


def convergence_sweep(geometry: CellGeometry, eps_list, n_div: int,
                      k_total: int, n_terms: int = 500,
                      eig_tol: float = 1e-9,
                      mesh: TriMesh = None) -> ConvergenceReport:
    """Full epsilon sweep against the limit spectrum.

    The eps values run one after another on one CellOperators set and one
    midpoint rule of the mesh.  Merged eigenvalues pair with the limit
    root of the same mode label j.
    The bound column is mu1 + eps^2 (k pi / L)^2 with the k-th *merged*
    rank, the slack subtracts lambda_eps, and c_h reports the same-mesh
    overestimate of mu1 so the h-effect can be separated from the
    eps-effect.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if mesh is None:
        mesh = generate_mesh(geometry, n_div)
    params = DispersionParams(geometry=geometry, n_terms=n_terms)
    roots = {root.j: root for root in limit_eigenvalues(params, k_total)}
    mu1_h = discrete_disk_mu1(mesh, tol=eig_tol)
    c_h = mu1_h - params.mu1
    L = geometry.height
    operators = CellOperators(mesh)
    rule = midpoint_rule(mesh)

    rows, reorderings = [], []
    for eps in eps_list:
        merged = merged_spectrum(mesh, eps, k_total, L=L, tol=eig_tol,
                                 operators=operators)
        for k, entry in enumerate(merged, start=1):
            lam0_k = (k * math.pi / L) ** 2
            bound = params.mu1 + eps ** 2 * lam0_k
            root = roots[entry.j]
            err_f, err_m = eigenvector_error(entry.pair, entry.j, root, mesh, L,
                                             rule=rule)
            rows.append(ReportRow(
                eps=eps, k=k, j=entry.j, rank=entry.rank,
                lambda_eps=entry.value, bound=bound,
                slack=bound - entry.value, lambda_limit=root.lam,
                gap=abs(entry.value - root.lam),
                e_fiber=err_f, e_matrix=err_m))
            if entry.rank == 1 and entry.j != k:
                reorderings.append({"eps": eps, "k": k, "j": entry.j})

    return ConvergenceReport(rows=rows, geometry=geometry, n_div=n_div,
                             mu1_exact=params.mu1, mu1_discrete=mu1_h,
                             c_h=c_h, roots=list(roots.values()),
                             mesh_hash=mesh.content_hash(), eig_tol=eig_tol,
                             reorderings=reorderings)
