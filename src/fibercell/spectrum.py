"""Spectrum of the contrast problem: mode merge, 3D oracle, convergence.

Coefficients depend only on the cross-section and the vertical boundary
condition is Dirichlet, so separated fields w(y) sin(j pi x3 / L) decouple
the 3D problem into one 2D pencil per vertical mode; the 3D spectrum is the
sorted merge over modes.  On a mesh with the symmetries of the square each
mode pencil is solved on its five D4 sectors, and on any other mesh whole,
in one lazy merge over the (mode, sector) pencils.  At the discrete level
the same identity is exact with the Kronecker-assembled tensor pencil and
the *discrete* vertical eigenvalues: that lazy merge run over them is
judged by the whole tensor pencil, the validation oracle.  Convergence machinery
pairs merged eigenvalues with limit roots by mode label and measures the
bound slack, the limit gap and the eigenvector structure errors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import __version__ as _pkg_version
from .assembly import (CellOperators, assemble_1d, assemble_dirichlet_disk,
                       assemble_mode_pencil, whole_sector)
from .config import write_json as _write_json, write_table
from .eigensolve import (EigenPair, dense_eigen_oracle, residual_gate,
                         smallest_eigenpairs)
from .geometry import CellGeometry, is_number, vertical_eigenvalues
from .limit import (DispersionParams, LimitRoot, limit_eigenvalues, u0_eval)
from .mesh import TriMesh, generate_mesh

logger = logging.getLogger(__name__)


@dataclass
class ModeSpectrum:
    """Eigenpairs of one vertical mode's 2D pencil, ascending; ``values``
    lists their eigenvalues."""

    pairs: list[EigenPair]

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
    """One row of the convergence table.  The fields are the keys of a
    JSON row; all but ``rank`` are the CSV columns, in this order."""

    eps: float
    k: int
    j: int
    rank: int
    lambda_eps: float
    bound: float
    slack: float
    lambda_limit: float
    gap: float
    e_F: float
    e_M: float


_CSV_COLUMNS = tuple(f.name for f in fields(ReportRow) if f.name != "rank")


@dataclass
class ConvergenceReport:
    """Rows of the epsilon sweep plus the shared mesh/limit metadata."""

    rows: list[ReportRow]
    n_div: int
    mu1_exact: float
    mu1_discrete: float
    c_h: float
    roots: list[LimitRoot]
    mesh_hash: str = ""
    eig_tol: float = 1e-9
    reorderings: list = field(default_factory=list)

    def write_csv(self, path, config_hash: str = "") -> None:
        cells = ([getattr(row, name) for name in _CSV_COLUMNS] for row in self.rows)
        write_table(path, _CSV_COLUMNS, cells, config_hash)

    def write_json(self, path, config_hash: str = "") -> None:
        # lambda_limit carries the roots
        payload = asdict(self)
        del payload["roots"]
        _write_json(path, dict(payload, config_hash=config_hash, version=_pkg_version))


def mode_spectrum(mesh: TriMesh, eps: float, j: int, L: float, k: int,
                  tol: float = 1e-9) -> ModeSpectrum:
    """k smallest eigenpairs of the pencil of vertical mode j on a cell of
    height L, gamma_j from ``vertical_eigenvalues``: ``_lazy_merge`` over
    this one mode, on a CellOperators set of ``mesh`` built here."""
    gamma = vertical_eigenvalues(j, L, "mode index j")[-1]
    merged = _lazy_merge(CellOperators(mesh), eps, {j: gamma}, k, tol)
    return ModeSpectrum(pairs=[pair for _, _, pair in merged])


def merged_spectrum(mesh: TriMesh, eps: float, k_total: int, tol: float = 1e-9,
                    operators: CellOperators = None) -> list[MergedEigenvalue]:
    """The k_total smallest values of the per-mode spectra: ``_lazy_merge``
    over modes 1..k_total, gamma_1..gamma_k_total from
    ``vertical_eigenvalues`` at the cell height ``mesh.geometry.height``,
    on ``operators``, the mesh's CellOperators set, built here if None.  A
    caller that passes one set for many eps (``convergence_sweep``) has
    its sector projections and disk value made once.  Ranks count within
    each mode, an E value giving two entries of consecutive rank.

    No mode above k_total is needed: K grows with gamma by at least
    eps^2 M, so each mode's smallest eigenvalue exceeds the previous
    mode's, and after mode k_total the k_total ground values seen so far
    bound the k-th merged value by mode k_total's own.

    The merge runs under the ceiling (mu1_h + eps^2 gamma_k_total)(1 + 1e-8),
    with mu1_h this mesh's disk value (``_disk_mu1``), read from the free
    block of the set's ``limit`` and solved once per set and tol: the
    disk vector vanishes on every matrix node, so its Rayleigh quotient in
    mode j is mu1_h + eps^2 gamma_j and by min-max modes 1..k_total each
    hold a value below the ceiling.  A mesh that
    ``assemble_dirichlet_disk`` refuses is refused here too.

    At eps near 1 more than k_total values of mode 1's first sector lie
    below the ceiling: c = 9 to 11 at k_total 8.  ``smallest_eigenpairs``
    takes up to k_total + 4 of them in one round on the count's factor and
    keeps the k_total smallest, so at eps 1.0 and k_total 8 the merge
    makes 15 ``_symmetric_lu`` calls, the disk solve's among them, against
    14 without the ceiling (and 17 when that pencil paid the count's
    factor and then the shift-0 path), on n_div 12, 16 and 64 alike.  A
    larger c (18 and 21 at k_total 12 on n_div 16 and 64) still takes the
    shift-0 path.  ``validate`` and the ceiling tests run at eps 1.0; the
    default sweep (eps <= 0.4) does not.
    """
    gammas = vertical_eigenvalues(k_total, mesh.geometry.height, "k_total")
    ops = CellOperators(mesh) if operators is None else operators
    ceiling = (_disk_mu1(ops, tol) + eps ** 2 * gammas[-1]) * (1 + 1e-8)
    merged = _lazy_merge(ops, eps, dict(enumerate(gammas, start=1)), k_total, tol,
                         ceiling)
    modes = [j for _, j, _ in merged]
    return [MergedEigenvalue(value=value, j=j, rank=modes[:i].count(j) + 1, pair=pair)
            for i, (value, j, pair) in enumerate(merged)]


def _lazy_merge(operators: CellOperators, eps: float, gammas: dict, k: int,
                tol: float, ceiling: float = None):
    """The k smallest eigenpairs over the mode pencils of the vertical
    eigenvalues ``gammas``, a {label j: gamma_j} map in ascending order of
    gamma_j, as (value, j, pair) sorted by (value, j), each pencil
    assembled from the operator set ``operators``, a mesh's or a
    projection of one.  k must be an int >= 1 by ``is_number`` (so no
    bool), or ValueError is raised.

    Each mode pencil is solved on the symmetry sectors of
    ``operators.sectors``, each a pencil of the projected operator set, in
    order, so mode 1's sector A1 comes first.
    Every (mode, sector) pencil is solved only below the bound
    min(``ceiling``, k-th merged value so far times 1 + 1e-8): the ceiling
    alone until k values are known, and no bound at all while the ceiling
    is None too; the inertia counts of ``smallest_eigenpairs`` fix how
    many it gives before any solve.  The ceiling is the caller's min-max
    bound on the k-th value, so everything below it is found; when fewer
    than k values lie below it, ValueError is raised, never a short list.
    A sector that counts 0 is not solved for any later
    mode: K grows with gamma by at least eps^2 M and the bound never
    rises, so it has none below the bound there either.  The drop is
    exact only for ascending gammas.  The merge ends when no sector is
    left.  A sector pair (value, v) lifts to the vector P v of the whole
    mesh, and an E pair counts twice, its second copy being the first
    turned by 90 degrees.  Each lifted pair's residual is
    taken on the whole pencil: above ``tol`` it raises
    EigenConvergenceError, even where the sector pencil passed.  A set
    without the symmetry (a projection, or a mesh's set that
    ``CellOperators.sectors`` leaves whole), or a k that fills a sector,
    is solved as one sector with P = I on the set itself, which is the
    whole pencil.  One DEBUG log line per
    call gives the ceiling, the pencils solved, the sectors dropped and
    the lifted pairs returned against those kept.
    """
    if not (is_number(k, int) and k >= 1):
        raise ValueError(f"k must be >= 1 and an int, got {k!r}")
    live = operators.sectors
    if any(-(-k // sector.copies) >= sector_ops.shape[0] for sector, sector_ops in live):
        live = [(whole_sector(operators.shape[0]), operators)]
    sectors = len(live)
    top = math.inf if ceiling is None else ceiling
    merged, solved, returned = [], 0, 0
    for j, gamma in gammas.items():
        K, M = assemble_mode_pencil(operators, eps, gamma)
        # built anew, never pruned in place: operators.sectors is cached and
        # serves every eps
        solving, live = live, []
        for sector, sector_ops in solving:
            bound = min(top, merged[-1][0] * (1 + 1e-8)) if len(merged) == k else ceiling
            K_s, M_s = ((K, M) if sector_ops is operators
                        else assemble_mode_pencil(sector_ops, eps, gamma))
            pairs = smallest_eigenpairs(K_s, M_s, -(-k // sector.copies), tol=tol,
                                        below=bound)
            solved += 1
            if pairs:
                live.append((sector, sector_ops))
            for pair in pairs:
                vector = sector.basis @ pair.vector
                copies = [vector] if sector.copies == 1 else [vector, vector[sector.rotation]]
                returned += len(copies)
                merged += [(pair.value, j, residual_gate(K, M, pair.value, v, tol))
                           for v in copies]
            merged.sort(key=lambda entry: entry[:2])
            del merged[k:]
        if not live:
            break
    logger.debug("merge eps=%g k=%d ceiling=%s: %d pencils solved, %d sectors "
                 "dropped, %d pairs returned, %d kept", eps, k, ceiling, solved,
                 sectors - len(live), returned, len(merged))
    if len(merged) < k:
        raise ValueError(f"the merge found {len(merged)} of {k} values below the "
                         f"ceiling {ceiling:.10g}: it is no bound on the {k}-th value")
    return merged


def kron_3d_oracle(mesh: TriMesh, n1d: int, eps: float, k: int) -> np.ndarray:
    """k smallest eigenvalues of the unseparated tensor-product pencil

        K3 = K2(1, eps^-2) x M1 + M2(eps^2, 1) x K1,   M3 = M2(1,1) x M1,

    with the 2D factors from a CellOperators set built here and the 1D
    factors on n1d intervals of the height ``mesh.geometry.height``, by the
    ARPACK shift-invert solve of ``smallest_eigenpairs`` at every size.
    Refuses eps outside (0, 1], a mesh with more vertices than the n_div =
    40 grid has, 41^2 + 40^2 = 3281, whether generated or read, and
    n1d > 32.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if len(mesh.vertices) > 41 ** 2 + 40 ** 2:
        raise ValueError("3D oracle is restricted to coarse meshes (n_div <= 40)")
    if n1d > 32:
        raise ValueError("3D oracle is restricted to n1d <= 32")
    operators = CellOperators(mesh)
    K1, M1 = assemble_1d(n1d, mesh.geometry.height)
    K3 = (sp.kron(operators.stiffness(1.0, eps ** -2), M1)
          + sp.kron(operators.mass(eps ** 2, 1.0), K1)).tocsr()
    M3 = sp.kron(operators.mass(1.0, 1.0), M1).tocsr()
    return np.array([p.value for p in smallest_eigenpairs(K3, M3, k)])


def discrete_mode_merge(mesh: TriMesh, n1d: int, eps: float, k: int) -> np.ndarray:
    """The k smallest values of the production merge ``_lazy_merge`` run
    over the *discrete* vertical eigenvalues gamma_i of (K1, M1) on n1d
    intervals of the height ``mesh.geometry.height``, labelled i = 1, 2, ...
    in ascending order; equals the 3D tensor spectrum exactly in exact
    arithmetic.  It has the production contract: it refuses k >= the
    vertex count, and raises EigenConvergenceError where a pair misses the
    residual gate at tol 1e-9."""
    K1, M1 = assemble_1d(n1d, mesh.geometry.height)
    gammas = dense_eigen_oracle(K1, M1)[0].tolist()
    merged = _lazy_merge(CellOperators(mesh), eps, dict(enumerate(gammas, start=1)),
                         k, 1e-9)
    return np.array([value for value, _, _ in merged])


def eigenvector_error(pair: EigenPair, j: int, root: LimitRoot, mesh: TriMesh):
    """L2 errors of the separated FEM field against the limit eigenvector,
    (lam*u0 + 1) v_j on the fiber and v_j on the matrix.

    The FEM pair is scale/sign-aligned to the limit field by the full-cell
    L2 inner product; the vertical factors sin(j pi x3/L) are shared and
    normalized, so both errors reduce to 2D integrals evaluated with the
    edge-midpoint rule ``mesh.midpoint_rule`` (built on first read, then
    cached on the mesh):

    * e_F: relative L2(fiber) error of alpha*w against lam*u0 + 1,
    * e_M: relative L2(matrix) error of alpha*w against the constant 1.
    """
    if root.j != j:
        raise ValueError(f"mode label mismatch: pair from mode {j}, root mode {root.j}")
    rule = mesh.midpoint_rule
    lam = root.lam
    w = pair.vector
    w_f = 0.5 * (w[rule.fiber_ends[0]] + w[rule.fiber_ends[1]])
    w_m = 0.5 * (w[rule.matrix_ends[0]] + w[rule.matrix_ends[1]])
    g = lam * u0_eval(lam, rule.fiber_rho, mesh.geometry.radius) + 1.0
    q_f, q_m = rule.fiber_weights, rule.matrix_weights

    def dot(a, b):
        # numpy's pairwise sum, not BLAS ddot, which threads long vectors:
        # the same bits at every BLAS thread count
        return np.sum(a * b)

    alpha = ((dot(q_f, w_f * g) + dot(q_m, w_m))
             / (dot(q_f, w_f * w_f) + dot(q_m, w_m * w_m)))
    err_f = math.sqrt(dot(q_f, (alpha * w_f - g) ** 2) / dot(q_f, g * g))
    err_m = math.sqrt(dot(q_m, (alpha * w_m - 1.0) ** 2) / q_m.sum())
    return err_f, err_m


def discrete_disk_mu1(mesh: TriMesh, tol: float = 1e-9) -> float:
    """mu1_h, the first Dirichlet eigenvalue of the fitted disk on this
    mesh and the pole of delta_h, the mesh copy of delta: ``_disk_mu1`` on
    a CellOperators set of ``mesh`` built here.  The disk interior is the
    mesh's ``free_nodes``, where ker K_M leaves a function free
    (``assemble_dirichlet_disk``)."""
    return _disk_mu1(CellOperators(mesh), tol)


def _disk_mu1(operators: CellOperators, tol: float) -> float:
    """The smallest eigenvalue at ``tol`` of the disk pencil of the
    operator set, the free block of ``operators.limit``
    (``assemble_dirichlet_disk``), kept in ``operators.disk_mu1`` so the
    eps of one sweep share one solve."""
    if tol not in operators.disk_mu1:
        K_D, M_D, _ = assemble_dirichlet_disk(operators)
        operators.disk_mu1[tol] = smallest_eigenpairs(K_D, M_D, 1, tol=tol)[0].value
    return operators.disk_mu1[tol]


def convergence_sweep(geometry: CellGeometry, eps_list, n_div: int, k_total: int,
                      eig_tol: float = 1e-9,
                      root_tol: float = 1e-12) -> ConvergenceReport:
    """Full epsilon sweep against the limit spectrum.

    The FEM side and the limit roots share one cell: the sweep meshes
    ``geometry`` at ``n_div`` itself.  The eps values run one after
    another on one CellOperators set of that mesh, and its midpoint rule.
    Merged eigenvalues pair with the limit root of the same mode label j,
    bracketed to the relative tolerance ``root_tol``.
    The bound column is mu1 + eps^2 gamma_k, gamma_k = (k pi / L)^2 from
    ``vertical_eigenvalues`` with the k-th *merged* rank, the slack
    subtracts lambda_eps, and c_h reports the same-mesh overestimate of
    mu1 so the h-effect can be separated from the eps-effect.  Each merge
    runs under the ceiling mu1_h + eps^2 gamma_k_total, bound + c_h at
    k = k_total, from the one disk solve that gives c_h: the disk vector
    vanishes on the matrix, so by min-max modes 1..k_total each hold a
    value below it.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    gammas = vertical_eigenvalues(k_total, geometry.height, "k_total")
    mesh = generate_mesh(geometry, n_div)
    params = DispersionParams(geometry=geometry)
    roots = {root.j: root for root in limit_eigenvalues(params, k_total,
                                                        rel_tol=root_tol)}
    operators = CellOperators(mesh)
    mu1_h = _disk_mu1(operators, eig_tol)
    c_h = mu1_h - params.mu1

    rows, reorderings = [], []
    for eps in eps_list:
        merged = merged_spectrum(mesh, eps, k_total, tol=eig_tol, operators=operators)
        for k, (entry, gamma_k) in enumerate(zip(merged, gammas), start=1):
            bound = params.mu1 + eps ** 2 * gamma_k
            root = roots[entry.j]
            err_f, err_m = eigenvector_error(entry.pair, entry.j, root, mesh)
            rows.append(ReportRow(
                eps=eps, k=k, j=entry.j, rank=entry.rank,
                lambda_eps=entry.value, bound=bound,
                slack=bound - entry.value, lambda_limit=root.lam,
                gap=abs(entry.value - root.lam),
                e_F=err_f, e_M=err_m))
            if entry.rank == 1 and entry.j != k:
                reorderings.append({"eps": eps, "k": k, "j": entry.j})

    return ConvergenceReport(rows=rows, n_div=n_div, mu1_exact=params.mu1,
                             mu1_discrete=mu1_h, c_h=c_h, roots=list(roots.values()),
                             mesh_hash=mesh.content_hash(), eig_tol=eig_tol,
                             reorderings=reorderings)
