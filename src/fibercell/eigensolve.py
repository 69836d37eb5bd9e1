"""Smallest eigenpairs of symmetric positive definite pencils (K, M).

The production path is ARPACK (``scipy.sparse.linalg.eigsh``) in
shift-invert mode at sigma = 0: implicitly restarted Lanczos on K^-1 M in
the M-inner product, whose largest Ritz values are the reciprocals of the
smallest pencil eigenvalues.  It starts from the all-ones vector, and a
seeded complement probe recovers degenerate copies a single Krylov space
misses.  Every returned pair passes an explicit residual check.  A dense
reduce-and-QR oracle covers every pencil small enough to afford it and
cross-checks the iterative path in the validation suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  splu)

logger = logging.getLogger(__name__)

DENSE_ORACLE_MAX_N = 2000
_CLUSTER_REL_GAP = 1e-10
_PROBE_ROUNDS = 6


class NotSPDError(np.linalg.LinAlgError):
    """Matrix passed as SPD has a non-positive pivot."""


class EigenConvergenceError(RuntimeError):
    """The Krylov solve failed to reach the residual tolerance."""


@dataclass
class EigenPair:
    """One accepted pencil eigenpair: M-normalized vector and the relative
    residual ||K v - value M v|| / ||K v||."""

    value: float
    vector: np.ndarray
    residual: float


class SPDFactor:
    """Sparse symmetric factorization of an SPD matrix.

    SuperLU in symmetric mode with the diagonal-pivot threshold at zero
    performs an LDL^t-like elimination on a fill-reducing (minimum degree)
    ordering, so the diagonal of U carries the pivots: any non-positive
    pivot certifies the matrix is not SPD.
    """

    def __init__(self, K: sp.spmatrix):
        K = K.tocsc()
        if K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = splu(K, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # exactly singular pivot
            raise NotSPDError(f"factorization failed: {exc}") from exc
        pivots = self._lu.U.diagonal()
        if np.any(pivots <= 0.0) or np.any(~np.isfinite(pivots)):
            raise NotSPDError("non-positive pivot: matrix is not SPD "
                              "(check gamma > 0 or the assembly)")
        self.pivots = pivots
        self.n = K.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


def factorize_spd(K: sp.spmatrix) -> SPDFactor:
    """Factor an SPD sparse matrix; raises NotSPDError otherwise."""
    return SPDFactor(K)


def dense_eigen_oracle(K, M, count: int = None):
    """Full spectrum of the pencil by dense Cholesky reduction plus the
    symmetric QR algorithm (LAPACK).  Brute-force reference for any pencil
    with at most ``DENSE_ORACLE_MAX_N`` unknowns.  With ``count``, only the
    ``count`` smallest pairs are computed (LAPACK's subset solver).
    Raises NotSPDError when the Cholesky factorization of M fails.

    Returns
    -------
    (values, vectors): ascending eigenvalues and M-orthonormal columns.
    """
    Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    n = Kd.shape[0]
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    subset = None if count is None else [0, min(count, n) - 1]
    try:
        return scipy.linalg.eigh(Kd, Md, subset_by_index=subset)
    except np.linalg.LinAlgError as exc:
        # eigh's own Cholesky of M is the SPD check
        if "not positive definite" not in str(exc):
            raise
        raise NotSPDError(f"mass matrix is not SPD: {exc}") from exc


def _m_dot(M, x, y):
    return float(x @ (M @ y))


def smallest_eigenpairs(K, M, k: int, tol: float = 1e-9) -> list[EigenPair]:
    """k smallest eigenpairs of the SPD pencil (K, M), ascending.

    ARPACK in shift-invert mode at sigma = 0, with K^-1 applied through the
    SPD factorization, from the all-ones start vector.  A Krylov space
    carries one vector per eigenspace, so a seeded complement probe then
    runs ARPACK on the solve projected M-orthogonally to the accepted
    vectors until no new eigenvalue appears below the k-th one.
    Returned pairs satisfy ``||K v - value M v|| / ||K v|| <= tol`` and are
    pairwise M-orthonormal; otherwise, or when the last of the six probe
    rounds still finds a new eigenvalue, EigenConvergenceError is raised.
    """
    n = K.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the pencil size {n}")
    factor = factorize_spd(K)
    M = M.tocsr() if sp.issparse(M) else sp.csr_matrix(M)

    rng = np.random.default_rng(20240817)
    values, vectors = _arpack(K, M, factor.solve, k, tol, np.ones(n), rng)
    for _ in range(_PROBE_ROUNDS):
        extra = min(max(2, k // 2), n - len(values) - 1)
        if extra < 1:
            break
        # P K^-1 P^t with P = I - V V^t M, the M-orthogonal projector onto
        # the complement of the accepted vectors
        V = np.column_stack(vectors)
        MV = M @ V

        def projected_solve(b, V=V, MV=MV):
            x = factor.solve(b - MV @ (V.T @ b))
            return x - V @ (MV.T @ x)

        kth = sorted(values)[k - 1]
        vals, vecs = _arpack(K, M, projected_solve, extra, tol,
                             rng.standard_normal(n), rng)
        below = [i for i, val in enumerate(vals) if val < kth * (1 + 1e-8)]
        if not below:
            break
        values += [vals[i] for i in below]
        vectors += [vecs[i] for i in below]
    else:
        raise EigenConvergenceError(
            f"complement probe still found eigenvalues below the k-th "
            f"({kth:.10g}) after {_PROBE_ROUNDS} rounds")

    order = np.argsort(values)[:k]
    values, vectors = _orthonormalize_clusters(
        M, [values[i] for i in order], [vectors[i] for i in order])
    out = []
    for val, vec in zip(values, vectors):
        vec = _fix_sign(vec)
        Kv = K @ vec
        res = float(np.linalg.norm(Kv - val * (M @ vec)) / np.linalg.norm(Kv))
        if res > tol:
            raise EigenConvergenceError(
                f"residual {res:.2e} above tolerance {tol:.1e} at "
                f"eigenvalue {val:.10g}")
        out.append(EigenPair(value=float(val), vector=vec, residual=res))
    return out


def _arpack(K, M, solve, k, tol, start, rng):
    """k eigenpairs of (K, M) nearest zero by ARPACK shift-invert, with
    ``solve`` applying K^-1 (or its projection); values and vectors as lists.

    ARPACK stops on a Ritz estimate for K^-1 M, not on the pencil residual,
    so it runs at a tenth of ``tol`` and the caller checks the residual.
    ``rng`` seeds the vectors ARPACK draws when its Krylov space becomes
    invariant, which keeps the result deterministic.
    """
    n = K.shape[0]
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        values, vectors = eigsh(K, k, M=M, sigma=0.0, OPinv=op_inv, v0=start,
                                tol=0.1 * tol, rng=rng)
    except ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"only {len(exc.eigenvalues)} of {k} eigenpairs converged") from exc
    logger.debug("arpack k=%d values %s", k, values)
    return list(values), list(vectors.T)


def _orthonormalize_clusters(M, values, vectors):
    """M-re-orthonormalize within near-degenerate clusters and order each
    cluster by the vectors' lexicographic signature (deterministic ties)."""
    values = list(values)
    vectors = [v.copy() for v in vectors]
    i = 0
    while i < len(values):
        j = i + 1
        while (j < len(values)
               and abs(values[j] - values[i]) <= _CLUSTER_REL_GAP
               * max(1.0, abs(values[i]))):
            j += 1
        if j - i > 1:
            block = vectors[i:j]
            for a in range(len(block)):
                for b in range(a):
                    block[a] -= _m_dot(M, block[a], block[b]) * block[b]
                block[a] /= np.sqrt(_m_dot(M, block[a], block[a]))
            keyed = sorted(
                ((tuple(np.round(_fix_sign(v), 12)), idx) for idx, v in enumerate(block)))
            vectors[i:j] = [block[idx] for _, idx in keyed]
        else:
            vectors[i] /= np.sqrt(_m_dot(M, vectors[i], vectors[i]))
        i = j
    return values, vectors


def _fix_sign(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def cluster_widths(values, rel_gap: float = 1e-6) -> list[int]:
    """Sizes of near-degenerate clusters in an ascending eigenvalue list."""
    widths = []
    i = 0
    values = list(values)
    while i < len(values):
        j = i + 1
        while (j < len(values)
               and abs(values[j] - values[j - 1]) <= rel_gap * max(1.0, abs(values[j]))):
            j += 1
        widths.append(j - i)
        i = j
    return widths
