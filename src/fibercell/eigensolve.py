"""Smallest eigenpairs of symmetric positive definite pencils (K, M).

The production path is ARPACK (``scipy.sparse.linalg.eigsh``) in
shift-invert mode at sigma = 0: implicitly restarted Lanczos on K^-1 M in
the M-inner product, whose largest Ritz values are the reciprocals of the
smallest pencil eigenvalues.  The first round starts from the all-ones
vector; seeded rounds on the projected solve recover degenerate copies a
single Krylov space misses, and one Rayleigh-Ritz step on everything
accepted gives the pairs.  Every returned pair passes an explicit residual
check.  A dense LAPACK oracle (``scipy.linalg.eigh``) covers every pencil
small enough to afford it and cross-checks the iterative path in the
validation suite.
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


def smallest_eigenpairs(K, M, k: int, tol: float = 1e-9) -> list[EigenPair]:
    """k smallest eigenpairs of the SPD pencil (K, M), ascending.

    Up to seven rounds of ARPACK in shift-invert mode at sigma = 0, with
    K^-1 applied through the SPD factorization.  Round 0 asks for k pairs
    from the all-ones start vector.  A Krylov space carries one vector per
    eigenspace, so each later round starts from a seeded random vector and
    runs on the solve projected M-orthogonally to the accepted vectors V,
    until a round finds no eigenvalue below the k-th accepted one.  One
    Rayleigh-Ritz step on span(V), a dense eigh of (V^t K V, V^t M V), then
    gives the k values and M-orthonormal vectors, with a deterministic
    basis inside each degenerate eigenspace.
    Returned pairs satisfy ``||K v - value M v|| / ||K v|| <= tol``;
    otherwise, or when the sixth projected round still finds a new
    eigenvalue, EigenConvergenceError is raised.
    """
    n = K.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the pencil size {n}")
    factor = factorize_spd(K)
    M = M.tocsr() if sp.issparse(M) else sp.csr_matrix(M)

    rng = np.random.default_rng(20240817)
    values, V, kth = np.empty(0), np.empty((n, 0)), np.inf
    for round_ in range(_PROBE_ROUNDS + 1):
        if round_ == 0:
            solve, count, start = factor.solve, k, np.ones(n)
        else:
            count = min(max(2, k // 2), n - len(values) - 1)
            if count < 1:
                break
            # P K^-1 P^t with P = I - V V^t M, the M-orthogonal projector onto
            # the complement of the accepted vectors
            MV = M @ V

            def solve(b, V=V, MV=MV):
                x = factor.solve(b - MV @ (V.T @ b))
                return x - V @ (MV.T @ x)

            kth = np.sort(values)[k - 1]
            start = rng.standard_normal(n)
        # ARPACK stops on a Ritz estimate for K^-1 M, not on the pencil
        # residual, so it runs at a tenth of tol; rng seeds the vectors it
        # draws when its Krylov space becomes invariant
        op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
        try:
            vals, vecs = eigsh(K, count, M=M, sigma=0.0, OPinv=op_inv,
                               v0=start, tol=0.1 * tol, rng=rng)
        except ArpackNoConvergence as exc:
            raise EigenConvergenceError(
                f"only {len(exc.eigenvalues)} of {count} eigenpairs "
                f"converged") from exc
        logger.debug("arpack round %d k=%d values %s", round_, count, vals)
        below = vals < kth * (1 + 1e-8)
        if not below.any():
            break
        values = np.concatenate((values, vals[below]))
        V = np.column_stack((V, vecs[:, below]))
    else:
        raise EigenConvergenceError(
            f"complement probe still found eigenvalues below the k-th "
            f"({kth:.10g}) after {_PROBE_ROUNDS} rounds")

    values, C = scipy.linalg.eigh(V.T @ (K @ V), V.T @ (M @ V),
                                  subset_by_index=[0, k - 1])
    out = []
    for val, c in zip(values, C.T):
        vec = _fix_sign(V @ c)
        Kv = K @ vec
        res = float(np.linalg.norm(Kv - val * (M @ vec)) / np.linalg.norm(Kv))
        if res > tol:
            raise EigenConvergenceError(
                f"residual {res:.2e} above tolerance {tol:.1e} at "
                f"eigenvalue {val:.10g}")
        out.append(EigenPair(value=float(val), vector=vec, residual=res))
    return out


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
