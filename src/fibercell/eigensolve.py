"""Smallest eigenpairs of symmetric positive definite pencils (K, M).

The production path is ARPACK (``scipy.sparse.linalg.eigsh``) in
shift-invert mode: implicitly restarted Lanczos on (K - s M)^-1 M in the
M-inner product.  An exact count certifies that nothing was missed: by
Sylvester's law of inertia, the number of negative pivots of an LDL^t
factorization of K - sigma M equals the number of pencil eigenvalues
below sigma (``inertia_count``).  Given a bound sigma, that one
factorization both counts and drives ARPACK at s = sigma, whose negative
values 1/(lambda - sigma) are exactly the eigenvalues below sigma (the
spectral transformation of Ericsson and Ruhe, used with the inertia as in
the shifted block Lanczos of Grimes, Lewis and Simon); with up to four
more than k values below sigma the round takes them all and the k
smallest are kept.  Without a bound, or where the bound's factor cannot
serve (more values below it, or a missed residual check), ARPACK runs at
s = 0 on a factor of K, with sigma just below the k-th value.  The first
round starts from the all-ones vector; only when it found fewer values
below sigma than the count do seeded rounds on the projected solve
recover the degenerate copies a single Krylov space misses.  A round of
``width`` pairs builds a Krylov space of ncv = min(n, 2 width + 4)
Lanczos vectors.  The ARPACK Users' Guide (Lehoucq, Sorensen and Yang,
SIAM 1998) asks for ncv >= 2 nev, so that each implicit restart keeps the
wanted Ritz vectors and filters at least as many unwanted ones; four to
spare cost fewer solves than one (283 against 337 on the default sweep).
Shift-invert puts the wanted values far out at the end of the spectrum of
(K - s M)^-1 M, so a small space converges in few restarts.  scipy's
default, max(2 width + 1, 20), made the width-1 and width-2 rounds that a
bound leaves restart 20 vectors, at 2.4 times the solves and products
with M on the default sweep; a width-8 round keeps its 20.  One
Rayleigh-Ritz step on everything accepted gives the pairs, and every
returned pair passes an explicit residual check.  A dense LAPACK oracle
(``scipy.linalg.eigh``) covers every pencil small enough to afford it and
cross-checks the iterative path in the validation suite.  Every entry
point reads K and M, dense or sparse, through
``scipy.sparse.csr_matrix``, which keeps a CSR input's arrays without
copying them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  splu)

from .geometry import is_number

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


def _symmetric_lu(A: sp.spmatrix, error=np.linalg.LinAlgError, name="matrix"):
    """SuperLU in symmetric mode with the diagonal-pivot threshold at zero:
    an LDL^t-like elimination on a fill-reducing (minimum degree) ordering.
    Returns the factor and its pivots D = diag(U), A = P^t L D L^t P.
    Raises ``error`` when A is exactly singular, or when a zero pivot made
    SuperLU leave the diagonal: then D is no congruence of A."""
    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # exactly singular pivot
        raise error(f"{name} is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise error(f"SuperLU left the diagonal factoring {name}")
    pivots = lu.U.diagonal()
    if not np.isfinite(pivots).all():
        raise error(f"non-finite pivot factoring {name}")
    return lu, pivots


class SPDFactor:
    """Sparse symmetric factorization of an SPD matrix, dense or sparse, by
    ``_symmetric_lu``: a singular matrix or any non-positive pivot
    certifies it is not SPD.
    """

    def __init__(self, K):
        K = sp.csr_matrix(K)
        if K.shape[0] != K.shape[1]:
            raise ValueError("matrix must be square")
        self._lu, pivots = _symmetric_lu(K, NotSPDError)
        if np.any(pivots <= 0.0):
            raise NotSPDError("non-positive pivot: matrix is not SPD "
                              "(check gamma > 0 or the assembly)")
        self.pivots = pivots

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(b)


def factorize_spd(K) -> SPDFactor:
    """Factor an SPD matrix, dense or sparse; raises NotSPDError otherwise."""
    return SPDFactor(K)


def inertia_count(K, M, sigma: float) -> int:
    """Number of eigenvalues of the symmetric pencil (K, M), M SPD, below
    ``sigma``.

    Sylvester's law of inertia: K - sigma M = P^t L D L^t P has as many
    negative pivots in D as the pencil has eigenvalues below sigma.  When
    ``_symmetric_lu`` finds K - sigma M singular or leaves the diagonal,
    LinAlgError is raised instead of a guess.
    """
    return _shifted_lu(sp.csr_matrix(K), sp.csr_matrix(M), sigma)[1]


def _shifted_lu(K, M, sigma: float):
    """The factor of K - sigma M and the inertia count it certifies."""
    lu, pivots = _symmetric_lu(K - sigma * M,
                               name=f"K - sigma M at sigma={sigma:.17g}")
    return lu, int(np.count_nonzero(pivots < 0.0))


def dense_eigen_oracle(K, M, count: int = None):
    """Full spectrum of the pencil by dense Cholesky reduction plus the
    symmetric QR algorithm (LAPACK).  Brute-force reference for any pencil
    with at most ``DENSE_ORACLE_MAX_N`` unknowns.  With ``count``, only the
    ``count`` smallest pairs are computed (LAPACK's subset solver); a
    count that is not an int >= 1 by ``is_number`` (so no bool) is
    refused.  Raises NotSPDError when the Cholesky factorization of M
    fails.

    Returns
    -------
    (values, vectors): ascending eigenvalues and M-orthonormal columns.
    """
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    n = K.shape[0]
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    if count is not None and not (is_number(count, int) and count >= 1):
        raise ValueError(f"count must be >= 1 and an int, got {count!r}")
    subset = None if count is None else [0, min(count, n) - 1]
    try:
        return scipy.linalg.eigh(K.toarray(), M.toarray(), subset_by_index=subset)
    except np.linalg.LinAlgError as exc:
        # eigh's own Cholesky of M is the SPD check
        if "not positive definite" not in str(exc):
            raise
        raise NotSPDError(f"mass matrix is not SPD: {exc}") from exc


def smallest_eigenpairs(K, M, k: int, tol: float = 1e-9,
                        below: float = None) -> list[EigenPair]:
    """k smallest eigenpairs of the SPD pencil (K, M), ascending; with
    ``below``, only those whose eigenvalue lies below it, possibly none.
    k must be an int >= 1 by ``is_number`` (so no bool) and below the
    pencil size, or ValueError is raised.

    ARPACK in shift-invert mode.  Without ``below``, the shift is 0 with
    K^-1 applied through the SPD factorization, and round 0 asks for the k
    largest nu = 1/lambda from the all-ones start vector.  The inertia
    count c then says how many pencil eigenvalues lie below the threshold
    s, the k-th value of round 0 times (1 - 1e-8): strictly below it, so
    copies of the k-th value need not be found.

    With ``below``, its factorization of K - below M, made before any
    solve, counts the c eigenvalues below it, and c = 0 returns [] without
    an ARPACK round.  For 0 < c <= k + 4 (and c < n) the same factor
    drives ARPACK at the shift s = ``below``, where round 0 asks for the c
    smallest nu = 1/(lambda - s): the c negative ones are exactly the c
    eigenvalues below s, certified by the count already made, and the
    min(k, c) smallest are returned.  For c > k that round is c wide, not
    k, since a window of k at s would hold the k values nearest s, not the
    k smallest.  It replaces two factorizations, of K for a shift-0 solve
    and of K - sigma M again for its count; on mode 1's sector A1 at
    eps 1.0 (n_div 64 and 128, k 1 to 12) it took 0.56-0.92 of their time
    for c - k <= 4 and 1.03-1.43 for c - k >= 8, hence the cap.  Under
    the ceiling of ``merged_spectrum`` at eps 1.0 on the default cell that
    pencil counts c = 3, 4, 9-11 and 16-21 at k = 1, 3, 8 and 12.
    Otherwise (c > k + 4, c = n, or that solve raised
    EigenConvergenceError, as a bound far above the smallest value or
    right next to the spectrum can cost the far end of the window its last
    digits) the factor is released and the pencil is solved as without
    ``below`` for min(k, c) pairs.

    A Krylov space carries one vector per eigenspace, so while fewer than c
    accepted values lie below s, up to six more rounds of max(2, k // 2)
    pairs start from a seeded random vector and run on the solve projected
    M-orthogonally to the accepted vectors V.  One Rayleigh-Ritz step on
    span(V), a dense eigh of (V^t K V, V^t M V), then gives the k values
    and M-orthonormal vectors, with a deterministic basis inside each
    degenerate eigenspace.  At most one sparse factorization is alive:
    each is released before the next is made.
    Returned pairs satisfy ``||K v - value M v|| / ||K v|| <= tol``
    (``residual_gate``); otherwise, or when the sixth projected round still
    leaves fewer than c values found below s, EigenConvergenceError is
    raised.
    """
    K, M = sp.csr_matrix(K), sp.csr_matrix(M)
    n = K.shape[0]
    if not (is_number(k, int) and k >= 1):
        raise ValueError(f"k must be >= 1 and an int, got {k!r}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the pencil size {n}")
    if below is not None:
        lu, count = _shifted_lu(K, M, below)
        if count == 0:
            logger.debug("pencil n=%d shift=%.10g sigma=%.10g count=0 found=0 "
                         "fallback rounds=0 solves=0 ncv=0", n, below, below)
            return []
        if count <= min(k + 4, n - 1):
            try:
                return _certified_pairs(K, M, count, tol, (below, lu))[:k]
            except EigenConvergenceError as exc:
                logger.debug("pencil n=%d missed at shift=%.10g, solved "
                             "without the bound: %s", n, below, exc)
        k, lu = min(k, count), None  # released before K is factored
    return _certified_pairs(K, M, k, tol)


def _certified_pairs(K, M, k: int, tol: float, shifted=None):
    """The rounds, Rayleigh-Ritz step and residual gate of
    ``smallest_eigenpairs``: ``shifted`` is (sigma, factor of K - sigma M)
    for a pencil with exactly k eigenvalues below sigma, or None for
    shift 0 on a factor of K made here and a count below the k-th value.
    Its DEBUG line per pencil ends with the solves with the factors, over
    every round, and round 0's Krylov size ncv."""
    n = K.shape[0]
    rng = np.random.default_rng(20240817)
    shift, factor = shifted or (0.0, factorize_spd(K))
    solves = 0

    def shift_solve(b):
        nonlocal solves
        solves += 1
        return factor.solve(b)

    values, V = _arpack_round(K, M, shift_solve, k, np.ones(n), tol, rng, 0, shift)
    sigma, count = shift, k
    if shifted is None:
        # certify everything strictly below the k-th value; the count
        # factors K - sigma M, so the factor of K goes first
        sigma = values.max() * (1 - 1e-8)
        factor = None
        count = inertia_count(K, M, sigma)
    found = int(np.count_nonzero(values < sigma))
    rounds = 0
    while found < count:
        width = min(max(2, k // 2), n - len(values) - 1)
        if width < 1:
            break
        if rounds == _PROBE_ROUNDS:
            raise EigenConvergenceError(
                f"inertia counts {count} eigenvalues below {sigma:.10g}, "
                f"found {found} after {_PROBE_ROUNDS} rounds")
        rounds += 1
        if factor is None:
            factor = factorize_spd(K)
        # P (K - shift M)^-1 P^t with P = I - V V^t M, the M-orthogonal
        # projector onto the complement of the accepted vectors
        MV = M @ V

        def solve(b, V=V, MV=MV):
            x = shift_solve(b - MV @ (V.T @ b))
            return x - V @ (MV.T @ x)

        vals, vecs = _arpack_round(K, M, solve, width, rng.standard_normal(n),
                                   tol, rng, rounds, shift)
        new = vals < sigma
        values = np.concatenate((values, vals[new]))
        V = np.column_stack((V, vecs[:, new]))
        found += int(np.count_nonzero(new))
    logger.debug("pencil n=%d shift=%.10g sigma=%.10g count=%d found=%d "
                 "fallback rounds=%d solves=%d ncv=%d", n, shift, sigma, count,
                 found, rounds, solves, _krylov_size(n, k))

    values, C = scipy.linalg.eigh(V.T @ (K @ V), V.T @ (M @ V),
                                  subset_by_index=[0, k - 1])
    return [residual_gate(K, M, float(val), _fix_sign(V @ c), tol)
            for val, c in zip(values, C.T)]


def residual_gate(K, M, value: float, vector: np.ndarray, tol: float) -> EigenPair:
    """The pair with its residual ||K v - value M v|| / ||K v||;
    EigenConvergenceError when that is above ``tol``."""
    Kv = K @ vector
    res = float(np.linalg.norm(Kv - value * (M @ vector)) / np.linalg.norm(Kv))
    if res > tol:
        raise EigenConvergenceError(
            f"residual {res:.2e} above tolerance {tol:.1e} at eigenvalue "
            f"{value:.10g}")
    return EigenPair(value=value, vector=vector, residual=res)


def _arpack_round(K, M, solve, width: int, start, tol: float, rng, round_, shift):
    """``width`` Ritz pairs of the pencil from one eigsh call in
    shift-invert mode at ``shift``, with ``solve`` in place of
    (K - shift M)^-1: the largest nu = 1/lambda at shift 0, else the
    smallest nu = 1/(lambda - shift), the negative ones lying below it.
    The Krylov space holds ``_krylov_size(n, width)`` vectors."""
    n = K.shape[0]
    ncv = _krylov_size(n, width)
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    # ARPACK stops on a Ritz estimate for the shifted inverse, not on the
    # pencil residual, so it runs at a tenth of tol; rng seeds the vectors
    # it draws when its Krylov space becomes invariant
    try:
        vals, vecs = eigsh(K, width, M=M, sigma=shift, which="SA" if shift else "LM",
                           OPinv=op_inv, v0=start, ncv=ncv, tol=0.1 * tol, rng=rng)
    except ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"only {len(exc.eigenvalues)} of {width} eigenpairs "
            f"converged") from exc
    logger.debug("arpack round %d k=%d ncv=%d values %s", round_, width, ncv, vals)
    return vals, vecs


def _krylov_size(n: int, width: int) -> int:
    """ncv of a round of ``width`` pairs on a pencil of size n: 2 width + 4,
    the ARPACK Users' Guide's ncv >= 2 nev with four to spare (the module
    docstring says why), and at most n, which eigsh allows beside
    width < n."""
    return min(n, 2 * width + 4)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v

