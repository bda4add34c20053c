"""Dense and sparse linear-algebra kernels shared by all modules.

Everything here is a thin, deterministic layer over numpy/scipy LAPACK
wrappers: thin SVD/QR with fixed sign conventions, symmetric eigensolves,
and SPD factorizations that expose a triangular square-root factor
``C`` with ``A = C.T @ C`` for both dense and sparse input.  Sparse SPD
matrices are factorized with a reverse-Cuthill-McKee reordering followed
by a banded Cholesky, so banded problems (tridiagonal, five-point
stencils) factor in O(n * bandwidth^2).
"""

from __future__ import annotations

import re

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee


class NotSpdError(ValueError):
    """Raised when a matrix handed to ``spd_factorize`` is not SPD.

    ``index`` is the 1-based index of the failing pivot / leading minor
    when the underlying LAPACK routine reports one, else -1.
    """

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


def _pivot_index(exc):
    m = re.search(r"(\d+)", str(exc))
    return int(m.group(1)) if m else -1


def svd_thin(A):
    """Thin SVD ``A = U @ diag(s) @ V.T`` with deterministic signs.

    Signs are fixed so that the first entry of each left singular vector
    that is not negligible (relative to the column max) is nonnegative.
    """
    A = np.asarray(A, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    for j in range(U.shape[1]):
        col = U[:, j]
        amax = np.max(np.abs(col))
        if amax == 0.0:
            continue
        idx = np.argmax(np.abs(col) > 1e-12 * amax)
        if col[idx] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return U, s, V


def qr_thin(A):
    """Thin QR ``A = Q @ R`` with the sign convention ``R[i, i] >= 0``."""
    A = np.asarray(A, dtype=float)
    Q, R = np.linalg.qr(A)
    flip = np.diag(R) < 0.0
    if np.any(flip):
        Q[:, flip] = -Q[:, flip]
        R[flip, :] = -R[flip, :]
    return Q, R


def eig_sym(A):
    """Spectral decomposition ``A = Q @ diag(lam) @ Q.T``, ``lam`` ascending."""
    A = np.asarray(A, dtype=float)
    lam, Q = np.linalg.eigh(A)
    return Q, lam


def _banded_upper_from_csc(A, bandwidth):
    """Extract the upper band of a sparse symmetric matrix into LAPACK
    upper-banded storage ``ab[u + i - j, j] = A[i, j]``."""
    n = A.shape[0]
    ab = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        diag = A.diagonal(k)
        ab[bandwidth - k, k:] = diag
    return ab


def rcm_bands(*mats):
    """Reverse-Cuthill-McKee order of sparse symmetric matrices of one size.

    Returns ``(perm, bands)``: the permutation of the union of their
    sparsity patterns, and each matrix permuted by it in upper-banded
    storage.  All bands share the bandwidth of the permuted union pattern,
    so any linear combination of the matrices fits in them.
    """
    pattern = sp.identity(mats[0].shape[0], format="csr")
    for M in mats:
        pattern = pattern + abs(M) + abs(M).T
    perm = np.asarray(reverse_cuthill_mckee(pattern.tocsr(), symmetric_mode=True))
    rows, cols = pattern[perm][:, perm].nonzero()
    bw = int(np.max(np.abs(rows - cols)))
    return perm, [_banded_upper_from_csc(M[perm][:, perm], bw) for M in mats]


class _TriBandFactor:
    """Upper-triangular banded factor R with ``M = R.T @ R``."""

    def __init__(self, ab_upper):
        self.ab = ab_upper
        self.bw = ab_upper.shape[0] - 1
        n = ab_upper.shape[1]
        offs = list(range(self.bw + 1))
        data = [np.concatenate([np.zeros(k), ab_upper[self.bw - k, k:]]) for k in offs]
        # row-aligned diagonals for dia_matrix: diagonal k has length n - k
        self.R = sp.dia_matrix((np.array(data), offs), shape=(n, n)).tocsr()

    def mul(self, M):
        return self.R @ M

    def tmul(self, M):
        return self.R.T @ M

    def solve(self, M):
        return sla.solve_banded((0, self.bw), self.ab, M)

    def tsolve(self, M):
        return sla.solve_banded((self.bw, 0), self._lower(), M)

    def _lower(self):
        if not hasattr(self, "_lower_ab"):
            n = self.ab.shape[1]
            lo = np.zeros_like(self.ab)
            for k in range(self.bw + 1):
                lo[k, : n - k] = self.ab[self.bw - k, k:]
            self._lower_ab = lo
        return self._lower_ab


class SpdFactorization:
    """Cholesky-type factorization of an SPD matrix with repeated solves.

    Provides ``solve`` plus access to a (possibly permuted) triangular
    square root ``C`` with ``A = C.T @ C`` through ``c_mul``, ``c_solve``,
    ``ct_mul`` and ``ct_solve``.  Instances are immutable after
    construction and re-entrant.
    """

    def __init__(self, A):
        if sp.issparse(A):
            perm, (ab,) = rcm_bands(A.tocsr())
            self._init_banded(ab, perm)
        else:
            self._init_dense(np.asarray(A, dtype=float))

    # -- dense backend ----------------------------------------------------
    def _init_dense(self, A):
        self.n = A.shape[0]
        self.kind = "dense"
        try:
            # upper factor: A = Ct @ C with C upper triangular
            self._C = sla.cholesky(A, lower=False)
        except sla.LinAlgError as exc:
            raise NotSpdError(str(exc), _pivot_index(exc)) from exc
        self._perm = None

    # -- sparse backend (RCM + banded Cholesky) ---------------------------
    def _init_banded(self, ab_upper, perm):
        self.n = ab_upper.shape[1]
        self.kind = "banded"
        try:
            cb = sla.cholesky_banded(ab_upper, lower=False)
        except sla.LinAlgError as exc:
            raise NotSpdError(str(exc), _pivot_index(exc)) from exc
        self._band = _TriBandFactor(cb)
        self._perm = perm
        self._iperm = None if perm is None else np.argsort(perm)

    @classmethod
    def from_banded(cls, ab_upper, perm=None):
        """Factorize from upper-banded storage of the matrix permuted by
        ``perm`` (None: not permuted); solves take unpermuted vectors."""
        self = cls.__new__(cls)
        self._init_banded(ab_upper, perm)
        return self

    # -- solves ------------------------------------------------------------
    def solve(self, b):
        """Solve ``A x = b`` for a vector or a block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        if self.kind == "dense":
            return sla.cho_solve((self._C, False), b)
        bp = b[self._perm] if self._perm is not None else b
        x = self._band.tsolve(bp)
        x = self._band.solve(x)
        return x[self._iperm] if self._perm is not None else x

    # -- square-root factor C with A = C.T @ C -----------------------------
    def c_mul(self, M):
        if self.kind == "dense":
            return self._C @ M
        Mp = M[self._perm] if self._perm is not None else M
        return self._band.mul(Mp)

    def c_solve(self, M):
        if self.kind == "dense":
            return sla.solve_triangular(self._C, M, lower=False)
        x = self._band.solve(M)
        return x[self._iperm] if self._perm is not None else x

    def ct_mul(self, M):
        if self.kind == "dense":
            return self._C.T @ M
        y = self._band.tmul(M)
        return y[self._iperm] if self._perm is not None else y

    def ct_solve(self, M):
        if self.kind == "dense":
            return sla.solve_triangular(self._C.T, M, lower=True)
        Mp = M[self._perm] if self._perm is not None else M
        return self._band.tsolve(Mp)


def spd_factorize(A):
    """Factorize a symmetric positive definite (dense or sparse) matrix."""
    return SpdFactorization(A)


def check_symmetric(A, tol=1e-12, name="matrix"):
    """Raise if ``A`` deviates from symmetry by more than ``tol`` (relative)."""
    if sp.issparse(A):
        d = abs(A - A.T)
        dev = d.max() if d.nnz else 0.0
        scale = abs(A).max() if A.nnz else 1.0
    else:
        A = np.asarray(A)
        dev = np.max(np.abs(A - A.T)) if A.size else 0.0
        scale = np.max(np.abs(A)) if A.size else 1.0
    if dev > tol * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric (relative deviation {dev / scale:.2e})")


def as_dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
