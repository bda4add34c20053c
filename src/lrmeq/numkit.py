"""Dense and sparse linear-algebra kernels shared by all modules.

Everything here is a thin, deterministic layer over numpy/scipy LAPACK
wrappers: a thin SVD with fixed signs; one Householder QR, the compact-WY
``geqrt`` in panels of ``QR_PANEL`` columns, which yields the R factor
alone (``qr_r``, behind the exact residual norms) or a thin QR with
``R[i, i] >= 0`` whose Q ``gemqrt`` forms (``qr_thin``); and SPD
factorizations that expose a triangular square-root factor ``C`` with
``A = C.T @ C``.  There is one SPD backend, a banded Cholesky:
a sparse matrix is factorized in its band, after a reverse-Cuthill-McKee
reordering when that narrows the band, so banded problems (tridiagonal,
five-point stencils) factor in O(n * bandwidth^2), a tridiagonal band by
``pttrf``; a dense matrix is its own full band.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee


class NotSpdError(ValueError):
    """The one signal that an operator, a preconditioner or a matrix built
    from them is not SPD: a failed factorization (``SpdFactorization``,
    whose message is LAPACK's and names the failing leading minor), a
    projected system that is not SPD, a curvature or energy that must be
    positive and is not, or a pencil whose spectrum is not positive.  Every
    solver turns it into the status ``spd_loss``."""


def svd_thin(A):
    """Thin SVD ``A = U @ diag(s) @ V.T`` with deterministic signs.

    Signs are fixed so that the first entry of each left singular vector
    that is not negligible (relative to the column max) is nonnegative.
    """
    A = np.asarray(A, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    V = Vt.T
    absU = np.abs(U)
    # an all-zero column finds no such entry, takes row 0 and keeps its sign
    idx = np.argmax(absU > 1e-12 * absU.max(axis=0, initial=0.0), axis=0)
    flip = U[idx, np.arange(U.shape[1])] < 0.0
    U[:, flip] = -U[:, flip]
    V[:, flip] = -V[:, flip]
    return U, s, V


# Panel width of the compact-WY Householder QR (``geqrt``).  At the widths
# the solvers factor, about 100 columns, ``geqrf`` runs mostly its level-2
# code (below LAPACK's blocking crossover), while ``geqrt`` applies every
# panel's block reflector as level-3 products.
QR_PANEL = 32


def _geqrt(A):
    """Householder QR of a nonempty ``A`` in LAPACK's compact-WY form
    ``(qr, T)``: R on and above the diagonal of ``qr``, the reflectors
    below it, and the triangular factors ``T`` of the panels' block
    reflectors ``I - V T V.T``."""
    A = np.asarray_chkfinite(A, dtype=float)
    qr, T, info = lapack.dgeqrt(min(QR_PANEL, *A.shape), A)
    if info != 0:
        raise sla.LinAlgError(f"dgeqrt failed with info = {info}")
    return qr, T


def qr_r(A):
    """The ``min(m, k) x k`` triangular factor of a QR of a nonempty ``A``
    (signs not fixed)."""
    qr, _ = _geqrt(A)
    return np.triu(qr[: min(qr.shape)])


def qr_thin(A):
    """Thin QR ``A = Q @ R`` with the sign convention ``R[i, i] >= 0``.

    For ``m x k`` input, ``Q`` is ``m x min(m, k)`` and ``R`` is
    ``min(m, k) x k`` (upper trapezoidal when ``m < k``).  ``Q`` is the
    block reflectors applied to the leading ``min(m, k)`` columns of the
    identity.
    """
    A = np.asarray(A, dtype=float)
    m, k = A.shape
    p = min(m, k)
    if p == 0:
        return np.eye(m, p), np.zeros((p, k))
    qr, T = _geqrt(A)
    R = np.triu(qr[:p])
    Q, info = lapack.dgemqrt(qr[:, :p], T, np.eye(m, p, order="F"), overwrite_c=True)
    if info != 0:
        raise sla.LinAlgError(f"dgemqrt failed with info = {info}")
    flip = np.diag(R) < 0.0
    if np.any(flip):
        Q[:, flip] = -Q[:, flip]
        R[flip, :] = -R[flip, :]
    return Q, R


def _upper_band(A, bandwidth):
    """Upper band of a symmetric (sparse or dense) matrix in LAPACK
    upper-banded storage ``ab[u + i - j, j] = A[i, j]``."""
    n = A.shape[0]
    ab = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        ab[bandwidth - k, k:] = A.diagonal(k)
    return ab


def rcm_bands(*mats):
    """Upper-banded storage of symmetric matrices of one size, in the order
    that narrows their common band.

    Returns ``(perm, bands)``: the permutation of the rows and columns
    (None for the natural order) and each matrix permuted by it in
    upper-banded storage.  All bands share one bandwidth, so any linear
    combination of the matrices fits in them.  Sparse matrices take the
    reverse-Cuthill-McKee order of the union of their sparsity patterns
    where it is narrower than the natural order (banded input, which RCM
    would only reverse, keeps its order).  A dense matrix, or a set that
    includes one, is its own full band in natural order.
    """
    n = mats[0].shape[0]
    if not all(sp.issparse(M) for M in mats):
        return None, [_upper_band(as_dense(M), n - 1) for M in mats]
    mats = [M.tocsr() for M in mats]
    pattern = sp.identity(n, format="csr")
    for M in mats:
        pattern = pattern + abs(M) + abs(M).T
    perm = np.asarray(reverse_cuthill_mckee(pattern.tocsr(), symmetric_mode=True))
    bw, bw_natural = _bandwidth(pattern[perm][:, perm]), _bandwidth(pattern)
    if bw_natural <= bw:
        return None, [_upper_band(M, bw_natural) for M in mats]
    return perm, [_upper_band(M[perm][:, perm], bw) for M in mats]


def _bandwidth(pattern):
    rows, cols = pattern.nonzero()
    return int(np.max(np.abs(rows - cols)))


def _lapack_solve(routine, factor, b, **kw):
    """Call a LAPACK ``*trs`` routine on a vector or block of right-hand sides."""
    x, info = routine(*factor, np.asarray_chkfinite(b, dtype=float), **kw)
    if info != 0:
        raise sla.LinAlgError(f"{routine.__name__} failed with info = {info}")
    return x


class SpdFactorization:
    """Banded Cholesky factorization of an SPD matrix with repeated solves.

    The matrix, permuted as ``rcm_bands`` orders it, is factored in one
    LAPACK call: ``pttrf`` to ``L diag(d) L.T`` (L unit lower bidiagonal)
    when the band is tridiagonal, ``pbtrf`` to ``R.T @ R`` (R upper
    triangular banded) otherwise.  ``solve`` solves with the matrix in one
    LAPACK call on that factor, ``pttrs`` or ``pbtrs``.  ``c_mul``,
    ``c_solve``, ``ct_mul`` and ``ct_solve`` give access to the square
    root ``C = R P`` (P the permutation) with ``A = C.T @ C``; for a
    tridiagonal band R is ``diag(sqrt(d)) + superdiag(e * sqrt(d))``,
    derived from ``(d, e)`` on the first call that needs it.  Their
    readers are ``geometry.weighted_qr`` (behind ``weighted_svd``, so
    ``truncate`` and ``random_point``, and the retraction's fallback; not
    the rank increase) and, through the ``fact_E`` or ``fact_D`` of a
    ``KroneckerMetric``, ``precond.spectral_interval`` (``c_solve`` and
    ``ct_solve``); the benchmark's tracer also patches all four by name,
    so they stay until it changes.  Instances are immutable after
    construction (but for that derived R) and re-entrant.
    """

    def __init__(self, A):
        perm, (ab,) = rcm_bands(A)
        self._init_banded(ab, perm, None if perm is None else np.argsort(perm))

    def _init_banded(self, ab_upper, perm, iperm):
        self._perm, self._iperm = perm, iperm
        self._pttrs = None
        if ab_upper.shape[0] == 2:
            ab_upper = np.asarray_chkfinite(ab_upper, dtype=float)
            d, e, info = lapack.dpttrf(ab_upper[1], ab_upper[0, 1:])
            if info != 0:
                # the message of the banded path (scipy's cholesky_banded)
                raise NotSpdError(f"{info}-th leading minor not positive definite")
            self._pttrs = (d, e)
            return
        try:
            self._ab = sla.cholesky_banded(ab_upper, lower=False)
        except sla.LinAlgError as exc:
            raise NotSpdError(str(exc)) from exc

    @classmethod
    def from_banded(cls, ab_upper, perm=None, iperm=None):
        """Factorize from upper-banded storage of the matrix permuted by
        ``perm`` with inverse ``iperm`` (both None: not permuted); solves
        take unpermuted vectors."""
        self = cls.__new__(cls)
        self._init_banded(ab_upper, perm, iperm)
        return self

    @cached_property
    def _ab(self):
        """Upper-banded R of a tridiagonal band, from ``L diag(d) L.T``:
        ``R = diag(d)^(1/2) L.T``.  The banded path sets ``_ab`` itself."""
        d, e = self._pttrs
        r = np.sqrt(d)
        ab = np.zeros((2, d.size))
        ab[1] = r
        ab[0, 1:] = e * r[:-1]
        return ab

    @cached_property
    def _R(self):
        """CSR copy of R; only products with R need it."""
        bw, n = self._ab.shape[0] - 1, self._ab.shape[1]
        offs = list(range(bw + 1))
        data = [np.concatenate([np.zeros(k), self._ab[bw - k, k:]]) for k in offs]
        # row-aligned diagonals for dia_matrix: diagonal k has length n - k
        return sp.dia_matrix((np.array(data), offs), shape=(n, n)).tocsr()

    def _permuted(self, M):
        return M[self._perm] if self._perm is not None else M

    def _unpermuted(self, M):
        return M[self._iperm] if self._perm is not None else M

    def solve(self, b):
        """Solve ``A x = b`` for a vector or a block of right-hand sides."""
        bp = self._permuted(np.asarray(b, dtype=float))
        if self._pttrs is not None:
            x = _lapack_solve(lapack.dpttrs, self._pttrs, bp)
        else:
            x = _lapack_solve(lapack.dpbtrs, (self._ab,), bp)
        return self._unpermuted(x)

    # -- square-root factor C with A = C.T @ C -----------------------------
    def c_mul(self, M):
        return self._R @ self._permuted(M)

    def c_solve(self, M):
        return self._unpermuted(_lapack_solve(lapack.dtbtrs, (self._ab,), M))

    def ct_mul(self, M):
        return self._unpermuted(self._R.T @ M)

    def ct_solve(self, M):
        return _lapack_solve(lapack.dtbtrs, (self._ab,), self._permuted(M), trans="T")


def check_symmetric(A, tol=1e-12, name="matrix"):
    """Raise if ``A`` deviates from symmetry by more than ``tol`` (relative)."""
    A = sp.csr_matrix(A)
    d = abs(A - A.T)
    dev = d.max() if d.nnz else 0.0
    scale = abs(A).max() if A.nnz else 1.0
    if dev > tol * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric (relative deviation {dev / scale:.2e})")


def as_dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
