"""Multiterm linear operator, objective and factored residual machinery.

The operator is ``A X = sum_i A_i X B_i.T`` with symmetric coefficient
matrices; the induced Kronecker system matrix is assumed SPD (verified
densely only on small test instances).  Residuals and gradients are kept
in factored form throughout: for ``X = U diag(s) V.T``,

    A X - F = [A_1 U S, ..., A_l U S, -F_L] @ [B_1 V, ..., B_l V, F_R].T
"""

from __future__ import annotations

import numpy as np

from . import numkit
from .geometry import FactoredMatrix, FixedRankPoint, factored_norm


class LowRankRhs(FactoredMatrix):
    """Right-hand side ``F = F_L @ F_R.T`` with at least one column."""

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError("right-hand side needs at least one column")


class MultitermOperator:
    """SPD multiterm operator ``X -> sum_i A_i X B_i.T``."""

    def __init__(self, A_list, B_list):
        if len(A_list) != len(B_list) or not A_list:
            raise ValueError("need matching nonempty coefficient lists")
        self.A = list(A_list)
        self.B = list(B_list)
        for i, (Ai, Bi) in enumerate(zip(self.A, self.B)):
            numkit.check_symmetric(Ai, name=f"A[{i}]")
            numkit.check_symmetric(Bi, name=f"B[{i}]")
        self.m = self.A[0].shape[0]
        self.n = self.B[0].shape[0]
        for Ai in self.A:
            if Ai.shape != (self.m, self.m):
                raise ValueError("inconsistent left coefficient dimensions")
        for Bi in self.B:
            if Bi.shape != (self.n, self.n):
                raise ValueError("inconsistent right coefficient dimensions")

    @property
    def ell(self):
        return len(self.A)

    def apply(self, X) -> FactoredMatrix:
        """Apply the operator to a factored matrix or fixed-rank point.

        The result has rank ``ell * k`` and is never auto-compressed;
        compression is owned by the callers.
        """
        Z = X.as_factored() if isinstance(X, FixedRankPoint) else X
        left = np.hstack([Ai @ Z.left for Ai in self.A])
        right = np.hstack([Bi @ Z.right for Bi in self.B])
        return FactoredMatrix(left, right)

    def dense_kron(self):
        """Dense Kronecker system matrix sum(kron(B_i, A_i)); test sizes only."""
        if self.m * self.n > 4096:
            raise ValueError("dense Kronecker matrix restricted to m*n <= 4096")
        K = np.zeros((self.m * self.n, self.m * self.n))
        for Ai, Bi in zip(self.A, self.B):
            K += np.kron(numkit.as_dense(Bi), numkit.as_dense(Ai))
        return K

    def spd_check_dense(self):
        """Smallest eigenvalue of the dense Kronecker matrix (small instances)."""
        K = self.dense_kron()
        w = np.linalg.eigvalsh(0.5 * (K + K.T))
        return float(w[0])


def residual(op: MultitermOperator, X: FixedRankPoint, F: FactoredMatrix) -> FactoredMatrix:
    """Factored residual ``A X - F`` of rank ``ell * r + r_F``."""
    US = X.U * X.sigma
    left = np.hstack([Ai @ US for Ai in op.A] + [-F.left])
    right = np.hstack([Bi @ X.V for Bi in op.B] + [F.right])
    return FactoredMatrix(left, right)


def evaluate(op: MultitermOperator, X: FixedRankPoint, F: FactoredMatrix):
    """Objective value and factored residual, sharing the A_i U products.

    Returns ``(f, R)`` with ``f = 0.5 <A X, X> - <X, F>`` and
    ``R = A X - F``.
    """
    AUs = [Ai @ X.U for Ai in op.A]
    BVs = [Bi @ X.V for Bi in op.B]
    S = X.sigma
    axx = 0.0
    for AU, BV in zip(AUs, BVs):
        P = X.U.T @ AU
        Q = X.V.T @ BV
        axx += float(np.sum((S[:, None] * P * S[None, :]) * Q))
    xf = float(np.sum((X.U.T @ F.left) * (S[:, None] * (X.V.T @ F.right))))
    f = 0.5 * axx - xf
    left = np.hstack([AU * S for AU in AUs] + [-F.left])
    right = np.hstack(BVs + [F.right])
    return f, FactoredMatrix(left, right)


def objective(op, X, F) -> float:
    f, _ = evaluate(op, X, F)
    return f


def residual_norm_exact(op, X, F, metric=None) -> float:
    """Exact relative residual norm ``||A X - F|| / ||F||``.

    Frobenius norm by default; B-norm via weighted QR when a metric is
    given.  Raises on a zero right-hand side.
    """
    nrm_f = factored_norm(F, metric)
    if nrm_f == 0.0:
        raise ValueError("zero right-hand side: relative residual undefined")
    R = residual(op, X, F)
    return factored_norm(R, metric) / nrm_f
