"""Multiterm linear operator, objective and factored residual machinery.

The operator is ``A X = sum_i A_i X B_i.T`` with symmetric coefficient
matrices; the induced Kronecker system matrix is assumed SPD (verified
densely only on small test instances).  Residuals and gradients are kept
in factored form throughout: for ``X = U diag(s) V.T``,

    A X - F = [A_1 U S, ..., A_l U S, -F_L] @ [B_1 V, ..., B_l V, F_R].T
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .geometry import FactoredMatrix, FixedRankPoint, LineSearchRetraction, factored_norm


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


def _term_products(mats, Y):
    """``M_i Y`` for every term, stacked along the first axis."""
    out = np.empty((len(mats), Y.shape[0], Y.shape[1]))
    for i, M in enumerate(mats):
        out[i] = M @ Y
    return out


def residual(op: MultitermOperator, X, F: FactoredMatrix) -> FactoredMatrix:
    """Factored residual ``A X - F`` of rank ``ell * k + r_F``, for X a
    fixed-rank point or a factored matrix of rank k."""
    return op.apply(X).hstack(F.scaled(-1.0))


@dataclass(frozen=True)
class Evaluation:
    """Objective, factored residual and the projected terms at a point X.

    The residual's factors hold ``A_i U S`` and ``B_i V`` (module
    docstring); with ``UAU[i] = U.T A_i U`` and ``VBV[i] = V.T B_i V`` they
    are what a line search from X reuses (``ProjectedObjective``).
    ``RtU = R.left.T @ U`` and ``RtV = R.right.T @ V``, which the Riemannian
    gradient needs, are assembled from the same blocks.
    """

    f: float               # 0.5 <A X, X> - <X, F>
    R: FactoredMatrix      # A X - F
    UAU: np.ndarray
    VBV: np.ndarray
    RtU: np.ndarray        # [S UAU[i].T, ..., -(U.T F_L).T]
    RtV: np.ndarray        # [VBV[i].T, ..., (V.T F_R).T]


def evaluate(op: MultitermOperator, X: FixedRankPoint, F: FactoredMatrix) -> Evaluation:
    """Objective value, factored residual and its products with U and V,
    sharing the A_i U and B_i V products, which go straight into the
    residual's factors."""
    (m, n), r, ell = X.shape, X.r, op.ell
    terms = ell * r
    S = X.sigma
    # column-major, so each term block is a contiguous write and LAPACK
    # takes the factors without a transposed copy
    left = np.empty((m, terms + F.k), order="F")
    right = np.empty((n, terms + F.k), order="F")
    UAU = np.empty((ell, r, r))
    VBV = np.empty((ell, r, r))
    for i, (Ai, Bi) in enumerate(zip(op.A, op.B)):
        cols = slice(i * r, (i + 1) * r)
        AU = Ai @ X.U
        UAU[i] = X.U.T @ AU
        np.multiply(AU, S, out=left[:, cols])
        BV = Bi @ X.V
        VBV[i] = X.V.T @ BV
        right[:, cols] = BV
    np.negative(F.left, out=left[:, terms:])
    right[:, terms:] = F.right
    UF = X.U.T @ F.left
    VF = X.V.T @ F.right
    axx = float(np.sum((S[:, None] * UAU * S) * VBV))
    xf = float(np.sum(UF * (S[:, None] * VF)))
    f = 0.5 * axx - xf
    # (A_i U S).T U = S (U.T A_i U).T and (B_i V).T V = (V.T B_i V).T
    RtU = np.vstack([(S[:, None] * UAU.transpose(0, 2, 1)).reshape(terms, r), -UF.T])
    RtV = np.vstack([VBV.transpose(0, 2, 1).reshape(terms, r), VF.T])
    return Evaluation(f, FactoredMatrix(left, right), UAU, VBV, RtU, RtV)


class ProjectedObjective:
    """The objective on the subspace of a line search, in small cores.

    Every trial point of the line search at X along xi (``self.retr``, a
    ``LineSearchRetraction``) is ``QU c QV.T`` for a core ``c`` of at most
    ``2r x 2r``, and so is X (``c0``).  On that subspace

        f(QU c QV.T) = 1/2 sum_i tr(c.T G_i c K_i) - <c, QU.T F QV>,
        G_i = QU.T A_i QU,  K_i = QV.T B_i QV,

    so a trial costs no m- or n-sized work.  ``A_i QU`` needs the new
    sparse products ``A_i QU[:, r:]`` only, because ``QU[:, :r] =
    U RU[:r, :r]^-1`` and ``A_i U`` and ``U.T A_i U`` are known from the
    evaluation ``ev`` at X; likewise for ``B_i QV``.
    """

    def __init__(self, op, F, X, xi, ev):
        self.retr = retr = LineSearchRetraction(X, xi)
        terms = op.ell * X.r
        self.G = _projected_terms(op.A, retr.QU, retr.RU, ev.R.left[:, :terms], ev.UAU, X.sigma)
        self.K = _projected_terms(op.B, retr.QV, retr.RV, ev.R.right[:, :terms], ev.VBV)
        FQ = (retr.QU.T @ F.left) @ (F.right.T @ retr.QV)
        # core of QU.T (A X - F) QV, the residual at X seen from the subspace
        self.res_core = np.sum(self.G @ retr.c0 @ self.K, axis=0) - FQ

    def curvature(self, c) -> float:
        """``<A Z, Z>`` for ``Z = QU c QV.T``: ``sum_i tr(c.T G_i c K_i)``."""
        return float(np.sum((self.G @ c) * (c @ self.K)))

    def decrease(self, c) -> float:
        """``f(QU c QV.T) - f(X)`` as ``<R_X, D> + 1/2 <A D, D>`` for the
        difference ``D = QU (c - c0) QV.T``, free of the cancellation of
        subtracting two values of f."""
        d = c - self.retr.c0
        return float(np.sum(self.res_core * d)) + 0.5 * self.curvature(d)


def _projected_terms(mats, Q, R, AY, YAY, s=1.0):
    """``G_i = Q.T M_i Q`` for the QR ``Q R = [Y, Yp]``, from
    ``AY = [M_1 Y diag(s), ..., M_l Y diag(s)]`` and ``YAY[i] = Y.T M_i Y``.

    ``Q[:, :r] = Y R11^-1``, so ``M_i Q = [M_i Y R11^-1, M_i Q2]`` with
    ``Q2 = Q[:, r:]``: only ``M_i Q2`` is a new sparse product.  Returns
    the ``G_i`` stacked along the first axis.
    """
    ell, r = YAY.shape[0], YAY.shape[-1]
    Q2 = Q[:, r:]
    k = r + Q2.shape[1]
    # R11.T R11 = U.T E U = I: well conditioned, and the identity where the
    # retraction's gauge QR ran
    R11_inv = np.linalg.inv(R[:r, :r])
    # Q.T M_i Y: rows R11^-T Y.T M_i Y, then Q2.T M_i Y
    Q2t_AY = (Q2.T @ AY).reshape(k - r, ell, r).transpose(1, 0, 2) / s
    T = np.concatenate([R11_inv.T @ YAY, Q2t_AY], axis=1)
    G = np.empty((ell, k, k))
    G[:, :, :r] = T @ R11_inv
    G[:, :r, r:] = G[:, r:, :r].transpose(0, 2, 1)
    G[:, r:, r:] = Q2.T @ _term_products(mats, Q2)
    return G


def residual_norm_exact(op, X, F) -> float:
    """Exact relative Frobenius residual norm ``||A X - F|| / ||F||``.

    Raises on a zero right-hand side.
    """
    nrm_f = factored_norm(F)
    if nrm_f == 0.0:
        raise ValueError("zero right-hand side: relative residual undefined")
    R = residual(op, X, F)
    return factored_norm(R) / nrm_f
