"""Multiterm linear operator, objective and factored residual machinery.

The operator is ``A X = sum_i A_i X B_i.T`` with symmetric coefficient
matrices; the induced Kronecker system matrix is assumed SPD (verified
densely only on small test instances).  Residuals and gradients are kept
in factored form: for ``X = U diag(s) V.T``,

    A X - F = [A_1 U S, ..., A_l U S, -F_L] @ [B_1 V, ..., B_l V, F_R].T

until those ``l r + r_F`` columns outnumber ``min(m, n)``; from there
``evaluate`` forms the m x n residual once (``Evaluation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """Objective, residual and the projected terms at a point X.

    ``AUS = [A_1 U S, ..., A_l U S]`` and ``BV = [B_1 V, ..., B_l V]`` are
    the residual's term blocks (module docstring); with ``UAU[i] = U.T A_i
    U`` and ``VBV[i] = V.T B_i V`` they are what a line search from X reuses
    (``ProjectedObjective``).  R carries ``A X - F`` in its factors
    ``[AUS, -F_L] @ [BV, F_R].T`` while their ``l r + r_F`` columns are at
    most ``min(m, n)``.  Past that it carries the dense residual ``Rd``
    formed once, as ``(Rd, I_n)``, or ``(I_m, Rd.T)`` when ``m < n``, so
    ``R.k <= min(m, n)`` always.  ``RtU = R.left.T @ U`` and ``RtV =
    R.right.T @ V``, which the Riemannian gradient needs, are assembled
    from the blocks.
    """

    f: float               # 0.5 <A X, X> - <X, F>
    R: FactoredMatrix      # A X - F
    dense: bool            # R carries the dense residual and an identity
    AUS: np.ndarray
    BV: np.ndarray
    UAU: np.ndarray
    VBV: np.ndarray
    RtU: np.ndarray
    RtV: np.ndarray

    @cached_property
    def norm(self) -> float:
        """``||A X - F||_F``: the Frobenius norm of the dense residual, or
        ``factored_norm`` of the factors."""
        if self.dense:
            return float(np.linalg.norm(self.R.left if self.R.shape[0] >= self.R.shape[1]
                                        else self.R.right))
        return factored_norm(self.R)


def evaluate(op: MultitermOperator, X: FixedRankPoint, F: FactoredMatrix,
             UAU=None, VBV=None) -> Evaluation:
    """Objective value, residual and its products with U and V, sharing
    the A_i U and B_i V products, which go straight into the residual's
    factors.  ``UAU`` and ``VBV`` are taken as given when the caller holds
    them (a line search's accepted point), else formed."""
    (m, n), r, ell = X.shape, X.r, op.ell
    terms = ell * r
    S = X.sigma
    # column-major, so each term block is a contiguous write and LAPACK
    # takes the factors without a transposed copy
    left = np.empty((m, terms + F.k), order="F")
    right = np.empty((n, terms + F.k), order="F")
    form = UAU is None
    if form:
        UAU = np.empty((ell, r, r))
        VBV = np.empty((ell, r, r))
    for i, (Ai, Bi) in enumerate(zip(op.A, op.B)):
        cols = slice(i * r, (i + 1) * r)
        AU = Ai @ X.U
        np.multiply(AU, S, out=left[:, cols])
        BV = Bi @ X.V
        right[:, cols] = BV
        if form:
            UAU[i] = X.U.T @ AU
            VBV[i] = X.V.T @ BV
    return _evaluation(X, F, left, right, UAU, VBV)


def evaluate_grown(F: FactoredMatrix, ev: Evaluation, X_up: FixedRankPoint, order,
                   alpha, AY: FactoredMatrix) -> Evaluation:
    """The evaluation at the point ``X_up = X + alpha Y`` of a rank
    increase, from the evaluation ``ev`` at X and ``AY = op.apply(Y)``,
    with no product of a coefficient matrix.

    ``Y = NU diag(s_N) NV.T`` has k columns, and X_up holds the r + k
    columns of ``[X, Y]`` in the order ``order``: its column j is X's
    column ``order[j]``, or, for ``order[j] >= r``, Y's column ``c =
    order[j] - r`` as ``(sign(alpha) NU[:, c], |alpha| s_N[c], NV[:, c])``.
    So the term blocks gain ``A_i U_j s_j = alpha (A_i NU s_N)[:, c]`` and
    ``B_i V_j = (B_i NV)[:, c]``, the columns of AY; ``UAU`` and ``VBV``
    gain their cross blocks from one small GEMM of X_up's basis against
    AY; and the residual ``A X_up - F = R + alpha AY.left AY.right.T`` is
    a rank-``l k`` update of ev's dense residual, or, while X's residual
    is factored, the grown factors, multiplied out where their columns
    first outnumber ``min(m, n)``.
    """
    (m, n), r_up = X_up.shape, X_up.r
    ell, r = ev.UAU.shape[:2]
    k = r_up - r
    terms = ell * r_up
    old, new = np.flatnonzero(order < r), np.flatnonzero(order >= r)
    # the columns of every term block: where X_up holds X's and Y's, and
    # where ev's blocks and AY hold them
    term = np.arange(ell)[:, None]
    to_old, to_new = (term * r_up + old).ravel(), (term * r_up + new).ravel()
    from_old, from_new = (term * r + order[old]).ravel(), (term * k + order[new] - r).ravel()
    left = np.empty((m, terms + F.k), order="F")
    right = np.empty((n, terms + F.k), order="F")
    left[:, to_old] = ev.AUS[:, from_old]
    right[:, to_old] = ev.BV[:, from_old]
    AUS_new = alpha * AY.left[:, from_new]
    BV_new = AY.right[:, from_new]
    left[:, to_new] = AUS_new
    right[:, to_new] = BV_new
    # U_up.T A_i U_up[:, new] = U_up.T (A_i U_up S_up)[:, new] / s_new
    GU = (X_up.U.T @ AUS_new).reshape(r_up, ell, k).transpose(1, 0, 2) / X_up.sigma[new]
    GV = (X_up.V.T @ BV_new).reshape(r_up, ell, k).transpose(1, 0, 2)
    UAU = np.empty((ell, r_up, r_up))
    VBV = np.empty((ell, r_up, r_up))
    for blocks, G, old_blocks in ((UAU, GU, ev.UAU), (VBV, GV, ev.VBV)):
        blocks[:, old[:, None], old] = old_blocks[:, order[old][:, None], order[old]]
        blocks[:, :, new] = G
        blocks[:, new[:, None], old] = G[:, old].transpose(0, 2, 1)
    Rd = None
    if ev.dense:
        # the dense residual is stored as R.left (m >= n) or R.right (m < n)
        Rd = (ev.R.left + (alpha * AY.left) @ AY.right.T if m >= n
              else ev.R.right + AY.right @ (alpha * AY.left).T)
    return _evaluation(X_up, F, left, right, UAU, VBV, Rd)


def _evaluation(X, F, left, right, UAU, VBV, Rd=None) -> Evaluation:
    """The evaluation at X from its term blocks, the leading columns of
    the residual's factors ``left`` and ``right``, whose last ``r_F``
    columns this fills with ``-F_L`` and ``F_R``, and ``UAU``, ``VBV``.
    ``Rd`` is the dense residual in R's storage (``Evaluation``) when the
    caller has it; a dense R is otherwise multiplied out of the factors."""
    (m, n), r = X.shape, X.r
    terms = left.shape[1] - F.k
    S = X.sigma
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
    dense = terms + F.k > min(m, n)
    if not dense:
        R = FactoredMatrix(left, right)
    elif m >= n:
        R = FactoredMatrix(left @ right.T if Rd is None else Rd, np.eye(n))
        RtU, RtV = right @ RtU, X.V
    else:
        R = FactoredMatrix(np.eye(m), right @ left.T if Rd is None else Rd)
        RtU, RtV = X.U, left @ RtV
    return Evaluation(f, R, dense, left[:, :terms], right[:, :terms], UAU, VBV, RtU, RtV)


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
        self.G = _projected_terms(op.A, retr.QU, retr.RU, ev.AUS, ev.UAU, X.sigma)
        self.K = _projected_terms(op.B, retr.QV, retr.RV, ev.BV, ev.VBV)
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
