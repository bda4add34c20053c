"""Fixed-rank manifold geometry under a Kronecker-structured metric.

The manifold of rank-r matrices is treated as a Riemannian submanifold of
R^{m x n} equipped with the inner product ``<X, Y>_B = <E X D, Y>`` for SPD
``E`` and ``D``.  The standard embedded geometry is the special case
``E = I``, ``D = I`` and needs no factorizations.

Points are stored as weighted thin SVD triples ``(U, sigma, V)`` with
``U.T @ E @ U = I`` and ``V.T @ D @ V = I``; tangent vectors as coefficient
triples ``(M, Up, Vp)`` with ``U.T @ E @ Up = 0`` and ``V.T @ D @ Vp = 0``.
All operations are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from . import numkit

# Dense products of factored matrices are refused above this edge length
# unless explicitly forced; the dense path exists for oracles and tests.
DENSIFY_LIMIT = 64

# Singular values below this multiple of the largest one are floored to
# keep points on the manifold.
SIGMA_FLOOR_FACTOR = 1e2 * np.finfo(float).eps

# ``gauge_qr`` falls back to the Householder weighted QR when its triangle's
# estimated condition number exceeds this.  CholeskyQR2 is accurate for
# blocks conditioned well below eps^-1/2 (Yamamoto, Nakatsukasa, Yanagisawa
# & Fukaya, ETNA 2015), and a rank-deficient block whose Grams still factor
# gives a triangle conditioned near eps^-1, far above this bound.
GAUGE_QR_MAX_COND = 1e7


class KroneckerMetric:
    """Ambient inner product ``<X, Y> = <E X D, Y>`` with SPD E, D.

    ``E`` or ``D`` may be None for the identity; ``KroneckerMetric()`` is
    the standard metric.  The pair and its SPD factorizations serve as the
    ambient metric of the weighted geometry (which is how the Riemannian
    solvers apply the Kronecker preconditioner ``E X D``), as truncated
    CG's ambient solve with ``E X D`` (``precond.KronPrecond``) and as the pair
    behind the ADI pencils ``(A - q E, B + p D)`` (``precond.TangAdiPrecond``,
    ``precond.FadiAmbientPrecond``, ``precond.adi_shifts``).
    Outside this class the package reaches E and D through ``apply_*``
    (products) and ``solve_*`` (solves by the factorizations ``fact_E``,
    ``fact_D``); the ADI pencils also read the matrices.  No square root of
    E or D is taken.  On an identity side both return their argument.
    """

    def __init__(self, E=None, D=None):
        self.E = E
        self.D = D
        if E is not None:
            numkit.check_symmetric(E, name="E")
        if D is not None:
            numkit.check_symmetric(D, name="D")
        self.fact_E = numkit.SpdFactorization(E) if E is not None else None
        self.fact_D = numkit.SpdFactorization(D) if D is not None else None

    @property
    def is_identity(self):
        return self.E is None and self.D is None

    def products(self):
        """``(apply_E, apply_D)`` with None for an identity side, as the
        weighted QRs take them: an identity side takes no Gram pass."""
        return (None if self.E is None else self.apply_E,
                None if self.D is None else self.apply_D)

    # -- E side -------------------------------------------------------------
    def apply_E(self, M):
        return M if self.E is None else self.E @ M

    def solve_E(self, M):
        return M if self.fact_E is None else self.fact_E.solve(M)

    # -- D side -------------------------------------------------------------
    def apply_D(self, M):
        return M if self.D is None else self.D @ M

    def solve_D(self, M):
        return M if self.fact_D is None else self.fact_D.solve(M)


@dataclass(frozen=True)
class FactoredMatrix:
    """Rank-k factored matrix ``left @ right.T`` (k may be zero)."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.left.ndim != 2 or self.right.ndim != 2:
            raise ValueError("factors must be 2-d")
        if self.left.shape[1] != self.right.shape[1]:
            raise ValueError("factor rank mismatch")

    @property
    def shape(self):
        return (self.left.shape[0], self.right.shape[0])

    @property
    def k(self):
        return self.left.shape[1]

    @classmethod
    def zero(cls, m, n):
        return cls(np.zeros((m, 0)), np.zeros((n, 0)))

    def scaled(self, alpha):
        return FactoredMatrix(alpha * self.left, self.right)

    def hstack(self, other):
        return FactoredMatrix(
            np.hstack([self.left, other.left]), np.hstack([self.right, other.right])
        )

    def densify(self, force=False):
        m, n = self.shape
        if not force and min(m, n) > DENSIFY_LIMIT:
            raise ValueError(
                f"refusing to densify a {m}x{n} factored matrix; pass force=True in tests"
            )
        return self.left @ self.right.T


def factored_inner(Z1: FactoredMatrix, Z2: FactoredMatrix) -> float:
    """Frobenius inner product of two factored matrices, O((m+n) k1 k2)."""
    if Z1.k == 0 or Z2.k == 0:
        return 0.0
    return float(np.sum((Z1.left.T @ Z2.left) * (Z1.right.T @ Z2.right)))


def factored_norm(Z: FactoredMatrix) -> float:
    """Frobenius norm of ``left @ right.T``.

    With ``L`` the factor with fewer rows (l of them) and ``R`` the other
    one, the norm is ``||R R_L^T||_F`` for the R-only QR ``L = Q_L R_L``;
    ``trmm`` multiplies by the k x k triangle.  When k > l the dense
    ``R @ L.T`` costs the flops of ``R @ R_L.T``, so it is taken without
    the QR.
    """
    if Z.k == 0:
        return 0.0
    L, R = Z.left, Z.right
    if L.shape[0] > R.shape[0]:
        L, R = R, L
    if Z.k > L.shape[0]:
        return float(np.linalg.norm(R @ L.T))
    return float(np.linalg.norm(blas.dtrmm(1.0, numkit.qr_r(L), R, side=1, trans_a=1)))


class FixedRankPoint:
    """Rank-r point stored as a weighted thin SVD ``U @ diag(sigma) @ V.T``."""

    __slots__ = ("U", "sigma", "V", "metric", "_EU", "_DV")

    def __init__(self, U, sigma, V, metric):
        self.U = U
        self.sigma = np.asarray(sigma, dtype=float)
        self.V = V
        self.metric = metric
        self._EU = None
        self._DV = None

    @property
    def r(self):
        return self.sigma.size

    @property
    def shape(self):
        return (self.U.shape[0], self.V.shape[0])

    @property
    def EU(self):
        if self._EU is None:
            self._EU = self.metric.apply_E(self.U)
        return self._EU

    @property
    def DV(self):
        if self._DV is None:
            self._DV = self.metric.apply_D(self.V)
        return self._DV

    def as_factored(self) -> FactoredMatrix:
        return FactoredMatrix(self.U * self.sigma, self.V)

    def densify(self, force=False):
        return self.as_factored().densify(force=force)

    def frobenius_norm(self):
        if self.metric.is_identity:
            return float(np.linalg.norm(self.sigma))
        return factored_norm(self.as_factored())

    def scaled(self, alpha):
        if alpha <= 0:
            raise ValueError("scale must be positive")
        return FixedRankPoint(self.U, alpha * self.sigma, self.V, self.metric)


class TangentVector:
    """Tangent vector ``U M V.T + Up V.T + U Vp.T`` at a FixedRankPoint.

    ``E_Up = E @ Up`` and ``D_Vp = D @ Vp`` are cached when they fall out
    of the gradient computation and computed lazily otherwise.
    """

    __slots__ = ("M", "Up", "Vp", "point", "_E_Up", "_D_Vp")

    def __init__(self, M, Up, Vp, point, E_Up=None, D_Vp=None):
        self.M = M
        self.Up = Up
        self.Vp = Vp
        self.point = point
        self._E_Up = E_Up
        self._D_Vp = D_Vp

    @property
    def E_Up(self):
        if self._E_Up is None:
            self._E_Up = self.point.metric.apply_E(self.Up)
        return self._E_Up

    @property
    def D_Vp(self):
        if self._D_Vp is None:
            self._D_Vp = self.point.metric.apply_D(self.Vp)
        return self._D_Vp

    def scaled(self, alpha):
        return TangentVector(alpha * self.M, alpha * self.Up, alpha * self.Vp, self.point)

    def plus(self, other, beta=1.0):
        """``self + beta * other`` at the same base point."""
        if other.point is not self.point:
            raise ValueError("tangent vectors have different base points")
        return TangentVector(
            self.M + beta * other.M,
            self.Up + beta * other.Up,
            self.Vp + beta * other.Vp,
            self.point,
        )

    def embed(self) -> FactoredMatrix:
        """Rank-2r factored form ``[U, Up] @ [V M.T + Vp, V].T``."""
        X = self.point
        return FactoredMatrix(
            np.hstack([X.U, self.Up]),
            np.hstack([X.V @ self.M.T + self.Vp, X.V]),
        )

    def retangentialize(self, tol=1e-10):
        """Re-orthogonalize Up, Vp against U, V when drift exceeds ``tol``.

        Long solver runs can let the tangent constraints drift; the fix is
        a single projection step reusing the measured overlap.
        """
        X = self.point
        cu = X.EU.T @ self.Up
        cv = X.DV.T @ self.Vp
        nu = np.linalg.norm(self.Up)
        nv = np.linalg.norm(self.Vp)
        out = self
        if np.linalg.norm(cu) > tol * max(nu, 1e-300):
            out = TangentVector(out.M, out.Up - X.U @ cu, out.Vp, X)
        if np.linalg.norm(cv) > tol * max(nv, 1e-300):
            out = TangentVector(out.M, out.Up, out.Vp - X.V @ cv, X)
        return out


def inner(xi: TangentVector, eta: TangentVector) -> float:
    """B-metric inner product of two tangent vectors at the same point."""
    if xi.point is not eta.point:
        raise ValueError("tangent vectors have different base points")
    val = float(np.sum(xi.M * eta.M))
    val += float(np.sum(xi.E_Up * eta.Up))
    val += float(np.sum(xi.D_Vp * eta.Vp))
    return val


def norm(xi: TangentVector) -> float:
    return float(np.sqrt(max(inner(xi, xi), 0.0)))


def weighted_qr(M, apply_E):
    """QR ``M = Q R`` with ``Q.T E Q = I`` from products with E alone.

    ``apply_E`` multiplies by E, None for the identity.  A Householder QR
    ``M = Q0 R0`` comes first: Q0 is orthonormal whatever the rank or the
    shape of M, so its E-Gram ``Q0.T E Q0`` is SPD with condition number at
    most that of E, and the two CholeskyQR passes of ``_cholesky_qr2`` on
    Q0 (with no block to project against) give ``Q = Q0 T^-1`` and ``R = T
    R0`` (Lowery & Langou, "Stability analysis of QR factorization in an
    oblique inner product", 2014).  The identity takes no Gram pass.
    """
    Q, R = numkit.qr_thin(M)
    if apply_E is None:
        return Q, R
    Q, _, T = _cholesky_qr2(Q[:, :0], Q[:, :0], Q, apply_E)
    return Q, T @ R


def gauge_qr(Y, EY, Yp, apply_E):
    """E-orthonormal QR ``[Y, Yp] = Q R`` for an E-orthonormal Y.

    ``EY = E @ Y``; ``apply_E`` multiplies by E, None for the identity.
    Only Yp needs factoring: two CholeskyQR passes, each projecting against
    Y first, give ``Q = [Y, Q2]`` and ``R = [[I, C], [0, R2]]`` with one
    product of E with Yp's columns per pass and no solve.  The Householder
    ``weighted_qr`` takes over when ``[Y, Yp]`` has more columns than rows,
    a Gram fails to factor, or R2's estimated condition number exceeds
    ``GAUGE_QR_MAX_COND`` (Yp is then nearly rank-deficient).
    """
    m, r = Y.shape
    k = Yp.shape[1]
    if m >= r + k:
        try:
            Q2, C, R2 = _cholesky_qr2(Y, EY, Yp, apply_E)
        except np.linalg.LinAlgError:
            pass
        else:
            if lapack.dtrcon(R2)[0] * GAUGE_QR_MAX_COND >= 1.0:
                return np.hstack([Y, Q2]), np.block([[np.eye(r), C], [np.zeros((k, r)), R2]])
    return weighted_qr(np.hstack([Y, Yp]), apply_E)


def _cholesky_qr2(Y, EY, Yp, apply_E):
    """``Yp = Y C + Q2 R2`` with ``Q2.T E Q2 = I`` and ``Y.T E Q2 = 0``.

    The one CholeskyQR kernel of the package (``gauge_qr``, ``weighted_qr``
    and, through it, RRAM's rank increase).  Keeps ``Yp = Y C + W T``: each
    pass takes W's component along Y into C (the second pass removes what
    the first one's division amplified) and divides W by the Cholesky
    factor of its E-Gram; ``apply_E`` is None for the identity.  Raises
    ``LinAlgError`` when a Gram is not numerically SPD.
    """
    W = Yp
    C = np.zeros((Y.shape[1], Yp.shape[1]))
    T = np.eye(Yp.shape[1])
    for _ in range(2):
        D = EY.T @ W
        W = W - Y @ D
        C += D @ T
        EW = W if apply_E is None else apply_E(W)
        R = sla.cholesky(W.T @ EW, lower=False, check_finite=False)
        W = blas.dtrsm(1.0, R, W, side=1)       # W R^-1
        T = R @ T
    return W, C, T


def weighted_svd(Z, metric: KroneckerMetric):
    """Weighted thin SVD ``Z = U diag(s) V.T`` with E-/D-orthonormal factors.

    Factored input ``L @ R.T`` (dense input as ``Z @ I.T``) goes through a
    weighted QR ``L = Q_L T_L`` of the factor with fewer rows, a weighted
    QR ``R @ T_L.T = Q_R T_R`` of the other factor with that triangle
    folded in (``min(m, n, k)`` columns, not ``k``), and an SVD of the
    small core ``T_R.T``, so the cost stays O((m + n) k^2).
    """
    if not isinstance(Z, FactoredMatrix):
        Z = np.asarray(Z, dtype=float)
        Z = FactoredMatrix(Z, np.eye(Z.shape[1]))
    m, n = Z.shape
    if Z.k == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    apply_E, apply_D = metric.products()
    if m <= n:
        QL, TL = weighted_qr(Z.left, apply_E)
        QR_, TR = weighted_qr(Z.right @ TL.T, apply_D)
        C = TR.T
    else:
        QR_, TR = weighted_qr(Z.right, apply_D)
        QL, C = weighted_qr(Z.left @ TR.T, apply_E)
    u, s, v = numkit.svd_thin(C)
    return QL @ u, s, QR_ @ v


def _numerical_rank(s, m, n):
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(m, n) * np.finfo(float).eps * s[0]))


def truncate(Z, r, metric: KroneckerMetric) -> FixedRankPoint:
    """Best rank-r approximation of Z in the B-norm (weighted Eckart-Young).

    If the numerical rank of Z is below ``r`` the returned point has the
    smaller rank; a Z of numerical rank 0 gives a rank-0 point.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    U, s, V = weighted_svd(Z, metric)
    m, n = (Z.shape if isinstance(Z, FactoredMatrix) else np.asarray(Z).shape)
    keep = min(r, _numerical_rank(s, m, n))
    return FixedRankPoint(U[:, :keep], s[:keep].copy(), V[:, :keep], metric)


def project(X: FixedRankPoint, Z) -> TangentVector:
    """B-orthogonal projection of an ambient matrix onto the tangent space."""
    metric = X.metric
    if isinstance(Z, FactoredMatrix):
        P = Z.left.T @ X.EU      # k x r
        Q = Z.right.T @ X.DV     # k x r
        M = P.T @ Q
        ZDV = Z.left @ Q
        ZtEU = Z.right @ P
    else:
        Z = np.asarray(Z, dtype=float)
        ZDV = Z @ X.DV
        ZtEU = Z.T @ X.EU
        M = X.U.T @ metric.apply_E(ZDV)
    Up = ZDV - X.U @ M
    Vp = ZtEU - X.V @ M.T
    return TangentVector(M, Up, Vp, X)


def riemannian_gradient(X: FixedRankPoint, Z: FactoredMatrix, ZtU, ZtV) -> TangentVector:
    """Projection of ``B^{-1} Z`` for a factored Euclidean gradient Z.

    ``ZtU = Z.left.T @ X.U`` and ``ZtV = Z.right.T @ X.V`` come from the
    caller, which knows them as blocks (``equations.evaluate``).  The
    weighted products ``E @ Up`` and ``D @ Vp`` come out of the formulas
    for free and are cached on the result.  One more projection of them
    keeps the gauge ``U.T E Up = 0`` to rounding relative to Up, which the
    cancellation in ``Z.left Q - E U M`` would lose as the gradient shrinks.
    """
    metric = X.metric
    M = ZtU.T @ ZtV
    E_Up = Z.left @ ZtV - X.EU @ M
    D_Vp = Z.right @ ZtU - X.DV @ M.T
    E_Up -= X.EU @ (X.U.T @ E_Up)
    D_Vp -= X.DV @ (X.V.T @ D_Vp)
    Up = metric.solve_E(E_Up)
    Vp = metric.solve_D(D_Vp)
    return TangentVector(M, Up, Vp, X, E_Up=E_Up, D_Vp=D_Vp)


def transport(Y: FixedRankPoint, xi: TangentVector) -> TangentVector:
    """Carry a tangent vector at X to the tangent space at Y by projection."""
    if Y.shape != xi.point.shape:
        raise ValueError("ambient dimensions differ")
    if Y.metric is not xi.point.metric:
        raise ValueError("transport across different metrics")
    return project(Y, xi.embed())


class LineSearchRetraction:
    """Retraction ``t -> P_Mr(X + t xi)`` with the weighted QRs hoisted out.

    ``X + t xi = Y (C0 + t C_xi) W.T`` for ``Y = [U, Up]``, ``W = [V, Vp]``,
    ``C0 = diag(sigma, 0)`` and ``C_xi = [[M, I], [I, 0]]``.  With the weighted
    QRs ``Y = QU RU`` and ``W = QV RV`` (``gauge_qr``), which depend only on
    (X, xi), every trial is ``QU (c0 + t xi_core) QV.T`` with the small cores
    ``c0 = RU C0 RV.T`` and ``xi_core = RU C_xi RV.T``, so a trial step is an
    SVD of a core of at most ``2r x 2r``.  ``QU[:, :r] = U RU[:r, :r]^-1`` and
    ``QV[:, :r] = V RV[:r, :r]^-1``; where the gauge path ran,
    ``RU[:r, :r] = I`` and ``QU[:, :r] = U`` (likewise for V).
    """

    def __init__(self, X: FixedRankPoint, xi: TangentVector):
        if xi.point is not X:
            raise ValueError("tangent vector not based at X")
        self.X = X
        r = X.r
        apply_E, apply_D = X.metric.products()
        self.QU, self.RU = gauge_qr(X.U, X.EU, xi.Up, apply_E)
        self.QV, self.RV = gauge_qr(X.V, X.DV, xi.Vp, apply_D)
        RU1, RV1 = self.RU[:, :r], self.RV[:, :r]
        self.c0 = (RU1 * X.sigma) @ RV1.T
        self.xi_core = (RU1 @ xi.M + self.RU[:, r:]) @ RV1.T + RU1 @ self.RV[:, r:].T

    def at(self, t: float):
        """Core ``(u, s, v)`` of the trial at t: ``P_Mr(X + t xi) =
        QU u diag(s) (QV v).T``, with no m- or n-sized work."""
        u, s, v = numkit.svd_thin(self.c0 + t * self.xi_core)
        r = self.X.r
        floor = SIGMA_FLOOR_FACTOR * (s[0] if s[0] > 0 else 1.0)
        return u[:, :r], np.maximum(s[:r], floor), v[:, :r]

    def point(self, u, s, v) -> FixedRankPoint:
        """The point of the core ``(u, s, v)`` that ``at`` returned."""
        return FixedRankPoint(self.QU @ u, s, self.QV @ v, self.X.metric)


def random_point(m, n, r, metric: KroneckerMetric, rng, fro_norm=1.0) -> FixedRankPoint:
    """Random rank-r point rescaled to the requested Frobenius norm."""
    G = FactoredMatrix(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    X = truncate(G, r, metric)
    nrm = X.frobenius_norm()
    return X.scaled(fro_norm / nrm)
