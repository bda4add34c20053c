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

from . import numkit

# Dense products of factored matrices are refused above this edge length
# unless explicitly forced; the dense path exists for oracles and tests.
DENSIFY_LIMIT = 64

# Singular values below this multiple of the largest one are floored to
# keep points on the manifold.
SIGMA_FLOOR_FACTOR = 1e2 * np.finfo(float).eps


class KroneckerMetric:
    """Ambient inner product ``<X, Y> = <E X D, Y>`` with SPD E, D.

    ``E`` or ``D`` may be None for the identity.  Cholesky-type square
    roots (``E = C_E.T @ C_E``) back the weighted QR/SVD kernels.
    """

    def __init__(self, E=None, D=None, m=None, n=None):
        if E is None and m is None:
            raise ValueError("need E or m")
        if D is None and n is None:
            raise ValueError("need D or n")
        self.E = E
        self.D = D
        self.m = int(E.shape[0]) if E is not None else int(m)
        self.n = int(D.shape[0]) if D is not None else int(n)
        if E is not None:
            numkit.check_symmetric(E, name="E")
        if D is not None:
            numkit.check_symmetric(D, name="D")
        self.fact_E = numkit.spd_factorize(E) if E is not None else None
        self.fact_D = numkit.spd_factorize(D) if D is not None else None

    @classmethod
    def identity(cls, m, n):
        return cls(None, None, m, n)

    @property
    def is_identity(self):
        return self.E is None and self.D is None

    # -- E side -------------------------------------------------------------
    def apply_E(self, M):
        return M if self.E is None else self.E @ M

    def solve_E(self, M):
        return M if self.fact_E is None else self.fact_E.solve(M)

    def sqrtE_mul(self, M):
        return M if self.fact_E is None else self.fact_E.c_mul(M)

    def sqrtE_solve(self, M):
        return M if self.fact_E is None else self.fact_E.c_solve(M)

    # -- D side -------------------------------------------------------------
    def apply_D(self, M):
        return M if self.D is None else self.D @ M

    def solve_D(self, M):
        return M if self.fact_D is None else self.fact_D.solve(M)

    def sqrtD_mul(self, M):
        return M if self.fact_D is None else self.fact_D.c_mul(M)

    def sqrtD_solve(self, M):
        return M if self.fact_D is None else self.fact_D.c_solve(M)

    def dense_E(self):
        return np.eye(self.m) if self.E is None else numkit.as_dense(self.E)

    def dense_D(self):
        return np.eye(self.n) if self.D is None else numkit.as_dense(self.D)


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


def factored_norm(Z: FactoredMatrix, metric: KroneckerMetric | None = None) -> float:
    """Frobenius norm (or B-norm when a metric is given) of ``left @ right.T``."""
    if Z.k == 0:
        return 0.0
    L = Z.left if metric is None else metric.sqrtE_mul(Z.left)
    R = Z.right if metric is None else metric.sqrtD_mul(Z.right)
    _, rl = numkit.qr_thin(L)
    _, rr = numkit.qr_thin(R)
    return float(np.linalg.norm(rl @ rr.T))


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

    def validate(self, tol=1e-8):
        """Check the weighted orthonormality invariants (for tests/debug)."""
        r = self.r
        du = np.linalg.norm(self.U.T @ self.EU - np.eye(r))
        dv = np.linalg.norm(self.V.T @ self.DV - np.eye(r))
        if max(du, dv) > tol:
            raise ValueError(f"point factors lost weighted orthonormality ({du:.1e}, {dv:.1e})")
        if np.any(self.sigma <= 0):
            raise ValueError("nonpositive singular value")
        return True


class TangentVector:
    """Tangent vector ``U M V.T + Up V.T + U Vp.T`` at a FixedRankPoint.

    ``E_Up = E @ Up`` and ``D_Vp = D @ Vp`` are cached when they fall out
    of upstream computations (gradients, projections) and computed
    lazily otherwise.
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

    @classmethod
    def zero(cls, point):
        m, n = point.shape
        r = point.r
        z_m = np.zeros((m, r))
        z_n = np.zeros((n, r))
        return cls(np.zeros((r, r)), z_m, z_n, point, E_Up=z_m, D_Vp=z_n)

    def scaled(self, alpha):
        return TangentVector(
            alpha * self.M,
            alpha * self.Up,
            alpha * self.Vp,
            self.point,
            E_Up=None if self._E_Up is None else alpha * self._E_Up,
            D_Vp=None if self._D_Vp is None else alpha * self._D_Vp,
        )

    def plus(self, other, beta=1.0):
        """``self + beta * other`` at the same base point."""
        if other.point is not self.point:
            raise ValueError("tangent vectors have different base points")
        e_up = None
        if self._E_Up is not None and other._E_Up is not None:
            e_up = self._E_Up + beta * other._E_Up
        d_vp = None
        if self._D_Vp is not None and other._D_Vp is not None:
            d_vp = self._D_Vp + beta * other._D_Vp
        return TangentVector(
            self.M + beta * other.M,
            self.Up + beta * other.Up,
            self.Vp + beta * other.Vp,
            self.point,
            E_Up=e_up,
            D_Vp=d_vp,
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


def weighted_qr(M, fact):
    """QR with E-orthonormal Q: standard QR of ``C_E @ M``, then back-solve."""
    if fact is None:
        return numkit.qr_thin(M)
    Q, R = numkit.qr_thin(fact.c_mul(M))
    return fact.c_solve(Q), R


def weighted_svd(Z, metric: KroneckerMetric):
    """Weighted thin SVD ``Z = U diag(s) V.T`` with E-/D-orthonormal factors.

    Dense input goes through an SVD of ``C_E @ Z @ C_D.T``; factored input
    through weighted QR of both factors and an SVD of the small core, so
    the cost stays O((m + n) k^2).
    """
    if isinstance(Z, FactoredMatrix):
        if Z.k == 0:
            m, n = Z.shape
            return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
        QL, RL = weighted_qr(Z.left, metric.fact_E)
        QR_, RR = weighted_qr(Z.right, metric.fact_D)
        u, s, v = numkit.svd_thin(RL @ RR.T)
        return QL @ u, s, QR_ @ v
    Z = np.asarray(Z, dtype=float)
    core = metric.sqrtE_mul(metric.sqrtD_mul(Z.T).T)
    u, s, v = numkit.svd_thin(core)
    return metric.sqrtE_solve(u), s, metric.sqrtD_solve(v)


def _numerical_rank(s, m, n):
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > max(m, n) * np.finfo(float).eps * s[0]))


def truncate(Z, r, metric: KroneckerMetric) -> FixedRankPoint:
    """Best rank-r approximation of Z in the B-norm (weighted Eckart-Young).

    If the numerical rank of Z is below ``r`` the returned point has the
    smaller rank.
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    U, s, V = weighted_svd(Z, metric)
    m, n = (Z.shape if isinstance(Z, FactoredMatrix) else np.asarray(Z).shape)
    k = _numerical_rank(s, m, n)
    keep = min(r, k)
    if keep == 0:
        # degenerate zero input: keep one floored, metric-normalized direction
        U1 = np.zeros((m, 1))
        V1 = np.zeros((n, 1))
        U1[0, 0] = 1.0
        V1[0, 0] = 1.0
        U1 /= np.sqrt(float(U1.T @ metric.apply_E(U1)))
        V1 /= np.sqrt(float(V1.T @ metric.apply_D(V1)))
        return FixedRankPoint(U1, np.array([np.finfo(float).tiny]), V1, metric)
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


def riemannian_gradient(X: FixedRankPoint, Z: FactoredMatrix) -> TangentVector:
    """Projection of ``B^{-1} Z`` for a factored Euclidean gradient Z.

    The weighted products ``E @ Up`` and ``D @ Vp`` come out of the
    formulas for free and are cached on the result.
    """
    metric = X.metric
    P = Z.left.T @ X.U       # k x r
    Q = Z.right.T @ X.V      # k x r
    M = P.T @ Q
    E_Up = Z.left @ Q - X.EU @ M
    D_Vp = Z.right @ P - X.DV @ M.T
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

    Backtracking line searches evaluate several step sizes; the two
    weighted QR factorizations depend only on (X, xi) and are reused.
    """

    def __init__(self, X: FixedRankPoint, xi: TangentVector):
        if xi.point is not X:
            raise ValueError("tangent vector not based at X")
        self.X = X
        metric = X.metric
        self.QU, self.RU = weighted_qr(np.hstack([X.U, xi.Up]), metric.fact_E)
        self.QV, self.RV = weighted_qr(np.hstack([X.V, xi.Vp]), metric.fact_D)
        self.M = xi.M

    def at(self, t: float) -> FixedRankPoint:
        X = self.X
        r = X.r
        core = np.zeros((2 * r, 2 * r))
        core[:r, :r] = np.diag(X.sigma) + t * self.M
        core[:r, r:] = t * np.eye(r)
        core[r:, :r] = t * np.eye(r)
        u, s, v = numkit.svd_thin(self.RU @ core @ self.RV.T)
        floor = SIGMA_FLOOR_FACTOR * (s[0] if s[0] > 0 else 1.0)
        s_r = np.maximum(s[:r], floor)
        return FixedRankPoint(self.QU @ u[:, :r], s_r, self.QV @ v[:, :r], X.metric)


def retract(X: FixedRankPoint, xi: TangentVector, t: float = 1.0) -> FixedRankPoint:
    """Metric projection retraction of ``X + t xi`` onto rank r."""
    return LineSearchRetraction(X, xi).at(t)


def random_point(m, n, r, metric: KroneckerMetric, rng, fro_norm=1.0) -> FixedRankPoint:
    """Random rank-r point rescaled to the requested Frobenius norm."""
    G = FactoredMatrix(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    X = truncate(G, r, metric)
    nrm = X.frobenius_norm()
    return X.scaled(fro_norm / nrm)
