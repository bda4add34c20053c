"""Independent dense reference implementations used as test oracles.

Everything here works on explicit dense matrices and deliberately avoids
the package's factored code paths, so failures localize to the library.
Nothing here imports ``lrmeq``: the oracles read the attributes of the
package's values (factors, metric matrices, shift pairs) and never call
its functions or methods.
"""

import mpmath as mp
import numpy as np
import scipy.sparse as sp


def rand_spd(k, rng, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return Q @ np.diag(np.geomspace(1.0, cond, k)) @ Q.T


def rand_band_spd(n, bw, rng, permute=False):
    """Sparse SPD matrix of bandwidth ``bw`` (strictly diagonally dominant),
    optionally symmetrically permuted at random."""
    A = np.zeros((n, n))
    for k in range(1, min(bw, n - 1) + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        A += np.diag(off, k) + np.diag(off, -k)
    A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 2.0, n))
    if permute:
        p = rng.permutation(n)
        A = A[p][:, p]
    return sp.csr_matrix(A)


def tv_dense(xi):
    """Dense ambient matrix of a tangent vector from its coefficients."""
    X = xi.point
    return X.U @ xi.M @ X.V.T + xi.Up @ X.V.T + X.U @ xi.Vp.T


def point_dense(X):
    return (X.U * X.sigma) @ X.V.T


def dense(M):
    """A dense float array of a sparse matrix or an array."""
    return M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)


def dense_metric(X, shape=None):
    """Dense ``(E, D)`` of a point's metric, or of a Kronecker metric on
    ``m x n`` matrices for ``shape = (m, n)``; a missing E or D is the
    identity."""
    met = getattr(X, "metric", X)
    m, n = X.shape if shape is None else shape
    E = np.eye(m) if met.E is None else dense(met.E)
    D = np.eye(n) if met.D is None else dense(met.D)
    return E, D


def assert_valid_point(X, tol=1e-8):
    """The invariants of a fixed-rank point: ``U.T E U = I``,
    ``V.T D V = I`` within ``tol`` and positive singular values."""
    E, D = dense_metric(X)
    r = X.sigma.size
    du = np.linalg.norm(X.U.T @ E @ X.U - np.eye(r))
    dv = np.linalg.norm(X.V.T @ D @ X.V - np.eye(r))
    assert max(du, dv) <= tol, f"factors lost weighted orthonormality ({du:.1e}, {dv:.1e})"
    assert np.all(X.sigma > 0), "nonpositive singular value"


def b_inner(A, B, E, D):
    return float(np.sum((E @ A @ D) * B))


def proj_dense(X, Z):
    """B-orthogonal tangent projection, dense formula."""
    E, D = dense_metric(X)
    m, n = X.shape
    PU = np.eye(m) - X.U @ (X.U.T @ E)
    PV = np.eye(n) - D @ X.V @ X.V.T
    return Z - PU @ Z @ PV


def tangent_basis_dense(X):
    """A dense spanning set of the tangent space at X (not orthonormal)."""
    E, D = dense_metric(X)
    m, n = X.shape
    r = X.r
    vecs = []
    for i in range(r):
        for j in range(r):
            M = np.zeros((r, r))
            M[i, j] = 1.0
            vecs.append(X.U @ M @ X.V.T)
    PU = np.eye(m) - X.U @ (X.U.T @ E)
    QU, RU = np.linalg.qr(PU)
    keepU = QU[:, np.abs(np.diag(RU)) > 1e-10][:, : m - r]
    for w in keepU.T:
        for j in range(r):
            vecs.append(np.outer(w, X.V[:, j]))
    PV = np.eye(n) - X.V @ (X.V.T @ D)
    QV, RV = np.linalg.qr(PV)
    keepV = QV[:, np.abs(np.diag(RV)) > 1e-10][:, : n - r]
    for w in keepV.T:
        for i in range(r):
            vecs.append(np.outer(X.U[:, i], w))
    return vecs


def solve_projected_dense(X, eta_dense, ambient_op):
    """Solve Proj_X(ambient_op(xi)) = eta over the tangent space by least
    squares on a dense tangent basis."""
    basis = tangent_basis_dense(X)
    cols = [proj_dense(X, ambient_op(T)).ravel() for T in basis]
    Amat = np.array(cols).T
    coef, *_ = np.linalg.lstsq(Amat, eta_dense.ravel(), rcond=None)
    return sum(c * T for c, T in zip(coef, basis))


def projected_operator_matrix(X, ambient_op):
    """Matrix of Proj . ambient_op . Proj restricted to the tangent space,
    in the coordinates of the dense tangent basis (returns basis, matrix,
    and the B-metric Gram matrix of the basis)."""
    E, D = dense_metric(X)
    basis = tangent_basis_dense(X)
    dim = len(basis)
    Tmat = np.array([T.ravel() for T in basis]).T
    APT = np.array([proj_dense(X, ambient_op(T)).ravel() for T in basis]).T
    coords, *_ = np.linalg.lstsq(Tmat, APT, rcond=None)
    gram = np.empty((dim, dim))
    for i, Ti in enumerate(basis):
        ETiD = E @ Ti @ D
        for j, Tj in enumerate(basis):
            gram[i, j] = np.sum(ETiD * Tj)
    return basis, coords, gram


def spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def kron_matrix(A_list, B_list):
    """sum_i kron(B_i, A_i) built densely and independently."""
    K = np.kron(dense(B_list[0]), dense(A_list[0]))
    for Ai, Bi in zip(A_list[1:], B_list[1:]):
        K = K + np.kron(dense(Bi), dense(Ai))
    return K


def min_eigenvalue(K):
    """Smallest eigenvalue of the symmetric part of a dense matrix."""
    return float(np.linalg.eigvalsh(0.5 * (K + K.T))[0])


def adi_error_bound(pairs, lam, mu):
    """Product bound ``prod |(lam - p)(mu + q)| / |(lam - q)(mu + p)|`` of
    the shift pairs ``(p, q)`` on a grid; lam, mu are 1-d arrays, the
    result is a (len(lam), len(mu)) array."""
    lam = np.asarray(lam, dtype=float)[:, None]
    mu = np.asarray(mu, dtype=float)[None, :]
    out = np.ones((lam.shape[0], mu.shape[1]))
    for p, q in pairs:
        out *= np.abs((lam - p) * (mu + q)) / (np.abs((lam - q) * (mu + p)))
    return out


def dense_pcg(K, b, M_inv, iters):
    """Classical preconditioned CG on K x = b; returns residual-norm history."""
    x = np.zeros_like(b)
    r = b.copy()
    z = M_inv(r)
    p = z.copy()
    rz = r @ z
    hist = [np.linalg.norm(r)]
    for _ in range(iters):
        Kp = K @ p
        alpha = rz / (p @ Kp)
        x = x + alpha * p
        r = r - alpha * Kp
        hist.append(np.linalg.norm(r))
        z = M_inv(r)
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, np.array(hist)


def euclid_nlcg(K, b, x0, iters, slope=1e-4, shrink=0.5):
    """Euclidean NLCG on 0.5 x'Kx - b'x with the modified HS/DY beta,
    exact initial step and Armijo backtracking (full-space reference)."""
    def grad(x):
        return K @ x - b

    def fval(x):
        return 0.5 * x @ K @ x - b @ x

    x = x0.copy()
    g = grad(x)
    xi_prev = None
    g_prev = None
    xs = [x.copy()]
    dirs = []
    for _ in range(iters):
        if xi_prev is None:
            xi = -g
        else:
            den = g @ xi_prev - g_prev @ xi_prev
            num_hs = g @ g - g @ g_prev
            if abs(den) < 1e-14 * max(abs(num_hs), g @ g, 1e-300):
                beta = 0.0
            else:
                beta = max(0.0, min(num_hs / den, (g @ g) / den))
            xi = -g + beta * xi_prev
            if g @ xi >= 0:
                xi = -g
        alpha = -(g @ xi) / (xi @ K @ xi)
        f0 = fval(x)
        while fval(x + alpha * xi) > f0 + slope * alpha * (g @ xi):
            alpha *= shrink
        xi_prev = xi
        g_prev = g
        x = x + alpha * xi
        g = grad(x)
        xs.append(x.copy())
        dirs.append(xi.copy())
    return xs, dirs


def objective_diff_exact(op, F, X, Y, dps=60):
    """``f(Y) - f(X)`` for ``f(Z) = 1/2 <A Z, Z> - <Z, F>`` in ``dps``-digit
    arithmetic on the stored float64 factors, so it is exact to far below
    the rounding error of either value of f."""
    def mat(a):
        return mp.matrix(np.asarray(a, dtype=float).tolist())

    def dense(P):
        return mat(P.U * P.sigma) * mat(P.V).T

    def f(Z):
        val = mp.mpf(0)
        for Ai, Bi in zip(op.A, op.B):
            AZB = mat(Ai) * Z * mat(Bi)
            val += mp.fsum(AZB[i, j] * Z[i, j] for i in range(Z.rows) for j in range(Z.cols))
        Fd = mat(F.left) * mat(F.right).T
        return val / 2 - mp.fsum(Z[i, j] * Fd[i, j] for i in range(Z.rows) for j in range(Z.cols))

    with mp.workdps(dps):
        return float(f(dense(Y)) - f(dense(X)))
