"""Benchmark problem generators and their preconditioners.

Three families:

*   finite-difference discretization of a 2-D diffusion equation with a
    semi-separable coefficient on the unit square (Dirichlet data),
*   a stochastic-Galerkin analogue: Legendre chaos in the parameters
    combined with a finite-difference spatial discretization,
*   seeded synthetic SPD multiterm instances for oracle suites.

Each generator returns a ``ProblemInstance`` bundling the operator, the
low-rank right-hand side, and the constituent matrices of the suggested
preconditioners P1 and P2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .equations import LowRankRhs, MultitermOperator


@dataclass
class ProblemInstance:
    op: MultitermOperator
    F: LowRankRhs
    p1: dict | None = None
    p2: dict | None = None
    meta: dict = field(default_factory=dict)


def _canonical(A):
    if sp.issparse(A):
        A = A.tocsr()
        A.sum_duplicates()
        A.eliminate_zeros()
        A.sort_indices()
    return A


# ---------------------------------------------------------------------------
# Finite-difference diffusion on the unit square
# ---------------------------------------------------------------------------


def fd_1d_matrices(n, kz):
    """1-D operator pair for a coefficient function: tridiagonal stiffness
    A (samples at half grid points, scaled by 1/h^2) and nodal diagonal D."""
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    k_half = kz(h * (np.arange(n + 1) + 0.5))          # x_{1/2} .. x_{n+1/2}
    k_node = kz(x)
    k_half = np.broadcast_to(np.asarray(k_half, dtype=float), (n + 1,))
    k_node = np.broadcast_to(np.asarray(k_node, dtype=float), (n,))
    if np.any(k_half <= 0) or np.any(k_node <= 0):
        raise ValueError("coefficient must be positive at all sample points")
    diag = (k_half[:-1] + k_half[1:]) / h**2
    off = -k_half[1:-1] / h**2
    A = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    D = sp.diags([k_node], [0], format="csr")
    return _canonical(A), _canonical(D)


def paper_diffusion_terms(alpha, lk):
    """Separable expansion of ``k(x,y) = 1 + sum_i alpha^i/i! x^i y^i``."""
    terms = [(1.0, lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda y: np.ones_like(np.asarray(y, dtype=float)))]
    for i in range(1, lk + 1):
        coef = alpha**i / math.factorial(i)
        terms.append((coef, _power(i), _power(i)))
    return terms


def _power(i):
    return lambda x: np.asarray(x, dtype=float) ** i


def diffusion_coefficient(terms):
    """Assemble the full coefficient ``k(x, y)`` from separable terms."""

    def k(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return sum(a * kx(x) * ky(y) for a, kx, ky in terms)

    return k


def gen_fd_diffusion(n, terms, g=None):
    """FD discretization of ``-div(k grad u) = 0`` with Dirichlet data g.

    ``terms`` is a list of separable coefficient terms
    ``(alpha_j, k_{j,x}, k_{j,y})``; the operator has ``2 len(terms)``
    terms and the boundary right-hand side has rank at most 4.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    A_list, B_list = [], []
    for alpha_j, kx, ky in terms:
        Ax, Dx = fd_1d_matrices(n, kx)
        Ay, Dy = fd_1d_matrices(n, ky)
        A_list.append(_canonical(alpha_j * Ax))
        B_list.append(Dy)
        A_list.append(_canonical(alpha_j * Dx))
        B_list.append(Ay)
    op = MultitermOperator(A_list, B_list)

    k = diffusion_coefficient(terms)
    if g is None:
        g = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    e1 = np.zeros(n); e1[0] = 1.0
    en = np.zeros(n); en[-1] = 1.0
    b_u = np.asarray(k(x, 1 - h / 2) * g(x, 1.0), dtype=float) / h**2
    b_d = np.asarray(k(x, h / 2) * g(x, 0.0), dtype=float) / h**2
    b_r = np.asarray(k(1 - h / 2, x) * g(1.0, x), dtype=float) / h**2
    b_l = np.asarray(k(h / 2, x) * g(0.0, x), dtype=float) / h**2
    F = LowRankRhs(
        np.column_stack([e1, en, b_d, b_u]),
        np.column_stack([b_l, b_r, e1, en]),
    )
    return ProblemInstance(
        op, F, meta={"family": "fd-diffusion", "n": n, "ell": op.ell, "r_F": F.k}
    )


def fd_diffusion_preconditioners(n, alpha, lk):
    """Preconditioner matrices from the separable surrogate coefficient
    ``k0(x,y) = (1 + (sqrt(a) x)^lk / sqrt(lk!)) (1 + (sqrt(a) y)^lk / sqrt(lk!))``.

    P2 is the generalized Sylvester operator ``A X D + E X B`` obtained by
    discretizing with k0; P1 drops E and D.
    """
    c = math.sqrt(alpha) ** lk / math.sqrt(math.factorial(lk))

    def k0z(z):
        return 1.0 + c * np.asarray(z, dtype=float) ** lk

    Ax, Dx = fd_1d_matrices(n, k0z)
    Ay, Dy = fd_1d_matrices(n, k0z)
    p1 = {"kind": "sylv", "A": Ax, "B": Ay}
    p2 = {"kind": "gen_sylv", "A": Ax, "B": Ay, "D": Dy, "E": Dx}
    return p1, p2


def gen_fd_diffusion_paper(n, alpha=10.0, lk=3):
    """The benchmark configuration: 8-term operator, rank-4 right-hand side."""
    terms = paper_diffusion_terms(alpha, lk)
    g = lambda x, y: np.exp(-alpha * (np.asarray(x, dtype=float) + 1.0) * np.asarray(y, dtype=float))
    inst = gen_fd_diffusion(n, terms, g)
    inst.p1, inst.p2 = fd_diffusion_preconditioners(n, alpha, lk)
    inst.meta.update({"alpha": alpha, "lk": lk})
    return inst


# ---------------------------------------------------------------------------
# Stochastic Galerkin analogue (FD in space, Legendre chaos in parameters)
# ---------------------------------------------------------------------------


def fd_2d_stiffness(ns, c):
    """Five-point FD matrix for ``-div(c grad u)`` on the unit square with
    homogeneous Dirichlet conditions; ``c`` is a positive callable."""
    h = 1.0 / (ns + 1)
    xs = h * np.arange(1, ns + 1)
    half = h * (np.arange(ns + 1) + 0.5)
    CX = np.asarray(c(half[:, None], xs[None, :]), dtype=float)   # (ns+1, ns)
    CY = np.asarray(c(xs[:, None], half[None, :]), dtype=float)   # (ns, ns+1)
    m = ns * ns
    diag = (CX[:-1, :] + CX[1:, :] + CY[:, :-1] + CY[:, 1:]).reshape(-1, order="F")
    ex = np.vstack([-CX[1:-1, :], np.zeros((1, ns))]).reshape(-1, order="F")[:-1]
    ey = (-CY[:, 1:-1]).reshape(-1, order="F")
    K = sp.diags([diag, ex, ex, ey, ey], [0, 1, -1, ns, -ns], shape=(m, m)) / h**2
    return _canonical(K.tocsr())


def multi_indices(q, p):
    """Total-degree <= p multi-indices in q variables, graded lex order."""
    return sorted((t for t in itertools.product(range(p + 1), repeat=q) if sum(t) <= p),
                  key=lambda t: (sum(t), t))


def legendre_tables(p, n_nodes):
    """1-D integrals of normalized Legendre polynomials on [-1, 1] with the
    uniform probability measure, by Gauss-Legendre quadrature:
    ``I0[d, e] = <P_d, P_e>`` and ``I1[d, e] = <y P_d, P_e>``."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    weights = weights / 2.0
    T = np.zeros((p + 2, n_nodes))
    T[0] = 1.0
    T[1] = np.sqrt(3.0) * nodes
    betas = [d / np.sqrt(4.0 * d * d - 1.0) for d in range(1, p + 3)]
    for d in range(1, p + 1):
        T[d + 1] = (nodes * T[d] - betas[d - 1] * T[d - 1]) / betas[d]
    Tp = T[: p + 1]
    I0 = (Tp * weights) @ Tp.T
    I1 = (Tp * (weights * nodes)) @ Tp.T
    return I0, I1


def legendre_coupling_matrices(q, p, drop_tol=1e-13):
    """Sparse matrices ``G_k[s, t] = <y_k psi_s, psi_t>`` over the
    total-degree tensor Legendre basis."""
    idx = np.array(multi_indices(q, p))
    I0, I1 = legendre_tables(p, p + 2)
    n = idx.shape[0]
    Gs = []
    for k in range(q):
        G = I1[idx[:, None, k], idx[None, :, k]].astype(float)
        for c in range(q):
            if c != k:
                G = G * I0[idx[:, None, c], idx[None, :, c]]
        G = 0.5 * (G + G.T)
        scale = np.max(np.abs(G)) if G.size else 1.0
        G[np.abs(G) <= drop_tol * max(scale, 1e-300)] = 0.0
        Gs.append(_canonical(sp.csr_matrix(G)))
    return Gs, idx


def default_sg_coefficients(q, theta=0.55):
    """Decaying coefficient family with nonzero means:
    ``a_k(x) = theta/k^2 * (1 + cos(k pi x1) cos(k pi x2)) / 2``."""
    funcs = []
    for k in range(1, q + 1):

        def a_k(x1, x2, k=k):
            x1 = np.asarray(x1, dtype=float)
            x2 = np.asarray(x2, dtype=float)
            return theta / k**2 * (1.0 + np.cos(k * np.pi * x1) * np.cos(k * np.pi * x2)) / 2.0

        funcs.append(a_k)
    return funcs


def gen_stoch_galerkin(ns, q, p, a0=1.0, a_funcs=None, f_const=1.0, theta=0.55):
    """Stochastic-Galerkin matrix equation ``K0 X + sum_k K_k X G_k^T = f0 g0^T``.

    Spatial matrices come from the finite-difference assembly on the unit
    square; parametric matrices from the normalized Legendre basis of
    total degree <= p in q uniform parameters.  Requires uniform
    ellipticity ``a0 > sum_k ||a_k||_inf`` (checked on the sample grid).
    """
    if a_funcs is None:
        a_funcs = default_sg_coefficients(q, theta)
    if len(a_funcs) != q:
        raise ValueError("need one coefficient function per parameter")
    h = 1.0 / (ns + 1)
    xs = h * np.arange(1, ns + 1)
    half = h * (np.arange(ns + 1) + 0.5)
    sup = 0.0
    for a_k in a_funcs:
        vals = [np.abs(a_k(half[:, None], xs[None, :])).max(),
                np.abs(a_k(xs[:, None], half[None, :])).max()]
        sup += max(vals)
    if sup >= a0:
        raise ValueError(f"uniform ellipticity violated: sum ||a_k|| = {sup:.3g} >= a0 = {a0}")

    K0 = _canonical(a0 * fd_2d_stiffness(ns, lambda x1, x2: np.ones(np.broadcast(x1, x2).shape)))
    Ks = [fd_2d_stiffness(ns, a_k) for a_k in a_funcs]
    Gs, idx = legendre_coupling_matrices(q, p)
    n_param = len(idx)
    m = ns * ns
    A_list = [K0] + Ks
    B_list = [sp.identity(n_param, format="csr")] + Gs
    op = MultitermOperator([_canonical(A) for A in A_list], [_canonical(B) for B in B_list])

    f0 = np.full((m, 1), float(f_const))
    g0 = np.zeros((n_param, 1)); g0[0, 0] = 1.0
    F = LowRankRhs(f0, g0)

    # mean-field preconditioners: P1 uses the constant coefficient
    # (E = K0), P2 also averages the parametric terms
    # (D = I + sum_k abar_k/a0 G_k)
    a_bars = [_mean_over_square(a_k) for a_k in a_funcs]
    G_avg = sp.identity(n_param, format="csr")
    for ab, Gk in zip(a_bars, Gs):
        G_avg = G_avg + (ab / a0) * Gk
    p1 = {"kind": "kron", "E": K0, "D": None}
    p2 = {"kind": "kron", "E": K0, "D": _canonical(G_avg.tocsr())}
    return ProblemInstance(
        op, F, p1=p1, p2=p2,
        meta={"family": "stoch-galerkin", "ns": ns, "q": q, "p": p,
              "n_param": n_param, "ell": op.ell, "a0": a0, "a_bars": a_bars},
    )


def _mean_over_square(a_k, n_quad=64):
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    vals = a_k(x[:, None], x[None, :])
    return float(w @ vals @ w)


# ---------------------------------------------------------------------------
# Synthetic SPD instances
# ---------------------------------------------------------------------------


def _random_spd_tridiag(n, rng, strength=1.0):
    w = rng.uniform(0.2, 1.0, size=n - 1)
    rho = rng.uniform(0.2, 1.0, size=n)
    diag = np.concatenate([[0], w]) + np.concatenate([w, [0]]) + rho
    return _canonical(strength * sp.diags([-w, diag, -w], [-1, 0, 1], format="csr"))


def gen_synthetic(m, n, ell, r_F=2, seed=0, dominance=0.1):
    """Seeded random sparse SPD multiterm instance with a dominant first term.

    All terms are SPD (diagonally dominant tridiagonal), so the Kronecker
    sum is SPD by construction; later terms are scaled by ``dominance``.
    """
    rng = np.random.default_rng(seed)
    A_list, B_list = [], []
    for i in range(ell):
        strength = 1.0 if i == 0 else dominance / ell
        A_list.append(_random_spd_tridiag(m, rng))
        B_list.append(_random_spd_tridiag(n, rng, strength=strength))
    op = MultitermOperator(A_list, B_list)
    F = LowRankRhs(rng.standard_normal((m, r_F)), rng.standard_normal((n, r_F)))
    p1 = {"kind": "kron", "E": A_list[0], "D": B_list[0]}
    p2 = None
    if ell >= 2:
        p2 = {"kind": "gen_sylv", "A": A_list[0], "B": B_list[1],
              "D": B_list[0], "E": A_list[1]}
    return ProblemInstance(
        op, F, p1=p1, p2=p2,
        meta={"family": "synthetic", "m": m, "n": n, "ell": ell,
              "r_F": r_F, "seed": seed, "dominance": dominance},
    )
