import math

import numpy as np
import pytest

from lrmeq import geometry as geo
from lrmeq import precond as pc
from lrmeq import problems as pb

from oracles import kron_matrix, min_eigenvalue


# ---------------------------------------------------------------------------
# FD diffusion
# ---------------------------------------------------------------------------


def ones_term():
    return (1.0, lambda x: np.ones_like(np.asarray(x, float)), lambda y: np.ones_like(np.asarray(y, float)))


def test_constant_coefficient_is_laplacian(rng):
    n = 6
    inst = pb.gen_fd_diffusion(n, [ones_term()])
    h = 1.0 / (n + 1)
    K = kron_matrix(inst.op.A, inst.op.B)
    v = rng.standard_normal(n * n)
    V = v.reshape((n, n), order="F")
    Vp = np.pad(V, 1)
    lap = np.zeros_like(V)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lap[i - 1, j - 1] = (
                4 * Vp[i, j] - Vp[i - 1, j] - Vp[i + 1, j] - Vp[i, j - 1] - Vp[i, j + 1]
            ) / h**2
    assert np.linalg.norm((K @ v).reshape((n, n), order="F") - lap) <= 1e-12 * np.linalg.norm(lap)
    assert np.linalg.norm(inst.F.densify(force=True)) == 0.0


def test_paper_configuration_counts():
    inst = pb.gen_fd_diffusion_paper(16, alpha=10.0, lk=3)
    assert inst.op.ell == 8
    assert inst.F.k == 4


def test_small_instance_spd():
    inst = pb.gen_fd_diffusion_paper(3)
    assert min_eigenvalue(kron_matrix(inst.op.A, inst.op.B)) > 0


def test_rhs_matches_discretize_then_eliminate_oracle():
    n, alpha, lk = 8, 10.0, 3
    inst = pb.gen_fd_diffusion_paper(n, alpha, lk)
    h = 1.0 / (n + 1)
    k = pb.diffusion_coefficient(pb.paper_diffusion_terms(alpha, lk))
    g = lambda x, y: np.exp(-alpha * (x + 1.0) * y)
    xs = h * np.arange(n + 2)
    F_oracle = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if ii in (0, n + 1) or jj in (0, n + 1):
                    kij = k(xs[i] + di * h / 2, xs[j] + dj * h / 2)
                    F_oracle[i - 1, j - 1] += kij * g(xs[ii], xs[jj]) / h**2
    assert np.linalg.norm(inst.F.densify(force=True) - F_oracle) <= 1e-12 * np.linalg.norm(F_oracle)


def test_nonpositive_coefficient_rejected():
    bad = (1.0, lambda x: np.asarray(x, float) - 0.5, lambda y: np.ones_like(np.asarray(y, float)))
    with pytest.raises(ValueError):
        pb.gen_fd_diffusion(8, [bad])


def test_preconditioner_separable_equals_operator():
    """With a single separable term k = k0 the P2 preconditioner equals the
    full operator."""
    n, alpha, lk = 8, 10.0, 3
    c = math.sqrt(alpha) ** lk / math.sqrt(math.factorial(lk))
    k0z = lambda z: 1.0 + c * np.asarray(z, float) ** lk
    inst = pb.gen_fd_diffusion(n, [(1.0, k0z, k0z)])
    _, p2 = pb.fd_diffusion_preconditioners(n, alpha, lk)
    K_op = kron_matrix(inst.op.A, inst.op.B)
    K_p2 = kron_matrix([p2["A"], p2["E"]], [p2["D"], p2["B"]])
    assert np.linalg.norm(K_op - K_p2) <= 1e-12 * np.linalg.norm(K_op)


def test_preconditioner_constant_coefficient_is_lyapunov():
    n = 6
    p1, p2 = pb.fd_diffusion_preconditioners(n, 0.0, 1)  # k0 = 1 exactly
    Ed = p2["E"].toarray()
    assert np.linalg.norm(Ed - np.eye(n)) == 0.0
    K1 = kron_matrix([p1["A"], np.eye(n)], [np.eye(n), p1["B"]])
    K2 = kron_matrix([p2["A"], p2["E"]], [p2["D"], p2["B"]])
    assert np.linalg.norm(K1 - K2) <= 1e-12 * np.linalg.norm(K1)


def test_paper_preconditioner_spd_at_n50():
    _, p2 = pb.fd_diffusion_preconditioners(50, 10.0, 3)
    for key in ("A", "B", "D", "E"):
        lam = np.linalg.eigvalsh(p2[key].toarray())
        assert lam[0] > 0


def test_fd_convergence_order(rng):
    """O(h^2) convergence against a manufactured solution for k = 1."""
    errs = []
    for n in (16, 32, 64):
        h = 1.0 / (n + 1)
        x = h * np.arange(1, n + 1)
        inst = pb.gen_fd_diffusion(n, [ones_term()])
        K = None
        u_exact = np.outer(np.sin(np.pi * x), np.sin(2 * np.pi * x))
        # forcing for -lap(u) = f with u = sin(pi x) sin(2 pi y)
        f = (np.pi**2 + 4 * np.pi**2) * u_exact
        # solve via the sparse operator terms: (A ox I + I ox A) vec(U) = vec(f)
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        A1 = inst.op.A[0]; B1 = inst.op.B[0]
        A2 = inst.op.A[1]; B2 = inst.op.B[1]
        Ksp = sp.kron(B1, A1) + sp.kron(B2, A2)
        u = spla.spsolve(Ksp.tocsc(), f.reshape(-1, order="F"))
        errs.append(np.max(np.abs(u - u_exact.reshape(-1, order="F"))))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 1.7 <= rate1 <= 2.3
    assert 1.7 <= rate2 <= 2.3


def test_full_rank_gen_sylvester_cross_check(rng):
    """A single separable term yields a pure generalized Sylvester equation
    solvable by the exact preconditioner at full rank."""
    n = 10
    kz = lambda z: 1.0 + np.asarray(z, float)
    inst = pb.gen_fd_diffusion(n, [(1.0, kz, kz)], g=lambda x, y: np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape))
    A, Dd = inst.op.A[0], inst.op.B[0]
    Ee, B = inst.op.A[1], inst.op.B[1]
    met = geo.KroneckerMetric(Ee, Dd)
    # full-rank point and tangent solve equal the dense solve
    X = geo.random_point(n, n, n, met, rng)
    eta = geo.project(X, rng.standard_normal((n, n)))
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    xid = X.U @ xi.M @ X.V.T + xi.Up @ X.V.T + X.U @ xi.Vp.T
    etad = X.U @ eta.M @ X.V.T + eta.Up @ X.V.T + X.U @ eta.Vp.T
    K = np.kron(Dd.toarray(), A.toarray()) + np.kron(B.toarray(), Ee.toarray())
    Bmat = np.kron(Dd.toarray(), Ee.toarray())
    expected = np.linalg.solve(K, (Bmat @ etad.reshape(-1, order="F")))
    assert np.linalg.norm(xid.reshape(-1, order="F") - expected) <= 1e-9 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# stochastic Galerkin
# ---------------------------------------------------------------------------


def test_g1_matrix_q1_p1():
    Gs, idx = pb.legendre_coupling_matrices(1, 1)
    expected = np.array([[0.0, 1.0 / np.sqrt(3.0)], [1.0 / np.sqrt(3.0), 0.0]])
    assert np.linalg.norm(Gs[0].toarray() - expected) <= 1e-14


def test_reduction_to_deterministic():
    """All parametric coefficients zero: equation reduces to K0 X = f0 g0^T
    with a rank-one solution."""
    zero = lambda x1, x2: np.zeros(np.broadcast(x1, x2).shape)
    inst = pb.gen_stoch_galerkin(6, 2, 2, a_funcs=[zero, zero])
    for Kk in inst.op.A[1:]:
        assert abs(Kk).max() == 0.0
    K = kron_matrix(inst.op.A, inst.op.B)
    x = np.linalg.solve(K, inst.F.densify(force=True).reshape(-1, order="F"))
    X = x.reshape((36, len(pb.multi_indices(2, 2))), order="F")
    s = np.linalg.svd(X, compute_uv=False)
    assert s[1] <= 1e-12 * s[0]


def test_paper_scale_index_counts():
    assert len(pb.multi_indices(9, 5)) == 2002
    assert len(pb.multi_indices(4, 3)) == 35
    inst = pb.gen_stoch_galerkin(4, 9, 5)
    assert inst.op.ell == 10
    assert inst.op.n == 2002


def test_gk_structure_and_quadrature_recomputation():
    q, p = 4, 3
    Gs, idx = pb.legendre_coupling_matrices(q, p)
    idx = np.array(idx)
    I0, I1 = pb.legendre_tables(p, p + 6)  # higher quadrature order
    for k, G in enumerate(Gs):
        Gd = G.toarray()
        assert np.linalg.norm(Gd - Gd.T) == 0.0
        assert np.max(np.abs(np.diag(Gd))) == 0.0
        # entries match recomputation at higher order
        ref = I1[idx[:, None, k], idx[None, :, k]].astype(float)
        for c in range(q):
            if c != k:
                ref = ref * I0[idx[:, None, c], idx[None, :, c]]
        assert np.max(np.abs(Gd - ref)) <= 1e-13
        # bandwidth structure: coupling only between degrees differing by one
        rows, cols = np.nonzero(Gd)
        for s, t in zip(rows, cols):
            diff = idx[s] - idx[t]
            assert np.abs(diff).sum() == 1 and abs(diff[k]) == 1


def test_sg_spd_small():
    inst = pb.gen_stoch_galerkin(6, 2, 2)
    assert min_eigenvalue(kron_matrix(inst.op.A, inst.op.B)) > 0


def test_sg_preconditioners():
    inst = pb.gen_stoch_galerkin(6, 3, 2)
    assert inst.p1["kind"] == "kron" and inst.p1["D"] is None
    G = inst.p2["D"].toarray()
    lam = np.linalg.eigvalsh(G)
    assert lam[0] > 0
    # zero means -> P2 equals P1
    zero_mean = lambda x1, x2: 0.1 * np.cos(np.pi * x1) * np.ones_like(x2)
    inst2 = pb.gen_stoch_galerkin(6, 1, 2, a_funcs=[zero_mean])
    G2 = inst2.p2["D"].toarray()
    assert np.linalg.norm(G2 - np.eye(G2.shape[0])) <= 1e-10


def test_sg_p2_eigenvalues_simple_case():
    # q=1, p=1 with mean ratio 0.3: eigenvalues 1 +- 0.3/sqrt(3)
    const = lambda x1, x2: 0.3 * np.ones(np.broadcast(x1, x2).shape)
    inst = pb.gen_stoch_galerkin(4, 1, 1, a_funcs=[const])
    G = inst.p2["D"].toarray()
    lam = np.sort(np.linalg.eigvalsh(G))
    assert np.allclose(lam, [1 - 0.3 / np.sqrt(3), 1 + 0.3 / np.sqrt(3)], atol=1e-10)


def test_sg_ellipticity_violation_rejected():
    big = lambda x1, x2: 2.0 * np.ones(np.broadcast(x1, x2).shape)
    with pytest.raises(ValueError):
        pb.gen_stoch_galerkin(5, 1, 1, a_funcs=[big])


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------


def test_synthetic_single_identityish():
    inst = pb.gen_synthetic(5, 5, 1, seed=0)
    assert inst.op.ell == 1
    assert min_eigenvalue(kron_matrix(inst.op.A, inst.op.B)) > 0


def test_synthetic_deterministic():
    a = pb.gen_synthetic(6, 6, 3, seed=42)
    b = pb.gen_synthetic(6, 6, 3, seed=42)
    for Ai, Bi in zip(a.op.A, b.op.A):
        assert (Ai != Bi).nnz == 0
    assert np.array_equal(a.F.left, b.F.left)


def test_synthetic_spd_and_dims():
    inst = pb.gen_synthetic(6, 6, 3, seed=7)
    assert min_eigenvalue(kron_matrix(inst.op.A, inst.op.B)) > 0
    assert inst.op.m == 6 and inst.op.n == 6
