import numpy as np
import pytest
import scipy.sparse as sp

from lrmeq import geometry as geo
from lrmeq import numkit
from lrmeq import precond as pc

from oracles import (
    adi_error_bound,
    dense_metric,
    proj_dense,
    projected_operator_matrix,
    rand_band_spd,
    rand_spd,
    solve_projected_dense,
    spectral_radius,
    tv_dense,
)


def std_point(m, n, r, rng):
    return geo.random_point(m, n, r, geo.KroneckerMetric(), rng)


def rand_eta(X, rng):
    return geo.project(X, rng.standard_normal(X.shape))


# ---------------------------------------------------------------------------
# KronPrecond
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sparse", [False, True])
def test_kron_precond_factorizes_nothing_of_its_own(rng, monkeypatch, sparse):
    """KronPrecond uses the factorizations its KroneckerMetric holds:
    building and applying it factorizes nothing."""
    m, n = 9, 8
    if sparse:
        kron = geo.KroneckerMetric(rand_band_spd(m, 1, rng), rand_band_spd(n, 2, rng))
    else:
        kron = geo.KroneckerMetric(rand_spd(m, rng), rand_spd(n, rng))
    made = []

    def counted(self, *args, _orig=numkit.SpdFactorization._init_banded):
        made.append(self)
        return _orig(self, *args)

    monkeypatch.setattr(numkit.SpdFactorization, "_init_banded", counted)
    prec = pc.KronPrecond(kron)
    Z = geo.FactoredMatrix(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    W = prec.apply_inv_ambient(Z)
    assert made == []
    E, D = dense_metric(kron, (m, n))
    assert np.allclose(E @ W.densify() @ D, Z.densify(), rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# GenSylvesterPrecond with E = D = I: the Sylvester preconditioner P1
# ---------------------------------------------------------------------------


def test_sylvester_scalar(rng):
    X = std_point(7, 6, 2, rng)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(2.0 * np.eye(7), 3.0 * np.eye(6), X.metric).apply_inv_tangent(eta)
    assert np.linalg.norm(tv_dense(xi) - tv_dense(eta) / 5.0) <= 1e-12


def test_sylvester_full_rank_matches_kronecker_solve(rng):
    m = n = 4
    X = std_point(m, n, m, rng)
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    K = np.kron(np.eye(n), A) + np.kron(B, np.eye(m))
    expected = np.linalg.solve(K, tv_dense(eta).reshape(-1, order="F")).reshape(
        (m, n), order="F"
    )
    assert np.linalg.norm(tv_dense(xi) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_sylvester_dense_oracle(rng):
    m = n = 10
    X = std_point(m, n, 3, rng)
    # shifted-Laplacian style SPD matrices
    A = rand_spd(m, rng, cond=50.0)
    B = rand_spd(n, rng, cond=50.0)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    expected = solve_projected_dense(X, tv_dense(eta), lambda T: A @ T + T @ B)
    assert np.linalg.norm(tv_dense(xi) - expected) <= 1e-9 * max(1, np.linalg.norm(expected))


def test_sylvester_sparse_coefficients(rng):
    m = n = 30
    A = sp.diags([-np.ones(m - 1), 3.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1]).tocsr()
    B = sp.diags([2.0 + rng.uniform(size=n)], [0]).tocsr()
    X = std_point(m, n, 2, rng)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    # forward check: Proj(A xi + xi B) = eta
    dense = tv_dense(xi)
    back = proj_dense(X, A.toarray() @ dense + dense @ B.toarray())
    assert np.linalg.norm(back - tv_dense(eta)) <= 1e-10 * np.linalg.norm(tv_dense(eta))


# ---------------------------------------------------------------------------
# GenSylvesterPrecond
# ---------------------------------------------------------------------------


def test_gen_sylvester_doubling_identity(rng):
    m, n = 8, 7
    E, D = rand_spd(m, rng), rand_spd(n, rng)
    met = geo.KroneckerMetric(E, D)
    X = geo.random_point(m, n, 2, met, rng)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(E, D, X.metric).apply_inv_tangent(eta)
    assert np.linalg.norm(tv_dense(xi) - tv_dense(eta) / 2.0) <= 1e-11


def gen_sylvester_dense_error(A, B, X, rng):
    """Distance of P2's apply at a random tangent vector from the dense
    oracle, and the bound the dense-oracle tests hold it to."""
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    E, D = dense_metric(X)
    Einv, Dinv = np.linalg.inv(E), np.linalg.inv(D)
    expected = solve_projected_dense(X, tv_dense(eta), lambda T: Einv @ A @ T + T @ B @ Dinv)
    return np.linalg.norm(tv_dense(xi) - expected), 1e-9 * max(1, np.linalg.norm(expected))


def test_gen_sylvester_dense_oracle(rng):
    m = n = 8
    E, D = rand_spd(m, rng, 5.0), rand_spd(n, rng, 5.0)
    X = geo.random_point(m, n, 2, geo.KroneckerMetric(E, D), rng)
    A, B = rand_spd(m, rng, 30.0), rand_spd(n, rng, 30.0)
    err, bound = gen_sylvester_dense_error(A, B, X, rng)
    assert err <= bound


def test_gen_sylvester_dense_oracle_rank_one(rng):
    """r = 1: one shift per side, a 1 x 1 core and 1 x 1 bordering systems."""
    m, n = 8, 7
    E, D = rand_spd(m, rng, 5.0), rand_spd(n, rng, 5.0)
    X = geo.random_point(m, n, 1, geo.KroneckerMetric(E, D), rng)
    A, B = rand_spd(m, rng, 30.0), rand_spd(n, rng, 30.0)
    err, bound = gen_sylvester_dense_error(A, B, X, rng)
    assert err <= bound


def test_gen_sylvester_dense_oracle_equal_shifts(rng):
    """``V^T B V`` with a repeated eigenvalue: two U-side shifts are equal
    and eigh's basis of their eigenspace is arbitrary."""
    m, n, r = 9, 8, 3
    E, D = rand_spd(m, rng, 5.0), rand_spd(n, rng, 5.0)
    X = geo.random_point(m, n, r, geo.KroneckerMetric(E, D), rng)
    DV = D @ X.V
    B = D + DV @ np.diag([1.0, 1.0, 3.0]) @ DV.T   # V^T B V = I + diag(1, 1, 3)
    lamB = np.linalg.eigvalsh(X.V.T @ B @ X.V)
    assert np.isclose(lamB[0], lamB[1], rtol=0.0, atol=1e-12) and lamB[2] > lamB[1] + 1.0
    A = rand_spd(m, rng, 30.0)
    err, bound = gen_sylvester_dense_error(A, B, X, rng)
    assert err <= bound


def symmetric_permutation(M, p):
    return M[p][:, p].tocsr()


@pytest.mark.parametrize("permute", [False, True])
def test_gen_sylvester_sparse_pencils_dense_oracle(rng, permute):
    """Sparse banded pencils in a weighted metric: natural order (no
    permutation is kept) and a random symmetric permutation (RCM kept)."""
    m, n, r = 14, 12, 3
    A, E = rand_band_spd(m, 1, rng), rand_band_spd(m, 2, rng)
    B, D = rand_band_spd(n, 2, rng), rand_band_spd(n, 1, rng)
    if permute:
        p, q = rng.permutation(m), rng.permutation(n)
        A, E = symmetric_permutation(A, p), symmetric_permutation(E, p)
        B, D = symmetric_permutation(B, q), symmetric_permutation(D, q)
    assert (numkit.rcm_bands(A, E)[0] is not None) == permute
    assert (numkit.rcm_bands(B, D)[0] is not None) == permute
    X = geo.random_point(m, n, r, geo.KroneckerMetric(E, D), rng)
    eta = rand_eta(X, rng)
    xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
    Ad, Bd, Dd, Ed = (M.toarray() for M in (A, B, D, E))
    Einv, Dinv = np.linalg.inv(Ed), np.linalg.inv(Dd)
    expected = solve_projected_dense(X, tv_dense(eta), lambda T: Einv @ Ad @ T + T @ Bd @ Dinv)
    assert np.linalg.norm(tv_dense(xi) - expected) <= 1e-9 * max(1, np.linalg.norm(expected))


def test_metric_route_equals_gradient_route(rng):
    """Changing the ambient inner product to E X D and preconditioning the
    standard Riemannian gradient with the same operator produce the same
    preconditioned gradient (as ambient matrices, at the same point): the
    metric is the one way the solvers apply a Kronecker preconditioner,
    and a dense solve of the projected system stands for the other."""
    m, n, r = 9, 8, 3
    E, D = rand_spd(m, rng, 6.0), rand_spd(n, rng, 6.0)
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 4)), rng.standard_normal((n, 4)))
    Zd = Zf.densify(force=True)

    met_w = geo.KroneckerMetric(E, D)
    Xw = geo.random_point(m, n, r, met_w, rng)
    grad_metric = geo.riemannian_gradient(Xw, Zf, Zf.left.T @ Xw.U, Zf.right.T @ Xw.V)

    # same manifold point in the standard representation
    met_id = geo.KroneckerMetric()
    Xs = geo.truncate(Xw.densify(force=True), r, met_id)
    grad_std = geo.project(Xs, Zd)
    # solve Proj_X(E xi D) = grad_std on the tangent space at Xs
    db = solve_projected_dense(Xs, tv_dense(grad_std), lambda T: E @ T @ D)

    da = tv_dense(grad_metric)
    assert np.linalg.norm(da - db) <= 1e-9 * max(1.0, np.linalg.norm(da))


def test_exact_solves_are_spd_on_tangent_space(rng):
    """Densified P_X is symmetric positive definite and the solver output
    matches its dense inverse action."""
    m = n = 8
    X = std_point(m, n, 2, rng)
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    _, coords, gram = projected_operator_matrix(X, lambda T: A @ T + T @ B)
    # self-adjointness in the B-inner product: gram @ coords symmetric
    S = gram @ coords
    assert np.linalg.norm(S - S.T) <= 1e-10 * np.linalg.norm(S)
    assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) > 0


def test_gen_sylvester_spd_on_tangent_space(rng):
    m, n = 8, 7
    E, D = rand_spd(m, rng, 4.0), rand_spd(n, rng, 4.0)
    met = geo.KroneckerMetric(E, D)
    X = geo.random_point(m, n, 2, met, rng)
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    Einv, Dinv = np.linalg.inv(E), np.linalg.inv(D)
    _, coords, gram = projected_operator_matrix(X, lambda T: Einv @ A @ T + T @ B @ Dinv)
    S = gram @ coords
    assert np.linalg.norm(S - S.T) <= 1e-10 * np.linalg.norm(S)
    assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) > 0


# ---------------------------------------------------------------------------
# tangADI
# ---------------------------------------------------------------------------


def test_tangadi_identity_one_step_exact(rng):
    m = n = 7
    X = std_point(m, n, 2, rng)
    eta = rand_eta(X, rng)
    prec = pc.TangAdiPrecond(
        np.eye(m), np.eye(n), geo.KroneckerMetric(np.eye(m), np.eye(n)), ((1.0, -1.0),)
    )
    xi = prec.apply_inv_tangent(eta)
    assert np.linalg.norm(tv_dense(xi) - tv_dense(eta) / 2.0) <= 1e-12


def test_tangadi_fixed_point(rng):
    """A sweep from a nonzero iterate xi_1 is the exact solve of
    ``Proj((A - q E) xi (B + p D)) = Proj((A - p E) xi_1 (B + q D)) + (p - q) eta``
    for any admissible shift pair, so the exact preimage is its fixed
    point; iterating from zero converges to that point."""
    m = n = 8
    X = std_point(m, n, 2, rng)
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    D, E = rand_spd(n, rng, 3.0), rand_spd(m, rng, 3.0)
    kron = geo.KroneckerMetric(E, D)
    xi_star = rand_eta(X, rng)
    eta = geo.project(X, A @ tv_dense(xi_star) @ D + E @ tv_dense(xi_star) @ B)
    for p, q in ((2.0, -2.0), (0.7, -5.0), (11.0, -0.3)):
        xi_1 = tv_dense(pc.TangAdiPrecond(A, B, kron, ((p, q),)).apply_inv_tangent(eta))
        xi_2 = tv_dense(pc.TangAdiPrecond(A, B, kron, ((p, q),) * 2).apply_inv_tangent(eta))
        rhs = proj_dense(X, (A - p * E) @ xi_1 @ (B + q * D)) + (p - q) * tv_dense(eta)
        expected = solve_projected_dense(X, rhs, lambda T: (A - q * E) @ T @ (B + p * D))
        assert np.linalg.norm(xi_2 - expected) <= 1e-11 * np.linalg.norm(expected)
    out = pc.TangAdiPrecond(A, B, kron, ((2.0, -2.0),) * 120).apply_inv_tangent(eta)
    assert geo.norm(out.plus(xi_star, -1.0)) <= 1e-11 * geo.norm(xi_star)


def diffusion_p2(n=32):
    """The P2 coefficients ``(A, B, D, E)`` of the fd-diffusion instance."""
    from lrmeq import problems as pb

    spec = pb.gen_fd_diffusion_paper(n).p2
    return tuple(spec[k] for k in "ABDE")


def test_tangadi_fixed_point_on_diffusion_shifts(rng):
    """The two-sweep check of ``test_tangadi_fixed_point`` for consecutive
    pairs of the 8 Wachspress shifts of the fd-diffusion P2 pencils, where
    the second sweep runs from the first sweep's iterate with another pair."""
    n = 32
    A, B, D, E = diffusion_p2(n)
    kron = geo.KroneckerMetric(E, D)
    shifts = pc.adi_shifts(A, B, kron, 8)
    A, B, D, E = (M.toarray() for M in (A, B, D, E))
    X = std_point(n, n, 3, rng)
    eta = rand_eta(X, rng)
    for first, (p, q) in zip(shifts, shifts[1:]):
        xi_1 = tv_dense(pc.TangAdiPrecond(A, B, kron, (first,)).apply_inv_tangent(eta))
        xi_2 = tv_dense(pc.TangAdiPrecond(A, B, kron, (first, (p, q))).apply_inv_tangent(eta))
        rhs = proj_dense(X, (A - p * E) @ xi_1 @ (B + q * D)) + (p - q) * tv_dense(eta)
        expected = solve_projected_dense(X, rhs, lambda T: (A - q * E) @ T @ (B + p * D))
        assert np.linalg.norm(xi_2 - expected) <= 1e-12 * np.linalg.norm(expected)


class CountingMatrix:
    """A matrix whose products ``M @ X`` are counted by columns of X."""

    def __init__(self, M):
        self.M, self.cols = M, []

    def __matmul__(self, X):
        self.cols.append(X.shape[1])
        return self.M @ X


def test_tangadi_multiplies_A_and_B_once_per_apply(rng, monkeypatch):
    """A sweep multiplies only E and D (by the last iterate's r columns):
    one apply multiplies A by U and B by V once, and E and D once per sweep."""
    n, r = 32, 3
    A, B, D, E = diffusion_p2(n)
    kron = geo.KroneckerMetric(E, D)
    shifts = pc.adi_shifts(A, B, kron, 8)
    X = std_point(n, n, r, rng)
    eta = rand_eta(X, rng)
    prec = pc.TangAdiPrecond(A, B, kron, shifts)
    prec.factors        # the pencils are factored from A and B before the swap
    prec.A, prec.B = CountingMatrix(A), CountingMatrix(B)
    E_cols, D_cols = [], []
    apply_E, apply_D = kron.apply_E, kron.apply_D
    monkeypatch.setattr(kron, "apply_E", lambda M: E_cols.append(M.shape[1]) or apply_E(M))
    monkeypatch.setattr(kron, "apply_D", lambda M: D_cols.append(M.shape[1]) or apply_D(M))
    xi = prec.apply_inv_tangent(eta)
    assert prec.A.cols == [r] and prec.B.cols == [r]
    assert E_cols == [r] * len(shifts) and D_cols == [r] * len(shifts)
    fresh = pc.TangAdiPrecond(A, B, geo.KroneckerMetric(E, D), shifts).apply_inv_tangent(eta)
    assert np.array_equal(tv_dense(xi), tv_dense(fresh))


def test_tangadi_one_sweep_on_diffusion_instance(rng):
    """One apply, with one sweep for each of 8 Wachspress shift pairs, on a
    small diffusion-preconditioner instance leaves a small forward residual
    (threshold calibrated at build time: observed 2.4e-3 .. 4.7e-3 across
    sizes)."""
    n = 32
    A, B, D, E = diffusion_p2(n)
    kron = geo.KroneckerMetric(E, D)
    shifts = pc.adi_shifts(A, B, kron, 8)
    X = std_point(n, n, 3, rng)
    eta = rand_eta(X, rng)
    xi = pc.TangAdiPrecond(A, B, kron, shifts).apply_inv_tangent(eta)
    xid = tv_dense(xi)
    back = geo.project(X, A.toarray() @ xid @ D.toarray() + E.toarray() @ xid @ B.toarray())
    rel = geo.norm(back.plus(eta, -1.0)) / geo.norm(eta)
    assert rel <= 1e-2


def test_tangadi_shift_order_invariant_fixed_point(rng):
    m = n = 7
    X = std_point(m, n, 2, rng)
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    D, E = rand_spd(n, rng, 2.0), rand_spd(m, rng, 2.0)
    kron = geo.KroneckerMetric(E, D)
    xi_star = rand_eta(X, rng)
    eta = geo.project(X, A @ tv_dense(xi_star) @ D + E @ tv_dense(xi_star) @ B)
    pairs = ((1.5, -2.0), (4.0, -0.8), (0.9, -6.0))
    for order in (pairs, pairs[::-1]):
        out = pc.TangAdiPrecond(A, B, kron, order * 20).apply_inv_tangent(eta)
        assert geo.norm(out.plus(xi_star, -1.0)) <= 1e-11 * geo.norm(xi_star)


def test_tangadi_contraction_rate(rng):
    m = n = 8
    r = 2
    failures = 0
    for seed in range(20):
        local = np.random.default_rng(seed)
        X = std_point(m, n, r, local)
        A, B = rand_spd(m, local, 20.0), rand_spd(n, local, 20.0)
        D, E = rand_spd(n, local, 3.0), rand_spd(m, local, 3.0)
        kron = geo.KroneckerMetric(E, D)
        a, bb = pc.spectral_interval(A, kron.apply_E, kron.solve_E)
        c, d = pc.spectral_interval(B, kron.apply_D, kron.solve_D)
        p, q = float(np.sqrt(a * bb)), -float(np.sqrt(c * d))

        def amb_G(T):
            return (A - q * E) @ T @ (B + p * D)

        def amb_N(T):
            return (A - p * E) @ T @ (B + q * D)

        _, G_c, _ = projected_operator_matrix(X, amb_G)
        _, N_c, _ = projected_operator_matrix(X, amb_N)
        rho_X = spectral_radius(np.linalg.solve(G_c, N_c))

        xi_star = rand_eta(X, local)
        eta = geo.project(X, A @ tv_dense(xi_star) @ D + E @ tv_dense(xi_star) @ B)

        def g_norm(err_dense):
            # energy norm of the split operator G_X, in which the fixed-point
            # iteration matrix is self-adjoint and contracts at rho exactly
            return np.sqrt(np.sum(proj_dense(X, amb_G(err_dense)) * err_dense))

        errs = []
        for steps in range(1, 10):
            out = pc.TangAdiPrecond(A, B, kron, ((p, q),) * steps).apply_inv_tangent(eta)
            errs.append(g_norm(tv_dense(out) - tv_dense(xi_star)))
        ratios = [errs[j + 1] / errs[j] for j in range(3, 8) if errs[j] > 1e-13]
        if ratios and max(ratios) > rho_X + 0.05:
            failures += 1
    assert failures == 0


def test_spectral_radius_inequality(rng):
    """Projected spectral radius never exceeds the ambient one (Eq.-level
    interlacing property), checked densely on random SPD instances."""
    m = n = 7
    for seed in range(20):
        local = np.random.default_rng(100 + seed)
        X = std_point(m, n, 2, local)
        A, B = rand_spd(m, local, 15.0), rand_spd(n, local, 15.0)
        D, E = rand_spd(n, local, 4.0), rand_spd(m, local, 4.0)
        kron = geo.KroneckerMetric(E, D)
        a, bb = pc.spectral_interval(A, kron.apply_E, kron.solve_E)
        c, d = pc.spectral_interval(B, kron.apply_D, kron.solve_D)
        p, q = float(np.sqrt(a * bb)), -float(np.sqrt(c * d))

        _, G_c, _ = projected_operator_matrix(X, lambda T: (A - q * E) @ T @ (B + p * D))
        _, N_c, _ = projected_operator_matrix(X, lambda T: (A - p * E) @ T @ (B + q * D))
        rho_X = spectral_radius(np.linalg.solve(G_c, N_c))
        GK = np.kron(B + p * D, A - q * E)
        NK = np.kron(B + q * D, A - p * E)
        rho_amb = spectral_radius(np.linalg.solve(GK, NK))
        assert rho_X <= rho_amb + 1e-10


def test_tangadi_requires_shifts():
    """tangADI and fADI refuse a missing or empty shift set when built."""
    for cls in (pc.TangAdiPrecond, pc.FadiAmbientPrecond):
        for shifts in (None, ()):
            with pytest.raises(ValueError, match="nonempty shift set"):
                cls(np.eye(5), np.eye(5), geo.KroneckerMetric(), shifts)


def counted_pencil_factors(monkeypatch):
    """Record the shift of every ``ShiftedPencilFactory.factor`` call."""
    shifts = []
    factor = pc.ShiftedPencilFactory.factor

    def counted(self, shift):
        shifts.append(shift)
        return factor(self, shift)

    monkeypatch.setattr(pc.ShiftedPencilFactory, "factor", counted)
    return shifts


def sparse_tridiag(n, rng):
    off = -rng.uniform(0.2, 1.0, size=n - 1)
    return sp.diags([off, 3.0 + rng.uniform(size=n), off], [-1, 0, 1]).tocsr()


def sparse_diag(n, rng):
    return sp.diags([1.0 + rng.uniform(size=n)], [0]).tocsr()


@pytest.mark.parametrize("wide", ["A", "E"])
def test_pencil_factor_matches_dense_solve(rng, wide):
    """The band holds every entry of A and of E, whichever is wider."""
    n = 30
    tri, diag = sparse_tridiag(n, rng), sparse_diag(n, rng)
    A, E = (tri, diag) if wide == "A" else (diag, tri)
    p = rng.permutation(n)
    A, E = A[p][:, p].tocsr(), E[p][:, p].tocsr()
    b = rng.standard_normal(n)
    x = pc.ShiftedPencilFactory(A, E).factor(1.0).solve(b)
    expected = np.linalg.solve((A + E).toarray(), b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pencil_factor_at_indefinite_shift_names_the_minor(rng):
    """``A + s E`` of a tridiagonal pencil at a shift where it is
    indefinite: ``pttrf`` fails at the second pivot, and the error names
    that minor as the banded Cholesky of the same matrix does."""
    n = 12
    A = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    E = sparse_diag(n, rng)
    s = -1.5 / E[0, 0]      # pivots (A + s E)[0, 0] = 0.5, then 2 + s E[1, 1] - 2 < 0
    assert numkit.rcm_bands(A, E)[1][0].shape[0] == 2
    msg = "2-th leading minor not positive definite"
    with pytest.raises(numkit.NotSpdError, match=msg):
        pc.ShiftedPencilFactory(A, E).factor(s)
    with pytest.raises(numkit.NotSpdError, match=msg):
        numkit.SpdFactorization((A + s * E).toarray())


def test_tangadi_factors_each_shift_pair_once(rng, monkeypatch):
    m, n = 20, 18
    A, B = sparse_tridiag(m, rng), sparse_tridiag(n, rng)
    D, E = sparse_diag(n, rng), sparse_diag(m, rng)
    kron = geo.KroneckerMetric(E, D)
    shifts = ((2.0, -0.5), (3.0, -0.3), (1.5, -0.8))
    X = std_point(m, n, 2, rng)
    etas = [rand_eta(X, rng) for _ in range(3)]
    prec = pc.TangAdiPrecond(A, B, kron, shifts)
    calls = counted_pencil_factors(monkeypatch)
    out = [prec.apply_inv_tangent(eta) for eta in etas]
    assert sorted(calls) == sorted([-q for _, q in shifts] + [p for p, _ in shifts])
    for eta, xi in zip(etas, out):
        fresh = pc.TangAdiPrecond(A, B, kron, shifts).apply_inv_tangent(eta)
        assert np.array_equal(tv_dense(xi), tv_dense(fresh))


def test_gen_sylvester_factories_keep_no_factorization(rng, monkeypatch):
    m, n, r = 16, 14, 2
    A, B = sparse_tridiag(m, rng), sparse_tridiag(n, rng)
    D, E = sparse_diag(n, rng), sparse_diag(m, rng)
    X = geo.random_point(m, n, r, geo.KroneckerMetric(E, D), rng)
    eta = rand_eta(X, rng)
    prec = pc.GenSylvesterPrecond(A, B, X.metric)
    calls = counted_pencil_factors(monkeypatch)
    first = prec.apply_inv_tangent(eta)
    second = prec.apply_inv_tangent(eta)
    assert len(calls) == 2 * (r + r)   # every apply factors its r + r shifts
    assert calls[: 2 * r] == calls[2 * r :]
    assert np.array_equal(tv_dense(first), tv_dense(second))
    for factory in (prec.factory_AE, prec.factory_BD):
        held = list(vars(factory).values())
        held += [x for v in held if isinstance(v, dict) for x in v.values()]
        assert not any(isinstance(v, numkit.SpdFactorization) for v in held)


def test_gen_sylvester_instance_at_changing_ranks_matches_fresh_ones(rng):
    """RRAM applies one P2 instance at points of changing rank: at ranks
    3, 5, 3 it returns exactly what a fresh instance returns."""
    m, n = 16, 14
    A, B = sparse_tridiag(m, rng), sparse_tridiag(n, rng)
    met = geo.KroneckerMetric(sparse_diag(m, rng), sparse_diag(n, rng))
    prec = pc.GenSylvesterPrecond(A, B, met)
    for r in (3, 5, 3):
        eta = rand_eta(geo.random_point(m, n, r, met, rng), rng)
        fresh = pc.GenSylvesterPrecond(A, B, met).apply_inv_tangent(eta)
        assert np.array_equal(tv_dense(prec.apply_inv_tangent(eta)), tv_dense(fresh))


@pytest.mark.parametrize("m", [12, 300], ids=["dense", "lanczos"])
def test_spectral_interval_of_indefinite_pencil_raises(rng, m):
    """A pencil with a negative eigenvalue is not SPD: both the dense
    eigensolve and Lanczos raise ``NotSpdError`` instead of handing a
    negative lower end to ``wachspress_shifts``."""
    A = sp.diags([np.linspace(-1.0, 3.0, m)], [0]).tocsr()
    met = geo.KroneckerMetric(sparse_diag(m, rng), None)
    with pytest.raises(numkit.NotSpdError, match="pencil not SPD"):
        pc.spectral_interval(A, met.apply_E, met.solve_E)


def test_gen_sylvester_precond_rejects_point_of_other_metric(rng):
    """P2 takes E and D from its metric; at a point whose metric holds other
    E or D objects, equal values included, it raises instead of returning
    the inverse of another operator."""
    m, n = 8, 7
    A, B = rand_spd(m, rng), rand_spd(n, rng)
    E, D = rand_spd(m, rng, 4.0), rand_spd(n, rng, 4.0)
    prec = pc.GenSylvesterPrecond(A, B, geo.KroneckerMetric(E, D))
    others = (
        geo.KroneckerMetric(E.copy(), D),
        geo.KroneckerMetric(E, D.copy()),
        geo.KroneckerMetric(),
    )
    for other in others:
        X = geo.random_point(m, n, 2, other, rng)
        with pytest.raises(ValueError, match="other E or D"):
            prec.apply_inv_tangent(rand_eta(X, rng))
    # another metric object that holds the same E and D is accepted, and
    # gives the result of P2 built on that metric bit for bit
    X = geo.random_point(m, n, 2, geo.KroneckerMetric(E, D), rng)
    eta = rand_eta(X, rng)
    own = pc.GenSylvesterPrecond(A, B, X.metric)
    assert np.array_equal(
        tv_dense(prec.apply_inv_tangent(eta)), tv_dense(own.apply_inv_tangent(eta))
    )


def test_gen_sylvester_core_not_spd_raises_and_solver_ends_with_spd_loss(monkeypatch):
    """At X = u u^T, u = (1, 1)/sqrt(2), with A = B = diag(-1, 5), both
    shifted pencils A + 2 I = diag(1, 7) are SPD, but the operator's
    compression on the tangent space, in the basis (u u^T, u' u^T, u u'^T)
    for u' = (1, -1)/sqrt(2), is [[4, -3, -3], [-3, 4, 0], [-3, 0, 4]]
    with eigenvalue 4 - 3 sqrt(2) < 0: only the 1 x 1 core, its Schur
    complement 4 - 9/4 - 9/4, is not SPD.  Its Cholesky fails with
    ``NotSpdError``, and R-NLCG started there ends with ``spd_loss``."""
    from lrmeq import equations as eqs
    from lrmeq import solver_rnlcg as rn

    A = np.diag([-1.0, 5.0])
    met = geo.KroneckerMetric()
    u = np.full((2, 1), np.sqrt(0.5))
    X = geo.FixedRankPoint(u, np.array([1.0]), u.copy(), met)
    numkit.SpdFactorization(A + 2.0 * np.eye(2))  # the pencil at u^T A u = 2 factors
    with pytest.raises(numkit.NotSpdError, match="core not SPD"):
        pc.GenSylvesterPrecond(A, A, met).apply_inv_tangent(geo.project(X, np.eye(2)))

    monkeypatch.setattr(rn.geo, "random_point", lambda *args: X)
    op = eqs.MultitermOperator([np.eye(2)], [np.eye(2)])
    F = eqs.LowRankRhs(np.ones((2, 1)), np.array([[1.0], [2.0]]))
    opts = rn.RnlcgOptions(rank=1)
    _, trace, status = rn.rnlcg_solve(op, F, opts, precond=pc.GenSylvesterPrecond(A, A, met))
    assert status == "spd_loss"
    assert len(trace) == 1 and trace.last()["event"] == "spd_loss"


@pytest.mark.parametrize("sparse", [False, True])
def test_gen_sylvester_solves_r_plus_one_columns_per_shift(rng, monkeypatch, sparse):
    m, n, r = 16, 14, 3
    if sparse:
        A, B = sparse_tridiag(m, rng), sparse_tridiag(n, rng)
        D, E = sparse_diag(n, rng), sparse_diag(m, rng)
    else:
        A, B = rand_spd(m, rng, 30.0), rand_spd(n, rng, 30.0)
        D, E = rand_spd(n, rng, 5.0), rand_spd(m, rng, 5.0)
    X = geo.random_point(m, n, r, geo.KroneckerMetric(E, D), rng)
    eta = rand_eta(X, rng)
    prec = pc.GenSylvesterPrecond(A, B, X.metric)
    cols = []
    solve = numkit.SpdFactorization.solve

    def counted(self, b):
        cols.append(np.shape(b)[1] if np.ndim(b) == 2 else 1)
        return solve(self, b)

    monkeypatch.setattr(numkit.SpdFactorization, "solve", counted)
    prec.apply_inv_tangent(eta)
    assert cols == [r + 1] * (2 * r)


def test_fadi_matches_exact_solve_rate(rng):
    """fADI on the ambient generalized Sylvester equation converges with the
    Wachspress bound."""
    m = n = 12
    A, E = rand_spd(m, rng, 40.0), np.eye(m)
    B, D = rand_spd(n, rng, 40.0), np.eye(n)
    kron = geo.KroneckerMetric(E, D)
    a, bb = pc.spectral_interval(A, kron.apply_E, kron.solve_E)
    c, d = pc.spectral_interval(B, kron.apply_D, kron.solve_D)
    shifts = pc.wachspress_shifts(a, bb, c, d, 6)
    rhs = geo.FactoredMatrix(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    prec = pc.FadiAmbientPrecond(A, B, kron, shifts)
    X = prec.apply_inv_ambient(rhs)
    Xd = X.densify(force=True)
    resid = A @ Xd @ D + E @ Xd @ B - rhs.densify(force=True)
    lam = np.geomspace(a, bb, 80)
    mu = np.geomspace(c, d, 80)
    bound = adi_error_bound(shifts, lam, mu).max()
    assert np.linalg.norm(resid) <= 5 * bound * np.linalg.norm(rhs.densify(force=True))
