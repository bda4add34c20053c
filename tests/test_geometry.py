import numpy as np
import pytest

from lrmeq import geometry as geo

from oracles import b_inner, proj_dense, rand_spd, tangent_basis_dense, tv_dense


def make_metric(m, n, rng, weighted=True, cond=10.0):
    if not weighted:
        return geo.KroneckerMetric.identity(m, n)
    return geo.KroneckerMetric(rand_spd(m, rng, cond), rand_spd(n, rng, cond))


# ---------------------------------------------------------------------------
# weighted SVD / truncation
# ---------------------------------------------------------------------------


def test_weighted_svd_identity_metric_is_svd(rng):
    Z = rng.standard_normal((7, 5))
    met = geo.KroneckerMetric.identity(7, 5)
    U, s, V = geo.weighted_svd(Z, met)
    Us, ss, Vs = np.linalg.svd(Z, full_matrices=False)
    assert np.allclose(s, ss)
    assert np.linalg.norm(U @ np.diag(s) @ V.T - Z) < 1e-13 * np.linalg.norm(Z)


def test_weighted_svd_fixed_point(rng):
    m, n, r = 8, 6, 3
    met = make_metric(m, n, rng)
    X0 = geo.random_point(m, n, r, met, rng)
    U, s, V = geo.weighted_svd(X0.as_factored(), met)
    assert np.allclose(s[:r], np.sort(X0.sigma)[::-1], rtol=1e-12)


def test_weighted_svd_reconstruction_and_orthogonality(rng):
    m, n = 8, 6
    met = make_metric(m, n, rng)
    Z = rng.standard_normal((m, n))
    U, s, V = geo.weighted_svd(Z, met)
    E, D = met.dense_E(), met.dense_D()
    assert np.linalg.norm(U @ np.diag(s) @ V.T - Z) <= 1e-12 * np.linalg.norm(Z)
    assert np.linalg.norm(U.T @ E @ U - np.eye(len(s))) <= 1e-12
    assert np.linalg.norm(V.T @ D @ V - np.eye(len(s))) <= 1e-12


def test_truncate_exact_when_rank_small(rng):
    m, n, r = 9, 7, 3
    met = make_metric(m, n, rng)
    Z = geo.FactoredMatrix(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    X = geo.truncate(Z, 5, met)
    assert X.r == r
    assert np.linalg.norm(X.densify(force=True) - Z.densify(force=True)) <= 1e-12 * np.linalg.norm(Z.densify(force=True))


def test_truncate_identity_metric_matches_svd(rng):
    Z = rng.standard_normal((8, 8))
    met = geo.KroneckerMetric.identity(8, 8)
    X = geo.truncate(Z, 3, met)
    U, s, Vt = np.linalg.svd(Z)
    best = (U[:, :3] * s[:3]) @ Vt[:3]
    assert np.linalg.norm(X.densify(force=True) - best) <= 1e-12 * np.linalg.norm(best)


def test_weighted_eckart_young_brute_force(rng):
    m = n = 10
    r = 3
    met = make_metric(m, n, rng, cond=5.0)
    E, D = met.dense_E(), met.dense_D()
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 6)), rng.standard_normal((n, 6)))
    Z = Zf.densify(force=True)
    X = geo.truncate(Zf, r, met)

    def b_norm(M):
        return np.sqrt(b_inner(M, M, E, D))

    err_star = b_norm(Z - X.densify(force=True))
    # tail formula from the weighted SVD
    _, s, _ = geo.weighted_svd(Zf, met)
    assert abs(err_star - np.sqrt(np.sum(s[r:] ** 2))) <= 1e-10 * max(1.0, err_star)
    # brute force over random rank-3 candidates
    for _ in range(1000):
        C = geo.FactoredMatrix(
            rng.standard_normal((m, r)), rng.standard_normal((n, r))
        ).densify(force=True)
        scale = b_inner(Z, C, E, D) / b_inner(C, C, E, D)
        assert b_norm(Z - scale * C) >= err_star - 1e-10


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_rank_one_identity():
    met = geo.KroneckerMetric.identity(2, 2)
    e1 = np.array([[1.0], [0.0]])
    X = geo.FixedRankPoint(e1, np.array([1.0]), e1, met)
    xi = geo.project(X, np.eye(2))
    assert np.allclose(xi.M, [[1.0]])
    assert np.allclose(xi.Up, 0) and np.allclose(xi.Vp, 0)


def test_project_normal_space_input():
    met = geo.KroneckerMetric.identity(2, 2)
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    X = geo.FixedRankPoint(e1, np.array([1.0]), e1, met)
    xi = geo.project(X, e2 @ e2.T)
    assert np.allclose(tv_dense(xi), 0, atol=1e-14)


@pytest.mark.parametrize("weighted", [False, True])
def test_projection_residual_b_orthogonal(rng, weighted):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng, weighted)
    E, D = met.dense_E(), met.dense_D()
    X = geo.random_point(m, n, r, met, rng)
    Z = rng.standard_normal((m, n))
    xi = geo.project(X, Z)
    resid = Z - tv_dense(xi)
    for eta in tangent_basis_dense(X):
        assert abs(b_inner(resid, eta, E, D)) <= 1e-10 * np.linalg.norm(Z)


def test_projection_idempotent(rng):
    m, n, r = 8, 7, 2
    for weighted in (False, True):
        met = make_metric(m, n, rng, weighted)
        X = geo.random_point(m, n, r, met, rng)
        Z = rng.standard_normal((m, n))
        xi = geo.project(X, Z)
        xi2 = geo.project(X, xi.embed())
        assert np.linalg.norm(xi2.M - xi.M) <= 1e-11
        assert np.linalg.norm(xi2.Up - xi.Up) <= 1e-11
        assert np.linalg.norm(xi2.Vp - xi.Vp) <= 1e-11


# ---------------------------------------------------------------------------
# transport / inner / embed
# ---------------------------------------------------------------------------


def test_transport_identity_at_same_point(rng):
    m, n, r = 8, 8, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    back = geo.transport(X, xi)
    assert np.linalg.norm(back.M - xi.M) < 1e-12
    assert np.linalg.norm(back.Up - xi.Up) < 1e-12


def test_transport_zero(rng):
    m, n, r = 6, 6, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    Y = geo.random_point(m, n, r, met, rng)
    out = geo.transport(Y, geo.TangentVector.zero(X))
    assert np.linalg.norm(tv_dense(out)) < 1e-14


def test_transport_matches_dense_projection(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    Y = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    out = geo.transport(Y, xi)
    expected = proj_dense(Y, tv_dense(xi))
    assert np.linalg.norm(tv_dense(out) - expected) <= 1e-12 * max(1, np.linalg.norm(expected))


def test_inner_positive_definite(rng):
    met = make_metric(7, 6, rng)
    X = geo.random_point(7, 6, 2, met, rng)
    xi = geo.project(X, rng.standard_normal((7, 6)))
    assert geo.inner(xi, xi) > 0
    assert geo.inner(geo.TangentVector.zero(X), geo.TangentVector.zero(X)) == 0.0


@pytest.mark.parametrize("weighted", [False, True])
def test_inner_matches_dense(rng, weighted):
    m, n, r = 8, 7, 2
    met = make_metric(m, n, rng, weighted)
    E, D = met.dense_E(), met.dense_D()
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    eta = geo.project(X, rng.standard_normal((m, n)))
    dense = b_inner(tv_dense(xi), tv_dense(eta), E, D)
    assert abs(geo.inner(xi, eta) - dense) <= 1e-12 * max(1.0, abs(dense))


def test_embed_zero_and_dense(rng):
    m, n, r = 8, 8, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    z = geo.TangentVector.zero(X).embed()
    assert np.linalg.norm(z.densify(force=True)) == 0.0
    xi = geo.project(X, rng.standard_normal((m, n)))
    emb = xi.embed().densify(force=True)
    assert np.linalg.norm(emb - tv_dense(xi)) <= 1e-12 * np.linalg.norm(emb)


def test_densify_guard():
    Z = geo.FactoredMatrix(np.ones((100, 1)), np.ones((100, 1)))
    with pytest.raises(ValueError):
        Z.densify()
    assert Z.densify(force=True).shape == (100, 100)


# ---------------------------------------------------------------------------
# Riemannian gradient
# ---------------------------------------------------------------------------


def test_gradient_identity_metric_is_projection(rng):
    m, n, r = 8, 7, 2
    met = geo.KroneckerMetric.identity(m, n)
    X = geo.random_point(m, n, r, met, rng)
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    g = geo.riemannian_gradient(X, Zf)
    p = geo.project(X, Zf)
    assert np.linalg.norm(g.M - p.M) < 1e-12
    assert np.linalg.norm(g.Up - p.Up) < 1e-12


def test_gradient_zero(rng):
    met = make_metric(6, 6, rng)
    X = geo.random_point(6, 6, 2, met, rng)
    g = geo.riemannian_gradient(X, geo.FactoredMatrix.zero(6, 6))
    assert np.linalg.norm(tv_dense(g)) == 0.0


def test_gradient_matches_dense_oracle(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    E, D = met.dense_E(), met.dense_D()
    X = geo.random_point(m, n, r, met, rng)
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    g = geo.riemannian_gradient(X, Zf)
    W = np.linalg.solve(E, Zf.densify(force=True)) @ np.linalg.inv(D)
    expected = proj_dense(X, W)
    assert np.linalg.norm(tv_dense(g) - expected) <= 1e-11 * max(1, np.linalg.norm(expected))
    # caches are the weighted products
    assert np.linalg.norm(g.E_Up - E @ g.Up) <= 1e-12 * max(1, np.linalg.norm(g.Up))
    assert np.linalg.norm(g.D_Vp - D @ g.Vp) <= 1e-12 * max(1, np.linalg.norm(g.Vp))


# ---------------------------------------------------------------------------
# retraction
# ---------------------------------------------------------------------------


def test_retract_zero_step(rng):
    m, n, r = 8, 7, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    X0 = geo.retract(X, xi, 0.0)
    assert np.allclose(np.sort(X0.sigma), np.sort(X.sigma), rtol=1e-12)
    assert np.linalg.norm(X0.densify(force=True) - X.densify(force=True)) <= 1e-12


def test_retract_full_rank_is_addition(rng):
    m = n = 5
    met = geo.KroneckerMetric.identity(m, n)
    X = geo.random_point(m, n, m, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    t = 0.7
    out = geo.retract(X, xi, t)
    expected = X.densify(force=True) + t * tv_dense(xi)
    assert np.linalg.norm(out.densify(force=True) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_retract_matches_dense_truncation(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    t = 0.37
    out = geo.retract(X, xi, t)
    ref = geo.truncate(X.densify(force=True) + t * tv_dense(xi), r, met)
    assert np.linalg.norm(out.densify(force=True) - ref.densify(force=True)) <= 1e-11 * np.linalg.norm(ref.densify(force=True))


def test_retract_local_rigidity(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    E, D = met.dense_E(), met.dense_D()
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    xi = xi.scaled(1.0 / geo.norm(xi))

    def b_norm(M):
        return np.sqrt(b_inner(M, M, E, D))

    prev_ratio = None
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        out = geo.retract(X, xi, t)
        gap = b_norm(out.densify(force=True) - (X.densify(force=True) + t * tv_dense(xi)))
        ratio = gap / t
        if prev_ratio is not None:
            assert ratio <= prev_ratio  # o(t): the ratio decays
        prev_ratio = ratio
    assert prev_ratio <= 1e-3


def test_retraction_reuses_qr_over_steps(rng):
    m, n, r = 8, 7, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    retr = geo.LineSearchRetraction(X, xi)
    for t in (1.0, 0.5, 0.25):
        one = retr.at(t)
        two = geo.retract(X, xi, t)
        assert np.linalg.norm(one.densify(force=True) - two.densify(force=True)) <= 1e-13 * max(
            1.0, np.linalg.norm(two.densify(force=True))
        )


def test_metric_reduction_standard_case(rng):
    """Every operation with E = I, D = I matches the standard-metric path."""
    m, n, r = 8, 7, 2
    ident = geo.KroneckerMetric.identity(m, n)
    expl = geo.KroneckerMetric(np.eye(m), np.eye(n))
    Z = rng.standard_normal((m, n))
    U1, s1, V1 = geo.weighted_svd(Z, ident)
    U2, s2, V2 = geo.weighted_svd(Z, expl)
    assert np.allclose(s1, s2, atol=1e-12)
    assert np.linalg.norm(U1 @ np.diag(s1) @ V1.T - U2 @ np.diag(s2) @ V2.T) <= 1e-12
    X1 = geo.truncate(Z, r, ident)
    X2 = geo.truncate(Z, r, expl)
    assert np.linalg.norm(X1.densify(force=True) - X2.densify(force=True)) <= 1e-12
    xi1 = geo.project(X1, Z)
    # rebase X2's projection onto X1's factors for comparison via dense embeddings
    xi2 = geo.project(X2, Z)
    assert np.linalg.norm(tv_dense(xi1) - tv_dense(xi2)) <= 1e-12 * np.linalg.norm(Z)


def test_standard_metric_projection_formula(rng):
    """Identity-metric projection agrees with the direct standard-geometry
    coefficient formulas M = U'ZV, Up = ZV - UM, Vp = Z'U - VM'."""
    m, n, r = 9, 8, 3
    met = geo.KroneckerMetric.identity(m, n)
    X = geo.random_point(m, n, r, met, rng)
    Z = rng.standard_normal((m, n))
    xi = geo.project(X, Z)
    M_ref = X.U.T @ Z @ X.V
    Up_ref = Z @ X.V - X.U @ M_ref
    Vp_ref = Z.T @ X.U - X.V @ M_ref.T
    assert np.linalg.norm(xi.M - M_ref) <= 1e-12 * max(1.0, np.linalg.norm(M_ref))
    assert np.linalg.norm(xi.Up - Up_ref) <= 1e-12 * max(1.0, np.linalg.norm(Up_ref))
    assert np.linalg.norm(xi.Vp - Vp_ref) <= 1e-12 * max(1.0, np.linalg.norm(Vp_ref))


def test_random_point_norm_and_validity(rng):
    met = make_metric(9, 7, rng)
    X = geo.random_point(9, 7, 3, met, rng, fro_norm=1.0)
    X.validate()
    assert abs(X.frobenius_norm() - 1.0) <= 1e-12
