from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st

from lrmeq import geometry as geo
from lrmeq import numkit

from oracles import (
    assert_valid_point,
    b_inner,
    dense_metric,
    proj_dense,
    rand_band_spd,
    rand_spd,
    tangent_basis_dense,
    tv_dense,
)


def make_metric(m, n, rng, weighted=True, cond=10.0):
    if not weighted:
        return geo.KroneckerMetric()
    return geo.KroneckerMetric(rand_spd(m, rng, cond), rand_spd(n, rng, cond))


def retract(X, xi, t):
    """The point ``P_Mr(X + t xi)`` of a fresh line-search retraction."""
    retr = geo.LineSearchRetraction(X, xi)
    return retr.point(*retr.at(t))


def zero_tangent(X):
    return geo.project(X, geo.FactoredMatrix.zero(*X.shape))


def gradient(X, Z):
    """Riemannian gradient of a factored Z, with its products with U and V."""
    return geo.riemannian_gradient(X, Z, Z.left.T @ X.U, Z.right.T @ X.V)


# ---------------------------------------------------------------------------
# weighted SVD / truncation
# ---------------------------------------------------------------------------


def test_weighted_svd_identity_metric_is_svd(rng):
    Z = rng.standard_normal((7, 5))
    met = geo.KroneckerMetric()
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
    E, D = dense_metric(met, (m, n))
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


def test_truncate_zero_is_rank_0(rng):
    m, n = 9, 7
    met = make_metric(m, n, rng)
    for Z in (np.zeros((m, n)), geo.FactoredMatrix(np.zeros((m, 2)), np.zeros((n, 2)))):
        X = geo.truncate(Z, 3, met)
        assert X.r == 0 and X.U.shape == (m, 0) and X.V.shape == (n, 0)


def test_truncate_identity_metric_matches_svd(rng):
    Z = rng.standard_normal((8, 8))
    met = geo.KroneckerMetric()
    X = geo.truncate(Z, 3, met)
    U, s, Vt = np.linalg.svd(Z)
    best = (U[:, :3] * s[:3]) @ Vt[:3]
    assert np.linalg.norm(X.densify(force=True) - best) <= 1e-12 * np.linalg.norm(best)


def test_weighted_eckart_young_brute_force(rng):
    m = n = 10
    r = 3
    met = make_metric(m, n, rng, cond=5.0)
    E, D = dense_metric(met, (m, n))
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
    met = geo.KroneckerMetric()
    e1 = np.array([[1.0], [0.0]])
    X = geo.FixedRankPoint(e1, np.array([1.0]), e1, met)
    xi = geo.project(X, np.eye(2))
    assert np.allclose(xi.M, [[1.0]])
    assert np.allclose(xi.Up, 0) and np.allclose(xi.Vp, 0)


def test_project_normal_space_input():
    met = geo.KroneckerMetric()
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
    E, D = dense_metric(met, (m, n))
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
    out = geo.transport(Y, zero_tangent(X))
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
    assert geo.inner(zero_tangent(X), zero_tangent(X)) == 0.0


@pytest.mark.parametrize("weighted", [False, True])
def test_inner_matches_dense(rng, weighted):
    m, n, r = 8, 7, 2
    met = make_metric(m, n, rng, weighted)
    E, D = dense_metric(met, (m, n))
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    eta = geo.project(X, rng.standard_normal((m, n)))
    dense = b_inner(tv_dense(xi), tv_dense(eta), E, D)
    assert abs(geo.inner(xi, eta) - dense) <= 1e-12 * max(1.0, abs(dense))


def drifted_tangent(rng, rel_drift):
    """A tangent vector in a weighted metric whose Up has drifted into
    span(U) by ``rel_drift`` relative to its norm, and the vector before."""
    met = make_metric(9, 8, rng)
    X = geo.random_point(9, 8, 3, met, rng)
    xi = geo.project(X, rng.standard_normal((9, 8)))
    c = rng.standard_normal((3, 3))
    drift = X.U @ (rel_drift * np.linalg.norm(xi.Up) / np.linalg.norm(X.U @ c) * c)
    return geo.TangentVector(xi.M, xi.Up + drift, xi.Vp, X), xi


def test_retangentialize_projects_out_drift_above_tol(rng):
    drifted, xi = drifted_tangent(rng, 1e-6)
    X = xi.point
    assert np.linalg.norm(X.EU.T @ drifted.Up) > geo.RETANGENT_TOL * np.linalg.norm(drifted.Up)
    out = drifted.retangentialize()
    assert np.linalg.norm(X.EU.T @ out.Up) <= 1e-14 * np.linalg.norm(out.Up)
    assert np.linalg.norm(out.Up - xi.Up) <= 1e-13 * np.linalg.norm(xi.Up)
    assert out.M is drifted.M and out.Vp is drifted.Vp


def test_retangentialize_keeps_vector_below_tol(rng):
    drifted, _ = drifted_tangent(rng, 1e-12)
    assert drifted.retangentialize() is drifted


def test_embed_zero_and_dense(rng):
    m, n, r = 8, 8, 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    z = zero_tangent(X).embed()
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
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, r, met, rng)
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    g = gradient(X, Zf)
    p = geo.project(X, Zf)
    assert np.linalg.norm(g.M - p.M) < 1e-12
    assert np.linalg.norm(g.Up - p.Up) < 1e-12


def test_gradient_zero(rng):
    met = make_metric(6, 6, rng)
    X = geo.random_point(6, 6, 2, met, rng)
    g = gradient(X, geo.FactoredMatrix.zero(6, 6))
    assert np.linalg.norm(tv_dense(g)) == 0.0


def test_gradient_matches_dense_oracle(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    E, D = dense_metric(met, (m, n))
    X = geo.random_point(m, n, r, met, rng)
    Zf = geo.FactoredMatrix(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    g = gradient(X, Zf)
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
    X0 = retract(X, xi, 0.0)
    assert np.allclose(np.sort(X0.sigma), np.sort(X.sigma), rtol=1e-12)
    assert np.linalg.norm(X0.densify(force=True) - X.densify(force=True)) <= 1e-12


def test_retract_full_rank_is_addition(rng):
    m = n = 5
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, m, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    t = 0.7
    out = retract(X, xi, t)
    expected = X.densify(force=True) + t * tv_dense(xi)
    assert np.linalg.norm(out.densify(force=True) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_retract_matches_dense_truncation(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    t = 0.37
    out = retract(X, xi, t)
    ref = geo.truncate(X.densify(force=True) + t * tv_dense(xi), r, met)
    assert np.linalg.norm(out.densify(force=True) - ref.densify(force=True)) <= 1e-11 * np.linalg.norm(ref.densify(force=True))


def test_retract_local_rigidity(rng):
    m = n = 8
    r = 2
    met = make_metric(m, n, rng)
    E, D = dense_metric(met, (m, n))
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, rng.standard_normal((m, n)))
    xi = xi.scaled(1.0 / geo.norm(xi))

    def b_norm(M):
        return np.sqrt(b_inner(M, M, E, D))

    prev_ratio = None
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        out = retract(X, xi, t)
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
        one = retr.point(*retr.at(t))
        two = retract(X, xi, t)
        assert np.linalg.norm(one.densify(force=True) - two.densify(force=True)) <= 1e-13 * max(
            1.0, np.linalg.norm(two.densify(force=True))
        )


def test_metric_reduction_standard_case(rng):
    """Every operation with E = I, D = I matches the standard-metric path."""
    m, n, r = 8, 7, 2
    ident = geo.KroneckerMetric()
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
    met = geo.KroneckerMetric()
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
    X = geo.random_point(9, 7, 3, met, rng)
    assert_valid_point(X)
    assert abs(X.frobenius_norm() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# factored norms against dense references
# ---------------------------------------------------------------------------

# (m, n, k, seed); k may exceed m or n, and k = 0 is the zero matrix.  The
# examples span several QR panels: the shorter factor has at least k rows
# (its QR and ``trmm``) or fewer (the dense product), and either factor is
# the shorter one
factored_cases = st.tuples(
    st.integers(1, 12), st.integers(1, 12), st.integers(0, 15), st.integers(0, 2**32 - 1)
)


@given(factored_cases)
@example((150, 220, 100, 0))
@example((220, 150, 100, 1))
@example((100, 100, 100, 2))
@example((40, 90, 70, 3))
@example((90, 40, 70, 4))
@example((99, 100, 100, 5))
def test_factored_norm_is_frobenius_norm(case):
    m, n, k, seed = case
    rng = np.random.default_rng(seed)
    Z = geo.FactoredMatrix(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
    ref = np.linalg.norm(Z.left @ Z.right.T)
    assert geo.factored_norm(Z) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_factored_norm_of_cancelling_residual():
    """A near-solution's residual on fd n = 200: ``||L||_F ||R||_F`` of its
    factors exceeds the residual norm more than 1e6-fold.  The QR-based
    norm stays within a few ``u ||L||_F ||R||_F`` of the norm of the
    product formed in extended precision, and (as measured, 6e-12) within
    1e-9 relative of it, where the Gram form ``sqrt(factored_inner(Z, Z))``
    is off by 1.7e-8."""
    from lrmeq import equations as eqs
    from lrmeq import precond as pc
    from lrmeq import problems as pb
    from lrmeq.solver_rnlcg import RnlcgOptions, rnlcg_solve

    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    met = geo.KroneckerMetric(inst.p2["E"], inst.p2["D"])
    prec = pc.GenSylvesterPrecond(inst.p2["A"], inst.p2["B"], met)
    opts = RnlcgOptions(rank=12, tol=1e-6, max_iters=30, seed=0)
    X, _, _ = rnlcg_solve(inst.op, inst.F, opts, metric=met, precond=prec)
    Z = eqs.residual(inst.op, X, inst.F)
    wide = Z.left.astype(np.longdouble) @ Z.right.T.astype(np.longdouble)
    ref = float(np.sqrt(np.sum(wide * wide)))
    scale = np.linalg.norm(Z.left) * np.linalg.norm(Z.right)
    assert scale >= 1e6 * ref
    u = np.finfo(float).eps / 2
    assert abs(geo.factored_norm(Z) - ref) <= 4 * u * scale
    assert geo.factored_norm(Z) == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# weighted SVD of factored matrices against dense references
# ---------------------------------------------------------------------------


def dense_weighted_singular_values(Zd, E, D):
    """Singular values of ``Z`` in the B-norm: those of ``L_E.T Z L_D`` for
    Cholesky factors ``E = L_E L_E.T`` and ``D = L_D L_D.T``."""
    return np.linalg.svd(np.linalg.cholesky(E).T @ Zd @ np.linalg.cholesky(D), compute_uv=False)


def metric_of_kind(kind, m, n, rng):
    """(metric, dense E, dense D) for an identity, dense or sparse metric."""
    if kind == "identity":
        return geo.KroneckerMetric(), np.eye(m), np.eye(n)
    if kind == "sparse":
        E, D = rand_band_spd(m, 2, rng, permute=True), rand_band_spd(n, 1, rng)
        return geo.KroneckerMetric(E, D), E.toarray(), D.toarray()
    E, D = rand_spd(m, rng, 50.0), rand_spd(n, rng, 50.0)
    return geo.KroneckerMetric(E, D), E, D


@given(st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.sampled_from(["identity", "dense", "sparse"]), st.data())
def test_weighted_svd_of_factored_matches_dense(m, n, above, kind, data):
    """k below or above min(m, n), either factor the shorter one."""
    p = min(m, n)
    k = data.draw(st.integers(p + 1, 2 * p + 3) if above else st.integers(1, p))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    met, E, D = metric_of_kind(kind, m, n, rng)
    Z = geo.FactoredMatrix(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
    Zd = Z.left @ Z.right.T
    U, s, V = geo.weighted_svd(Z, met)
    q = min(m, n, k)
    assert U.shape == (m, q) and s.shape == (q,) and V.shape == (n, q)
    ref = dense_weighted_singular_values(Zd, E, D)
    assert np.all(np.abs(s - ref[:q]) <= 1e-10 * ref[0])
    assert np.linalg.norm((U * s) @ V.T - Zd) <= 1e-10 * np.linalg.norm(Zd)
    assert np.linalg.norm(U.T @ E @ U - np.eye(q)) <= 1e-10
    assert np.linalg.norm(V.T @ D @ V - np.eye(q)) <= 1e-10


# ---------------------------------------------------------------------------
# rank-deficient tangent directions against dense references
# ---------------------------------------------------------------------------


@st.composite
def deficient_tangents(draw):
    """(point, tangent vector, dense E, dense D) in an identity, dense or
    sparse metric, where ``Up`` has rank ``ku < r`` (zero included) and
    ``Vp`` rank ``kv <= r``, as near convergence or at a rank increase."""
    r = draw(st.integers(1, 3))
    m, n = draw(st.integers(r, 12)), draw(st.integers(r, 12))
    ku, kv = draw(st.integers(0, r - 1)), draw(st.integers(0, r))
    kind = draw(st.sampled_from(["identity", "dense", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    met, E, D = metric_of_kind(kind, m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    Up = rng.standard_normal((m, ku)) @ rng.standard_normal((ku, r))
    Vp = rng.standard_normal((n, kv)) @ rng.standard_normal((kv, r))
    # the gauge U^T E Up = 0, V^T D Vp = 0 keeps the ranks at most ku, kv
    Up -= X.U @ (X.EU.T @ Up)
    Vp -= X.V @ (X.DV.T @ Vp)
    return X, geo.TangentVector(rng.standard_normal((r, r)), Up, Vp, X), E, D


def assert_same_tangent(xi, eta):
    scale = max(1.0, np.linalg.norm(tv_dense(eta)))
    for a, b in ((xi.M, eta.M), (xi.Up, eta.Up), (xi.Vp, eta.Vp)):
        assert np.linalg.norm(a - b) <= 1e-10 * scale


@given(deficient_tangents())
def test_weighted_qr_of_rank_deficient_block(case):
    X, xi, E, _ = case
    Y = np.hstack([X.U, xi.Up])
    Q, R = geo.weighted_qr(Y, X.metric.products()[0])
    assert np.linalg.norm(Q.T @ E @ Q - np.eye(Q.shape[1])) <= 1e-10
    assert np.linalg.norm(Q @ R - Y) <= 1e-10 * np.linalg.norm(Y)


@pytest.mark.parametrize("shape", ["tall-deficient", "wide"])
@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
def test_weighted_qr_at_ill_conditioned_E(cond, shape):
    """At a dense E of condition number up to 1e12, for a rank-10 300 x 20
    block and a wide 300 x 400 one, the weighted QR from products with E
    keeps E-orthonormality and reconstruction within twice the errors of
    the QR through E's square root (``C M = Q0 R``, ``Q = C^-1 Q0`` for
    ``E = C.T C``).  At 1e12 the wide block's Cholesky factor is past
    ``GAUGE_QR_MAX_COND`` in the 1-norm estimate, so ``gauge_qr``'s gate
    must not reach this path."""
    rng = np.random.default_rng(11)
    m = 300
    E = rand_spd(m, rng, cond)
    E = 0.5 * (E + E.T)
    if shape == "wide":
        M = rng.standard_normal((m, 400))
    else:
        M = rng.standard_normal((m, 10)) @ rng.standard_normal((10, 20))

    def errors(Q, R):
        return (np.linalg.norm(Q.T @ E @ Q - np.eye(Q.shape[1])),
                np.linalg.norm(Q @ R - M) / np.linalg.norm(M))

    orth, rec = errors(*geo.weighted_qr(M, lambda W: E @ W))
    C = sla.cholesky(E)
    Q0, R0 = np.linalg.qr(C @ M)
    orth_ref, rec_ref = errors(sla.solve_triangular(C, Q0), R0)
    assert orth <= 2.0 * orth_ref and rec <= 2.0 * rec_ref


@given(deficient_tangents(), st.floats(0.05, 1.0))
def test_retract_rank_deficient_matches_dense_truncation(case, t):
    """The step is scaled to a tenth of sigma_r in the B-norm, so the
    rank-r truncation of ``X + t xi`` is well separated and unique."""
    X, xi, _, _ = case
    nrm = geo.norm(xi)
    if nrm > 0:
        xi = xi.scaled(0.1 * X.sigma.min() / (t * nrm))
    out = retract(X, xi, t)
    assert_valid_point(out, tol=1e-10)
    ref = geo.truncate(X.densify(force=True) + t * tv_dense(xi), X.r, X.metric)
    ref_d = ref.densify(force=True)
    assert np.linalg.norm(out.densify(force=True) - ref_d) <= 1e-10 * np.linalg.norm(ref_d)


@given(deficient_tangents())
def test_transport_rank_deficient_to_same_point(case):
    X, xi, _, _ = case
    assert_same_tangent(geo.transport(X, xi), xi)


@given(deficient_tangents())
def test_projection_idempotent_on_rank_deficient_tangents(case):
    """Dense input through the dense path, its projection once more
    through the factored path: both leave a tangent vector unchanged."""
    X, xi, _, _ = case
    once = geo.project(X, tv_dense(xi))
    assert_same_tangent(once, xi)
    assert_same_tangent(geo.project(X, once.embed()), once)


# ---------------------------------------------------------------------------
# the retraction's QRs: gauge CholeskyQR2 and its Householder fallback
# ---------------------------------------------------------------------------


def assert_weighted_qr(Q, R, blocks, E, tol=1e-10):
    """``Q.T E Q = I`` to ``tol`` and ``Q R = [blocks]``."""
    Y = np.hstack(blocks)
    assert np.linalg.norm(Q.T @ E @ Q - np.eye(Q.shape[1])) <= tol
    assert np.linalg.norm(Q @ R - Y) <= 1e-10 * np.linalg.norm(Y)


def gauge_qr_at(X, Up):
    """``gauge_qr`` of ``[U, Up]`` at X, and whether it fell back to
    ``weighted_qr``."""
    met = X.metric
    with mock.patch.object(geo, "weighted_qr", wraps=geo.weighted_qr) as wqr:
        Q, R = geo.gauge_qr(X.U, X.EU, Up, met.products()[0])
    return Q, R, wqr.called


@given(deficient_tangents())
def test_retraction_qr_of_rank_deficient_tangent(case):
    """A rank-deficient Up has no Cholesky QR: the U side falls back to the
    Householder weighted QR, and both sides are E-/D-orthonormal QRs."""
    X, xi, E, D = case
    retr = geo.LineSearchRetraction(X, xi)
    assert_weighted_qr(retr.QU, retr.RU, [X.U, xi.Up], E)
    assert_weighted_qr(retr.QV, retr.RV, [X.V, xi.Vp], D)
    Q, R, fell_back = gauge_qr_at(X, xi.Up)
    assert fell_back
    assert np.array_equal(Q, retr.QU) and np.array_equal(R, retr.RU)


def conditioned_block(Y, EY, apply_E, cond, drift, rng):
    """An ``m x r`` block with E-condition number ``cond`` in the gauge
    ``Y.T E W = 0``, plus ``Y`` times a drift of relative size ``drift``."""
    m, r = Y.shape
    G = rng.standard_normal((m, r))
    Z, _ = geo.weighted_qr(G - Y @ (EY.T @ G), apply_E)
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return Z @ np.diag(np.geomspace(1.0, 1.0 / cond, r)) @ Q.T + drift * Y @ rng.standard_normal((r, r))


@st.composite
def conditioned_tangents(draw):
    """(point, tangent vector, dense E, dense D, fallback) where Up and Vp
    have full rank r, a condition number from 1 to 1e10 and gauge drift
    ``U.T E Up != 0`` (likewise Vp), and m, n are either both >= 2r or both
    < 2r.  ``fallback`` is the branch both QRs must take: True with fewer
    rows than columns or far past ``GAUGE_QR_MAX_COND`` = 1e7, False where
    even the 1-norm condition number (at most r times the 2-norm one) is
    below it, None near it."""
    r = draw(st.integers(1, 4))
    short = draw(st.booleans()) and r > 1
    dims = st.integers(r, 2 * r - 1) if short else st.integers(2 * r, 14)
    m, n = draw(dims), draw(dims)
    cond = draw(st.sampled_from([1.0, 1e4, 1e6, 1e7, 1e10])) if r > 1 else 1.0
    drift = draw(st.sampled_from([1e-12, 1e-6, 1.0]))
    kind = draw(st.sampled_from(["identity", "dense", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    met, E, D = metric_of_kind(kind, m, n, rng)
    X = geo.random_point(m, n, r, met, rng)
    if short:
        # no room for an r-column block in the gauge: any full-rank block
        Up, Vp = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    else:
        apply_E, apply_D = met.products()
        Up = conditioned_block(X.U, X.EU, apply_E, cond, drift, rng)
        Vp = conditioned_block(X.V, X.DV, apply_D, cond, drift, rng)
    fallback = True if short or cond > 1e9 else (False if 4 * cond < 1e7 else None)
    return X, geo.TangentVector(rng.standard_normal((r, r)), Up, Vp, X), E, D, fallback


@given(conditioned_tangents())
def test_retraction_qr_of_full_rank_tangent(case):
    X, xi, E, D, fallback = case
    with mock.patch.object(geo, "weighted_qr", wraps=geo.weighted_qr) as wqr:
        retr = geo.LineSearchRetraction(X, xi)
    assert_weighted_qr(retr.QU, retr.RU, [X.U, xi.Up], E)
    assert_weighted_qr(retr.QV, retr.RV, [X.V, xi.Vp], D)
    if fallback is not None:
        assert wqr.call_count == (2 if fallback else 0)
    if wqr.call_count == 0:
        # the gauge path keeps U and V as the first columns, and its second
        # pass holds orthonormality to rounding at any condition it accepts
        r = X.r
        assert_weighted_qr(retr.QU, retr.RU, [X.U, xi.Up], E, tol=1e-12)
        assert_weighted_qr(retr.QV, retr.RV, [X.V, xi.Vp], D, tol=1e-12)
        assert np.array_equal(retr.QU[:, :r], X.U) and np.array_equal(retr.RU[:r, :r], np.eye(r))
        assert np.array_equal(retr.QV[:, :r], X.V) and np.array_equal(retr.RV[:r, :r], np.eye(r))


def test_retraction_at_full_rank_takes_no_square_root(rng):
    """At a weighted full-rank point the retraction's QRs multiply by E and
    D only: no product or solve with their square roots, neither with
    m, n >= 2r nor with n < 2r, where the V side falls back."""
    m, r = 40, 4
    for n in (30, 7):
        met = geo.KroneckerMetric(rand_band_spd(m, 3, rng, permute=True), rand_band_spd(n, 2, rng))
        X = geo.random_point(m, n, r, met, rng)
        xi = geo.project(X, rng.standard_normal((m, n)))
        fact = numkit.SpdFactorization
        with mock.patch.object(fact, "c_mul", autospec=True, side_effect=fact.c_mul) as c_mul, \
                mock.patch.object(fact, "c_solve", autospec=True, side_effect=fact.c_solve) as c_solve:
            geo.LineSearchRetraction(X, xi)
        assert c_mul.call_count == c_solve.call_count == 0
