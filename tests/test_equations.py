import numpy as np
import pytest

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import solver_rnlcg as rn

from oracles import kron_matrix, min_eigenvalue, point_dense, rand_band_spd, rand_spd


def make_op(m, n, ell, rng, cond=10.0):
    A = [rand_spd(m, rng, cond) for _ in range(ell)]
    B = [rand_spd(n, rng, cond) for _ in range(ell)]
    return eqs.MultitermOperator(A, B)


def rand_point(m, n, r, rng):
    met = geo.KroneckerMetric()
    return geo.random_point(m, n, r, met, rng)


def test_apply_identity_terms(rng):
    op = eqs.MultitermOperator([np.eye(4)], [np.eye(4)])
    Z = geo.FactoredMatrix(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
    out = op.apply(Z)
    assert np.allclose(out.densify(force=True), Z.densify(force=True))


def test_apply_lyapunov_dense(rng):
    A = rand_spd(5, rng)
    op = eqs.MultitermOperator([A, np.eye(5)], [np.eye(5), A])
    x = rng.standard_normal((5, 1))
    X = geo.FactoredMatrix(x, x)
    Xd = x @ x.T
    out = op.apply(X).densify(force=True)
    assert np.linalg.norm(out - (A @ Xd + Xd @ A)) <= 1e-13 * np.linalg.norm(out)


def test_apply_matches_kronecker(rng):
    m = n = 6
    op = make_op(m, n, 3, rng)
    K = kron_matrix(op.A, op.B)
    X = rand_point(m, n, 2, rng)
    vec = X.densify(force=True).reshape(-1, order="F")
    lhs = op.apply(X).densify(force=True).reshape(-1, order="F")
    assert np.linalg.norm(lhs - K @ vec) <= 1e-12 * np.linalg.norm(lhs)


def test_residual_exact_solution(rng):
    m = n = 7
    op = make_op(m, n, 2, rng)
    Xs = rand_point(m, n, 2, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    R = eqs.residual(op, Xs, F)
    assert geo.factored_norm(R) <= 1e-12 * geo.factored_norm(F)


def test_residual_dense_and_rank(rng):
    m, n, r = 8, 6, 2
    op = make_op(m, n, 3, rng)
    X = rand_point(m, n, r, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    R = eqs.residual(op, X, F)
    assert R.k == op.ell * r + F.k
    dense = sum(
        np.asarray(Ai) @ point_dense(X) @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B)
    ) - F.densify(force=True)
    assert np.linalg.norm(R.densify(force=True) - dense) <= 1e-12 * np.linalg.norm(dense)


def test_objective_identity_case():
    met = geo.KroneckerMetric()
    e1 = np.array([[1.0], [0.0], [0.0]])
    X = geo.FixedRankPoint(e1, np.array([1.0]), e1, met)
    op = eqs.MultitermOperator([np.eye(3)], [np.eye(3)])
    F = eqs.LowRankRhs(np.zeros((3, 1)), np.zeros((3, 1)))
    assert abs(eqs.evaluate(op, X, F).f - 0.5) <= 1e-15


def test_objective_at_constructed_solution(rng):
    m = n = 6
    op = make_op(m, n, 2, rng)
    Xs = rand_point(m, n, 2, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    f = eqs.evaluate(op, Xs, F).f
    axx = geo.factored_inner(op.apply(Xs), Xs.as_factored())
    assert abs(f - (-0.5 * axx)) <= 1e-12 * max(1.0, abs(axx))


def test_objective_matches_dense(rng):
    m = n = 8
    op = make_op(m, n, 3, rng)
    X = rand_point(m, n, 2, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    Xd = point_dense(X)
    AXd = sum(np.asarray(Ai) @ Xd @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B))
    expected = 0.5 * np.sum(AXd * Xd) - np.sum(Xd * F.densify(force=True))
    assert abs(eqs.evaluate(op, X, F).f - expected) <= 1e-12 * max(1.0, abs(expected))


def test_residual_norm_cases(rng):
    m = n = 6
    op = make_op(m, n, 2, rng)
    Xs = rand_point(m, n, 2, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    assert eqs.residual_norm_exact(op, Xs, F) <= 1e-12
    # X ~ 0: residual equals F
    X0 = Xs.scaled(1e-300)
    assert abs(eqs.residual_norm_exact(op, X0, F) - 1.0) <= 1e-10
    X = rand_point(m, n, 2, rng)
    dense = sum(
        np.asarray(Ai) @ point_dense(X) @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B)
    ) - F.densify(force=True)
    expected = np.linalg.norm(dense) / np.linalg.norm(F.densify(force=True))
    assert abs(eqs.residual_norm_exact(op, X, F) - expected) <= 1e-12 * max(1.0, expected)


def test_residual_norm_zero_rhs_rejected(rng):
    op = make_op(4, 4, 1, rng)
    X = rand_point(4, 4, 1, rng)
    F = eqs.LowRankRhs(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        eqs.residual_norm_exact(op, X, F)


def test_gradient_equals_residual(rng):
    """The Euclidean gradient the solvers take from ``evaluate`` is the
    residual (``test_descent_direction_finite_difference`` checks that it
    is the gradient)."""
    m = n = 6
    op = make_op(m, n, 2, rng)
    X = rand_point(m, n, 2, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    G = eqs.evaluate(op, X, F).R
    R = eqs.residual(op, X, F).densify(force=True)
    assert np.linalg.norm(G.densify(force=True) - R) <= 1e-13 * np.linalg.norm(R)


def test_operator_linearity(rng):
    m = n = 6
    op = make_op(m, n, 3, rng)
    X = rand_point(m, n, 2, rng)
    Y = rand_point(m, n, 2, rng)
    a, b = 0.7, -1.3
    lhs = op.apply(
        geo.FactoredMatrix(
            np.hstack([a * X.as_factored().left, b * Y.as_factored().left]),
            np.hstack([X.as_factored().right, Y.as_factored().right]),
        )
    ).densify(force=True)
    rhs = a * op.apply(X).densify(force=True) + b * op.apply(Y).densify(force=True)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_kronecker_symmetry(rng):
    op = make_op(5, 6, 3, rng)
    K = kron_matrix(op.A, op.B)
    assert np.linalg.norm(K - K.T) <= 1e-12 * np.linalg.norm(K)


def test_descent_direction_finite_difference(rng):
    m = n = 7
    op = make_op(m, n, 2, rng)
    X = rand_point(m, n, 2, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    R = eqs.evaluate(op, X, F).R
    G = R.densify(force=True)
    direction = -G / np.linalg.norm(G)
    h = 1e-6
    Xd = point_dense(X)

    def f_dense(M):
        AM = sum(np.asarray(Ai) @ M @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B))
        return 0.5 * np.sum(AM * M) - np.sum(M * F.densify(force=True))

    fd = (f_dense(Xd + h * direction) - f_dense(Xd - h * direction)) / (2 * h)
    analytic = np.sum(G * direction)
    assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))
    assert analytic < 0  # objective decreases along the negative gradient


def test_asymmetric_coefficients_rejected(rng):
    A = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        eqs.MultitermOperator([A], [np.eye(4)])


def test_spd_check_dense(rng):
    op = make_op(5, 5, 2, rng)
    assert min_eigenvalue(kron_matrix(op.A, op.B)) > 0


@pytest.mark.parametrize("weighted", [False, True])
def test_evaluate_blocks_are_the_residual_products(rng, weighted):
    """``RtU``/``RtV`` from the evaluation's blocks equal ``R.left.T U`` and
    ``R.right.T V``, and the solver's gradient equals the one built from
    these recomputed products."""
    m, n, r = 20, 15, 3
    op = make_op(m, n, 3, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    met = (geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
           if weighted else geo.KroneckerMetric())
    X = geo.random_point(m, n, r, met, rng)
    ev = eqs.evaluate(op, X, F)
    RtU, RtV = ev.R.left.T @ X.U, ev.R.right.T @ X.V
    assert np.linalg.norm(ev.RtU - RtU) <= 1e-13 * np.linalg.norm(RtU)
    assert np.linalg.norm(ev.RtV - RtV) <= 1e-13 * np.linalg.norm(RtV)
    g = rn.RnlcgState(op, F, X).g
    ref = geo.riemannian_gradient(X, ev.R, RtU, RtV)
    for a, b in ((g.M, ref.M), (g.Up, ref.Up), (g.Vp, ref.Vp)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("m, n, r", [(30, 5, 2), (6, 25, 2), (20, 15, 3)])
def test_evaluate_carries_the_residual_dense_past_min_dimension(m, n, r, rng):
    """Past ``l r + r_F > min(m, n)`` the evaluation's residual is the dense
    ``A X - F`` against an identity, of width ``min(m, n)``, tall or wide;
    below it, the factors.  Either way R equals ``eqs.residual`` densified,
    its norm is the exact Frobenius norm, its products with U and V are
    the gradient's, and the term blocks are the operator's ``A_i U S`` and
    ``B_i V``."""
    op = make_op(m, n, 3, rng)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    met = geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
    X = geo.random_point(m, n, r, met, rng)
    ev = eqs.evaluate(op, X, F)
    assert ev.dense == (3 * r + 2 > min(m, n))
    assert ev.R.k <= min(m, n) if ev.dense else ev.R.k == 3 * r + 2
    ref = eqs.residual(op, X, F).densify(force=True)
    Rd = ev.R.densify(force=True)
    assert np.linalg.norm(Rd - ref) <= 1e-13 * np.linalg.norm(ref)
    assert ev.norm == pytest.approx(np.linalg.norm(ref), rel=1e-13)
    assert np.linalg.norm(ev.R.left.T @ X.U - ev.RtU) <= 1e-13 * np.linalg.norm(ev.RtU)
    assert np.linalg.norm(ev.R.right.T @ X.V - ev.RtV) <= 1e-13 * np.linalg.norm(ev.RtV)
    AX = op.apply(X)
    assert np.linalg.norm(ev.AUS - AX.left) <= 1e-14 * np.linalg.norm(AX.left)
    assert np.array_equal(ev.BV, AX.right)
