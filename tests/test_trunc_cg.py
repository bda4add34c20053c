import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import precond as pc
from lrmeq import trunc_cg as tc

from oracles import dense_pcg, kron_matrix, rand_spd


def make_spd_problem(m, n, rng, ell=2, cond=20.0):
    A = [rand_spd(m, rng, cond)] + [rand_spd(m, rng, 3.0) for _ in range(ell - 1)]
    B = [np.eye(n)] + [rand_spd(n, rng, cond) for _ in range(ell - 1)]
    op = eqs.MultitermOperator(A, B)
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    return op, F


# ---------------------------------------------------------------------------
# truncate_factored
# ---------------------------------------------------------------------------


def test_truncate_exact_recompression(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((10, 3)), rng.standard_normal((8, 3)))
    Zpad = Z.hstack(Z.scaled(0.0))  # rank-6 representation, numerical rank 3
    out, discarded = tc.truncate_factored(Zpad, 0.0)
    assert out.k == 3
    assert discarded <= 1e-13 * geo.factored_norm(Z)
    assert np.linalg.norm(out.densify(force=True) - Z.densify(force=True)) <= 1e-12


def test_truncate_extreme_tolerance(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((10, 4)), rng.standard_normal((8, 4)))
    out, _ = tc.truncate_factored(Z, 1.0)
    assert out.k <= 1


def test_truncate_matches_dense_svd_oracle(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((12, 10)), rng.standard_normal((11, 10)))
    eps_rel = 1e-3
    out, discarded = tc.truncate_factored(Z, eps_rel)
    s = np.linalg.svd(Z.densify(force=True), compute_uv=False)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    thresh = eps_rel * np.linalg.norm(s)
    keep = int(np.searchsorted(-tails, -thresh))
    assert out.k == max(keep, 1)
    err = np.linalg.norm(out.densify(force=True) - Z.densify(force=True))
    assert abs(err - np.linalg.norm(s[out.k:])) <= 1e-10 * max(1.0, err)
    assert err <= thresh + 1e-12


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 20),
       st.sampled_from([0.0, 1e-3, 0.1, 0.5]), st.integers(0, 2**32 - 1))
def test_truncate_tail_matches_dense_singular_values(m, n, k, eps_rel, seed):
    rng = np.random.default_rng(seed)
    # graded columns, so that the tolerances cut at different ranks
    left = rng.standard_normal((m, k)) * np.geomspace(1.0, 1e-4, k)
    Z = geo.FactoredMatrix(left, rng.standard_normal((n, k)))
    Zd = Z.densify(force=True)
    out, discarded = tc.truncate_factored(Z, eps_rel)
    s = np.linalg.svd(Zd, compute_uv=False)
    assert discarded == pytest.approx(np.linalg.norm(s[out.k:]), rel=1e-8, abs=1e-12 * s[0])
    err = np.linalg.norm(out.densify(force=True) - Zd)
    assert err == pytest.approx(discarded, rel=1e-8, abs=1e-12 * s[0])


@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 16),
       st.sampled_from([1e-8, 1.0, 1e8]), st.integers(0, 2**32 - 1))
def test_residual_truncation_is_scale_invariant(m, n, k, c, seed):
    """The kept rank depends on the shape of the singular values, not on
    their scale: ``Z`` and ``c Z`` are cut at the same rank."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((m, k)) * np.geomspace(1.0, 1e-9, k)
    Z = geo.FactoredMatrix(left, rng.standard_normal((n, k)))
    assert tc.truncate_residual(Z.scaled(c), 1e-6).k == tc.truncate_residual(Z, 1e-6).k


def test_truncation_shares_of_tol(rng):
    """The iterate is cut at 0.25% of ``tol`` relative to its norm; the
    residual-type quantities at 10%."""
    assert (tc.X_TOL_SHARE, tc.R_TOL_SHARE) == (0.0025, 0.1)
    Z = geo.FactoredMatrix(rng.standard_normal((12, 8)) * np.geomspace(1.0, 1e-9, 8),
                           rng.standard_normal((11, 8)))
    for tol in (1e-6, 1e-3, 1e-1):
        out = tc.truncate_residual(Z, tol)
        ref, _ = tc.truncate_factored(Z, 0.1 * tol)
        assert out.k == ref.k
        assert np.array_equal(out.left, ref.left) and np.array_equal(out.right, ref.right)


# ---------------------------------------------------------------------------
# truncated_cg_solve
# ---------------------------------------------------------------------------


def truncate_at(monkeypatch, tol, eps_rel):
    """Cut every quantity at ``eps_rel`` of its norm when solving to ``tol``."""
    monkeypatch.setattr(tc, "X_TOL_SHARE", eps_rel / tol)
    monkeypatch.setattr(tc, "R_TOL_SHARE", eps_rel / tol)


def test_no_truncation_matches_dense_pcg(rng, monkeypatch):
    m = n = 6
    op, F = make_spd_problem(m, n, rng)
    truncate_at(monkeypatch, 1e-14, 0.0)
    X, trace, status = tc.truncated_cg_solve(op, F, pc.IdentityPrecond(), 1e-14, 10)
    K = kron_matrix(op.A, op.B)
    b = F.densify(force=True).reshape(-1, order="F")
    x_ref, hist = dense_pcg(K, b, lambda r: r, 10)
    ours = np.array([row["res_rel"] for row in trace.rows])
    ref = hist / hist[0]
    assert len(ours) == len(ref)
    assert np.max(np.abs(ours - ref)) <= 1e-8
    # the iterate itself matches the dense CG iterate
    x_ours = X.densify(force=True).reshape(-1, order="F")
    assert np.linalg.norm(x_ours - x_ref) <= 1e-8 * max(1.0, np.linalg.norm(x_ref))


def test_no_truncation_with_kron_precond_matches_dense_pcg(rng, monkeypatch):
    m = n = 6
    op, F = make_spd_problem(m, n, rng)
    truncate_at(monkeypatch, 1e-14, 0.0)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, 1e-14, 10)
    K = kron_matrix(op.A, op.B)
    M = np.kron(np.asarray(op.B[1]), np.asarray(op.A[0]))
    Minv = np.linalg.inv(M)
    b = F.densify(force=True).reshape(-1, order="F")
    _, hist = dense_pcg(K, b, lambda r: Minv @ r, 10)
    ours = np.array([row["res_rel"] for row in trace.rows])
    assert np.max(np.abs(ours - hist / hist[0])) <= 1e-8


def test_zero_rhs_returns_zero(rng):
    m = n = 6
    op, _ = make_spd_problem(m, n, rng)
    F = eqs.LowRankRhs(np.zeros((m, 1)), np.zeros((n, 1)))
    X, trace, status = tc.truncated_cg_solve(op, F, pc.IdentityPrecond(), 1e-8, 50)
    assert status == "converged"
    assert X.k == 0
    assert len(trace.rows) == 1


def test_indefinite_operator_ends_with_spd_loss():
    """A nonpositive ``<P, A P>`` ends the solve with ``spd_loss``, the
    status every solver gives a lost SPD property, on an exact row."""
    rng = np.random.default_rng(0)
    op = eqs.MultitermOperator([np.diag(np.linspace(-1.0, 3.0, 12))], [np.eye(12)])
    F = eqs.LowRankRhs(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
    X, trace, status = tc.truncated_cg_solve(op, F, pc.IdentityPrecond(), 1e-6, 100)
    last = trace.last()
    assert status == "spd_loss" and last["event"] == "spd_loss"
    assert last["res_kind"] == "exact"
    assert last["res_rel"] == pytest.approx(eqs.residual_norm_exact(op, X, F), rel=1e-12)


def test_converges_with_truncation(rng):
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=10.0)
    tol = 1e-7
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, tol, 200)
    assert status == "converged"
    assert float(trace.last()["res_rel"]) <= tol
    assert trace.last()["res_kind"] == "exact"
    assert true_residual(op, X, F) <= tol


def true_residual(op, X, F):
    R = geo.FactoredMatrix(
        np.hstack([op.apply(X).left, -F.left]), np.hstack([op.apply(X).right, F.right])
    )
    return geo.factored_norm(R) / geo.factored_norm(F)


def test_unconverged_exit_reports_true_residual(rng, monkeypatch):
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=10.0)
    truncate_at(monkeypatch, 1e-12, 1e-2)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, 1e-12, 5)
    assert status == "max_iter"
    assert trace.last()["res_kind"] == "exact"
    assert trace.last()["res_rel"] == pytest.approx(true_residual(op, X, F), rel=1e-10)


def test_stagnated_exit_reports_true_residual(rng, monkeypatch):
    """Truncation at 1% of each quantity's norm holds the residual near a
    floor far above ``tol``: the solve ends with ``stagnated`` well inside
    its budget, on a last row that holds the exact residual."""
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=10.0)
    tol = 1e-12
    truncate_at(monkeypatch, tol, 1e-2)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, tol, 200)
    assert status == "stagnated" and trace.last()["iter"] < 200
    last = trace.last()
    assert last["res_kind"] == "exact" and last["event"] == "stagnated"
    exact = eqs.residual_norm_exact(op, X, F)
    assert last["res_rel"] == pytest.approx(exact, rel=1e-10) and exact > tol


def test_converged_means_true_residual_below_tol():
    """On this stochastic-Galerkin case the truncated recurrence reaches the
    tolerance while the true residual is still 1.3e-6; convergence must be
    decided on the true residual."""
    from lrmeq import problems as pb

    inst = pb.gen_stoch_galerkin(30, 6, 3)
    tol = 1e-6
    prec = pc.KronPrecond(geo.KroneckerMetric(inst.p2["E"], inst.p2["D"]))
    X, trace, status = tc.truncated_cg_solve(inst.op, inst.F, prec, tol, 200)
    assert status == "converged"
    assert trace.last()["res_kind"] == "exact"
    assert true_residual(inst.op, X, inst.F) <= tol


def test_no_divergence_at_truncation_floor():
    """On the ill-conditioned diffusion instance the iteration must level
    off at its truncation floor instead of drifting back up (regression for
    the conjugation form of the direction update)."""
    from lrmeq import problems as pb

    inst = pb.gen_fd_diffusion_paper(100, alpha=10.0, lk=3)
    spec = inst.p2
    kron = geo.KroneckerMetric(spec["E"], spec["D"])
    shifts = pc.adi_shifts(spec["A"], spec["B"], kron, 8)
    tol = 1e-6
    prec = pc.FadiAmbientPrecond(
        spec["A"], spec["B"], kron, shifts,
        truncate_fn=lambda Z: tc.truncate_residual(Z, tol),
    )
    _, trace, _ = tc.truncated_cg_solve(inst.op, inst.F, prec, tol, 60)
    hist = [r["res_rel"] for r in trace.rows]
    floor = min(hist)
    assert floor < 5e-3
    assert hist[-1] <= 10 * floor


def test_truncation_certificates_satisfy_policy(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((12, 9)), rng.standard_normal((11, 9)))
    norm_z = geo.factored_norm(Z)
    out, discarded = tc.truncate_factored(Z, 1e-2)
    assert discarded <= 1e-2 * norm_z + 1e-12
