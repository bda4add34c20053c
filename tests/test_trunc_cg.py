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
    out, discarded = tc.truncate_factored(Zpad, 0.0, 0.0)
    assert out.k == 3
    assert discarded <= 1e-13 * geo.factored_norm(Z)
    assert np.linalg.norm(out.densify(force=True) - Z.densify(force=True)) <= 1e-12


def test_truncate_extreme_tolerance(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((10, 4)), rng.standard_normal((8, 4)))
    out, _ = tc.truncate_factored(Z, 1.0, 0.0)
    assert out.k <= 1


def test_truncate_matches_dense_svd_oracle(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((12, 10)), rng.standard_normal((11, 10)))
    eps_rel = 1e-3
    out, discarded = tc.truncate_factored(Z, eps_rel, 0.0)
    s = np.linalg.svd(Z.densify(force=True), compute_uv=False)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    thresh = eps_rel * np.linalg.norm(s)
    keep = int(np.searchsorted(-tails, -thresh))
    assert out.k == max(keep, 1)
    err = np.linalg.norm(out.densify(force=True) - Z.densify(force=True))
    assert abs(err - np.linalg.norm(s[out.k:])) <= 1e-10 * max(1.0, err)
    assert err <= thresh + 1e-12


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 20),
       st.sampled_from([0.0, 1e-3, 0.1, 0.5]), st.one_of(st.none(), st.integers(1, 6)),
       st.integers(0, 2**32 - 1))
def test_truncate_tail_matches_dense_singular_values(m, n, k, eps_rel, cap, seed):
    rng = np.random.default_rng(seed)
    # graded columns, so that the tolerances cut at different ranks
    left = rng.standard_normal((m, k)) * np.geomspace(1.0, 1e-4, k)
    Z = geo.FactoredMatrix(left, rng.standard_normal((n, k)))
    Zd = Z.densify(force=True)
    out, discarded = tc.truncate_factored(Z, eps_rel, 0.0, rank_cap=cap)
    s = np.linalg.svd(Zd, compute_uv=False)
    assert discarded == pytest.approx(np.linalg.norm(s[out.k:]), rel=1e-8, abs=1e-12 * s[0])
    err = np.linalg.norm(out.densify(force=True) - Zd)
    assert err == pytest.approx(discarded, rel=1e-8, abs=1e-12 * s[0])


def test_truncate_rank_cap_applied_last(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((12, 8)), rng.standard_normal((11, 8)))
    out, _ = tc.truncate_factored(Z, 0.0, 0.0, rank_cap=3)
    assert out.k == 3


def test_policy_from_tol():
    p = tc.TruncationPolicy.from_tol(1e-6)
    assert p.eps_rel_x == 0.0025e-6
    assert p.eps_rel_r == 0.1e-6
    assert p.eps_abs_r == 0.001e-6


# ---------------------------------------------------------------------------
# truncated_cg_solve
# ---------------------------------------------------------------------------


def test_no_truncation_matches_dense_pcg(rng):
    m = n = 6
    op, F = make_spd_problem(m, n, rng)
    policy = tc.TruncationPolicy(eps_rel_x=0.0, eps_rel_r=0.0, eps_abs_r=0.0)
    X, trace, status = tc.truncated_cg_solve(
        op, F, pc.IdentityPrecond(), policy, 1e-14, 10
    )
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


def test_no_truncation_with_kron_precond_matches_dense_pcg(rng):
    m = n = 6
    op, F = make_spd_problem(m, n, rng)
    policy = tc.TruncationPolicy(eps_rel_x=0.0, eps_rel_r=0.0, eps_abs_r=0.0)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, policy, 1e-14, 10)
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
    X, trace, status = tc.truncated_cg_solve(
        op, F, pc.IdentityPrecond(), tc.TruncationPolicy.from_tol(1e-8), 1e-8, 50
    )
    assert status == "converged"
    assert X.k == 0
    assert len(trace.rows) == 1


def test_converges_with_truncation(rng):
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=10.0)
    tol = 1e-7
    policy = tc.TruncationPolicy.from_tol(tol)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, policy, tol, 200)
    assert status == "converged"
    assert float(trace.last()["res_rel"]) <= tol
    assert trace.last()["res_kind"] == "exact"
    assert true_residual(op, X, F) <= tol


def true_residual(op, X, F):
    R = geo.FactoredMatrix(
        np.hstack([op.apply(X).left, -F.left]), np.hstack([op.apply(X).right, F.right])
    )
    return geo.factored_norm(R) / geo.factored_norm(F)


def test_unconverged_exit_reports_true_residual(rng):
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=10.0)
    coarse = tc.TruncationPolicy(eps_rel_x=1e-2, eps_rel_r=1e-2, eps_abs_r=0.0)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, coarse, 1e-12, 5)
    assert status == "max_iter"
    assert trace.last()["res_kind"] == "exact"
    assert trace.last()["res_rel"] == pytest.approx(true_residual(op, X, F), rel=1e-10)


def test_converged_means_true_residual_below_tol():
    """On this stochastic-Galerkin case the truncated recurrence reaches the
    tolerance while the true residual is still 1.3e-6; convergence must be
    decided on the true residual."""
    from lrmeq import problems as pb

    inst = pb.gen_stoch_galerkin(30, 6, 3)
    tol = 1e-6
    prec = pc.KronPrecond(geo.KroneckerMetric(inst.p2["E"], inst.p2["D"]))
    X, trace, status = tc.truncated_cg_solve(
        inst.op, inst.F, prec, tc.TruncationPolicy.from_tol(tol), tol, 200
    )
    assert status == "converged"
    assert trace.last()["res_kind"] == "exact"
    assert true_residual(inst.op, X, inst.F) <= tol


def test_rank_cap_tracked_and_never_exceeded(rng):
    m, n = 16, 14
    op, F = make_spd_problem(m, n, rng, cond=200.0)
    tol = 1e-9
    policy = tc.TruncationPolicy.from_tol(tol, rank_cap=3)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    X, trace, status = tc.truncated_cg_solve(op, F, prec, policy, tol, 120)
    for row in trace.rows:
        assert row["rank_x"] <= 3 and row["rank_r"] <= 3 and row["rank_p"] <= 3


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
    norm_F = geo.factored_norm(inst.F)
    policy = tc.TruncationPolicy.from_tol(tol)
    prec = pc.FadiAmbientPrecond(
        spec["A"], spec["B"], kron, shifts, 8,
        truncate_fn=lambda Z: policy.truncate_residual(Z, norm_F)[0],
    )
    _, trace, _ = tc.truncated_cg_solve(inst.op, inst.F, prec, policy, tol, 60)
    hist = [r["res_rel"] for r in trace.rows]
    floor = min(hist)
    assert floor < 5e-3
    assert hist[-1] <= 10 * floor


def test_truncation_certificates_satisfy_policy(rng):
    Z = geo.FactoredMatrix(rng.standard_normal((12, 9)), rng.standard_normal((11, 9)))
    norm_z = geo.factored_norm(Z)
    out, discarded = tc.truncate_factored(Z, 1e-2, 1e-3, norm_ref=norm_z)
    assert discarded <= max(1e-3 * norm_z, 1e-2 * norm_z) + 1e-12
