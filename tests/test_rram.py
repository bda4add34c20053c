from unittest import mock

import numpy as np
import pytest

from lrmeq import cli
from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import numkit
from lrmeq import problems as pb
from lrmeq import solver_rram as rr
from lrmeq.solver_rnlcg import LineSearchError, RnlcgOptions, RnlcgState, rnlcg_solve

from oracles import (
    assert_valid_point, dense, dense_metric, point_dense, rand_band_spd, rand_spd,
)


def direct_rank_decrease(sigma, eps):
    """Direct evaluation of the implemented rule: keep the trailing values
    passing the trigger test sigma_k^2 / sum >= eps^2, at least one."""
    s2 = np.asarray(sigma) ** 2
    mask = s2 / s2.sum() >= eps**2
    return int(np.max(np.nonzero(mask)[0]) + 1) if np.any(mask) else 1


def make_point(sigma, rng, m=8, n=8):
    met = geo.KroneckerMetric()
    r = len(sigma)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return geo.FixedRankPoint(U, np.array(sigma, dtype=float), V, met)


# ---------------------------------------------------------------------------
# rank decrease
# ---------------------------------------------------------------------------


def test_rank_decrease_tiny_tail(rng):
    X = make_point([1.0, 1e-12], rng)
    X2 = rr.rank_decrease(X, 1e-4)
    assert X2.r == 1 == direct_rank_decrease([1.0, 1e-12], 1e-4)


def test_rank_decrease_no_trigger(rng):
    X = make_point([1.0, 1.0], rng)
    X2 = rr.rank_decrease(X, 0.5)
    assert X2 is X


def test_rank_decrease_mixed_spectrum(rng):
    sigma = [1.0, 0.5, 1e-3, 1e-9]
    expected = direct_rank_decrease(sigma, 1e-2)
    X = make_point(sigma, rng)
    X2 = rr.rank_decrease(X, 1e-2)
    assert X2.r == expected == 2
    assert np.allclose(X2.sigma, sigma[:2])


def test_rank_decrease_clamps_to_one(rng):
    # every value fails the test relative to the sum: clamp at rank one
    X = make_point([1.0, 1.0, 1.0, 1.0], rng)
    X2 = rr.rank_decrease(X, 0.9)
    assert X2.r == 1


# ---------------------------------------------------------------------------
# rank increase
# ---------------------------------------------------------------------------


def test_rank_increase_identity_operator(rng):
    m = n = 10
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    F = eqs.LowRankRhs(rng.standard_normal((m, 5)), rng.standard_normal((n, 5)))
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, 2, met, rng)
    X2, alpha = rr.rank_increase(X, op, eqs.residual(op, X, F), 2)
    assert X2.r == 4
    assert abs(alpha - 1.0) <= 1e-10


def test_rank_increase_at_exact_solution(rng):
    m = n = 9
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    met = geo.KroneckerMetric()
    Xs = geo.random_point(m, n, 3, met, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    f0 = eqs.evaluate(op, Xs, F).f
    X2, alpha = rr.rank_increase(Xs, op, eqs.residual(op, Xs, F), 2)
    assert X2.r == 5
    f1 = eqs.evaluate(op, X2, F).f
    assert abs(f1 - f0) <= 1e-10 * max(1.0, abs(f0))


def test_rank_increase_exact_line_search(rng):
    m = n = 10
    A = [rand_spd(m, rng, 20.0), np.eye(m)]
    B = [np.eye(n), rand_spd(n, rng, 20.0)]
    op = eqs.MultitermOperator(A, B)
    F = eqs.LowRankRhs(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, 2, met, rng)
    X2, alpha = rr.rank_increase(X, op, eqs.residual(op, X, F), 2)
    # recover Y = (X2 - X)/alpha and check optimality over a grid
    Yd = (X2.densify(force=True) - X.densify(force=True)) / alpha
    Xd = X.densify(force=True)
    Fd = F.densify(force=True)

    def f(M):
        AM = sum(np.asarray(Ai) @ M @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B))
        return 0.5 * np.sum(AM * M) - np.sum(M * Fd)

    f_star = f(Xd + alpha * Yd)
    for t in np.linspace(0, 2.5 * alpha, 100):
        assert f_star <= f(Xd + t * Yd) + 1e-10 * max(1.0, abs(f_star))
    assert f_star <= f(Xd) + 1e-12


def test_rank_increase_direction_is_normal(rng):
    m, n = 10, 9
    E, D = rand_spd(m, rng, 4.0), rand_spd(n, rng, 4.0)
    met = geo.KroneckerMetric(E, D)
    A = [rand_spd(m, rng, 10.0), E]
    B = [D, rand_spd(n, rng, 10.0)]
    op = eqs.MultitermOperator(A, B)
    F = eqs.LowRankRhs(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    X = geo.random_point(m, n, 2, met, rng)
    X2, alpha = rr.rank_increase(X, op, eqs.residual(op, X, F), 3)
    Yd = (X2.densify(force=True) - X.densify(force=True))
    proj = geo.project(X, Yd)
    assert geo.norm(proj) <= 1e-10 * np.linalg.norm(Yd)


def test_rank_increase_grows_by_the_normal_rank(rng):
    """With l = 2 terms, r_F = 1 and r = 1 the normal component of the
    preconditioned residual has rank below r_up = 4: the rank grows by
    exactly that numerical rank, with no directions made up.  In the metric
    of the first term (E = A_1, D = B_1) that term maps X to itself, which
    is tangent, so the rank is (l - 1) r + r_F = 2."""
    m, n = 12, 10
    inst = pb.gen_synthetic(m, n, 2, r_F=1, seed=0)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(inst.p1["E"], inst.p1["D"])
    X = geo.random_point(m, n, 1, met, rng)
    E, D = dense_metric(met, (m, n))
    Xd = point_dense(X)
    Rd = F.densify(force=True) - sum(dense(Ai) @ Xd @ dense(Bi).T for Ai, Bi in zip(op.A, op.B))
    PU = np.eye(m) - X.U @ X.U.T @ E
    PV = np.eye(n) - X.V @ X.V.T @ D
    k = np.linalg.matrix_rank(PU @ np.linalg.solve(E, Rd) @ np.linalg.solve(D, PV.T))
    assert k == 2
    X2, alpha = rr.rank_increase(X, op, eqs.residual(op, X, F), 4)
    assert X2.r == 1 + k
    assert_valid_point(X2)
    assert eqs.evaluate(op, X2, F).f < eqs.evaluate(op, X, F).f


def test_rank_increase_at_full_rank_returns_the_point(rng):
    op, F = identity_problem(rng, m=6, n=5)
    X = geo.random_point(6, 5, 5, geo.KroneckerMetric(), rng)
    X2, alpha = rr.rank_increase(X, op, eqs.residual(op, X, F), 3)
    assert X2 is X and alpha == 0.0


def dense_weighted_truncation(Z, k, E, D):
    """Best rank-k approximation of Z in the norm ``||L_E.T Z L_D||`` for
    the Cholesky factors ``E = L_E L_E.T`` and ``D = L_D L_D.T``."""
    LE, LD = np.linalg.cholesky(E), np.linalg.cholesky(D)
    u, s, vt = np.linalg.svd(LE.T @ Z @ LD)
    return np.linalg.solve(LE.T, (u[:, :k] * s[:k]) @ vt[:k]) @ np.linalg.inv(LD)


@pytest.mark.parametrize("m, n", [(30, 5), (6, 25)])
def test_rank_increase_weighted_residual_wider_than_min_dimension(m, n, rng):
    """l r + r_F = 8 residual columns exceed min(m, n), in a tall and a wide
    shape, so the evaluation carries the dense residual: the step is alpha
    times the B-truncation of the normal component
    ``-(E^-1 - U U.T) R (D^-1 - V V.T)``, and alpha is the exact minimizer
    of f along it."""
    inst = pb.gen_synthetic(m, n, 3, r_F=2, seed=1)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
    r, r_up = 2, 2
    X = geo.random_point(m, n, r, met, rng)
    R = eqs.evaluate(op, X, F).R
    assert op.ell * r + F.k > min(m, n) and R.k == min(m, n)
    X2, alpha = rr.rank_increase(X, op, R, r_up)
    assert X2.r == r + r_up
    assert_valid_point(X2)
    E, D = dense_metric(met, (m, n))
    Rd = R.densify(force=True)
    N = -(np.linalg.inv(E) - X.U @ X.U.T) @ Rd @ (np.linalg.inv(D) - X.V @ X.V.T)
    Nk = dense_weighted_truncation(N, r_up, E, D)
    step = point_dense(X2) - point_dense(X)
    assert np.linalg.norm(step - alpha * Nk) <= 1e-10 * np.linalg.norm(alpha * Nk)
    ANk = sum(dense(Ai) @ Nk @ dense(Bi).T for Ai, Bi in zip(op.A, op.B))
    assert alpha == pytest.approx(-np.sum(Rd * Nk) / np.sum(ANk * Nk), rel=1e-10)


def dense_rank_increase_step(X, op, Rd, r_up):
    """The rank increase's step ``alpha N_k`` densely: ``N_k`` is the
    B-truncation to rank ``r_up`` of the normal component ``-(E^-1 - U U.T)
    Rd (D^-1 - V V.T)`` and alpha the exact minimizer of f along it."""
    E, D = dense_metric(X)
    N = -(np.linalg.inv(E) - X.U @ X.U.T) @ Rd @ (np.linalg.inv(D) - X.V @ X.V.T)
    Nk = dense_weighted_truncation(N, r_up, E, D)
    ANk = sum(dense(Ai) @ Nk @ dense(Bi).T for Ai, Bi in zip(op.A, op.B))
    return -np.sum(Rd * Nk) / np.sum(ANk * Nk) * Nk


@pytest.mark.parametrize("m, n", [(14, 12), (10, 16)])
def test_rank_increase_of_a_factored_residual_matches_the_dense_oracle(m, n, rng):
    """In a non-identity metric, tall and wide, with a residual that stays
    factored (l r + r_F <= min(m, n)): the grown point is X plus the dense
    oracle's step, to 1e-10."""
    inst = pb.gen_synthetic(m, n, 3, r_F=1, seed=2)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
    r, r_up = 2, 3
    X = geo.random_point(m, n, r, met, rng)
    ev = eqs.evaluate(op, X, F)
    assert not ev.dense
    X2, alpha = rr.rank_increase(X, op, ev.R, r_up)
    assert X2.r == r + r_up
    assert_valid_point(X2)
    ref = dense_rank_increase_step(X, op, ev.R.densify(force=True), r_up)
    step = point_dense(X2) - point_dense(X)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("m, n", [(12, 10), (7, 15)])
def test_rank_increase_of_a_rank_deficient_normal_component(m, n, rng):
    """In the metric of the first term (E = A_1, D = B_1) of an l = 2,
    r_F = 1 instance at rank 1, the normal component has rank 2 < r_up = 4:
    the rank grows by 2, with no direction made up from the rounding of
    the Grams, and the step is the dense oracle's to 1e-10."""
    inst = pb.gen_synthetic(m, n, 2, r_F=1, seed=0)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(inst.p1["E"], inst.p1["D"])
    X = geo.random_point(m, n, 1, met, rng)
    R = eqs.evaluate(op, X, F).R
    X2, alpha = rr.rank_increase(X, op, R, 4)
    assert X2.r == 3
    assert_valid_point(X2)
    ref = dense_rank_increase_step(X, op, R.densify(force=True), 4)
    step = point_dense(X2) - point_dense(X)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def test_rank_increase_takes_no_square_root(rng):
    """The rank increase solves with E and D but neither multiplies nor
    solves by their square roots, and takes no weighted SVD."""
    m, n = 30, 6
    inst = pb.gen_synthetic(m, n, 3, r_F=2, seed=3)
    met = geo.KroneckerMetric(rand_band_spd(m, 3, rng), rand_band_spd(n, 1, rng))
    X = geo.random_point(m, n, 2, met, rng)
    R = eqs.evaluate(inst.op, X, inst.F).R

    def refuse(*args, **kwargs):
        raise AssertionError("square root or weighted SVD in the rank increase")

    with mock.patch.multiple(numkit.SpdFactorization, c_mul=refuse, ct_mul=refuse,
                             c_solve=refuse, ct_solve=refuse), \
            mock.patch.object(geo, "weighted_svd", refuse):
        X2, _ = rr.rank_increase(X, inst.op, R, 2)
    assert X2.r == 4


def test_no_solve_takes_a_square_root(rng):
    """No solve multiplies or solves by a square root of E or D: RRAM in the
    Kronecker metric of a stochastic-Galerkin instance up to a rank past
    n / 2, where the V side of the retraction falls back to the Householder
    ``weighted_qr``; tangADI's set-up at n = 300, whose spectral intervals
    take the Lanczos branch, and R-NLCG steps with it; and a random point in
    a band-SPD metric."""

    def refuse(*args, **kwargs):
        raise AssertionError("square root of E or D")

    with mock.patch.multiple(numkit.SpdFactorization, c_mul=refuse, ct_mul=refuse,
                             c_solve=refuse, ct_solve=refuse):
        inst = pb.gen_stoch_galerkin(6, 2, 2)
        cfg = dict(cli._CONFIG_DEFAULTS, solver="rram", precond="P2")
        metric, prec = cli._build_tangent_setup(inst, cfg)
        assert metric.E is not None and metric.D is not None
        X, _, status = rr.rram_solve(inst.op, inst.F, rr.RramOptions(tol=1e-6),
                                     metric=metric, precond=prec)
        assert status == "converged" and 2 * X.r > X.shape[1]

        inst = pb.gen_fd_diffusion_paper(300)
        cfg = dict(cli._CONFIG_DEFAULTS, precond="tangadi")
        metric, prec = cli._build_tangent_setup(inst, cfg)
        assert inst.p2["A"].shape[0] == 300
        _, trace, _ = rnlcg_solve(inst.op, inst.F, RnlcgOptions(rank=4, max_iters=3),
                                  metric=metric, precond=prec)
        assert trace.last()["iter"] == 3

        met = geo.KroneckerMetric(rand_band_spd(40, 3, rng, permute=True), rand_band_spd(30, 2, rng))
        assert_valid_point(geo.random_point(40, 30, 5, met, rng))


def test_rank_increase_solves_at_most_min_dimension_columns(rng):
    """A residual with l r + r_F = 11 > n = 6 columns, as on the sg-rram
    workload: the evaluation carries it dense, and the solves with E and D
    see at most n right-hand sides."""
    m, n = 40, 6
    inst = pb.gen_synthetic(m, n, 3, r_F=2, seed=3)
    met = geo.KroneckerMetric(rand_band_spd(m, 3, rng), rand_band_spd(n, 1, rng))
    X = geo.random_point(m, n, 3, met, rng)
    R = eqs.evaluate(inst.op, X, inst.F).R
    assert inst.op.ell * X.r + inst.F.k == 11 and R.k == n
    with mock.patch.object(met, "solve_E", wraps=met.solve_E) as solve_E, \
            mock.patch.object(met, "solve_D", wraps=met.solve_D) as solve_D:
        X2, _ = rr.rank_increase(X, inst.op, R, 2)
    assert X2.r == 5
    for solve in (solve_E, solve_D):
        assert solve.called
        assert sum(c.args[0].shape[1] for c in solve.call_args_list) <= n


# ---------------------------------------------------------------------------
# plateau detection
# ---------------------------------------------------------------------------


def direct_plateau(history):
    """Direct evaluation of the phase-end rule: at least MIN_PHASE_STEPS
    steps, and the last one gained fewer than PLATEAU_DECADES decades."""
    if len(history) < rr.MIN_PHASE_STEPS:
        return False
    return history[-2] - history[-1] < rr.PLATEAU_DECADES


def test_plateau_constant_slope_never_halts():
    for rate in np.random.default_rng(0).uniform(1.01 * rr.PLATEAU_DECADES, 2.0, size=50):
        hist = list(-rate * np.arange(12))
        for k in range(1, 12):
            assert not rr.plateau_detect(hist[:k])


def test_plateau_flatline_halts():
    hist = list(-0.4 * np.arange(8)) + [-2.8] * 4
    assert rr.plateau_detect(hist)
    assert rr.plateau_detect([-1.0, -1.0, -1.0])


def test_plateau_needs_enough_samples():
    assert not rr.plateau_detect([-1.0, -1.0])
    assert not rr.plateau_detect([-1.0])


def test_plateau_reads_only_the_last_step():
    """A slow step ends the phase even after fast ones, and a fast step
    keeps it going after slow ones."""
    assert rr.plateau_detect([-1.0, -3.0, -3.01])
    assert not rr.plateau_detect([-1.0, -1.01, -1.02, -2.0])


def test_plateau_matches_direct_simulation():
    """Synthetic residual sequence whose decay rate halves every 5 steps:
    the first halt index agrees with a direct evaluation of the rule."""
    vals = []
    level = 0.0
    rate = 0.8
    for k in range(30):
        level -= rate
        vals.append(level)
        if (k + 1) % 5 == 0:
            rate /= 2.0

    halts = [k for k in range(1, 31) if rr.plateau_detect(vals[:k])]
    halts_direct = [k for k in range(1, 31) if direct_plateau(vals[:k])]
    assert halts == halts_direct
    assert halts  # the slowing sequence does eventually halt


# ---------------------------------------------------------------------------
# Hutch++
# ---------------------------------------------------------------------------


def test_hutchpp_zero_matrix(rng):
    R = geo.FactoredMatrix(np.zeros((10, 2)), np.zeros((8, 2)))
    assert rr.hutchpp_residual_norm(R, 5, rng) == 0.0


def test_hutchpp_exact_on_low_rank(rng):
    # rank <= sketch width (budget 5 -> sketch 2): exact
    RL = rng.standard_normal((40, 2))
    RR_ = rng.standard_normal((30, 2))
    R = geo.FactoredMatrix(RL, RR_)
    exact = np.linalg.norm(RL @ RR_.T)
    for seed in range(10):
        est = rr.hutchpp_residual_norm(R, 5, np.random.default_rng(seed))
        assert abs(est - exact) <= 1e-10 * exact


def test_hutchpp_budget_validation(rng):
    R = geo.FactoredMatrix(np.ones((4, 1)), np.ones((4, 1)))
    with pytest.raises(ValueError):
        rr.hutchpp_residual_norm(R, 2, rng)


def test_hutchpp_median_error_rank20(rng):
    RL = rng.standard_normal((60, 20))
    RR_ = rng.standard_normal((55, 20))
    R = geo.FactoredMatrix(RL, RR_)
    exact = np.linalg.norm(RL @ RR_.T)
    errs = [
        abs(rr.hutchpp_residual_norm(R, 5, np.random.default_rng(seed)) - exact) / exact
        for seed in range(200)
    ]
    assert np.median(errs) <= 0.35


# ---------------------------------------------------------------------------
# rram_solve
# ---------------------------------------------------------------------------


def make_spd_problem(m, n, rng, sol_rank=5):
    A = [rand_spd(m, rng, 60.0), np.eye(m)]
    B = [np.eye(n), rand_spd(n, rng, 60.0)]
    op = eqs.MultitermOperator(A, B)
    met = geo.KroneckerMetric()
    Xs = geo.random_point(m, n, sol_rank, met, rng)
    Ff = op.apply(Xs)
    return op, eqs.LowRankRhs(Ff.left, Ff.right)


def test_rram_no_rank_change_when_rank_suffices(rng):
    m = n = 10
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    F = eqs.LowRankRhs(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    opts = rr.RramOptions(r0=3, r_up=2, tol=1e-8, max_total_iters=100,
                          inner=RnlcgOptions(rank=3, tol=1e-8))
    X, trace, status = rr.rram_solve(op, F, opts)
    assert status == "converged"
    assert X.r == 3
    assert not any("rank_up" in r["event"] for r in trace.rows)


def test_rram_trivial_tolerance(rng):
    m = n = 8
    op, F = make_spd_problem(m, n, rng)
    opts = rr.RramOptions(r0=2, r_up=2, tol=10.0, max_total_iters=100)
    X, trace, status = rr.rram_solve(op, F, opts)
    assert status == "converged"
    assert trace.last()["iter"] == 0
    assert X.r == 2


def test_rram_converges_with_rank_growth(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=1,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=1))
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    assert status == "converged"
    assert any("rank_up" in r["event"] for r in trace.rows)
    # every row is exact, and the last is the returned point's residual
    assert all(r["res_kind"] == "exact" for r in trace.rows)
    exact = eqs.residual_norm_exact(op, X, F)
    assert float(trace.last()["res_rel"]) <= 1e-7
    assert abs(trace.last()["res_rel"] - exact) <= 1e-9 * exact


def test_rram_rank_changes_only_at_tagged_events(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=3,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=3))
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if cur["rank"] != prev["rank"]:
            assert "rank_up" in cur["event"] or "rank_down" in cur["event"]


def test_rram_objective_nonincreasing_across_rank_up(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=5,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=5))
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if "rank_up" in cur["event"]:
            assert cur["f"] <= prev["f"] + 1e-10 * max(1.0, abs(prev["f"]))


PHASE_ENDS = ("plateau", "line_search", "phase_cap")


@pytest.mark.parametrize("reason", PHASE_ENDS)
def test_rram_phase_end_rows_carry_their_reason(reason, rng, monkeypatch):
    """The row that ends a phase names why: a plateau, a failed line
    search (here every third step fails) or the phase cap (here 2 steps).
    Every rank increase follows such a row."""
    if reason == "phase_cap":
        monkeypatch.setattr(rr, "MAX_PHASE_ITERS", 2)
    elif reason == "line_search":
        step, calls = RnlcgState.step, [0]

        def failing_step(self):
            calls[0] += 1
            if calls[0] % 3 == 0:
                raise LineSearchError("stub")
            return step(self)

        monkeypatch.setattr(RnlcgState, "step", failing_step)
    op, F = make_spd_problem(18, 16, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=2, r_up=2, tol=1e-7, seed=4), metric=met)
    assert status == "converged"
    tags = [set(r["event"].split("+")) for r in trace.rows]
    assert any(reason in t for t in tags)
    for prev, cur in zip(tags, tags[1:]):
        if any(p.startswith("rank_up:") for p in cur):
            assert prev & set(PHASE_ENDS)


def lower_rank_solution_problem(seed):
    """A rank-2 solution, and the Kronecker metric of the terms."""
    rng = np.random.default_rng(seed)
    op, F = make_spd_problem(18, 16, rng, sol_rank=2)
    return op, F, geo.KroneckerMetric(op.A[0], op.B[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rram_cut_to_the_solution_rank_is_taken(seed):
    """Started at rank 4 on a rank-2 solution, the iterate loses numerical
    rank, and the cuts down to rank 2 cost the residual nothing: they are
    taken, and the solve converges at rank 2."""
    op, F, met = lower_rank_solution_problem(seed)
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=4, r_up=2, tol=1e-9, seed=seed), metric=met)
    assert status == "converged" and X.r == 2
    downs = [p for r in trace.rows for p in r["event"].split("+") if p.startswith("rank_down:")]
    assert downs and downs[-1].endswith("->2")
    assert not any("rank_up" in r["event"] for r in trace.rows)


def test_rram_cut_decision_matches_direct_residuals(monkeypatch):
    """Every step proposes to drop the last column; a proposal is taken
    (``rank_down``) exactly when the cut point's residual is at most the
    step's plus ``CUT_TOL_SHARE * tol``, else tagged ``cut_refused``."""
    tol = 1e-8
    proposals = []

    def drop_last(X, eps_sigma):
        if X.r == 1:
            return X
        cut = geo.FixedRankPoint(X.U[:, :-1], X.sigma[:-1].copy(), X.V[:, :-1], X.metric)
        proposals.append((X, cut))
        return cut

    monkeypatch.setattr(rr, "rank_decrease", drop_last)
    op, F, met = lower_rank_solution_problem(0)
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=3, r_up=2, tol=tol, seed=0), metric=met)
    assert status == "converged"
    decisions = [p.split(":")[0] for r in trace.rows for p in r["event"].split("+")
                 if p.startswith(("rank_down:", "cut_refused:"))]
    assert len(decisions) == len(proposals)
    assert {"rank_down", "cut_refused"} <= set(decisions)
    for decision, (X_step, X_cut) in zip(decisions, proposals):
        res = eqs.residual_norm_exact(op, X_step, F)
        res_cut = eqs.residual_norm_exact(op, X_cut, F)
        taken = res_cut <= res + rr.CUT_TOL_SHARE * tol
        assert decision == ("rank_down" if taken else "cut_refused")


def test_rram_cut_is_evaluated_only_where_the_bound_cannot_decide(monkeypatch):
    """A proposed cut is evaluated only where the triangle bound ``res_cut
    >= t - res``, ``t = ||A (X - X_cut)|| / ||F||``, cannot refuse it, that
    is, where ``t <= 2 res + CUT_TOL_SHARE * tol`` (up to rounding).  The
    run has cuts of both kinds, and every refusal still matches the
    residuals."""
    tol = 1e-8
    proposals = []

    def drop_last(X, eps_sigma):
        if X.r == 1:
            return X
        cut = geo.FixedRankPoint(X.U[:, :-1], X.sigma[:-1].copy(), X.V[:, :-1], X.metric)
        proposals.append((X, cut))
        return cut

    evaluated = []
    evaluate = eqs.evaluate

    def counting(op, X, F, *blocks):
        evaluated.append(X)
        return evaluate(op, X, F, *blocks)

    monkeypatch.setattr(rr, "rank_decrease", drop_last)
    monkeypatch.setattr(eqs, "evaluate", counting)
    op, F, met = lower_rank_solution_problem(0)
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=3, r_up=2, tol=tol, seed=0), metric=met)
    assert status == "converged"
    nrm_F = np.linalg.norm(F.densify(force=True))
    bound_decided = 0
    for X_step, X_cut in proposals:
        res = eqs.residual_norm_exact(op, X_step, F)
        tail = point_dense(X_step) - point_dense(X_cut)
        t = np.linalg.norm(sum(dense(Ai) @ tail @ dense(Bi).T
                               for Ai, Bi in zip(op.A, op.B))) / nrm_F
        was_evaluated = any(Y is X_cut for Y in evaluated)
        assert was_evaluated == (t <= 2 * res + rr.CUT_TOL_SHARE * tol + rr.CUT_BOUND_SLACK)
        if not was_evaluated:
            bound_decided += 1
            assert eqs.residual_norm_exact(op, X_cut, F) > res + rr.CUT_TOL_SHARE * tol
    assert 0 < bound_decided < len(proposals)


def test_rram_evaluates_each_point_once(monkeypatch):
    """An accepted cut hands its evaluation to the restart: no point is
    evaluated twice in a solve that takes cuts."""
    seen = []
    evaluate = eqs.evaluate

    def counting(op, X, F, *blocks):
        seen.append(X)      # held, so no id is reused
        return evaluate(op, X, F, *blocks)

    monkeypatch.setattr(eqs, "evaluate", counting)
    op, F, met = lower_rank_solution_problem(0)
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=4, r_up=2, tol=1e-9, seed=0), metric=met)
    assert status == "converged"
    assert any("rank_down" in r["event"] for r in trace.rows)
    assert len({id(X) for X in seen}) == len(seen)


def test_rram_first_increase_adds_the_normal_rank():
    """From r0 = 1 on an l = 2, r_F = 1 instance the normal component has
    rank 3, so the first increase is 1 -> 4 although r_up = 4."""
    inst = pb.gen_synthetic(30, 30, 2, r_F=1, seed=0)
    X, trace, status = rr.rram_solve(inst.op, inst.F, rr.RramOptions(r0=1, r_up=4, tol=1e-6))
    assert status == "converged"
    ups = [r["event"] for r in trace.rows if "rank_up" in r["event"]]
    assert "rank_up:1->4" in ups[0].split("+")


# ---------------------------------------------------------------------------
# SPD loss outside a step
# ---------------------------------------------------------------------------


class NegatesAboveRank:
    """Preconditioner stub: the identity at rank ``r`` or below, the negated
    identity above."""

    def __init__(self, r):
        self.r = r
        self.applies = 0

    def apply_inv_tangent(self, eta):
        self.applies += 1
        return eta if eta.point.r <= self.r else eta.scaled(-1.0)


class Negates:
    def apply_inv_tangent(self, eta):
        return eta.scaled(-1.0)


def identity_problem(rng, m=8, n=8, rank=3):
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    return op, eqs.LowRankRhs(rng.standard_normal((m, rank)), rng.standard_normal((n, rank)))


def test_rram_spd_loss_at_restart_ends_with_status(rng):
    """The preconditioner stops being SPD above rank 1: the restart after
    the rank increase applies it again, and the solve ends with
    ``spd_loss`` at the last point of rank 1 instead of raising."""
    op, F = identity_problem(rng)
    prec = NegatesAboveRank(1)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, r_up=1, tol=1e-10), precond=prec)
    assert status == "spd_loss"
    assert X.r == 1 and trace.last()["event"].endswith("spd_loss")
    assert all(r["rank"] == 1 for r in trace.rows)
    assert not any("rank_up" in r["event"] for r in trace.rows)


def test_rram_spd_loss_at_start_ends_with_status(rng):
    op, F = identity_problem(rng)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, tol=1e-10), precond=Negates())
    assert status == "spd_loss"
    assert len(trace) == 1 and X.r == 1


# ---------------------------------------------------------------------------
# rank at most min(m, n)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric_name, r0", [("kron", 4), ("identity", 3)])
def test_rram_rank_never_exceeds_min_dimension(metric_name, r0):
    """On a 7x6 problem the rank stops at 6, in the Kronecker metric of two
    terms and in the standard one.  Uncapped, rank increases padded past
    it: rank 4 -> 7 with a Kronecker preconditioner ended with
    ``spd_loss``, and without one rows of rank 9 were logged as ``6->9``."""
    from lrmeq import problems as pb

    inst = pb.gen_synthetic(7, 6, 3, seed=2)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(op.A[0], op.B[1]) if metric_name == "kron" else None
    opts = rr.RramOptions(r0=r0, r_up=3, tol=1e-13, max_total_iters=500,
                          inner=RnlcgOptions(rank=r0, tol=1e-13))
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    assert status == "converged"
    assert max(r["rank"] for r in trace.rows) <= 6
    for r in trace.rows:
        if "rank_up" in r["event"]:
            old, new = r["event"].split("rank_up:")[1].split("+")[0].split("->")
            assert int(new) <= 6 and int(old) < int(new)


class Zero:
    def apply_inv_tangent(self, eta):
        return eta.scaled(0.0)


def test_rram_full_rank_phase_without_step_stagnates(rng):
    """At rank min(m, n) there is no rank increase; a phase that takes no
    step ends the solve instead of repeating itself.  A zero preconditioner
    makes every point stationary, so the phase ends before its first step,
    not on the zero curvature that step would meet."""
    op, F = identity_problem(rng, m=4, n=4)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=4, r_up=2, tol=1e-10), precond=Zero())
    assert status == "stagnated"
    assert len(trace) == 1 and X.r == 4


def indefinite_problem():
    """A = diag(linspace(-1, 3, 12)), B = I: the operator is not SPD."""
    rng = np.random.default_rng(0)
    op = eqs.MultitermOperator([np.diag(np.linspace(-1.0, 3.0, 12))], [np.eye(12)])
    return op, eqs.LowRankRhs(rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rram_step_spd_loss_ends_with_status(seed):
    """A step's SPD loss ends the solve with ``spd_loss``, as it does for
    R-NLCG, and is not taken for the end of a phase: once taken so, the
    rank grew to 12 and the solve ended ``stagnated``.  The rank may grow
    before the failing step, but not after it, and the last row holds the
    exact residual at the returned point."""
    op, F = indefinite_problem()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=2, seed=seed))
    assert status == "spd_loss"
    assert X.r < 12 and trace.last()["rank"] == X.r
    assert "rank_up" not in trace.last()["event"]
    last, exact = trace.last(), eqs.residual_norm_exact(op, X, F)
    assert last["res_kind"] == "exact"
    assert abs(last["res_rel"] - exact) <= 1e-9 * exact


def test_rank_increase_nonpositive_curvature_raises(rng):
    """``<A Y, Y> <= 0`` along the normal direction raises ``NotSpdError``
    instead of taking the step length 0."""
    op = eqs.MultitermOperator([-np.eye(8)], [np.eye(8)])
    F = eqs.LowRankRhs(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
    X = geo.random_point(8, 8, 1, geo.KroneckerMetric(), rng)
    with pytest.raises(numkit.NotSpdError, match="curvature"):
        rr.rank_increase(X, op, eqs.residual(op, X, F), 2)


def test_rram_rank_increase_spd_loss_ends_with_status(rng, monkeypatch):
    """A rank increase that meets a nonpositive curvature ends the solve
    with ``spd_loss``."""
    def not_spd(*args):
        raise numkit.NotSpdError("nonpositive curvature")

    monkeypatch.setattr(rr, "rank_increase", not_spd)
    op, F = identity_problem(rng)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, r_up=1, tol=1e-10))
    assert status == "spd_loss" and X.r == 1
