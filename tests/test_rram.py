from unittest import mock

import numpy as np
import pytest

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import precond as pc
from lrmeq import problems as pb
from lrmeq import solver_rram as rr
from lrmeq.solver_rnlcg import RnlcgOptions

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
    X2, r2 = rr.rank_decrease(X, 1e-4)
    assert r2 == 1 == direct_rank_decrease([1.0, 1e-12], 1e-4)


def test_rank_decrease_no_trigger(rng):
    X = make_point([1.0, 1.0], rng)
    X2, r2 = rr.rank_decrease(X, 0.5)
    assert r2 == 2
    assert X2 is X


def test_rank_decrease_mixed_spectrum(rng):
    sigma = [1.0, 0.5, 1e-3, 1e-9]
    expected = direct_rank_decrease(sigma, 1e-2)
    X = make_point(sigma, rng)
    X2, r2 = rr.rank_decrease(X, 1e-2)
    assert r2 == expected == 2
    assert np.allclose(X2.sigma, sigma[:2])


def test_rank_decrease_clamps_to_one(rng):
    # every value fails the test relative to the sum: clamp at rank one
    X = make_point([1.0, 1.0, 1.0, 1.0], rng)
    X2, r2 = rr.rank_decrease(X, 0.9)
    assert r2 == 1


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
    shape: the step is alpha times the B-truncation of the normal component
    ``-(E^-1 - U U.T) R (D^-1 - V V.T)``, and alpha is the exact minimizer
    of f along it."""
    inst = pb.gen_synthetic(m, n, 3, r_F=2, seed=1)
    op, F = inst.op, inst.F
    met = geo.KroneckerMetric(rand_band_spd(m, 2, rng), rand_band_spd(n, 1, rng))
    r, r_up = 2, 2
    X = geo.random_point(m, n, r, met, rng)
    R = eqs.evaluate(op, X, F).R
    assert R.k > min(m, n)
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


def test_rank_increase_solves_at_most_min_dimension_columns(rng):
    """A residual with l r + r_F = 11 > n = 6 columns, as on the sg-rram
    workload: the solves with E and D see at most n right-hand sides."""
    m, n = 40, 6
    inst = pb.gen_synthetic(m, n, 3, r_F=2, seed=3)
    met = geo.KroneckerMetric(rand_band_spd(m, 3, rng), rand_band_spd(n, 1, rng))
    X = geo.random_point(m, n, 3, met, rng)
    R = eqs.evaluate(inst.op, X, inst.F).R
    assert R.k == 11
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


def test_plateau_constant_slope_never_halts():
    for rate in np.random.default_rng(0).uniform(0.05, 2.0, size=50):
        hist = list(-rate * np.arange(12))
        for k in range(4, 12):
            assert not rr.plateau_detect(hist[:k], 3, 0.75)


def test_plateau_flatline_halts():
    hist = list(-0.4 * np.arange(8)) + [-2.8] * 4
    assert rr.plateau_detect(hist, 3, 0.75)


def test_plateau_needs_enough_samples():
    assert not rr.plateau_detect([-1.0, -2.0, -3.0], 3, 0.75)


def test_plateau_matches_direct_simulation():
    """Synthetic residual sequence whose decay rate halves every 5 steps:
    the first halt index agrees with a direct evaluation of the rule."""
    w_len, fact = 3, 0.75
    vals = []
    level = 0.0
    rate = 0.8
    for k in range(30):
        level -= rate
        vals.append(level)
        if (k + 1) % 5 == 0:
            rate /= 2.0

    def direct(history):
        if len(history) < w_len + 1:
            return False
        x = np.arange(w_len)
        recent = np.polyfit(x, history[-w_len:], 1)[0]
        mean = (history[-1] - history[0]) / (len(history) - 1)
        return recent >= fact * mean

    halts = [k for k in range(1, 31) if rr.plateau_detect(vals[:k], w_len, fact)]
    halts_direct = [k for k in range(1, 31) if direct(vals[:k])]
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
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=1,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=1))
    X, trace, status = rr.rram_solve(op, F, opts, precond=prec)
    assert status == "converged"
    assert any("rank_up" in r["event"] for r in trace.rows)
    # exact convergence certificate, not the estimate
    assert float(trace.last()["res_rel"]) <= 1e-7
    assert trace.last()["res_kind"] == "exact"


def test_rram_rank_changes_only_at_tagged_events(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=3,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=3))
    X, trace, status = rr.rram_solve(op, F, opts, precond=prec)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if cur["rank"] != prev["rank"]:
            assert "rank_up" in cur["event"] or "rank_down" in cur["event"]


def test_rram_objective_nonincreasing_across_rank_up(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1]))
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=5,
                          inner=RnlcgOptions(rank=2, tol=1e-7, seed=5))
    X, trace, status = rr.rram_solve(op, F, opts, precond=prec)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if "rank_up" in cur["event"]:
            assert cur["f"] <= prev["f"] + 1e-10 * max(1.0, abs(prev["f"]))


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


class NegatesAfterFirstApply:
    """Preconditioner stub: the identity once, the negated identity after."""

    applies = 0

    def apply_inv_tangent(self, eta):
        self.applies += 1
        return eta if self.applies == 1 else eta.scaled(-1.0)


class Negates:
    def apply_inv_tangent(self, eta):
        return eta.scaled(-1.0)


def identity_problem(rng, m=8, n=8, rank=3):
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    return op, eqs.LowRankRhs(rng.standard_normal((m, rank)), rng.standard_normal((n, rank)))


def test_rram_spd_loss_at_restart_ends_with_status(rng):
    """The first step loses SPD-ness inside the phase; the restart after the
    rank increase applies the preconditioner again and must not raise."""
    op, F = identity_problem(rng)
    prec = NegatesAfterFirstApply()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, r_up=1, tol=1e-10), precond=prec)
    assert status == "spd_loss"
    assert prec.applies == 3    # start, failed step, failed restart
    assert X.r == 1 and trace.last()["event"] == "spd_loss"
    assert not any("rank_up" in r["event"] for r in trace.rows)


def test_rram_spd_loss_at_start_ends_with_status(rng):
    op, F = identity_problem(rng)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, tol=1e-10), precond=Negates())
    assert status == "spd_loss"
    assert len(trace) == 1 and X.r == 1


# ---------------------------------------------------------------------------
# rank at most min(m, n)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec_name, r0", [("kron", 4), ("identity", 3)])
def test_rram_rank_never_exceeds_min_dimension(prec_name, r0):
    """On a 7x6 problem the rank stops at 6.  Uncapped, rank increases
    padded past it: rank 4 -> 7 with the Kronecker preconditioner ended
    with ``spd_loss``, and without one rows of rank 9 were logged as ``6->9``."""
    from lrmeq import problems as pb

    inst = pb.gen_synthetic(7, 6, 3, seed=2)
    op, F = inst.op, inst.F
    prec = pc.KronPrecond(geo.KroneckerMetric(op.A[0], op.B[1])) if prec_name == "kron" else None
    opts = rr.RramOptions(r0=r0, r_up=3, tol=1e-13, max_total_iters=500,
                          inner=RnlcgOptions(rank=r0, tol=1e-13))
    X, trace, status = rr.rram_solve(op, F, opts, precond=prec)
    assert status == "converged"
    assert max(r["rank"] for r in trace.rows) <= 6
    for r in trace.rows:
        if "rank_up" in r["event"]:
            old, new = r["event"].split("rank_up:")[1].split("+")[0].split("->")
            assert int(new) <= 6 and int(old) < int(new)


def test_rram_full_rank_phase_without_step_stagnates(rng):
    """At rank min(m, n) there is no rank increase; a phase that takes no
    step ends the solve instead of repeating itself."""
    op, F = identity_problem(rng, m=4, n=4)
    prec = NegatesAfterFirstApply()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=4, r_up=2, tol=1e-10), precond=prec)
    assert status == "stagnated"
    assert prec.applies == 2    # start, failed step
    assert X.r == 4 and all(r["rank"] == 4 for r in trace.rows)
