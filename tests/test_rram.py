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
    objective_dense, RRAM_PHASE_ENDS, rank_events, rram_phase_decisions,
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


def normal_component_with_spectrum(sigma, r, rng, m=14, n=12):
    """A rank-r point X in a dense Kronecker metric and a residual R whose
    normal component ``-(E^-1 - U U.T) R (D^-1 - V V.T)`` is ``N = P
    diag(sigma) Q.T``, with ``P.T E P = I``, ``Q.T D Q = I``, ``P.T E U =
    0`` and ``Q.T D V = 0``, so ``sigma`` is its weighted spectrum; returns
    ``(X, R, N)``."""
    E, D = rand_spd(m, rng, 4.0), rand_spd(n, rng, 4.0)
    X = geo.random_point(m, n, r, geo.KroneckerMetric(E, D), rng)

    def orthonormal_complement(B, W):
        G = rng.standard_normal((W.shape[0], len(sigma)))
        G -= B @ (B.T @ (W @ G))
        return np.linalg.solve(np.linalg.cholesky(G.T @ W @ G), G.T).T

    P, Q = orthonormal_complement(X.U, E), orthonormal_complement(X.V, D)
    sigma = np.asarray(sigma, dtype=float)
    return X, geo.FactoredMatrix(-E @ (P * sigma), D @ Q), (P * sigma) @ Q.T


def direct_increase_rank(sigma, r_up, room):
    """Direct evaluation of the selection rule: at least ``min(r_up, room,
    k)`` directions for the numerical rank ``k``, and every one whose
    weighted singular value is at least ``UP_SHARE`` times the largest,
    at most ``room``."""
    k = len(sigma)
    return min(room, max(min(r_up, room, k), sum(s >= rr.UP_SHARE * sigma[0] for s in sigma)))


@pytest.mark.parametrize("sigma, r, r_up, expected", [
    (np.linspace(1.0, 0.6, 10), 2, 3, 10),                  # flat: everything up to room
    (10.0 ** -np.arange(8), 2, 3, 3),                       # sharp decay: exactly r_up
    ([1.0, 0.9, 0.7, 0.51, 0.49, 0.3, 0.1], 2, 2, 4),       # more than r_up above the share
    ([1.0, 0.8, 0.3, 0.2, 0.1], 2, 4, 4),                   # fewer than r_up above it
    ([1.0, 0.3], 2, 4, 2),                                  # numerical rank below r_up
    ([1.0, 0.2], 10, 4, 2),                                 # room 2 < r_up
    ([1.0, 0.9], 10, 1, 2),                                 # room reached by the share
], ids=["flat", "sharp", "share", "r_up", "numerical_rank", "room", "room_by_share"])
def test_rank_increase_selects_by_the_weighted_spectrum(sigma, r, r_up, expected, rng):
    """The rank grows by ``max(min(r_up, room, k), #{s_i >= UP_SHARE *
    s_1})``, capped by ``room``, for a normal component of prescribed
    weighted spectrum, and the step is alpha times the dense weighted
    truncation of the component at that rank, with alpha the exact
    minimizer of f along it."""
    m, n = 14, 12
    X, R, N = normal_component_with_spectrum(sigma, r, rng, m, n)
    assert direct_increase_rank(sigma, r_up, min(m, n) - r) == expected
    E, D = dense_metric(X)
    op = eqs.MultitermOperator([rand_spd(m, rng, 10.0), E], [D, rand_spd(n, rng, 10.0)])
    X2, alpha = rr.rank_increase(X, op, R, r_up)
    assert X2.r == r + expected
    assert_valid_point(X2)
    Nk = dense_weighted_truncation(N, expected, E, D)
    step = point_dense(X2) - point_dense(X)
    assert np.linalg.norm(step - alpha * Nk) <= 1e-9 * np.linalg.norm(alpha * Nk)
    ANk = sum(dense(Ai) @ Nk @ dense(Bi).T for Ai, Bi in zip(op.A, op.B))
    assert alpha == pytest.approx(-np.sum(R.densify(force=True) * Nk) / np.sum(ANk * Nk),
                                  rel=1e-9)


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


def direct_plateau(history, log_res_start=None, gain_up=None):
    """Direct evaluation of the phase-end rule: at least MIN_PHASE_STEPS
    steps, and the last one gained fewer than PLATEAU_DECADES decades; or,
    in a phase opened by a rank increase that gained ``gain_up`` decades,
    a first step that gained no less than 0 and less than FLOOR_SHARE of
    that."""
    if gain_up is not None and len(history) == 1:
        g = log_res_start - history[0]
        if 0.0 <= g < rr.FLOOR_SHARE * gain_up:
            return True
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


@pytest.mark.parametrize("gain_up", [0.15, 0.38, 1.0, 3.0])
def test_plateau_floor_ends_a_weak_first_step_after_a_rank_increase(gain_up):
    """A first step after a rank increase that gains g decades with ``0 <=
    g < FLOOR_SHARE * gain_up`` ends the phase."""
    for share in (0.0, 0.001, 0.05, 0.099):
        for start in (0.0, -2.0, -6.5):
            hist = [start - share * gain_up]
            assert rr.plateau_detect(hist, start, gain_up)
            assert direct_plateau(hist, start, gain_up)


def test_plateau_floor_keeps_every_other_phase():
    """The floor exit reads only a first step after a rank increase, and
    only one that gained less than ``FLOOR_SHARE`` of it without raising
    the residual."""
    gain_up = 1.0
    # the gain at and above the floor share: 0 - (-0.1) is exactly 0.1
    assert not rr.plateau_detect([-rr.FLOOR_SHARE * gain_up], 0.0, gain_up)
    assert not rr.plateau_detect([-0.5 * gain_up], 0.0, gain_up)
    # a first step that raised the residual
    assert not rr.plateau_detect([1e-4], 0.0, gain_up)
    assert not rr.plateau_detect([-1.9], -2.0, gain_up)
    # a weak second step, after a first one above the floor
    assert not rr.plateau_detect([-0.5, -0.5001], 0.0, gain_up)
    # the first phase's first step, and a first step after an accepted cut
    # or after an increase that could not grow: no rank increase opened them
    assert not rr.plateau_detect([0.0], 0.0, None)
    assert not rr.plateau_detect([-1e-4])
    # a rank increase that gained nothing sets no floor
    assert not rr.plateau_detect([0.0], 0.0, 0.0)
    # the three-step rule still holds in a phase opened by a rank increase
    assert rr.plateau_detect([-0.5, -1.0, -1.01], 0.0, gain_up)
    assert not rr.plateau_detect([-0.5, -1.0, -1.5], 0.0, gain_up)


def test_plateau_floor_matches_direct_simulation():
    """Random phases opened by rank increases, with first steps around the
    floor share and later steps around PLATEAU_DECADES: every decision
    agrees with a direct evaluation of the rule, and both exits occur."""
    gen = np.random.default_rng(7)
    floor_exits = slow_exits = 0
    for _ in range(200):
        start = gen.uniform(-8.0, 0.0)
        gain_up = gen.choice([None, gen.uniform(0.0, 0.5)])
        hist = [start - gen.uniform(-0.02, 0.1)]
        for _ in range(6):
            hist.append(hist[-1] - gen.uniform(-0.01, 2 * rr.PLATEAU_DECADES))
        for k in range(1, len(hist) + 1):
            got = rr.plateau_detect(hist[:k], start, gain_up)
            assert got == direct_plateau(hist[:k], start, gain_up)
            floor_exits += got and k == 1
            slow_exits += got and k > 1
    assert floor_exits and slow_exits


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
    opts = rr.RramOptions(r0=3, r_up=2, tol=1e-8, max_total_iters=100)
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
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=1)
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    assert status == "converged"
    assert any("rank_up" in r["event"] for r in trace.rows)
    # every row is exact, and the last is the returned point's residual
    assert all(r["res_kind"] == "exact" for r in trace.rows)
    exact = eqs.residual_norm_exact(op, X, F)
    assert float(trace.last()["res_rel"]) <= 1e-7
    assert abs(trace.last()["res_rel"] - exact) <= 1e-9 * exact


def test_rram_trace_records_the_sigma_ratio(rng):
    """RRAM rows carry the iterate's ``sigma_r / sigma_1`` in the RRAM-only
    column ``sig_ratio``; on the last row it is the returned point's."""
    op, F, met = growth_problem()
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=2, r_up=2, tol=1e-7, seed=0), metric=met)
    assert status == "converged"
    assert trace.columns[-1] == "sig_ratio"
    assert trace.last()["sig_ratio"] == X.sigma[-1] / X.sigma[0]
    assert all(0.0 < r["sig_ratio"] <= 1.0 for r in trace.rows)
    csv_ratios = [line.rsplit(",", 1)[1] for line in trace.to_csv_string().splitlines()[1:]]
    assert [float(v) for v in csv_ratios] == trace.column("sig_ratio")
    _, fixed, _ = rnlcg_solve(op, F, RnlcgOptions(rank=2, max_iters=2), metric=met)
    assert "sig_ratio" not in fixed.columns


def test_rram_rank_changes_only_at_tagged_events(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=3)
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if cur["rank"] != prev["rank"]:
            assert "rank_up" in cur["event"] or "rank_down" in cur["event"]


def test_rram_objective_nonincreasing_across_rank_up(rng):
    m, n = 18, 16
    op, F = make_spd_problem(m, n, rng, sol_rank=6)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rr.RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=400, seed=5)
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if "rank_up" in cur["event"]:
            assert cur["f"] <= prev["f"] + 1e-10 * max(1.0, abs(prev["f"]))


@pytest.mark.parametrize("reason", RRAM_PHASE_ENDS)
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
            assert prev & set(RRAM_PHASE_ENDS)


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


# ---------------------------------------------------------------------------
# phase ends at a rank's floor
# ---------------------------------------------------------------------------


def recording_plateau_detect(monkeypatch):
    """Wrap ``rr.plateau_detect``; returns the list of its calls as
    ``(log_res_history, log_res_start, gain_up, result)``."""
    calls = []
    detect = rr.plateau_detect

    def recording(log_res_history, log_res_start=None, gain_up=None):
        out = detect(log_res_history, log_res_start, gain_up)
        calls.append((list(log_res_history), log_res_start, gain_up, out))
        return out

    monkeypatch.setattr(rr, "plateau_detect", recording)
    return calls


def sg_small():
    """Stochastic Galerkin ns=10, q=6, p=3 and its P2 Kronecker metric."""
    inst = pb.gen_stoch_galerkin(10, 6, 3)
    return inst.op, inst.F, geo.KroneckerMetric(inst.p2["E"], inst.p2["D"])


def growth_problem():
    op, F = make_spd_problem(18, 16, np.random.default_rng(1234), sol_rank=6)
    return op, F, geo.KroneckerMetric(op.A[0], op.B[1])


@pytest.mark.parametrize("case, r0, tol", [
    ("growth", 2, 1e-7), ("cuts", 4, 1e-9), ("sg", 3, 1e-6),
])
def test_rram_every_phase_decision_goes_through_plateau_detect(case, r0, tol, monkeypatch):
    """Every step row that does not end the solve is decided by exactly one
    call of ``plateau_detect``, with the history, start and rank-increase
    gain that the rows give (``oracles.rram_phase_decisions``); the call
    agrees with a direct evaluation of the rule, and the row is tagged
    ``plateau`` exactly when it returned True.  The benchmark's tracer,
    which wraps ``plateau_detect`` by name and counts ``plateau`` tags,
    therefore counts every phase decision and every phase end."""
    calls = recording_plateau_detect(monkeypatch)
    op, F, met = {"growth": growth_problem, "sg": sg_small,
                  "cuts": lambda: lower_rank_solution_problem(0)}[case]()
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=r0, r_up=2 if case != "sg" else 3, tol=tol, seed=0),
        metric=met)
    assert status == "converged"
    rows = trace.rows
    decided = [d for d in rram_phase_decisions(rows) if d[0] < len(rows) - 1]
    assert len(calls) == len(decided) > 0
    for (i, hist, start, gain_up), (c_hist, c_start, c_gain, out) in zip(decided, calls):
        assert c_hist == hist and c_start == start
        assert (c_gain is None) == (gain_up is None)
        assert c_gain is None or c_gain == gain_up
        assert out == direct_plateau(hist, start, gain_up)
        assert out == ("plateau" in rows[i]["event"].split("+"))
    floor_exits = sum(out and len(h) == 1 for h, _, _, out in calls)
    if case == "sg":
        assert floor_exits > 0
    if case == "cuts":
        assert any("rank_down" in r["event"] for r in rows)


def test_rram_increase_that_cannot_grow_leaves_no_gain_up(monkeypatch):
    """The second rank increase is stubbed to return the point unchanged.
    The phase after it was not opened by an increase: none of its
    decisions reads a rank-increase gain, while the first decision after
    each real increase does."""
    calls = recording_plateau_detect(monkeypatch)
    increase, at_call = rr.rank_increase, []

    def second_cannot_grow(X, op, R, r_up):
        at_call.append(len(calls))
        return (X, 0.0) if len(at_call) == 2 else increase(X, op, R, r_up)

    monkeypatch.setattr(rr, "rank_increase", second_cannot_grow)
    op, F, met = growth_problem()
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=2, r_up=2, tol=1e-7, seed=0), metric=met)
    assert status == "converged" and len(at_call) >= 3
    first, second, third = at_call[:3]
    assert calls[first][2] is not None and calls[third][2] is not None
    assert third > second and all(c[2] is None for c in calls[second:third])
    ups = [r["event"] for r in trace.rows if "rank_up" in r["event"]]
    assert len(ups) == len(at_call) - 1


def test_rram_first_step_after_an_accepted_cut_reads_no_gain_up(monkeypatch):
    """On the first step after the first rank increase a stub proposes to
    drop the last column, and the cut is taken whatever it costs.  The
    decision on that step (with an empty history) and every later one of
    the phase read no rank-increase gain, so the first step after the cut
    cannot end the phase at a floor."""
    calls = recording_plateau_detect(monkeypatch)
    increase, at_call, cut_at = rr.rank_increase, [], []

    def counting_increase(X, op, R, r_up):
        at_call.append(len(calls))
        return increase(X, op, R, r_up)

    def cut_once(X, eps_sigma):
        if len(at_call) == 1 and not cut_at:
            cut_at.append(len(calls))
            return geo.FixedRankPoint(X.U[:, :-1], X.sigma[:-1].copy(), X.V[:, :-1], X.metric)
        return X

    monkeypatch.setattr(rr, "rank_increase", counting_increase)
    monkeypatch.setattr(rr, "rank_decrease", cut_once)
    monkeypatch.setattr(rr, "_taken_cut",
                        lambda state, X_cut, res, tol: eqs.evaluate(state.op, X_cut, state.F))
    op, F, met = growth_problem()
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=2, r_up=2, tol=1e-7, seed=0), metric=met)
    assert status == "converged" and len(at_call) >= 2
    (cut,), end = cut_at, at_call[1]
    assert cut == at_call[0] and end > cut + 1
    assert calls[cut][0] == [] and len(calls[cut + 1][0]) == 1
    assert all(c[2] is None for c in calls[cut:end])
    assert any("rank_down" in r["event"] for r in trace.rows)


def test_rram_sg_phases_end_at_the_rank_floor():
    """Stochastic Galerkin ns=10, q=6, p=3 in the P2 Kronecker metric at tol
    1e-6 converges at rank 30, and some rank increase is followed by a
    single step tagged ``plateau``.  Before the floor exit every phase
    took at least 3 steps, and the solve 43 iterations."""
    op, F, met = sg_small()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=3, r_up=3, tol=1e-6, seed=0),
                                     metric=met)
    assert status == "converged" and X.r == 30
    ups = list(rank_events(trace.rows, "rank_up"))
    one_step = [i for i, j in zip(ups, ups[1:])
                if j == i + 2 and "plateau" in trace.rows[i + 1]["event"].split("+")]
    assert one_step
    assert trace.last()["iter"] < 43


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rram_sg_increases_follow_the_normal_spectrum(seed):
    """On the same instance some rank increase adds more than ``r_up = 3``
    directions, since the normal component has more than 3 weighted
    singular values above ``UP_SHARE`` of the largest, and the solve still
    ends at rank 30, in fewer than the 26-27 iterations that increases of
    exactly ``r_up`` took."""
    op, F, met = sg_small()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=3, r_up=3, tol=1e-6, seed=seed),
                                     metric=met)
    assert status == "converged" and X.r == 30
    ups = rank_events(trace.rows, "rank_up").values()
    assert all(new > old for old, new in ups)
    assert any(new - old > 3 for old, new in ups)
    assert trace.last()["iter"] < 27


def test_rram_first_increase_adds_the_normal_rank():
    """From r0 = 1 on an l = 2, r_F = 1 instance the normal component has
    rank 3, so the first increase is 1 -> 4 although r_up = 4."""
    inst = pb.gen_synthetic(30, 30, 2, r_F=1, seed=0)
    X, trace, status = rr.rram_solve(inst.op, inst.F, rr.RramOptions(r0=1, r_up=4, tol=1e-6))
    assert status == "converged"
    assert next(iter(rank_events(trace.rows, "rank_up").values())) == (1, 4)


# ---------------------------------------------------------------------------
# a gradient only where a step leaves from, no evaluation after an increase
# ---------------------------------------------------------------------------


class PointsApplied:
    """Identity preconditioner that keeps the point of every apply."""

    def __init__(self):
        self.points = []

    def apply_inv_tangent(self, eta):
        self.points.append(eta.point)
        return eta


@pytest.mark.parametrize("end", ["plateau", "phase_cap"])
def test_rram_applies_no_preconditioner_at_a_row_that_ends_a_phase(end, monkeypatch):
    """The point of a row that ends a phase (``plateau``, ``phase_cap``,
    here 2 steps) before a rank increase, or ends the solve, gets no apply:
    only the increase reads it.  The point of every other row, which a step
    leaves from, gets exactly one, before its row; that includes a phase
    end at full rank, where the rank cannot grow and the next phase starts
    from it."""
    if end == "phase_cap":
        monkeypatch.setattr(rr, "MAX_PHASE_ITERS", 2)
    row_points = []
    record = RnlcgState.record

    def keeping_record(self, trace, k, **fields):
        row_points.append(self.X)
        return record(self, trace, k, **fields)

    monkeypatch.setattr(RnlcgState, "record", keeping_record)
    op, F, met = growth_problem()
    prec = PointsApplied()
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=2, r_up=2, tol=1e-7, seed=0), metric=met, precond=prec)
    assert status == "converged"
    tags = [set(r["event"].split("+")) for r in trace.rows] + [{"rank_up:"}]
    ended = 0
    for i, X_row in enumerate(row_points):
        applies = sum(P is X_row for P in prec.points)
        grows_next = any(t.startswith("rank_up:") for t in tags[i + 1])
        if "converged" in tags[i] or (end in tags[i] and grows_next):
            ended += 1
            assert applies == 0, trace.rows[i]
        else:
            assert applies == 1, trace.rows[i]
    assert ended > 2
    assert len(prec.points) == trace.counts["gradients"] == len(trace.rows) - ended


def test_rram_sg_restart_after_an_increase_evaluates_nothing(monkeypatch):
    """On stochastic Galerkin ns=10, q=6, p=3 the grown point's evaluation
    comes from the increase's products: ``equations.evaluate`` runs at the
    start and after each step, and never between a rank increase and the
    next step."""
    calls = []
    evaluate, increase, step = eqs.evaluate, rr.rank_increase, RnlcgState.step

    def logging(name, fn):
        def logged(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return logged

    monkeypatch.setattr(eqs, "evaluate", logging("evaluate", evaluate))
    monkeypatch.setattr(rr, "rank_increase", logging("increase", increase))
    monkeypatch.setattr(RnlcgState, "step", logging("step", step))
    op, F, met = sg_small()
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=3, r_up=3, tol=1e-6, seed=0),
                                     metric=met)
    assert status == "converged" and calls.count("increase") > 3
    after_increase = False
    for name in calls:
        after_increase = (after_increase or name == "increase") and name != "step"
        assert not (after_increase and name == "evaluate")
    assert trace.counts["evaluations"] == calls.count("evaluate")


def test_rram_iteration_budget_ends_with_max_iter():
    """Three steps in all do not reach ``tol = 1e-12``: the solve ends with
    ``max_iter`` on the third step's row, which holds the exact residual of
    the returned point."""
    inst = pb.gen_synthetic(14, 12, 2, seed=1)
    X, trace, status = rr.rram_solve(inst.op, inst.F,
                                     rr.RramOptions(r0=1, max_total_iters=3, tol=1e-12))
    assert status == "max_iter"
    last = trace.last()
    assert last["iter"] == 3 and last["event"].split("+")[-1] == "max_iter"
    exact = eqs.residual_norm_exact(inst.op, X, inst.F)
    assert last["res_kind"] == "exact" and abs(last["res_rel"] - exact) <= 1e-9 * exact


# ---------------------------------------------------------------------------
# SPD loss outside a step
# ---------------------------------------------------------------------------


class NegatesAboveRank:
    """Preconditioner stub: the identity at rank ``r`` or below, the negated
    identity above; ``point`` is the point of its last apply."""

    def __init__(self, r):
        self.r = r
        self.point = None

    def apply_inv_tangent(self, eta):
        self.point = eta.point
        return eta if eta.point.r <= self.r else eta.scaled(-1.0)


class Negates:
    def apply_inv_tangent(self, eta):
        return eta.scaled(-1.0)


def identity_problem(rng, m=8, n=8, rank=3):
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    return op, eqs.LowRankRhs(rng.standard_normal((m, rank)), rng.standard_normal((n, rank)))


def test_rram_spd_loss_at_restart_ends_with_status(rng):
    """The preconditioner stops being SPD above rank 1: the restart after
    the rank increase applies it at the grown point, and the solve ends
    with ``spd_loss`` there instead of raising.  The increase's row is the
    last one and holds the grown point's exact residual."""
    op, F = identity_problem(rng)
    prec = NegatesAboveRank(1)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, r_up=1, tol=1e-10), precond=prec)
    assert status == "spd_loss"
    assert X.r > 1 and X is prec.point
    last = trace.last()
    assert last["event"] == f"rank_up:1->{X.r}+spd_loss" and last["rank"] == X.r
    assert all(r["rank"] == 1 for r in trace.rows[:-1])
    exact = eqs.residual_norm_exact(op, X, F)
    assert abs(last["res_rel"] - exact) <= 1e-9 * exact


class NegatesBelowRank:
    """Preconditioner stub: the identity at rank ``r`` or above, the
    negated identity below; ``point`` is the point of its last apply."""

    def __init__(self, r):
        self.r = r
        self.point = None

    def apply_inv_tangent(self, eta):
        self.point = eta.point
        return eta if eta.point.r >= self.r else eta.scaled(-1.0)


def test_rram_spd_loss_at_a_cut_ends_at_the_cut_point():
    """Started at rank 4 on a rank-2 solution, the first taken cut goes
    below rank 4, where the preconditioner is not SPD: the solve ends with
    ``spd_loss`` at the cut point, whose row is the last one and holds its
    exact residual."""
    op, F, met = lower_rank_solution_problem(0)
    prec = NegatesBelowRank(4)
    X, trace, status = rr.rram_solve(
        op, F, rr.RramOptions(r0=4, r_up=2, tol=1e-9, seed=0), metric=met, precond=prec)
    assert status == "spd_loss" and X.r < 4 and X is prec.point
    last = trace.last()
    assert last["rank"] == X.r and last["event"] == f"rank_down:4->{X.r}+spd_loss"
    assert all(r["rank"] == 4 for r in trace.rows[:-1])
    exact = eqs.residual_norm_exact(op, X, F)
    assert abs(last["res_rel"] - exact) <= 1e-9 * exact


def test_rram_spd_loss_at_start_ends_with_status(rng):
    op, F = identity_problem(rng)
    X, trace, status = rr.rram_solve(op, F, rr.RramOptions(r0=1, tol=1e-10), precond=Negates())
    assert status == "spd_loss"
    assert len(trace) == 1 and X.r == 1
    # X0's row is a full one: objective, exact residual and sigma ratio
    row = trace.last()
    assert row["f"] == pytest.approx(objective_dense(op, F, X), rel=1e-9)
    assert row["res_kind"] == "exact" and row["sig_ratio"] == 1.0
    assert row["res_rel"] == pytest.approx(eqs.residual_norm_exact(op, X, F), rel=1e-9)


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
    opts = rr.RramOptions(r0=r0, r_up=3, tol=1e-13, max_total_iters=500)
    X, trace, status = rr.rram_solve(op, F, opts, metric=met)
    assert status == "converged"
    assert max(r["rank"] for r in trace.rows) <= 6
    for old, new in rank_events(trace.rows, "rank_up").values():
        assert old < new <= 6


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
