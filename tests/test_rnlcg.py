import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import numkit
from lrmeq import precond as pc
from lrmeq import solver_rnlcg as rn

from oracles import (
    assert_valid_point,
    euclid_nlcg,
    kron_matrix,
    objective_dense,
    objective_diff_exact,
    point_dense,
    rand_spd,
    tv_dense,
)


def make_spd_problem(m, n, ell, rng, sol_rank=3, cond=30.0):
    A = [rand_spd(m, rng, cond)] + [rand_spd(m, rng, 3.0) for _ in range(ell - 1)]
    B = [np.eye(n)] + [rand_spd(n, rng, cond) for _ in range(ell - 1)]
    op = eqs.MultitermOperator(A, B)
    met = geo.KroneckerMetric()
    Xs = geo.random_point(m, n, sol_rank, met, rng)
    Ff = op.apply(Xs)
    return op, eqs.LowRankRhs(Ff.left, Ff.right), Xs


def start_state(op, F, opts, metric=None, precond=None):
    """The state ``rnlcg_solve`` starts from: a random rank-``opts.rank``
    point of unit norm drawn from ``opts.seed``, in the identity metric
    unless ``metric`` is given."""
    metric = metric if metric is not None else geo.KroneckerMetric()
    X0 = geo.random_point(op.m, op.n, opts.rank, metric, np.random.default_rng(opts.seed))
    return rn.RnlcgState(op, F, X0, precond=precond)


def line_model(state, xi):
    return eqs.ProjectedObjective(state.op, state.F, state.X, xi, state.ev)


# ---------------------------------------------------------------------------
# search_direction
# ---------------------------------------------------------------------------


def test_first_iteration_steepest_descent(rng):
    met = geo.KroneckerMetric()
    X = geo.random_point(7, 6, 2, met, rng)
    g = geo.project(X, rng.standard_normal((7, 6)))
    xi, beta, reset = rn.search_direction(g, g, None)
    assert beta == 0.0 and not reset
    assert np.linalg.norm(tv_dense(xi) + tv_dense(g)) <= 1e-14


def test_hs_numerator_cancels(rng):
    met = geo.KroneckerMetric()
    X = geo.random_point(7, 6, 2, met, rng)
    g = geo.project(X, rng.standard_normal((7, 6)))
    # previous gradient transported exactly equals current one and the
    # previous direction was its negative: the HS numerator vanishes
    prev = (g.scaled(-1.0), g, geo.inner(g, g.scaled(-1.0)))
    xi, beta, reset = rn.search_direction(g, g, prev)
    assert beta == 0.0
    assert np.linalg.norm(tv_dense(xi) + tv_dense(g)) <= 1e-14


def test_descent_safeguard_resets(rng):
    met = geo.KroneckerMetric()
    X = geo.random_point(7, 6, 2, met, rng)
    g = geo.project(X, rng.standard_normal((7, 6)))
    # adversarial history: transported direction strongly aligned with +g
    t_xi = g.scaled(10.0)
    prev = (t_xi, g.scaled(0.0), geo.inner(g, t_xi) - 1.0)
    xi, beta, reset = rn.search_direction(g, g, prev)
    if reset:
        assert np.linalg.norm(tv_dense(xi) + tv_dense(g)) <= 1e-14
    assert geo.inner(g, xi) < 0


def test_full_space_directions_match_classical_cg(rng):
    """At full rank with the identity metric the R-NLCG directions follow
    classical linear CG for the first iterations."""
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng, sol_rank=n)
    K = kron_matrix(op.A, op.B)
    b = F.densify(force=True).reshape(-1, order="F")
    opts = rn.RnlcgOptions(rank=n, tol=1e-14, max_iters=3, seed=7)
    state = start_state(op, F, opts)
    x0 = state.X.densify(force=True).reshape(-1, order="F")
    xs, dirs = euclid_nlcg(K, b, x0, 3)
    for k in range(3):
        state.step()
        ours = state.X.densify(force=True).reshape(-1, order="F")
        assert np.linalg.norm(ours - xs[k + 1]) <= 1e-8 * max(1.0, np.linalg.norm(xs[k + 1]))


# ---------------------------------------------------------------------------
# initial_step
# ---------------------------------------------------------------------------


def steepest_step(op, F, X):
    """Exact step along the negative gradient at X, and that direction."""
    ev = eqs.evaluate(op, X, F)
    g = geo.riemannian_gradient(X, ev.R, ev.RtU, ev.RtV)
    xi = g.scaled(-1.0)
    return rn.initial_step(eqs.ProjectedObjective(op, F, X, xi, ev), g, xi), xi


def test_initial_step_identity_operator(rng):
    m = n = 6
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, 2, met, rng)
    alpha, _ = steepest_step(op, F, X)
    assert abs(alpha - 1.0) <= 1e-12


def test_initial_step_homogeneity(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, 2, met, rng)
    alpha1, _ = steepest_step(op, F, X)
    c = 3.7
    op_scaled = eqs.MultitermOperator([c * np.asarray(Ai) for Ai in op.A], op.B)
    # at the same point with both A and F scaled by c the gradient scales by
    # c and the curvature by c: alpha scales by 1/c
    alpha2, _ = steepest_step(op_scaled, eqs.LowRankRhs(c * F.left, F.right), X)
    assert abs(c * alpha2 - alpha1) <= 1e-10 * alpha1


def test_initial_step_is_line_minimizer(rng):
    m = n = 7
    op, F, _ = make_spd_problem(m, n, 2, rng)
    met = geo.KroneckerMetric()
    X = geo.random_point(m, n, 2, met, rng)
    alpha, xi = steepest_step(op, F, X)
    Xd = point_dense(X)
    xid = tv_dense(xi)
    Fd = F.densify(force=True)

    def f_ambient(t):
        M = Xd + t * xid
        AM = sum(np.asarray(Ai) @ M @ np.asarray(Bi).T for Ai, Bi in zip(op.A, op.B))
        return 0.5 * np.sum(AM * M) - np.sum(M * Fd)

    f_star = f_ambient(alpha)
    for t in np.linspace(0.0, 2.5 * alpha, 100):
        assert f_star <= f_ambient(t) + 1e-12 * max(1.0, abs(f_star))


# (m, n, r, ell, weighted metric, seed); r is capped at min(m, n), so the
# line-search bases [U, Up] and [V, Vp] may be wide
step_cases = st.tuples(
    st.integers(2, 9), st.integers(2, 9), st.integers(1, 4), st.integers(2, 4),
    st.booleans(), st.integers(0, 2**32 - 1),
)


def random_instance(m, n, r, ell, weighted, rng):
    """SPD multiterm operator, rank-2 right-hand side and a point of rank r."""
    op = eqs.MultitermOperator(
        [rand_spd(m, rng, 20.0) for _ in range(ell)], [rand_spd(n, rng, 20.0) for _ in range(ell)]
    )
    if weighted:
        met = geo.KroneckerMetric(rand_spd(m, rng, 4.0), rand_spd(n, rng, 4.0))
    else:
        met = geo.KroneckerMetric()
    F = eqs.LowRankRhs(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
    return op, F, geo.random_point(m, n, r, met, rng)


@given(step_cases)
def test_block_step_equals_embedded_step(case):
    """The exact step from the projected blocks equals the one from applying
    the operator to the rank-2r embedding of xi."""
    m, n, r, ell, weighted, seed = case
    rng = np.random.default_rng(seed)
    op, F, X = random_instance(m, n, min(r, m, n), ell, weighted, rng)
    ev = eqs.evaluate(op, X, F)
    g = geo.riemannian_gradient(X, ev.R, ev.RtU, ev.RtV)
    xi = geo.project(X, rng.standard_normal((m, n)))
    zeta = xi.embed()
    ref = -geo.inner(g, xi) / geo.factored_inner(op.apply(zeta), zeta)
    alpha = rn.initial_step(eqs.ProjectedObjective(op, F, X, xi, ev), g, xi)
    assert alpha == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_block_decrease_matches_dense_objective(rng, weighted):
    """The decrease of a trial core equals f(X_t) - f(X) of the retracted
    point, short of and beyond the exact step."""
    op, F, X = random_instance(8, 7, 3, 3, weighted, rng)
    state = rn.RnlcgState(op, F, X)
    xi = state.h.scaled(-1.0)
    model = line_model(state, xi)
    alpha_bar = rn.initial_step(model, state.g, xi)
    Fd = F.densify(force=True)

    def f_dense(P):
        Z = point_dense(P)
        return 0.5 * sum(np.sum((Ai @ Z @ Bi) * Z) for Ai, Bi in zip(op.A, op.B)) - np.sum(Z * Fd)

    for t in (0.1, 0.5, 1.0, 2.0, 4.0):
        u, s, v = model.retr.at(t * alpha_bar)
        ref = f_dense(model.retr.point(u, s, v)) - f_dense(X)
        assert model.decrease((u * s) @ v.T) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("m, n, r, fallback", [(12, 10, 2, False), (9, 8, 5, True)])
def test_step_hands_over_the_accepted_points_blocks(m, n, r, fallback, rng, monkeypatch):
    """The blocks a step hands to the evaluation of its accepted point,
    ``u.T G_i u`` and ``v.T K_i v`` from the line search, are ``U.T A_i U``
    and ``V.T B_i V`` there to 1e-12, on the retraction's gauge path and on
    its Householder fallback (``[U, Up]`` wider than tall)."""
    op, F, X = random_instance(m, n, r, 3, True, rng)
    state = rn.RnlcgState(op, F, X)
    handed, fallbacks = [], []
    evaluate, weighted_qr = eqs.evaluate, geo.weighted_qr

    def capture(op_, Y, F_, UAU=None, VBV=None):
        if UAU is not None:
            handed.append((Y, UAU, VBV))
        return evaluate(op_, Y, F_, UAU, VBV)

    def counting_qr(*args):
        fallbacks.append(args)
        return weighted_qr(*args)

    monkeypatch.setattr(eqs, "evaluate", capture)
    monkeypatch.setattr(geo, "weighted_qr", counting_qr)
    for _ in range(3):
        state.step()
    assert len(handed) == 3 and bool(fallbacks) == fallback
    for Y, UAU, VBV in handed:
        for i, (Ai, Bi) in enumerate(zip(op.A, op.B)):
            ref_u, ref_v = Y.U.T @ Ai @ Y.U, Y.V.T @ Bi @ Y.V
            assert np.linalg.norm(UAU[i] - ref_u) <= 1e-12 * np.linalg.norm(ref_u)
            assert np.linalg.norm(VBV[i] - ref_v) <= 1e-12 * np.linalg.norm(ref_v)


class CountingMatrix:
    """Dense coefficient that counts the columns it is applied to."""

    def __init__(self, M):
        self.M, self.shape, self.cols = M, M.shape, 0

    def __matmul__(self, Y):
        self.cols += Y.shape[1]
        return self.M @ Y


def test_step_makes_one_sparse_pass(rng, monkeypatch):
    """A step never applies the whole operator, and each coefficient meets
    at most 2r columns: r for the line-search basis, r at the new point."""
    m, n, r = 9, 8, 3
    op, F, _ = make_spd_problem(m, n, 3, rng, sol_rank=4)
    state = start_state(op, F, rn.RnlcgOptions(rank=r, seed=2))
    op.A = [CountingMatrix(Ai) for Ai in op.A]
    op.B = [CountingMatrix(Bi) for Bi in op.B]

    def no_apply(self, X):
        raise AssertionError("MultitermOperator.apply called in a step")

    monkeypatch.setattr(eqs.MultitermOperator, "apply", no_apply)
    for _ in range(3):
        for C in op.A + op.B:
            C.cols = 0
        state.step()
        assert all(0 < C.cols <= 2 * r for C in op.A + op.B)


# ---------------------------------------------------------------------------
# armijo_backtrack
# ---------------------------------------------------------------------------


def test_armijo_accepts_exact_step_full_rank(rng):
    m = n = 5
    op, F, _ = make_spd_problem(m, n, 2, rng, sol_rank=n)
    opts = rn.RnlcgOptions(rank=n, seed=3)
    state = start_state(op, F, opts)
    xi = state.h.scaled(-1.0)
    model = line_model(state, xi)
    alpha_bar = rn.initial_step(model, state.g, xi)
    alpha, _, backtracks, _ = rn.armijo_backtrack(model, xi, alpha_bar, state.g)
    assert backtracks == 0 and alpha == alpha_bar


def test_armijo_steep_slope_forces_backtracks(rng, monkeypatch):
    m = n = 8
    op, F, _ = make_spd_problem(m, n, 2, rng, sol_rank=2, cond=200.0)
    monkeypatch.setattr(rn, "ARMIJO_SLOPE", 0.999)
    opts = rn.RnlcgOptions(rank=2, seed=5)
    state = start_state(op, F, opts)
    total_backtracks = 0
    for _ in range(10):
        try:
            state.step()
        except rn.LineSearchError:
            total_backtracks += 1
            break
        total_backtracks += state.last_backtracks
    assert total_backtracks > 0


def test_armijo_direction_scaling_invariance(rng):
    m = n = 7
    op, F, _ = make_spd_problem(m, n, 2, rng)
    opts = rn.RnlcgOptions(rank=2, seed=11)
    state = start_state(op, F, opts)
    out = []
    for xi in (state.h.scaled(-1.0), state.h.scaled(-2.0)):
        model = line_model(state, xi)
        a = rn.initial_step(model, state.g, xi)
        alpha, core, _, df = rn.armijo_backtrack(model, xi, a, state.g)
        out.append((alpha, model.retr.point(*core), df))
    (alpha1, X1, df1), (alpha2, X2, df2) = out
    assert abs(alpha2 - alpha1 / 2.0) <= 1e-12 * alpha1
    assert np.linalg.norm(X1.densify(force=True) - X2.densify(force=True)) <= 1e-12
    assert abs(df1 - df2) <= 1e-12 * abs(df1)


def test_armijo_rejects_ascent(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    opts = rn.RnlcgOptions(rank=2, seed=13)
    state = start_state(op, F, opts)
    with pytest.raises(rn.LineSearchError):
        rn.armijo_backtrack(line_model(state, state.h), state.h, 1.0, state.g)


def near_solution_state(rng, metric_kind="identity", offset=1e-8):
    """State at a point ``offset`` (relative) from the exact rank-3 solution,
    where f changes only in its 16th digit along a line search."""
    m, n, r = 8, 7, 3
    A = [rand_spd(m, rng, 30.0), rand_spd(m, rng, 3.0), rand_spd(m, rng, 5.0)]
    B = [np.eye(n), rand_spd(n, rng, 30.0), rand_spd(n, rng, 4.0)]
    op = eqs.MultitermOperator(A, B)
    if metric_kind == "identity":
        met = geo.KroneckerMetric()
    else:
        met = geo.KroneckerMetric(rand_spd(m, rng, 4.0), rand_spd(n, rng, 3.0))
    Xs = geo.random_point(m, n, r, met, rng)
    Fs = op.apply(Xs)
    F = eqs.LowRankRhs(Fs.left, Fs.right)
    eta = geo.project(Xs, rng.standard_normal((m, n)))
    retr = geo.LineSearchRetraction(Xs, eta)
    X0 = retr.point(*retr.at(offset / geo.norm(eta)))
    return rn.RnlcgState(op, F, X0)


@pytest.mark.parametrize("kind", ["identity", "weighted"])
def test_armijo_resolves_decrease_below_rounding_of_f(rng, kind):
    """Near the solution f(X_t) and f(X) agree to 15 digits, yet the Armijo
    test scores the step exactly: an overlong step that raises f is
    rejected and its halving accepted, with the decrease the high-precision
    oracle gives."""
    state = near_solution_state(rng, kind)
    xi = state.h.scaled(-1.0)
    model = line_model(state, xi)
    alpha_bar = rn.initial_step(model, state.g, xi)
    # f(X + 3 alpha_bar xi) > f(X) on the tangent line; 1.5 alpha_bar decreases f
    alpha, core, backtracks, df = rn.armijo_backtrack(model, xi, 3.0 * alpha_bar, state.g)
    assert (alpha, backtracks) == (1.5 * alpha_bar, 1)
    X_t = model.retr.point(*core)
    exact = objective_diff_exact(state.op, state.F, state.X, X_t)
    assert abs(exact) < 1e-15 * abs(state.f)
    assert df < 0.0
    assert abs(df - exact) <= 1e-6 * abs(exact)


# ---------------------------------------------------------------------------
# rnlcg_solve
# ---------------------------------------------------------------------------


def test_identity_operator_low_rank_rhs(rng):
    m = n = 12
    r = 3
    op = eqs.MultitermOperator([np.eye(m)], [np.eye(n)])
    F = eqs.LowRankRhs(rng.standard_normal((m, r)), rng.standard_normal((n, r)))
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=r, tol=1e-10, max_iters=15))
    assert status == "converged"
    # the solution is the best rank-r approximation of F, namely F itself
    met = geo.KroneckerMetric()
    best = geo.truncate(F, r, met)
    err = np.linalg.norm(X.densify(force=True) - best.densify(force=True))
    assert err <= 1e-8 * np.linalg.norm(best.densify(force=True))
    assert trace.last()["iter"] <= 15


def test_zero_max_iters_returns_initial_guess(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=2, tol=1e-12, max_iters=0))
    assert status == "max_iter"
    assert trace.last()["iter"] == 0
    assert abs(X.frobenius_norm() - 1.0) <= 1e-12  # untouched initial guess


def test_exhausted_line_search_ends_with_status(monkeypatch):
    """An Armijo slope of 2 admits no step: backtracking runs out of
    reductions, and the solve ends with ``line_search_failure`` at the
    point of its last row, which holds that point's exact residual."""
    from lrmeq import problems as pb

    raised = []
    backtrack = rn.armijo_backtrack

    def keeping(*args):
        try:
            return backtrack(*args)
        except rn.LineSearchError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(rn, "ARMIJO_SLOPE", 2.0)
    monkeypatch.setattr(rn, "armijo_backtrack", keeping)
    inst = pb.gen_synthetic(14, 12, 2, seed=1)
    X, trace, status = rn.rnlcg_solve(inst.op, inst.F, rn.RnlcgOptions(rank=2))
    assert status == "line_search_failure"
    assert len(raised) == 1 and "exhausted" in raised[0]
    last = trace.last()
    assert last["event"] == "line_search_failure" and last["res_kind"] == "exact"
    assert last["res_rel"] == pytest.approx(eqs.residual_norm_exact(inst.op, X, inst.F), rel=1e-9)


@pytest.mark.parametrize("weighted", [False, True])
def test_start_state_is_the_solver_start(rng, weighted):
    """At the same seed ``start_state`` holds the point ``rnlcg_solve``
    starts from, so the tests that step it step the solver's iterations."""
    op, F, X = random_instance(8, 7, 3, 2, weighted, rng)
    opts = rn.RnlcgOptions(rank=3, max_iters=0, seed=5)
    X0, trace, status = rn.rnlcg_solve(op, F, opts, metric=X.metric)
    state = start_state(op, F, opts, metric=X.metric)
    assert status == "max_iter" and len(trace) == 1
    assert state.f == trace.rows[0]["f"]
    for a, b in ((state.X.U, X0.U), (state.X.sigma, X0.sigma), (state.X.V, X0.V)):
        assert np.array_equal(a, b)


def test_huge_tolerance_immediate_convergence(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=2, tol=10.0, max_iters=50))
    assert status == "converged"
    assert trace.last()["iter"] == 0


class TurnsIndefinite:
    """Preconditioner stub: the identity on its first apply, then either
    the negated identity or a failed small SPD solve; ``point`` is the
    point of its last apply."""

    def __init__(self, mode):
        self.mode = mode
        self.applies = 0
        self.point = None

    def apply_inv_tangent(self, eta):
        self.applies += 1
        self.point = eta.point
        if self.applies == 1:
            return eta
        if self.mode == "negate":
            return eta.scaled(-1.0)
        raise numkit.NotSpdError("projected small system not SPD")


class Indefinite:
    """Preconditioner stub that negates from its first apply."""

    def apply_inv_tangent(self, eta):
        return eta.scaled(-1.0)


def test_spd_loss_at_start_ends_with_status(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=2), precond=Indefinite())
    assert status == "spd_loss"
    assert len(trace) == 1 and trace.last()["event"] == "spd_loss"
    assert X.r == 2
    # X0's row is a full one: objective and exact residual
    row = trace.last()
    assert row["f"] == pytest.approx(objective_dense(op, F, X), rel=1e-9)
    assert row["res_kind"] == "exact"
    assert row["res_rel"] == pytest.approx(eqs.residual_norm_exact(op, X, F), rel=1e-9)


@pytest.mark.parametrize("mode", ["negate", "not_spd"])
def test_spd_loss_ends_with_status(rng, mode):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng)
    opts = rn.RnlcgOptions(rank=2, tol=1e-12, max_iters=50)
    prec = TurnsIndefinite(mode)
    X, trace, status = rn.rnlcg_solve(op, F, opts, precond=prec)
    assert status == "spd_loss" and prec.applies == 2
    # the solve ends at the point whose apply failed, after the first step,
    # and that point's row is the last one and holds its exact residual
    assert X is prec.point
    assert trace.last()["iter"] == 1 and trace.last()["event"] == "spd_loss"
    assert eqs.residual_norm_exact(op, X, F) == pytest.approx(trace.last()["res_rel"], rel=1e-12)


def test_monotone_objective_and_armijo_certificate(rng):
    m, n = 14, 12
    op, F, _ = make_spd_problem(m, n, 3, rng, sol_rank=4)
    opts = rn.RnlcgOptions(rank=4, tol=1e-9, max_iters=200, seed=2)
    state = start_state(op, F, opts)
    checked = 0
    for _ in range(40):
        if state.res_rel() < 1e-9 or state.stagnated():
            break
        f0 = state.f
        g0 = state.g
        try:
            state.step()
        except rn.LineSearchError:
            break
        # Armijo certificate re-checked post hoc
        xi = state._xi_prev
        rhs = f0 + rn.ARMIJO_SLOPE * state.last_alpha * geo.inner(g0, xi)
        assert state.f <= rhs + 1e-12 * max(1.0, abs(f0))
        assert state.f <= f0 + 1e-12 * max(1.0, abs(f0))
        checked += 1
    assert checked >= 5


def test_beta_positive_implies_descent(rng):
    m, n = 14, 12
    op, F, _ = make_spd_problem(m, n, 3, rng, sol_rank=4)
    opts = rn.RnlcgOptions(rank=4, tol=1e-10, max_iters=100, seed=4)
    state = start_state(op, F, opts)
    seen_beta = 0
    for _ in range(30):
        state.step()
        if state.last_beta > 0 and not state.last_reset:
            # the used direction had negative preconditioned slope
            seen_beta += 1
            assert state._prev_g_xi < 0
        if state.res_rel() < 1e-10:
            break
    assert seen_beta > 0


def test_full_rank_matches_euclidean_nlcg(rng):
    m = n = 6
    op, F, _ = make_spd_problem(m, n, 2, rng, sol_rank=n)
    K = kron_matrix(op.A, op.B)
    b = F.densify(force=True).reshape(-1, order="F")
    opts = rn.RnlcgOptions(rank=n, tol=1e-14, max_iters=5, seed=21)
    state = start_state(op, F, opts)
    x0 = state.X.densify(force=True).reshape(-1, order="F")
    xs, _ = euclid_nlcg(K, b, x0, 5)
    for k in range(5):
        state.step()
        ours = state.X.densify(force=True).reshape(-1, order="F")
        assert np.linalg.norm(ours - xs[k + 1]) <= 1e-8 * max(1.0, np.linalg.norm(xs[k + 1]))


def test_gradient_energy_nonnegative_each_iteration(rng):
    m, n = 12, 10
    op, F, _ = make_spd_problem(m, n, 2, rng, sol_rank=3)
    met = geo.KroneckerMetric(op.A[0], op.B[1])
    opts = rn.RnlcgOptions(rank=3, tol=1e-9, max_iters=60, seed=6)
    state = start_state(op, F, opts, metric=met)
    for _ in range(20):
        assert state.grad_energy >= 0
        state.step()
        if state.res_rel() < 1e-9:
            break


def test_long_run_preserves_point_invariants(rng):
    """Weighted orthonormality of the iterate and tangent constraints stay
    tight over a long unpreconditioned run."""
    m, n = 12, 10
    E = np.diag(np.linspace(1.0, 6.0, m))
    D = np.diag(np.linspace(1.0, 3.0, n))
    A0, B1 = rand_spd(m, rng, 300.0), rand_spd(n, rng, 300.0)
    op = eqs.MultitermOperator([A0, E], [D, B1])
    met = geo.KroneckerMetric(E, D)
    Xs = geo.random_point(m, n, 5, met, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    state = start_state(op, F, rn.RnlcgOptions(rank=3, tol=1e-14, seed=8), metric=met)
    for _ in range(100):
        if state.stagnated():
            break
        try:
            state.step()
        except rn.LineSearchError:
            break
    assert_valid_point(state.X, tol=1e-8)
    g = state.g
    drift_u = np.linalg.norm(state.X.EU.T @ g.Up) / max(np.linalg.norm(g.Up), 1e-300)
    drift_v = np.linalg.norm(state.X.DV.T @ g.Vp) / max(np.linalg.norm(g.Vp), 1e-300)
    assert drift_u <= 1e-10 and drift_v <= 1e-10


def test_trace_schema():
    from lrmeq.trace import BASE_COLUMNS

    assert BASE_COLUMNS == (
        "iter", "f", "res_rel", "res_kind", "rank",
        "beta", "alpha", "backtracks", "time_s", "event",
    )


def test_weighted_metric_solver_converges(rng):
    m, n = 12, 11
    E = np.diag(np.linspace(1.0, 4.0, m))
    D = np.diag(np.linspace(1.0, 2.0, n))
    A0, B1 = rand_spd(m, rng, 40.0), rand_spd(n, rng, 40.0)
    op = eqs.MultitermOperator([A0, E], [D, B1])
    met = geo.KroneckerMetric(E, D)
    Xs = geo.random_point(m, n, 3, met, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    prec = pc.GenSylvesterPrecond(A0, B1, met)
    X, trace, status = rn.rnlcg_solve(
        op, F, rn.RnlcgOptions(rank=3, tol=1e-9, max_iters=100), metric=met, precond=prec
    )
    assert status == "converged"
    assert trace.last()["iter"] < 30


# ---------------------------------------------------------------------------
# a gradient only where a step leaves from
# ---------------------------------------------------------------------------


class CountingIdentity:
    """Identity preconditioner that counts its applies."""

    applies = 0

    def apply_inv_tangent(self, eta):
        self.applies += 1
        return eta


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_converged_solve_applies_the_preconditioner_once_per_step(rng, seed):
    """A solve that ends ``converged`` after ``iters`` steps applies the
    preconditioner at the ``iters`` points a step left from, not at the
    last one, and evaluates each of its ``iters + 1`` points once."""
    op, F, _ = make_spd_problem(12, 10, 2, rng)
    prec = CountingIdentity()
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=3, tol=1e-8, seed=seed),
                                      precond=prec)
    iters = trace.last()["iter"]
    assert status == "converged" and iters > 0
    assert prec.applies == iters == trace.counts["gradients"]
    assert trace.counts["evaluations"] == iters + 1


def test_max_iter_solve_takes_no_gradient_at_its_last_point(rng):
    op, F, _ = make_spd_problem(12, 10, 2, rng)
    prec = CountingIdentity()
    X, trace, status = rn.rnlcg_solve(op, F, rn.RnlcgOptions(rank=3, tol=1e-14, max_iters=4),
                                      precond=prec)
    assert status == "max_iter" and trace.last()["iter"] == 4
    assert prec.applies == 4
