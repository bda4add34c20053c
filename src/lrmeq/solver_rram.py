"""Rank-adaptive outer loop around fixed-rank R-NLCG.

Alternates fixed-rank optimization phases with rank updates, and makes
every decision on the exact relative residual, which each step's trace
row records.  A phase ends once its last step gains too little (a
plateau); the rank then grows by at most ``r_up`` along an exact line
search in the truncated normal component of the negative gradient.  A
rank cut, proposed where the iterate loses numerical rank, is taken only
when it costs the residual a small share of the tolerance, so a cut
cannot undo the directions a rank increase has just paid for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equations as eqs
from . import geometry as geo
from . import numkit
from .numkit import NotSpdError
from .solver_rnlcg import (
    LineSearchError, RnlcgOptions, RnlcgState, check_int, check_positive,
)
from .trace import SolveTrace

EPS_SIGMA = 1e-8          # numerical-rank threshold of the proposed rank cuts
CUT_TOL_SHARE = 0.1       # a cut may raise the residual by this share of tol
CUT_BOUND_SLACK = 1e-12   # rounding of the relative residuals in a cut's bound
MIN_PHASE_STEPS = 3       # R-NLCG steps in one fixed-rank phase at least
PLATEAU_DECADES = 0.05    # a phase ends once a step gains fewer decades than this
MAX_PHASE_ITERS = 200     # R-NLCG steps in one fixed-rank phase at most


@dataclass
class RramOptions:
    r0: int = 3
    r_up: int = 3
    tol: float = 1e-6
    max_total_iters: int = 500
    seed: int = 0
    inner: RnlcgOptions | None = None

    def __post_init__(self):
        check_int("r0", self.r0, 1)
        check_int("r_up", self.r_up, 1)
        check_int("max_total_iters", self.max_total_iters, 0)
        check_int("seed", self.seed, 0)
        check_positive("tol", self.tol)
        if self.inner is None:
            self.inner = RnlcgOptions(rank=self.r0, tol=self.tol, seed=self.seed)


def rank_decrease(X: geo.FixedRankPoint, eps_sigma):
    """Truncate away the trailing singular values that fail the
    numerical-rank test ``sigma_k^2 / sum(sigma^2) >= eps_sigma^2``.

    Returns X itself when the last singular value passes the test, else
    the point cut after the last value that passes (rank one when none
    does), so of lower rank.
    """
    share = X.sigma**2 / np.sum(X.sigma**2)
    if not share[-1] < eps_sigma**2:
        return X
    mask = share >= eps_sigma**2
    r_minus = int(np.max(np.nonzero(mask)[0]) + 1) if np.any(mask) else 1
    return geo.FixedRankPoint(
        X.U[:, :r_minus], X.sigma[:r_minus].copy(), X.V[:, :r_minus], X.metric
    )


def rank_increase(X, op, R, r_up):
    """Warm start on the larger manifold by a normal-direction correction.

    Truncates the normal component of ``-B^{-1} R`` for the residual
    ``R = A X - F`` at X (``Evaluation.R``) to its best approximation of
    rank ``min(r_up, room, k)``, where ``room`` is what is left to
    ``min(m, n)`` and ``k`` is the component's numerical rank, takes the
    exact line-search step along it, and returns the grown point together
    with the step length.  The truncation (``_leading_normal_directions``)
    solves with E and D, takes one weighted QR on the D side and no
    weighted SVD.  With no room or no normal direction it returns ``(X,
    0.0)``; a nonpositive curvature ``<A Y, Y>`` along the direction Y
    raises ``NotSpdError``.
    """
    m, n = X.shape
    room = min(m, n) - X.r
    if room == 0:
        return X, 0.0
    NU, s_N, NV = _leading_normal_directions(X, R, min(r_up, room))
    if s_N.size == 0:
        return X, 0.0
    Y = geo.FactoredMatrix(NU * s_N, NV)
    den = geo.factored_inner(op.apply(Y), Y)
    if den <= 0.0:
        raise NotSpdError(f"nonpositive curvature <A Y, Y> = {den:.3e}")
    alpha = -geo.factored_inner(R, Y) / den
    # combined factors stay E-/D-orthonormal because Y is B-normal to T_X
    U_all = np.hstack([X.U, -NU if alpha < 0 else NU])
    V_all = np.hstack([X.V, NV])
    s_all = np.concatenate([X.sigma, abs(alpha) * s_N])
    order = np.argsort(-s_all)
    s_all = s_all[order]
    floor = geo.SIGMA_FLOOR_FACTOR * (s_all[0] if s_all[0] > 0 else 1.0)
    s_all = np.maximum(s_all, floor)
    return geo.FixedRankPoint(U_all[:, order], s_all, V_all[:, order], X.metric), alpha


def _leading_normal_directions(X, R, r):
    """The ``r`` leading terms ``(NU, s, NV)`` of the weighted SVD of the
    normal component of ``-B^{-1} R`` at X,

        N = -(E^{-1} - U U.T) R_L [(D^{-1} - V V.T) R_R].T = NL NR.T,

    with ``NU.T E NU = I`` and ``NV.T D NV = I``, fewer where N has lower
    numerical rank.  The D side is folded first: the weighted QR ``NR = Qd
    T`` (``geometry.weighted_qr``, products with D only) and the SVD ``T =
    Y diag(sig) Z.T`` give ``N = K (Qd Y).T`` for ``K = NL Z diag(sig)``,
    whose q columns (``sig`` past NR's rounding, ``q <= n - r``) are all
    that E solves with.  The eigenvectors W of K's E-Gram then give ``NU =
    K W s^-1`` and ``NV = Qd Y W``.  An eigenvalue at or below ``max(m, n)
    * eps`` times the largest is the rounding of the Gram, so it sets the
    numerical rank.
    """
    metric = X.metric
    eps_dim = max(X.shape) * np.finfo(float).eps
    NR = metric.solve_D(R.right) - X.V @ (X.V.T @ R.right)
    Qd, T = geo.weighted_qr(NR, metric.products()[1])
    Y, sig, Z = numkit.svd_thin(T)
    q = int(np.count_nonzero(sig > eps_dim * sig[0]))
    if q == 0:
        return X.U[:, :0], sig[:0], X.V[:, :0]
    RZ = R.left @ (Z[:, :q] * sig[:q])
    K = -(metric.solve_E(RZ) - X.U @ (X.U.T @ RZ))
    mu, W = np.linalg.eigh(_sym(K.T @ metric.apply_E(K)))
    mu, W = mu[::-1], W[:, ::-1]
    k = min(r, int(np.count_nonzero(mu > eps_dim * max(mu[0], 0.0))))
    s, W = np.sqrt(mu[:k]), W[:, :k]
    return K @ (W / s), s, Qd @ (Y[:, :q] @ W)


def _sym(G):
    return 0.5 * (G + G.T)


def _taken_cut(op, F, state, X_cut, res, tol):
    """The evaluation at the proposed cut ``X_cut`` of the state's point X
    if the cut is taken, that is, if its exact residual is at most ``res +
    CUT_TOL_SHARE * tol``; None if it is refused.

    ``X - X_cut`` is X's dropped tail (``rank_decrease`` keeps the leading
    terms), so ``A X_cut - F = (A X - F) - A (X - X_cut)`` and the cut's
    residual is at least ``t - res`` for ``t = ||A (X - X_cut)|| / ||F||``,
    which the tail's ``l (r - r')`` columns give.  Where ``t`` exceeds
    ``2 res + CUT_TOL_SHARE * tol`` by more than the norms' rounding
    (``CUT_BOUND_SLACK``), the cut is refused without evaluating X_cut.
    """
    X, r = state.X, X_cut.r
    tail = geo.FactoredMatrix(X.U[:, r:] * X.sigma[r:], X.V[:, r:])
    t = geo.factored_norm(op.apply(tail)) / state.norm_F
    if t > 2.0 * res + CUT_TOL_SHARE * tol + CUT_BOUND_SLACK:
        return None
    ev = eqs.evaluate(op, X_cut, F)
    return ev if ev.norm / state.norm_F <= res + CUT_TOL_SHARE * tol else None


def plateau_detect(log_res_history):
    """Halt the fixed-rank phase once its steps stop paying.

    ``log_res_history`` holds the log10 exact relative residuals after
    each step of the phase (since its last accepted rank cut).  The phase
    halts once it holds at least ``MIN_PHASE_STEPS`` of them and the last
    step gained fewer than ``PLATEAU_DECADES`` decades.
    """
    return (len(log_res_history) >= MIN_PHASE_STEPS
            and log_res_history[-2] - log_res_history[-1] < PLATEAU_DECADES)


def hutchpp_residual_norm(R: geo.FactoredMatrix, budget, rng):
    """Hutch++ estimate of the Frobenius norm of a factored matrix.

    ``rram_solve`` does not call it, because its decisions read exact
    residuals; it stays a module attribute that the benchmark's tracer
    wraps by name.
    Works on the Gram operator ``v -> R^T R v`` evaluated through the
    factors; the matvec budget splits into a rank-``ceil(budget/3)``
    sketch (two matvecs per column) and Hutchinson probes on the rest.
    """
    if budget < 3:
        raise ValueError("Hutch++ needs a budget of at least 3 matvecs")
    n = R.right.shape[0]
    if R.k == 0:
        return 0.0

    def matvec(Vb):
        return R.right @ (R.left.T @ (R.left @ (R.right.T @ Vb)))

    s = int(np.ceil(budget / 3))
    n_hutch = budget - 2 * s
    S = rng.choice([-1.0, 1.0], size=(n, s))
    Q, _ = np.linalg.qr(matvec(S))
    tr = float(np.sum(matvec(Q) * Q))
    if n_hutch > 0:
        G = rng.choice([-1.0, 1.0], size=(n, n_hutch))
        G = G - Q @ (Q.T @ G)
        tr += float(np.sum(matvec(G) * G)) / n_hutch
    return float(np.sqrt(max(tr, 0.0)))


def rram_solve(op, F, opts: RramOptions, metric=None, precond=None):
    """Riemannian rank-adaptive solve; returns ``(X, trace, status)``.

    Every row holds the exact relative residual at its point.  Trace
    events: ``rank_up:r->r'``, ``rank_down:r->r'``, ``cut_refused:r->r'``
    (a proposed cut that would raise the residual by more than
    ``CUT_TOL_SHARE * tol``), the reason a phase ended (``plateau``,
    ``line_search`` or ``phase_cap``), and the status: ``converged``,
    ``max_iter``, ``stagnated`` or ``spd_loss``.  A phase also ends before
    a step at a stationary point.  A ``NotSpdError`` anywhere (a step, a
    restart, a rank increase) ends the solve with ``spd_loss``, as in
    ``rnlcg_solve``, at the last point the state accepted.  Where the rank
    cannot grow (at rank ``min(m, n)``, or with no normal direction), a
    phase that takes no step ends the solve with ``stagnated``.
    """
    trace = SolveTrace()
    metric = metric if metric is not None else geo.KroneckerMetric()
    X0 = geo.random_point(op.m, op.n, opts.r0, metric, np.random.default_rng(opts.seed))
    try:
        state = RnlcgState(op, F, opts.inner, X0, precond=precond)
    except NotSpdError:
        trace.append(iter=0, rank=X0.r)
        return trace.finish(X0, "spd_loss")

    k = 0
    res = state.res_rel()
    state.record(trace, 0, res_rel=res, res_kind="exact")
    while res > opts.tol:
        if k >= opts.max_total_iters:
            return trace.finish(state.X, "max_iter")

        # ---- fixed-rank phase -------------------------------------------
        log_hist = []
        phase_iters = 0
        while not state.stagnated():
            try:
                state.step()
            except LineSearchError:
                trace.tag_last("line_search")
                break
            except NotSpdError:
                return trace.finish(state.X, "spd_loss")
            k += 1
            phase_iters += 1
            res = state.res_rel()
            log_hist.append(np.log10(max(res, 1e-300)))
            event = ""
            X_cut = rank_decrease(state.X, EPS_SIGMA)
            if X_cut.r < state.X.r:
                cut = f"{state.X.r}->{X_cut.r}"
                ev = _taken_cut(op, F, state, X_cut, res, opts.tol)
                if ev is not None:
                    try:
                        state.restart(X_cut, ev)
                    except NotSpdError:
                        state.record(trace, k, res_rel=res, res_kind="exact")
                        return trace.finish(state.X, "spd_loss")
                    res, event, log_hist = state.res_rel(), f"rank_down:{cut}", []
                else:
                    event = f"cut_refused:{cut}"
            state.record(trace, k, res_rel=res, res_kind="exact", event=event)
            if res <= opts.tol or k >= opts.max_total_iters:
                break
            if phase_iters >= MAX_PHASE_ITERS:
                trace.tag_last("phase_cap")
                break
            if plateau_detect(log_hist):
                trace.tag_last("plateau")
                break

        # ---- rank increase ----------------------------------------------
        if res <= opts.tol or k >= opts.max_total_iters:
            continue
        r_old = state.X.r
        try:
            X_up, alpha_star = rank_increase(state.X, op, state.R, opts.r_up)
            if X_up.r > r_old:
                state.restart(X_up)
        except NotSpdError:
            return trace.finish(state.X, "spd_loss")
        if X_up.r == r_old:
            # the rank cannot grow; a phase without a step would repeat itself
            if phase_iters == 0:
                return trace.finish(state.X, "stagnated")
            continue
        k += 1
        res = state.res_rel()
        state.record(
            trace, k, res_rel=res, res_kind="exact", alpha=alpha_star,
            event=f"rank_up:{r_old}->{X_up.r}",
        )
    return trace.finish(state.X, "converged")
