"""Rank-adaptive outer loop around fixed-rank R-NLCG.

Alternates fixed-rank optimization phases with rank updates, and makes
every decision on the exact relative residual, which each step's trace
row records.  A phase ends once its last step gains too little (a
plateau), or, when a rank increase opened it, after a first step that
gains less than ``FLOOR_SHARE`` of that increase: the rank has then
reached its floor, and the next increase pays more than another step.
The rank then grows along an exact line search in the truncated normal
component of the negative gradient, by at least ``r_up`` directions (fewer
only where the component's numerical rank or the room left to ``min(m,
n)`` is smaller) and by every further direction whose weighted singular
value is at least ``UP_SHARE`` times the largest.  A rank cut, proposed
where the iterate loses numerical rank, is taken only when it raises the
exact relative residual by at most ``CUT_TOL_SHARE * tol`` (0.1 tol).
That bound is all the rule guarantees: it does not keep a cut from taking
back directions a rank increase has just added.
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
MIN_PHASE_STEPS = 3       # a phase ends on a slow step only after this many steps
PLATEAU_DECADES = 0.05    # a phase ends once a step gains fewer decades than this
FLOOR_SHARE = 0.1         # ... or a first step gains less than this share of the rank increase
UP_SHARE = 0.5            # ... and keeps every normal direction with sigma_i >= this * sigma_1
MAX_PHASE_ITERS = 200     # R-NLCG steps in one fixed-rank phase at most


@dataclass
class RramOptions:
    r0: int = 3
    r_up: int = 3
    tol: float = 1e-6
    max_total_iters: int = 500
    seed: int = 0
    inner: RnlcgOptions | None = None   # unread; bench/workloads.py still passes it

    def __post_init__(self):
        check_int("r0", self.r0, 1)
        check_int("r_up", self.r_up, 1)
        check_int("max_total_iters", self.max_total_iters, 0)
        check_int("seed", self.seed, 0)
        check_positive("tol", self.tol)


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
    rank ``max(min(r_up, k), #{i : s_i >= UP_SHARE * s_1})``, where ``k``
    is the component's numerical rank capped by the room left to ``min(m,
    n)`` and ``s`` its weighted singular values, so ``r_up`` is the
    smallest increase, not the largest.  It takes the exact line-search
    step ``alpha`` along that direction Y and returns ``(X_up, alpha, AY,
    order)``: the grown point ``X_up = X + alpha Y``, whose new singular
    values are ``|alpha| s_i``, with ``AY = op.apply(Y)`` and ``order``,
    X_up's columns as indices into ``[X, Y]``, which its evaluation reuses
    (``equations.evaluate_grown``).  The truncation
    (``_leading_normal_directions``) solves with E and D, takes one
    weighted QR on the D side and no weighted SVD.  With no room or no
    normal direction it returns ``(X, 0.0, None, None)``; a nonpositive
    curvature ``<A Y, Y>`` along Y raises ``NotSpdError``.
    """
    NU, s_N, NV = _leading_normal_directions(X, R)
    if s_N.size == 0:
        return X, 0.0, None, None
    k = max(min(r_up, s_N.size), int(np.count_nonzero(s_N >= UP_SHARE * s_N[0])))
    NU, s_N, NV = NU[:, :k], s_N[:k], NV[:, :k]
    Y = geo.FactoredMatrix(NU * s_N, NV)
    AY = op.apply(Y)
    den = geo.factored_inner(AY, Y)
    if den <= 0.0:
        raise NotSpdError(f"nonpositive curvature <A Y, Y> = {den:.3e}")
    alpha = -geo.factored_inner(R, Y) / den
    # combined factors stay E-/D-orthonormal because Y is B-normal to T_X
    U_all = np.hstack([X.U, -NU if alpha < 0 else NU])
    V_all = np.hstack([X.V, NV])
    s_all = np.concatenate([X.sigma, abs(alpha) * s_N])
    order = np.argsort(-s_all)
    X_up = geo.FixedRankPoint(U_all[:, order], s_all[order], V_all[:, order], X.metric)
    return X_up, alpha, AY, order


def _leading_normal_directions(X, R):
    """The terms ``(NU, s, NV)``, by decreasing ``s``, of the weighted SVD
    of the normal component of ``-B^{-1} R`` at X,

        N = -(E^{-1} - U U.T) R_L [(D^{-1} - V V.T) R_R].T = NL NR.T,

    with ``NU.T E NU = I`` and ``NV.T D NV = I``: every term above N's
    numerical rank, at most as many as the room ``min(m, n) - r`` left at
    X (none where there is none).  The D side is folded first: the
    weighted QR ``NR = Qd T`` (``geometry.weighted_qr``, products with D
    only) and the SVD ``T = Y diag(sig) Z.T`` give ``N = K (Qd Y).T`` for
    ``K = NL Z diag(sig)``, whose q columns (``sig`` past NR's rounding,
    ``q <= n - r``) are all that E solves with.  The eigenvectors W of K's
    E-Gram then give ``NU = K W s^-1`` and ``NV = Qd Y W``.  An eigenvalue
    at or below ``max(m, n) * eps`` times the largest is the rounding of
    the Gram, so it sets the numerical rank.
    """
    metric = X.metric
    room = min(X.shape) - X.r
    if room == 0:
        return X.U[:, :0], X.sigma[:0], X.V[:, :0]
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
    k = min(room, int(np.count_nonzero(mu > eps_dim * max(mu[0], 0.0))))
    s, W = np.sqrt(mu[:k]), W[:, :k]
    return K @ (W / s), s, Qd @ (Y[:, :q] @ W)


def _sym(G):
    return 0.5 * (G + G.T)


def _taken_cut(state, X_cut, res, tol):
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
    t = geo.factored_norm(state.op.apply(tail)) / state.norm_F
    if t > 2.0 * res + CUT_TOL_SHARE * tol + CUT_BOUND_SLACK:
        return None
    ev = state.evaluate(X_cut)
    return ev if ev.norm / state.norm_F <= res + CUT_TOL_SHARE * tol else None


def plateau_detect(log_res_history, log_res_start=None, gain_up=None):
    """Halt the fixed-rank phase once its steps stop paying.

    ``log_res_history`` holds the log10 exact relative residuals after
    each step of the phase (since its last accepted rank cut).  The phase
    halts once it holds at least ``MIN_PHASE_STEPS`` of them and the last
    step gained fewer than ``PLATEAU_DECADES`` decades.

    ``gain_up`` is the gain in decades of the rank increase that opened
    the phase, which starts at the log10 residual ``log_res_start``; it is
    None for a phase that no rank increase opened (the first one, one
    after an accepted cut, one after an increase that could not grow).
    A phase that a rank increase opened also halts after its first step
    if that step gained g decades with ``0 <= g < FLOOR_SHARE * gain_up``:
    the increase already reached the new rank's floor, and the next one,
    if it gains as much, pays ten times more than another step.  A first
    step that raised the residual does not halt it.
    """
    if gain_up is not None and len(log_res_history) == 1:
        g = log_res_start - log_res_history[0]
        if 0.0 <= g < FLOOR_SHARE * gain_up:
            return True
    return (len(log_res_history) >= MIN_PHASE_STEPS
            and log_res_history[-2] - log_res_history[-1] < PLATEAU_DECADES)


def _sig_ratio(X):
    return float(X.sigma[-1] / X.sigma[0])


def _log_res(res):
    return np.log10(max(res, 1e-300))


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

    Every row holds the exact relative residual at its point, and in the
    RRAM-only column ``sig_ratio`` the point's ``sigma_r / sigma_1``.  Trace
    events: ``rank_up:r->r'``, ``rank_down:r->r'``, ``cut_refused:r->r'``
    (a proposed cut that would raise the residual by more than
    ``CUT_TOL_SHARE * tol``), the reason a phase ended (``plateau``,
    ``line_search`` or ``phase_cap``), and the status: ``converged``,
    ``max_iter``, ``stagnated`` or ``spd_loss``.  A phase also ends before
    a step at a stationary point.  Where the rank cannot grow (at rank
    ``min(m, n)``, or with no normal direction), a phase that takes no
    step ends the solve with ``stagnated``.

    Every point gets its row first; its gradient and preconditioner apply
    come after, and only where a step leaves from it: the point that ends
    a phase before a rank increase, or ends the solve, is read only
    through its evaluation, whose residual the increase takes.  A
    ``NotSpdError`` anywhere (a step, a gradient, a rank increase) ends the
    solve with ``spd_loss`` at the point of its last row, as in
    ``rnlcg_solve``: a taken cut's or a grown point whose gradient fails
    ends it there, with its exact residual on that row.  The grown point's
    evaluation comes from the evaluation at X and the increase's products
    (``equations.evaluate_grown``), never from a fresh ``evaluate``.
    """
    trace = SolveTrace(extra_columns=("sig_ratio",))
    metric = metric if metric is not None else geo.KroneckerMetric()
    X0 = geo.random_point(op.m, op.n, opts.r0, metric, np.random.default_rng(opts.seed))
    state = RnlcgState(op, F, X0, precond=precond, counts=trace.counts)

    def fields(res, **more):
        return dict(res_rel=res, res_kind="exact", sig_ratio=_sig_ratio(state.X), **more)

    k, res = 0, state.res_rel()
    state.record(trace, 0, **fields(res))
    gain_up = None      # decades gained by the rank increase that opened the phase
    try:
        while res > opts.tol:
            if k >= opts.max_total_iters:
                return trace.finish(state.X, "max_iter")

            # ---- fixed-rank phase ---------------------------------------
            log_start, log_hist = _log_res(res), []
            phase_iters, end = 0, ""
            while not end and not state.stagnated():
                try:
                    state.step()
                except LineSearchError:
                    trace.tag_last("line_search")
                    break
                k += 1
                phase_iters += 1
                res = state.res_rel()
                log_hist.append(_log_res(res))
                event = ""
                X_cut = rank_decrease(state.X, EPS_SIGMA)
                if X_cut.r < state.X.r:
                    cut = f"{state.X.r}->{X_cut.r}"
                    ev = _taken_cut(state, X_cut, res, opts.tol)
                    if ev is None:
                        event = f"cut_refused:{cut}"
                    else:
                        state.restart(X_cut, ev)
                        res, event, log_hist = state.res_rel(), f"rank_down:{cut}", []
                        gain_up = None
                state.record(trace, k, **fields(res, event=event))
                end = ("solve" if res <= opts.tol or k >= opts.max_total_iters
                       else "phase_cap" if phase_iters >= MAX_PHASE_ITERS
                       else "plateau" if plateau_detect(log_hist, log_start, gain_up)
                       else "")
            if end == "solve":
                continue
            if end:
                trace.tag_last(end)

            # ---- rank increase ------------------------------------------
            r_old = state.X.r
            gain_up = None      # unless the rank grows
            X_up, alpha_star, AY, order = rank_increase(state.X, op, state.R, opts.r_up)
            if X_up.r == r_old:
                # the rank cannot grow; a phase without a step would repeat
                # itself, and the next one's `stagnated` forms the gradient
                if phase_iters == 0:
                    return trace.finish(state.X, "stagnated")
                continue
            state.restart(X_up, eqs.evaluate_grown(F, state.ev, X_up, order, alpha_star, AY))
            k += 1
            res_before, res = res, state.res_rel()
            gain_up = _log_res(res_before) - _log_res(res)
            event = f"rank_up:{r_old}->{X_up.r}"
            state.record(trace, k, **fields(res, alpha=alpha_star, event=event))
    except NotSpdError:
        return trace.finish(state.X, "spd_loss")
    return trace.finish(state.X, "converged")
