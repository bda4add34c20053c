"""Rank-adaptive outer loop around fixed-rank R-NLCG.

Alternates fixed-rank optimization episodes with rank updates: the rank
drops when the iterate loses numerical rank, and grows by at most
``r_up`` along an exact line search in the truncated normal component of
the negative gradient once the residual plateaus.  Plateaus are detected
on cheap Hutch++ residual-norm estimates; convergence decisions always
use the exact factored-QR residual norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .solver_rnlcg import (
    SPD_LOSS, LineSearchError, RnlcgOptions, RnlcgState, check_int, check_positive,
)
from .trace import SolveTrace

EPS_SIGMA = 1e-8          # numerical-rank threshold of the rank decrease
PLATEAU_FACT = 0.75       # plateau when the recent slope is this share of the mean
W_LEN = 3                 # residual estimates in the plateau test's recent window
TOL_EXIT_FACT = 0.5       # phase ends when the Hutch++ estimate is this share of tol
HUTCH_BUDGET = 5          # Hutch++ matvecs per residual estimate
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

    Returns ``(X', r_minus)``: ``(X, r)`` when the last singular value
    passes the test, else the point cut after the last value that passes
    (rank one when none does), so ``r_minus < r``.
    """
    share = X.sigma**2 / np.sum(X.sigma**2)
    if not share[-1] < eps_sigma**2:
        return X, X.r
    mask = share >= eps_sigma**2
    r_minus = int(np.max(np.nonzero(mask)[0]) + 1) if np.any(mask) else 1
    X2 = geo.FixedRankPoint(
        X.U[:, :r_minus], X.sigma[:r_minus].copy(), X.V[:, :r_minus], X.metric
    )
    return X2, r_minus


def rank_increase(X, op, R, r_up):
    """Warm start on the larger manifold by a normal-direction correction.

    Truncates the normal component of ``-B^{-1} R`` for the residual
    ``R = A X - F`` at X (``RnlcgState.R``) to its best approximation of
    rank ``min(r_up, room, k)``, where ``room`` is what is left to
    ``min(m, n)`` and ``k`` is the component's numerical rank, takes the
    exact line-search step along it, and returns the grown point together
    with the step length.  With no room or no normal direction it returns
    ``(X, 0.0)``.
    """
    metric = X.metric
    m, n = X.shape
    room = min(m, n) - X.r
    if room == 0:
        return X, 0.0
    # R has rank at most min(m, n); with more columns than that, the solves
    # and the truncation run on the product against an identity factor
    if R.k > min(m, n):
        R = (geo.FactoredMatrix(R.left @ R.right.T, np.eye(n)) if n <= m
             else geo.FactoredMatrix(np.eye(m), R.right @ R.left.T))
    # normal component of the negative preconditioned gradient:
    # -(E^{-1} - U U^T) R_L [(D^{-1} - V V^T) R_R]^T
    NL = -(metric.solve_E(R.left) - X.U @ (X.U.T @ R.left))
    NR = metric.solve_D(R.right) - X.V @ (X.V.T @ R.right)
    N = geo.truncate(geo.FactoredMatrix(NL, NR), min(r_up, room), metric)
    if N.r == 0:
        return X, 0.0
    Y = N.as_factored()
    den = geo.factored_inner(op.apply(Y), Y)
    num = -geo.factored_inner(R, Y)
    alpha = num / den if den > 0 else 0.0
    # combined factors stay E-/D-orthonormal because Y is B-normal to T_X
    U_all = np.hstack([X.U, -N.U if alpha < 0 else N.U])
    V_all = np.hstack([X.V, N.V])
    s_all = np.concatenate([X.sigma, abs(alpha) * N.sigma])
    order = np.argsort(-s_all)
    s_all = s_all[order]
    floor = geo.SIGMA_FLOOR_FACTOR * (s_all[0] if s_all[0] > 0 else 1.0)
    s_all = np.maximum(s_all, floor)
    return geo.FixedRankPoint(U_all[:, order], s_all, V_all[:, order], metric), alpha


def window_slope(values):
    """Least-squares slope of values against 0..len-1."""
    k = len(values)
    x = np.arange(k, dtype=float)
    return float(np.polyfit(x, np.asarray(values, dtype=float), 1)[0])


def plateau_detect(log_res_history, w_len, fact):
    """Halt the fixed-rank phase when the recent slope flattens out.

    ``log_res_history`` holds log10 residual estimates at the current
    rank.  With fewer than ``w_len + 1`` samples the phase never halts;
    otherwise it halts when the least-squares slope over the last
    ``w_len`` samples is >= ``fact`` times the mean slope over the whole
    same-rank history (both negative while converging).
    """
    if len(log_res_history) < w_len + 1:
        return False
    recent = window_slope(log_res_history[-w_len:])
    mean = (log_res_history[-1] - log_res_history[0]) / (len(log_res_history) - 1)
    return recent >= fact * mean


def hutchpp_residual_norm(R: geo.FactoredMatrix, budget, rng):
    """Hutch++ estimate of the Frobenius norm of a factored matrix.

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

    Trace events: ``rank_up:r->r'``, ``rank_down:r->r'``, ``plateau``,
    ``converged``, ``max_iter``, ``stagnated``, ``spd_loss``.  Where the rank
    cannot grow (at rank ``min(m, n)``, or with no normal direction), a
    phase that takes no step ends the solve with ``stagnated``.
    """
    trace = SolveTrace()
    rng = np.random.default_rng(opts.seed)
    metric = metric if metric is not None else geo.KroneckerMetric()
    X0 = geo.random_point(op.m, op.n, opts.r0, metric, rng)
    try:
        state = RnlcgState(op, F, opts.inner, X0, precond=precond)
    except SPD_LOSS:
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
        while True:
            try:
                state.step()
            except (LineSearchError, *SPD_LOSS):
                break
            k += 1
            phase_iters += 1
            est = hutchpp_residual_norm(state.R, HUTCH_BUDGET, rng) / state.norm_F
            log_hist.append(np.log10(max(est, 1e-300)))
            event = ""
            X2, r_minus = rank_decrease(state.X, EPS_SIGMA)
            if r_minus < state.X.r:
                event = f"rank_down:{state.X.r}->{r_minus}"
                try:
                    state.restart(X2)
                except SPD_LOSS:
                    state.record(trace, k, res_rel=est, res_kind="hutchpp")
                    return trace.finish(state.X, "spd_loss")
                log_hist = []
            state.record(trace, k, res_rel=est, res_kind="hutchpp", event=event)
            if k >= opts.max_total_iters or phase_iters >= MAX_PHASE_ITERS or state.stagnated():
                break
            # the exact residual decides convergence once the estimate is near tol
            if est <= TOL_EXIT_FACT * opts.tol:
                break
            if plateau_detect(log_hist, W_LEN, PLATEAU_FACT):
                trace.tag_last("plateau")
                break

        # ---- exact residual and rank increase ---------------------------
        res = state.res_rel()
        trace.update_last(res_rel=res, res_kind="exact")
        if res <= opts.tol or k >= opts.max_total_iters:
            continue
        r_old = state.X.r
        X_up, alpha_star = rank_increase(state.X, op, state.R, opts.r_up)
        if X_up.r == r_old:
            # the rank cannot grow; a phase without a step would repeat itself
            if phase_iters == 0:
                return trace.finish(state.X, "stagnated")
            continue
        try:
            state.restart(X_up)
        except SPD_LOSS:
            return trace.finish(state.X, "spd_loss")
        k += 1
        res = state.res_rel()
        state.record(
            trace, k, res_rel=res, res_kind="exact", alpha=alpha_star,
            event=f"rank_up:{r_old}->{X_up.r}",
        )
    return trace.finish(state.X, "converged")
