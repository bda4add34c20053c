"""Rank-adaptive outer loop around fixed-rank R-NLCG.

Alternates fixed-rank optimization episodes with rank updates: the rank
drops when the iterate loses numerical rank, and grows by
``r_up`` along an exact line search in the truncated normal component of
the negative gradient once the residual plateaus.  Plateaus are detected
on cheap Hutch++ residual-norm estimates; convergence decisions always
use the exact factored-QR residual norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equations as eqs
from . import geometry as geo
from .solver_rnlcg import SPD_LOSS, LineSearchError, RnlcgOptions, RnlcgState
from .trace import SolveTrace

EPS_SIGMA = 1e-8          # numerical-rank threshold of the rank decrease
PLATEAU_FACT = 0.75       # plateau when the recent slope is this share of the mean
HUTCH_BUDGET = 5          # Hutch++ matvecs per residual estimate
MAX_PHASE_ITERS = 200     # R-NLCG steps in one fixed-rank phase at most


@dataclass
class RramOptions:
    r0: int = 3
    r_up: int = 3
    tol: float = 1e-6
    w_len: int = 3
    max_total_iters: int = 500
    seed: int = 0
    inner: RnlcgOptions | None = None

    def __post_init__(self):
        if self.w_len < 2:
            raise ValueError("w_len must be >= 2")
        if self.inner is None:
            self.inner = RnlcgOptions(rank=self.r0, tol=self.tol, seed=self.seed)


def rank_decrease_trigger(sigma, eps_sigma):
    s2 = sigma**2
    return s2[-1] / s2.sum() < eps_sigma**2


def rank_decrease(X: geo.FixedRankPoint, eps_sigma):
    """Truncate away the trailing singular values that fail the
    numerical-rank test ``sigma_k^2 / sum(sigma^2) >= eps_sigma^2``.

    Returns ``(X', r_minus)``; a no-op when the trigger condition fails.
    Keeping exactly the values that pass the trigger's own test follows
    the intent of the rank-decrease step; all-below-threshold input is
    clamped to rank one.
    """
    sigma = X.sigma
    if not rank_decrease_trigger(sigma, eps_sigma):
        return X, X.r
    mask = sigma**2 / np.sum(sigma**2) >= eps_sigma**2
    r_minus = int(np.max(np.nonzero(mask)[0]) + 1) if np.any(mask) else 1
    X2 = geo.FixedRankPoint(
        X.U[:, :r_minus], X.sigma[:r_minus].copy(), X.V[:, :r_minus], X.metric
    )
    return X2, r_minus


def rank_increase(X, op, F, r_up, rng):
    """Warm start on the larger manifold by a normal-direction correction.

    Truncates the normal component of ``B^{-1}(F - A X)`` to rank
    ``r_up`` (padding with random B-normal directions if its rank is
    smaller), takes the exact line-search step along it, and returns a
    rank ``r + r_up`` point together with the step length.
    """
    metric = X.metric
    R = eqs.residual(op, X, F)
    # normal component of the negative preconditioned gradient:
    # -(E^{-1} - U U^T) R_L [(D^{-1} - V V^T) R_R]^T
    NL = -(metric.solve_E(R.left) - X.U @ (X.U.T @ R.left))
    NR = metric.solve_D(R.right) - X.V @ (X.V.T @ R.right)
    U_n, s_n, V_n = geo.weighted_svd(geo.FactoredMatrix(NL, NR), metric)
    k = geo._numerical_rank(s_n, *X.shape)
    keep = min(r_up, k)
    U_n, s_n, V_n = U_n[:, :keep], s_n[:keep], V_n[:, :keep]
    if keep < r_up:
        U_n, s_n, V_n = _pad_normal_directions(X, U_n, s_n, V_n, r_up - keep, rng)
    Y = geo.FactoredMatrix(U_n * s_n, V_n)
    den = geo.factored_inner(op.apply(Y), Y)
    num = -geo.factored_inner(R, Y)
    alpha = num / den if den > 0 else 0.0
    sig_new = alpha * s_n
    U_new = U_n.copy()
    flip = sig_new < 0
    if np.any(flip):
        sig_new = np.abs(sig_new)
        U_new[:, flip] = -U_new[:, flip]
    # combined factors stay E-/D-orthonormal because Y is B-normal to T_X
    U_all = np.hstack([X.U, U_new])
    V_all = np.hstack([X.V, V_n])
    s_all = np.concatenate([X.sigma, sig_new])
    order = np.argsort(-s_all)
    s_all = s_all[order]
    floor = geo.SIGMA_FLOOR_FACTOR * (s_all[0] if s_all[0] > 0 else 1.0)
    s_all = np.maximum(s_all, floor)
    return geo.FixedRankPoint(U_all[:, order], s_all, V_all[:, order], metric), alpha


def _pad_normal_directions(X, U_n, s_n, V_n, extra, rng):
    """Extend (U_n, V_n) with random directions B-orthogonal to the tangent
    space and to the existing columns; padded singular values are tiny."""
    metric = X.metric
    m, n = X.shape

    def orth_block(base_U, gen_dim, apply_W, fact):
        G = rng.standard_normal((gen_dim, extra))
        W_base = apply_W(base_U)
        for _ in range(2):  # twice for numerical safety
            G = G - base_U @ (W_base.T @ G)
            Q, _ = geo.weighted_qr(G, fact)
            G = Q
        return G

    base_U = np.hstack([X.U, U_n])
    base_V = np.hstack([X.V, V_n])
    GU = orth_block(base_U, m, metric.apply_E, metric.fact_E)
    GV = orth_block(base_V, n, metric.apply_D, metric.fact_D)
    scale = s_n[0] * 1e-8 if s_n.size else X.sigma[-1] * 1e-8
    return (
        np.hstack([U_n, GU]),
        np.concatenate([s_n, np.full(extra, scale)]),
        np.hstack([V_n, GV]),
    )


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


def rram_solve(op, F, opts: RramOptions, metric=None, precond=None, X0=None):
    """Riemannian rank-adaptive solve; returns ``(X, trace, status)``.

    Trace events: ``rank_up:r->r'``, ``rank_down:r->r'``, ``plateau``,
    ``converged``, ``max_iter``.
    """
    trace = SolveTrace()
    rng = np.random.default_rng(opts.seed)
    metric = metric if metric is not None else geo.KroneckerMetric.identity(op.m, op.n)
    if X0 is None:
        X0 = geo.random_point(op.m, op.n, opts.r0, metric, rng)
    state = RnlcgState(op, F, opts.inner, metric=metric, precond=precond, X0=X0)

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
            if rank_decrease_trigger(state.X.sigma, EPS_SIGMA):
                X2, r_minus = rank_decrease(state.X, EPS_SIGMA)
                event = f"rank_down:{state.X.r}->{r_minus}"
                state.restart(X2)
                log_hist = []
            state.record(trace, k, res_rel=est, res_kind="hutchpp", event=event)
            if k >= opts.max_total_iters or phase_iters >= MAX_PHASE_ITERS or state.stagnated():
                break
            if plateau_detect(log_hist, opts.w_len, PLATEAU_FACT):
                trace.tag_last("plateau")
                break

        # ---- exact residual and rank increase ---------------------------
        res = state.res_rel()
        trace.update_last(res_rel=res, res_kind="exact")
        if res <= opts.tol or k >= opts.max_total_iters:
            continue
        X_up, alpha_star = rank_increase(state.X, op, F, opts.r_up, rng)
        k += 1
        state.restart(X_up)
        res = state.res_rel()
        state.record(
            trace, k, res_rel=res, res_kind="exact", alpha=alpha_star,
            event=f"rank_up:{X_up.r - opts.r_up}->{X_up.r}",
        )
    return trace.finish(state.X, "converged")
