"""Truncated conjugate gradient in factored low-rank arithmetic.

Baseline for benchmark comparisons: standard PCG recurrences on the
matrix equation, with every iterate kept in factored form and
recompressed.  Every recompression is relative to the norm of the
quantity it truncates (Kressner & Tobler 2011): the iterate X_k at
``X_TOL_SHARE * tol``, the residual R_k, the direction P_k and the fADI
sweeps at ``R_TOL_SHARE * tol``, and Q_k = A P_k is never truncated.
The residual is updated by the recurrence (trace rows ``recursive``);
once that reaches the tolerance, the true residual ``F - A X`` decides
convergence (rows ``exact``) and, when it misses, replaces the recursive
one.  The last row of every solve holds the true residual.
"""

from __future__ import annotations

import numpy as np

from . import equations as eqs
from . import geometry as geo
from .geometry import FactoredMatrix, factored_inner, factored_norm
from .numkit import NotSpdError
from .trace import SolveTrace

# Relative truncation tolerances, as shares of the target residual ``tol``.
X_TOL_SHARE = 0.0025
R_TOL_SHARE = 0.1
_STAG_WINDOW = 25
_STAG_FACTOR = 0.98


def truncate_factored(Z: FactoredMatrix, eps_rel):
    """Recompression of a factored matrix through its SVD
    (``geometry.weighted_svd`` in the identity metric).

    Keeps the smallest rank whose discarded tail satisfies
    ``tail <= eps_rel * ||Z||_F``.  Returns ``(Z', discarded_tail)``.
    """
    U, s, V = geo.weighted_svd(Z, geo.KroneckerMetric())
    norm_z = float(np.linalg.norm(s))
    thresh = eps_rel * norm_z
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] = ||s[k:]||
    keep = int(np.searchsorted(-tails, -thresh))    # smallest k with tails[k] <= thresh
    keep = max(keep, 1) if norm_z > 0 else 0
    discarded = float(np.linalg.norm(s[keep:]))
    out = FactoredMatrix(U[:, :keep] * s[:keep], V[:, :keep])
    return out, discarded


def truncate_residual(Z: FactoredMatrix, tol):
    """Recompress a residual-type factored matrix (the residual R_k, the
    direction P_k, an fADI sweep) to ``R_TOL_SHARE * tol`` of its own norm."""
    return truncate_factored(Z, R_TOL_SHARE * tol)[0]


def truncated_cg_solve(op, F, precond, tol, max_iter):
    """Preconditioned CG with low-rank truncation; returns ``(X, trace, status)``.

    ``precond`` must provide ``apply_inv_ambient`` on factored matrices.
    Status is one of converged / max_iter / stagnated / spd_loss.  A
    nonpositive curvature ``<P, A P>`` means the operator or the
    preconditioner is not SPD; it, or a ``NotSpdError`` from the
    preconditioner, ends the solve with ``spd_loss`` at the point of the
    last row, X = 0 if the first apply raises.
    """
    trace = SolveTrace(extra_columns=("rank_x", "rank_r", "rank_p"))
    m, n = op.m, op.n
    X = FactoredMatrix.zero(m, n)
    norm_F = factored_norm(F)
    if norm_F == 0.0:
        trace.append(
            iter=0, f=0.0, res_rel=0.0, res_kind="exact", rank=0,
            beta=0.0, alpha=0.0, backtracks=0, rank_x=0, rank_r=0, rank_p=0,
        )
        return trace.finish(X, "converged")

    def true_residual(X):
        trace.counts["evaluations"] += 1
        R_true = eqs.residual(op, X, F)    # A X - F
        return R_true, factored_norm(R_true) / norm_F

    def precondition(R):
        trace.counts["gradients"] += 1
        return precond.apply_inv_ambient(R)

    def stop(status):
        # every exit leaves an exact residual on the last row, at X
        if trace.last()["res_kind"] != "exact":
            trace.update_last(res_rel=true_residual(X)[1], res_kind="exact")
        return trace.finish(X, status)

    R = F                                  # residual of the *equation*: F - A X
    res = factored_norm(R) / norm_F
    res_hist = [res]
    trace.append(
        iter=0, f=0.0, res_rel=res, res_kind="exact", rank=X.k,
        beta=0.0, alpha=0.0, backtracks=0, rank_x=X.k, rank_r=R.k,
    )
    try:
        P = precondition(R)
        trace.update_last(rank_p=P.k)
        for k in range(1, max_iter + 1):
            Q = op.apply(P)                # never truncated
            pq = factored_inner(P, Q)
            if pq <= 0.0:
                raise NotSpdError(f"nonpositive curvature <P, A P> = {pq:.3e}")
            omega = factored_inner(P, R) / pq
            X_k, _ = truncate_factored(X.hstack(P.scaled(omega)), X_TOL_SHARE * tol)
            R = truncate_residual(R.hstack(Q.scaled(-omega)), tol)
            res = factored_norm(R) / norm_F
            kind = "recursive"
            if res <= tol:
                R_true, res = true_residual(X_k)
                kind = "exact"
                if res > tol:
                    R = truncate_residual(R_true.scaled(-1.0), tol)
            res_hist.append(res)
            Z = precondition(R)
            if kind == "exact":
                beta = 0.0                 # restart from the replaced residual
                P = Z
            else:
                # direction conjugation is robust to truncation drift (equals
                # the usual <R,Z> ratio in exact arithmetic)
                beta = -factored_inner(Z, Q) / pq
                P = truncate_residual(Z.hstack(P.scaled(beta)), tol)
            X = X_k
            trace.append(
                iter=k, f="", res_rel=res, res_kind=kind, rank=X.k,
                beta=beta, alpha=omega, backtracks=0, rank_x=X.k, rank_r=R.k, rank_p=P.k,
            )
            if res <= tol:
                return trace.finish(X, "converged")
            if len(res_hist) > 2 * _STAG_WINDOW:
                recent = min(res_hist[-_STAG_WINDOW:])
                before = min(res_hist[: -_STAG_WINDOW])
                if recent >= _STAG_FACTOR * before:
                    return stop("stagnated")
    except NotSpdError:
        return stop("spd_loss")
    return stop("max_iter")
