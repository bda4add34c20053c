"""Truncated conjugate gradient in factored low-rank arithmetic.

Baseline for benchmark comparisons: standard PCG recurrences on the
matrix equation, with every iterate kept in factored form and
recompressed.  Truncation roles: the iterate X_k uses a relative
tolerance, the residual R_k and direction P_k a mixed absolute-relative
criterion, and Q_k = A P_k is never truncated.  The residual is updated
by the recurrence (trace rows ``recursive``); once that reaches the
tolerance, the true residual ``F - A X`` decides convergence (rows
``exact``) and, when it misses, replaces the recursive one.  The last
row of every solve holds the true residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .geometry import FactoredMatrix, factored_inner, factored_norm
from .trace import SolveTrace

_STAG_WINDOW = 25
_STAG_FACTOR = 0.98


@dataclass
class TruncationPolicy:
    """Truncation tolerances derived from the target residual ``tol``."""

    eps_rel_x: float
    eps_rel_r: float
    eps_abs_r: float
    rank_cap: int | None = None

    @classmethod
    def from_tol(cls, tol, rank_cap=None):
        return cls(
            eps_rel_x=0.0025 * tol,
            eps_rel_r=0.1 * tol,
            eps_abs_r=0.001 * tol,
            rank_cap=rank_cap,
        )

    def __post_init__(self):
        for v in (self.eps_rel_x, self.eps_rel_r, self.eps_abs_r):
            if v < 0:
                raise ValueError("tolerances must be nonnegative")

    def truncate_residual(self, Z, norm_F):
        """Recompress a residual-type factored matrix (the residual R_k, the
        direction P_k, an fADI sweep) by the mixed criterion relative to
        ``norm_F = ||F||_F``; returns ``(Z', discarded_tail)``."""
        return truncate_factored(Z, self.eps_rel_r, self.eps_abs_r, norm_F, self.rank_cap)


def truncate_factored(Z: FactoredMatrix, eps_rel, eps_abs=0.0, norm_ref=1.0, rank_cap=None):
    """Recompression of a factored matrix through its SVD
    (``geometry.weighted_svd`` in the identity metric).

    Keeps the smallest rank whose discarded tail satisfies
    ``tail <= max(eps_abs * norm_ref, eps_rel * ||Z||_F)``; a rank cap,
    when set, is applied afterwards.  Returns ``(Z', discarded_tail)``.
    """
    U, s, V = geo.weighted_svd(Z, geo.KroneckerMetric())
    norm_z = float(np.linalg.norm(s))
    thresh = max(eps_abs * norm_ref, eps_rel * norm_z)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] = ||s[k:]||
    keep = int(np.searchsorted(-tails, -thresh))    # smallest k with tails[k] <= thresh
    keep = max(keep, 1) if norm_z > 0 else 0
    if rank_cap is not None:
        keep = min(keep, rank_cap)
    discarded = float(np.linalg.norm(s[keep:]))
    out = FactoredMatrix(U[:, :keep] * s[:keep], V[:, :keep])
    return out, discarded


def truncated_cg_solve(op, F, precond, policy: TruncationPolicy, tol, max_iter):
    """Preconditioned CG with low-rank truncation; returns ``(X, trace, status)``.

    ``precond`` must provide ``apply_inv_ambient`` on factored matrices.
    Status is one of converged / max_iter / stagnated / cg_breakdown.
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

    def trunc_x(Z):
        return truncate_factored(Z, policy.eps_rel_x, 0.0, 1.0, policy.rank_cap)

    def true_residual():
        AX = op.apply(X)
        R_true = FactoredMatrix(np.hstack([F.left, -AX.left]), np.hstack([F.right, AX.right]))
        return R_true, factored_norm(R_true) / norm_F

    def stop(status):
        # every exit leaves an exact residual on the last row
        if trace.last()["res_kind"] != "exact":
            trace.update_last(res_rel=true_residual()[1], res_kind="exact")
        return trace.finish(X, status)

    R = F                                  # residual of the *equation*: F - A X
    Z = precond.apply_inv_ambient(R)
    P = Z
    res = factored_norm(R) / norm_F
    res_hist = [res]
    trace.append(
        iter=0, f=0.0, res_rel=res, res_kind="exact", rank=X.k,
        beta=0.0, alpha=0.0, backtracks=0, rank_x=X.k, rank_r=R.k, rank_p=P.k,
    )
    for k in range(1, max_iter + 1):
        Q = op.apply(P)                    # never truncated
        pq = factored_inner(P, Q)
        if pq <= 0.0:
            return stop("cg_breakdown")
        omega = factored_inner(P, R) / pq
        X, _ = trunc_x(X.hstack(P.scaled(omega)))
        R, _ = policy.truncate_residual(R.hstack(Q.scaled(-omega)), norm_F)
        res = factored_norm(R) / norm_F
        kind = "recursive"
        if res <= tol:
            R_true, res = true_residual()
            kind = "exact"
            if res > tol:
                R, _ = policy.truncate_residual(R_true, norm_F)
        res_hist.append(res)
        Z = precond.apply_inv_ambient(R)
        if kind == "exact":
            beta = 0.0                     # restart from the replaced residual
            P = Z
        else:
            # direction conjugation is robust to truncation drift (equals the
            # usual <R,Z> ratio in exact arithmetic)
            beta = -factored_inner(Z, Q) / pq
            P, _ = policy.truncate_residual(Z.hstack(P.scaled(beta)), norm_F)
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
    return stop("max_iter")
