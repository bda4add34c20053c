"""Preconditioned Riemannian nonlinear CG on the fixed-rank manifold.

One iteration: Riemannian gradient of the quadratic objective, one
application of the preconditioner inverse (both taken only at a point a
step leaves from, after its trace row), a modified Hestenes-Stiefel /
Dai-Yuan beta with a descent safeguard, an exact-line-search initial step
on the tangent space, and Armijo backtracking through the metric
projection retraction.  Where the operator or the preconditioner stops
being SPD (``NotSpdError``), the solve ends with ``spd_loss`` at the point
of its last trace row.

X, the tangent line X + t xi and every retracted trial point lie in the
subspace ``span(QU) x span(QV)`` of the retraction's weighted QRs of
``[U, Up]`` and ``[V, Vp]``.  Once per iteration the operator's terms are
projected onto it as 2r x 2r blocks (``equations.ProjectedObjective``);
``A_i U`` and ``B_i V`` come from the factored residual at X, so the
only new sparse products are ``A_i`` and ``B_i`` on the at most r columns
the QRs add.  The exact step and the Armijo test of every trial are then
small-matrix algebra, and the accepted point ``QU u diag(s) (QV v).T`` is
evaluated once, which gives the next residual; its blocks ``U.T A_i U =
u.T G_i u`` and ``V.T B_i V = v.T K_i v`` come from the projected terms.
"""

from __future__ import annotations

import collections
import numbers
from dataclasses import dataclass

import numpy as np

from . import equations as eqs
from . import geometry as geo
from . import numkit
from .precond import IdentityPrecond
from .trace import SolveTrace

_BETA_DEN_GUARD = 1e-14
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 25
STAG_GRAD_TOL = 1e-13


class LineSearchError(RuntimeError):
    pass


@dataclass
class RnlcgOptions:
    rank: int
    max_iters: int = 500
    tol: float = 1e-6
    check_every: int = 1
    seed: int = 0

    def __post_init__(self):
        check_int("rank", self.rank, 1)
        check_int("max_iters", self.max_iters, 0)
        check_int("check_every", self.check_every, 1)
        check_int("seed", self.seed, 0)
        check_positive("tol", self.tol)


def check_int(name, value, minimum):
    """Raise ``ValueError`` naming the option unless ``value`` is an
    integer ``>= minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive(name, value):
    """Raise ``ValueError`` naming the option unless ``value`` is a number > 0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not value > 0:
        raise ValueError(f"{name} must be a number > 0, got {value!r}")


def search_direction(g, h, prev=None):
    """Combine the preconditioned gradient with the transported history.

    ``prev`` is None on the first iteration, else a tuple
    ``(T_xi, T_h, prev_g_xi)`` of the previous direction and
    preconditioned gradient transported to the current point, and
    ``<g_{k-1}, xi_{k-1}>``.  Returns ``(xi, beta, reset)``.
    """
    g_h = geo.inner(g, h)
    if prev is None:
        return h.scaled(-1.0), 0.0, False
    T_xi, T_h, prev_g_xi = prev
    den = geo.inner(g, T_xi) - prev_g_xi
    num_hs = g_h - geo.inner(g, T_h)
    if abs(den) < _BETA_DEN_GUARD * max(abs(num_hs), abs(g_h), 1e-300):
        beta = 0.0
    else:
        beta = max(0.0, min(num_hs / den, g_h / den))
    if beta == 0.0:
        return h.scaled(-1.0), 0.0, False
    xi = h.scaled(-1.0).plus(T_xi, beta).retangentialize()
    if geo.inner(h, xi) >= 0.0:
        return h.scaled(-1.0), beta, True
    return xi, beta, False


def initial_step(model, g, xi):
    """Exact minimizer of ``t -> f(X + t xi)`` along the tangent line.

    ``X + t xi`` stays in the subspace of ``model`` (an
    ``equations.ProjectedObjective`` at X along xi), so the denominator
    ``<A xi, xi> = sum_i tr(xi_core.T G_i xi_core K_i)`` comes from its
    small blocks; it must be positive for an SPD operator.
    """
    den = model.curvature(model.retr.xi_core)
    if den <= 0.0:
        raise numkit.NotSpdError(f"nonpositive curvature <A xi, xi> = {den:.3e}")
    return -geo.inner(g, xi) / den


def armijo_backtrack(model, xi, alpha_bar, g):
    """First ``alpha = alpha_bar * ARMIJO_SHRINK^j`` passing the Armijo test.

    Each trial is a core of the retraction in ``model``'s subspace, scored
    by the decrease ``f(X_t) - f(X) = <R_X, D> + 1/2 <A D, D>`` computed
    from the small blocks, not as a difference of two values of f, so the
    test resolves decreases far below the rounding error of f.
    Returns ``(alpha, core, backtracks, decrease)`` for the accepted
    trial, whose point is ``model.retr.point(*core)``.
    """
    g_xi = geo.inner(g, xi)
    if g_xi >= 0.0:
        raise LineSearchError("search direction is not a descent direction")
    slope_term = ARMIJO_SLOPE * g_xi
    alpha = alpha_bar
    for j in range(MAX_BACKTRACKS + 1):
        u, s, v = model.retr.at(alpha)
        df = model.decrease((u * s) @ v.T)
        if df <= alpha * slope_term:
            return alpha, (u, s, v), j, df
        alpha *= ARMIJO_SHRINK
    raise LineSearchError(
        f"Armijo backtracking exhausted after {MAX_BACKTRACKS} reductions"
    )


class RnlcgState:
    """Single-step driver for (preconditioned) R-NLCG.

    Holds the current point and its evaluation (objective and factored
    residual).  Its Riemannian gradient ``g``, the preconditioned gradient
    ``h = P^-1 g`` and ``grad_energy = <g, h>`` are formed on first use,
    which is where a step needs them (``stagnated``, ``step``), and kept
    until the point moves; a point that ends the solve or a phase is read
    only through its evaluation, whose residual a rank increase takes.
    ``record`` appends the current point's row and nothing else, so a
    preconditioner that is not SPD raises ``NotSpdError`` at the point of
    the last row, where a solve that loses SPD-ness ends.  ``step()``
    advances one accepted iteration and leaves the state untouched when it
    raises.  The rank-adaptive outer loop drives this directly, restarting
    it after rank changes; ``rnlcg_solve`` wraps it with stopping tests.
    ``counts`` tallies the ``evaluations`` (``equations.evaluate`` calls)
    and ``gradients`` (preconditioner applies) the state makes.
    """

    def __init__(self, op, F, X0, precond=None, counts=None):
        self.op = op
        self.F = F
        self.precond = precond if precond is not None else IdentityPrecond()
        self.norm_F = geo.factored_norm(F)
        if self.norm_F == 0.0:
            raise ValueError("zero right-hand side")
        self.counts = counts if counts is not None else collections.Counter()
        self.restart(X0, self.evaluate(X0))

    def evaluate(self, X, UAU=None, VBV=None):
        """``equations.evaluate`` at X, counted."""
        self.counts["evaluations"] += 1
        return eqs.evaluate(self.op, X, self.F, UAU, VBV)

    def restart(self, X, ev):
        """Move to the point ``X``, whose evaluation is ``ev``, with no CG
        history, as a fresh state."""
        self.X, self.ev, self._grad = X, ev, None
        self._xi_prev = None
        self._h_prev = None
        self._prev_g_xi = 0.0
        self.last_beta = 0.0
        self.last_alpha = 0.0
        self.last_backtracks = 0
        self.last_reset = False

    def _gradient(self):
        if self._grad is None:
            ev = self.ev
            g = geo.riemannian_gradient(self.X, ev.R, ev.RtU, ev.RtV)
            h = self.precond.apply_inv_tangent(g)
            self.counts["gradients"] += 1
            grad_energy = geo.inner(g, h)
            if grad_energy < 0.0:
                raise numkit.NotSpdError(
                    f"<g, P^-1 g> = {grad_energy:.3e} < 0: preconditioner not SPD"
                )
            self._grad = (g, h, grad_energy)
        return self._grad

    @property
    def g(self):
        return self._gradient()[0]

    @property
    def h(self):
        return self._gradient()[1]

    @property
    def grad_energy(self):
        return self._gradient()[2]

    @property
    def f(self):
        return self.ev.f

    @property
    def R(self):
        return self.ev.R

    def res_rel(self):
        """Exact relative Frobenius residual at the current point."""
        return self.ev.norm / self.norm_F

    def stagnated(self):
        return np.sqrt(max(self.grad_energy, 0.0)) <= STAG_GRAD_TOL * self.norm_F

    def record(self, trace, k, **fields):
        """Append the row of iteration ``k`` at the current point to
        ``trace``; ``fields`` (residual, event, ...) override the state's
        own values."""
        trace.append(**{
            "iter": k, "f": self.f, "rank": self.X.r, "beta": self.last_beta,
            "alpha": self.last_alpha, "backtracks": self.last_backtracks, **fields,
        })

    def step(self):
        """One accepted R-NLCG iteration; updates the state in place."""
        prev = None
        if self._xi_prev is not None:
            prev = (
                geo.transport(self.X, self._xi_prev),
                geo.transport(self.X, self._h_prev),
                self._prev_g_xi,
            )
        xi, beta, reset = search_direction(self.g, self.h, prev)
        model = eqs.ProjectedObjective(self.op, self.F, self.X, xi, self.ev)
        alpha_bar = initial_step(model, self.g, xi)
        alpha, (u, s, v), n_back, _ = armijo_backtrack(model, xi, alpha_bar, self.g)
        X_new = model.retr.point(u, s, v)
        UAU, VBV = u.T @ model.G @ u, v.T @ model.K @ v
        del model      # its bases need not outlive the line search
        h, g_xi = self.h, geo.inner(self.g, xi)
        self.X, self.ev, self._grad = X_new, self.evaluate(X_new, UAU, VBV), None
        self._xi_prev = xi
        self._h_prev = h
        self._prev_g_xi = g_xi
        self.last_beta = beta
        self.last_alpha = alpha
        self.last_backtracks = n_back
        self.last_reset = reset
        return self


def rnlcg_solve(op, F, opts: RnlcgOptions, metric=None, precond=None):
    """Run Algorithm-style fixed-rank R-NLCG until tolerance or budget.

    Returns ``(X, trace, status)`` with status in {"converged", "max_iter",
    "line_search_failure", "stagnated", "spd_loss"}.  Every point gets its
    row first; the gradient comes after, and only where a step leaves from
    the point, so the point that ends the solve gets none.  A
    ``NotSpdError`` anywhere ends the solve with ``spd_loss`` at the point
    of its last row, the point whose gradient or step failed.
    """
    trace = SolveTrace()
    metric = metric if metric is not None else geo.KroneckerMetric()
    X0 = geo.random_point(op.m, op.n, opts.rank, metric, np.random.default_rng(opts.seed))
    state = RnlcgState(op, F, X0, precond=precond, counts=trace.counts)
    k, res = 0, state.res_rel()
    state.record(trace, 0, res_rel=res, res_kind="exact")
    try:
        while res > opts.tol and k < opts.max_iters:
            if state.stagnated():
                return trace.finish(state.X, "stagnated")
            state.step()
            k += 1
            checked = k % opts.check_every == 0 or k >= opts.max_iters
            if checked:
                res = state.res_rel()
            state.record(
                trace, k, event="reset_rgd" if state.last_reset else "",
                **({"res_rel": res, "res_kind": "exact"} if checked else {}),
            )
    except LineSearchError:
        return trace.finish(state.X, "line_search_failure")
    except numkit.NotSpdError:
        return trace.finish(state.X, "spd_loss")
    return trace.finish(state.X, "converged" if res <= opts.tol else "max_iter")
