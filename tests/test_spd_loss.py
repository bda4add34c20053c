"""SPD loss ends every solver with a status, at the point of its last row.

A preconditioner that stops being SPD at any apply, the first included,
ends R-NLCG, RRAM and truncated CG with ``spd_loss`` and no exception:
the last row carries the status and the exact relative residual of the
point the solver returns.
"""

import numpy as np
import pytest

from lrmeq import equations as eqs
from lrmeq import numkit
from lrmeq import solver_rnlcg as rn
from lrmeq import solver_rram as rr
from lrmeq import trunc_cg as tc

from oracles import rand_spd


class NotSpdFrom:
    """The identity preconditioner up to its ``j``-th apply, which raises
    ``NotSpdError``, as every later one would; tangent and ambient."""

    def __init__(self, j):
        self.j = j
        self.applies = 0

    def apply_inv_tangent(self, Z):
        self.applies += 1
        if self.applies >= self.j:
            raise numkit.NotSpdError(f"not SPD from apply {self.j}")
        return Z

    apply_inv_ambient = apply_inv_tangent


def spd_problem():
    rng = np.random.default_rng(3)
    m, n = 14, 12
    op = eqs.MultitermOperator([rand_spd(m, rng, 30.0), np.eye(m)],
                               [np.eye(n), rand_spd(n, rng, 30.0)])
    F = eqs.LowRankRhs(rng.standard_normal((m, 3)), rng.standard_normal((n, 3)))
    return op, F


SOLVERS = {
    "rnlcg": lambda op, F, prec: rn.rnlcg_solve(
        op, F, rn.RnlcgOptions(rank=2, tol=1e-12, max_iters=100), precond=prec),
    "rram": lambda op, F, prec: rr.rram_solve(
        op, F, rr.RramOptions(r0=1, r_up=1, tol=1e-12), precond=prec),
    "trunc_cg": lambda op, F, prec: tc.truncated_cg_solve(op, F, prec, 1e-12, 100),
}


@pytest.mark.parametrize("j", [1, 2, 3, 5])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_spd_loss_at_any_apply_ends_at_the_last_rows_point(solver, j):
    op, F = spd_problem()
    prec = NotSpdFrom(j)
    X, trace, status = SOLVERS[solver](op, F, prec)
    assert status == "spd_loss" and prec.applies == j
    last = trace.last()
    assert last["event"].split("+")[-1] == "spd_loss"
    assert last["res_kind"] == "exact"
    assert last["rank"] == (X.k if solver == "trunc_cg" else X.r)
    exact = eqs.residual_norm_exact(op, X, F)
    assert abs(last["res_rel"] - exact) <= 1e-9 * exact
