"""Frozen regression values from the first verified desk-scale runs.

These pin solver behavior on the n = 200 diffusion benchmark; all runs
are seeded and deterministic, so equality is exact for iteration counts
and ranks and tight for residuals.
"""

import numpy as np

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import precond as pc
from lrmeq import problems as pb
from lrmeq.solver_rnlcg import RnlcgOptions, rnlcg_solve
from lrmeq.solver_rram import RramOptions, rram_solve

GOLDEN_RNLCG_P2_ITERS = 31        # fixed rank 12, tol 5e-6
GOLDEN_RRAM_ITERS = 40            # r0 = r_up = 3, tol 1e-6
GOLDEN_RRAM_FINAL_RANK = 15


def test_golden_rnlcg_p2_iteration_count():
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    _, trace, status = rnlcg_solve(
        inst.op, inst.F, RnlcgOptions(rank=12, tol=5e-6, max_iters=300, seed=0),
        metric=met, precond=prec,
    )
    assert status == "converged"
    assert trace.last()["iter"] == GOLDEN_RNLCG_P2_ITERS


def test_golden_rram_trace():
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    X, trace, status = rram_solve(
        inst.op, inst.F,
        RramOptions(r0=3, r_up=3, tol=1e-6, max_total_iters=500, seed=0,
                    inner=RnlcgOptions(rank=3, tol=1e-6, seed=0)),
        metric=met, precond=prec,
    )
    assert status == "converged"
    assert trace.last()["iter"] == GOLDEN_RRAM_ITERS
    assert X.r == GOLDEN_RRAM_FINAL_RANK
    assert eqs.residual_norm_exact(inst.op, X, inst.F) <= 1e-6
    events = [r["event"] for r in trace.rows if r["event"]]
    # the run exercises growth and plateau detection; rank cuts are covered
    # by test_rram::test_rram_cut_to_the_solution_rank_is_taken
    assert any("rank_up" in e for e in events)
    assert any("plateau" in e for e in events)


def test_golden_rank12_floor_is_above_tol():
    """At n = 200 the best fixed-rank-12 approximation sits near 2.2e-6
    relative residual: all preconditioners agree on the floor, so a 1e-6
    target is unreachable at this rank (see decisions ledger)."""
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    _, trace, status = rnlcg_solve(
        inst.op, inst.F, RnlcgOptions(rank=12, tol=1e-6, max_iters=300, seed=0),
        metric=met, precond=prec,
    )
    assert status in ("line_search_failure", "stagnated", "max_iter")
    final = float(trace.last()["res_rel"])
    assert 1e-6 < final < 5e-6
