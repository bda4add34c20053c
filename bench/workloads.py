"""The benchmark workloads: instance, solver configuration, set-up, solve, gate.

Each workload is one problem instance solved by one solver configuration,
wired exactly as ``lrmeq solve`` wires it: the configuration is
``lrmeq.cli._CONFIG_DEFAULTS`` with the workload's overrides, and the metric
and preconditioner come from ``lrmeq.cli._build_tangent_setup``.  The
benchmark only chooses the solver seed; the instances are deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import traceback

from lrmeq import cli, equations, problems
from lrmeq.solver_rnlcg import RnlcgOptions, rnlcg_solve
from lrmeq.solver_rram import RramOptions, rram_solve

# Generator of each family, looked up on the module at call time so that a
# traced run sees its wrapper.
GENERATORS = {
    "fd-diffusion": "gen_fd_diffusion_paper",
    "stoch-galerkin": "gen_stoch_galerkin",
}

# The recomputed residual and the solver's last exact residual are the same
# norm of the same matrix, factored differently; they may differ by rounding
# only.  Measured disagreement is below 1e-9 relative on every workload.
AGREE_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str
    size: dict      # keyword arguments of the family's generator
    config: dict    # overrides of the CLI's solve configuration


# Why each workload was chosen, and which layers it stresses: bench/README.md.
FD = {"n": 1000, "alpha": 10.0, "lk": 3}
SG = {"ns": 40, "q": 6, "p": 3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fd-p2", "fd-diffusion", FD,
            {"solver": "rnlcg", "precond": "P2", "rank": 16, "tol": 1e-6},
        ),
        Workload(
            "fd-tangadi", "fd-diffusion", dict(FD, n=2000),
            {"solver": "rnlcg", "precond": "tangadi", "rank": 12, "adi_shifts": 8,
             "adi_steps": 8, "tol": 5e-6, "check_every": 1},
        ),
        Workload(
            "sg-rram", "stoch-galerkin", SG,
            {"solver": "rram", "precond": "P2", "kron_mode": "metric", "tol": 1e-6},
        ),
    )
}


@dataclasses.dataclass
class Setup:
    """Instance plus metric and preconditioner, built fresh for every solve."""

    cfg: dict
    inst: object
    metric: object
    precond: object


@dataclasses.dataclass
class Outcome:
    """One solve: its timing, the solver's answer and the gate's verdict."""

    seed: int
    solve_s: float
    status: str
    iters: int
    rank: int
    final_res: float | None   # recomputed by the benchmark
    trace_res: float | None   # the solver's last exact residual
    ok: bool
    reason: str
    trace: object = dataclasses.field(repr=False, default=None)


def set_up(w: Workload) -> Setup:
    """Generate the instance and build the metric and preconditioner."""
    cfg = dict(cli._CONFIG_DEFAULTS, **w.config)
    inst = getattr(problems, GENERATORS[w.family])(**w.size)
    metric, precond = cli._build_tangent_setup(inst, cfg)
    return Setup(cfg, inst, metric, precond)


def solve(s: Setup, seed: int):
    """Call the solver entry point; returns ``(X, trace, status, seconds)``."""
    cfg, op, F = s.cfg, s.inst.op, s.inst.F
    if cfg["solver"] == "rnlcg":
        opts = RnlcgOptions(
            rank=cfg["rank"], max_iters=cfg["max_iters"], tol=cfg["tol"],
            seed=seed, check_every=cfg["check_every"],
        )
        t0 = time.perf_counter()
        X, trace, status = rnlcg_solve(op, F, opts, metric=s.metric, precond=s.precond)
    else:
        opts = RramOptions(
            r0=cfg["r0"], r_up=cfg["r_up"], tol=cfg["tol"], seed=seed,
            max_total_iters=cfg["max_iters"],
            inner=RnlcgOptions(rank=cfg["r0"], tol=cfg["tol"], seed=seed),
        )
        t0 = time.perf_counter()
        X, trace, status = rram_solve(op, F, opts, metric=s.metric, precond=s.precond)
    return X, trace, status, time.perf_counter() - t0


def gate(s: Setup, seed, X, trace, status, seconds) -> Outcome:
    """Check one solve independently of the solver's own stopping test."""
    exact = [r["res_rel"] for r in trace.rows if r["res_kind"] == "exact"]
    trace_res = float(exact[-1]) if exact else None
    res = equations.residual_norm_exact(s.inst.op, X, s.inst.F)
    tol = s.cfg["tol"]
    if status != "converged":
        reason = f"status {status}"
    elif not res <= tol:
        reason = f"recomputed residual {res:.3e} > tol {tol:.1e}"
    elif trace_res is None or abs(res - trace_res) > AGREE_RTOL * res:
        reason = f"recomputed residual {res:.6e} != trace residual {trace_res}"
    else:
        reason = ""
    return Outcome(
        seed, seconds, status, int(trace.last()["iter"]), X.r, res, trace_res,
        not reason, reason, trace,
    )


def run_one(w: Workload, seed: int, tracer=None):
    """Set up, solve and gate one instance; a raised exception is a failed solve.

    With a tracer, set-up and solve run with its wrappers installed and the
    gate runs on the original code.  Returns ``(setup_seconds, outcome)``;
    ``setup_seconds`` is None when the set-up itself raised.
    """
    setup_s = None
    try:
        with _maybe(tracer and tracer.installed()):
            t0 = time.perf_counter()
            with _maybe(tracer and tracer.span("bench.setup")):
                s = set_up(w)
            setup_s = time.perf_counter() - t0
            with _maybe(tracer and tracer.span("bench.solve")):
                X, trace, status, seconds = solve(s, seed)
        return setup_s, gate(s, seed, X, trace, status, seconds)
    except Exception:  # a failure to report, not to abort the run on
        return setup_s, Outcome(seed, 0.0, "raised", 0, 0, None, None, False,
                                traceback.format_exc().strip())


def _maybe(ctx):
    return ctx or contextlib.nullcontext()
