"""Benchmark command line: generate instances, run solvers, compare traces.

Subcommands:

*   ``generate`` -- build a problem family instance and write it to disk,
*   ``solve``    -- run a solver configuration, writing trace.csv and
    summary.json (with the config echo and an environment block) into the
    output directory,
*   ``compare``  -- align several run summaries into one CSV table,
*   ``verify``   -- run the dense-oracle self-check suite on tiny
    instances, and on a QR and factored norms over several QR panels.

Exit codes: 0 success, 2 solver non-convergence (or failed verify),
3 invalid configuration (a flag, config key or setting that is rejected),
4 I/O failure.  ``LRMEQ_OUT`` sets the default
output directory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import equations as eqs
from . import geometry as geo
from . import io as inst_io
from . import numkit
from . import precond as pc
from . import problems as pb
from .solver_rnlcg import RnlcgOptions, check_int, check_positive, rnlcg_solve
from .solver_rram import UP_SHARE, RramOptions, rank_increase, rram_solve
from .trunc_cg import truncate_residual, truncated_cg_solve

_ENV_OUT = "LRMEQ_OUT"

_CONFIG_DEFAULTS = {
    "solver": "rram",
    "precond": "P2",
    "rank": 12,
    "r0": 3,
    "r_up": 3,
    "tol": 1e-6,
    "seed": 0,
    "max_iters": 500,
    "adi_shifts": 8,
    "check_every": 1,
}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A flag argparse rejects is an invalid configuration: exit 3, not
    argparse's 2, which is the code for a solve that did not converge."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _default_out(name):
    base = os.environ.get(_ENV_OUT, "runs")
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args):
    try:
        if args.family == "fd-diffusion":
            inst = pb.gen_fd_diffusion_paper(args.n, alpha=args.alpha, lk=args.lk)
        elif args.family == "stoch-galerkin":
            inst = pb.gen_stoch_galerkin(args.n, args.q, args.p, theta=args.theta)
        else:
            inst = pb.gen_synthetic(args.m, args.n, args.l, seed=args.seed)
    except ValueError as exc:
        # a setting the generator rejects
        raise ConfigError(str(exc)) from None
    out = args.out or _default_out(f"instance-{args.family}")
    manifest = inst_io.export_instance(inst, out)
    print(f"wrote {args.family} instance ({manifest['ell']} terms, "
          f"{manifest['m']}x{manifest['n']}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _load_config(args):
    cfg = dict(_CONFIG_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: the config file is not a JSON object")
        unknown = set(file_cfg) - set(_CONFIG_DEFAULTS) - {"instance", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("instance", "out"):
            if not isinstance(file_cfg.get(key, ""), str):
                raise ConfigError(f"config key {key!r} must be a string path")
        cfg.update(file_cfg)
    for key in _CONFIG_DEFAULTS:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if args.instance:
        cfg["instance"] = args.instance
    if "instance" not in cfg:
        raise ConfigError("no instance directory given (flag --instance or config)")
    if args.out:
        cfg["out"] = args.out
    cfg.setdefault("out", _default_out("solve"))
    if cfg["solver"] not in ("rnlcg", "rram", "trunc_cg"):
        raise ConfigError(f"unknown solver {cfg['solver']!r}")
    if cfg["precond"] not in ("identity", "P1", "P2", "tangadi"):
        raise ConfigError(f"unknown preconditioner {cfg['precond']!r}")
    return cfg


def _solver_options(cfg):
    """The configured Riemannian solver's options (None for truncated CG,
    which takes ``tol`` and ``max_iters`` as they are), built before any
    set-up.  A setting they reject, or an ADI count, iteration budget or
    tolerance out of range, is a configuration error that names the
    setting."""
    try:
        check_int("adi_shifts", cfg["adi_shifts"], 1)
        check_int("max_iters", cfg["max_iters"], 0)   # RRAM's max_total_iters
        if cfg["solver"] == "rnlcg":
            return RnlcgOptions(
                rank=cfg["rank"], max_iters=cfg["max_iters"], tol=cfg["tol"],
                seed=cfg["seed"], check_every=cfg["check_every"],
            )
        if cfg["solver"] == "rram":
            return RramOptions(
                r0=cfg["r0"], r_up=cfg["r_up"], tol=cfg["tol"], seed=cfg["seed"],
                max_total_iters=cfg["max_iters"],
            )
        check_positive("tol", cfg["tol"])
        return None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _precond_spec(inst, label):
    """The instance's preconditioner spec behind a ``precond`` label other
    than ``identity``; tangADI uses P2, or P1 where there is no P2."""
    if label == "tangadi":
        spec = inst.p2 if inst.p2 is not None else inst.p1
    else:
        spec = inst.p1 if label == "P1" else inst.p2
    if spec is None:
        raise ConfigError(f"instance provides no {label} preconditioner")
    return spec


def _build_tangent_setup(inst, cfg):
    """Metric and tangent-space preconditioner for the Riemannian solvers.
    A Kronecker spec ``E X D`` is the metric, with no preconditioner."""
    label = cfg["precond"]
    identity = geo.KroneckerMetric()
    if label == "identity":
        return identity, pc.IdentityPrecond()
    spec = _precond_spec(inst, label)
    kind = spec["kind"]
    if label == "tangadi" and kind != "gen_sylv":
        raise ConfigError("tangADI needs a generalized-Sylvester preconditioner spec")
    # a missing E or D (a "sylv" spec has neither) is the identity
    kron = geo.KroneckerMetric(spec.get("E"), spec.get("D"))
    if label == "tangadi":
        shifts = pc.adi_shifts(spec["A"], spec["B"], kron, cfg["adi_shifts"])
        return identity, pc.TangAdiPrecond(spec["A"], spec["B"], kron, shifts)
    if kind == "kron":
        return kron, pc.IdentityPrecond()
    return kron, pc.GenSylvesterPrecond(spec["A"], spec["B"], kron)


def _build_ambient_precond(inst, cfg):
    """Ambient preconditioner for truncated CG; fADI recompresses its
    sweeps as the solver recompresses its residual at ``cfg["tol"]``."""
    label = cfg["precond"]
    if label == "identity":
        return pc.IdentityPrecond()
    spec = _precond_spec(inst, label)
    kind = spec["kind"]
    kron = geo.KroneckerMetric(spec.get("E"), spec.get("D"))
    if kind == "kron":
        return pc.KronPrecond(kron)
    shifts = pc.adi_shifts(spec["A"], spec["B"], kron, cfg["adi_shifts"])
    return pc.FadiAmbientPrecond(
        spec["A"], spec["B"], kron, shifts,
        truncate_fn=functools.partial(truncate_residual, tol=cfg["tol"]),
    )


def run_solve(cfg):
    """Run one solver configuration; returns (summary dict, trace)."""
    opts = _solver_options(cfg)
    inst = inst_io.import_instance(cfg["instance"])
    if cfg["solver"] != "trunc_cg" and geo.factored_norm(inst.F) == 0.0:
        raise ConfigError(f"the right-hand side is zero: solver {cfg['solver']!r} measures "
                          "its residual relative to F and cannot run (trunc_cg can)")
    t0 = time.perf_counter()
    try:
        if cfg["solver"] == "trunc_cg":
            precond = _build_ambient_precond(inst, cfg)
        else:
            metric, precond = _build_tangent_setup(inst, cfg)
    except numkit.NotSpdError as exc:
        raise inst_io.InstanceError(
            f"{cfg['instance']}: a preconditioner matrix is not SPD ({exc})"
        ) from None
    if cfg["solver"] == "rnlcg":
        X, trace, status = rnlcg_solve(inst.op, inst.F, opts, metric=metric, precond=precond)
        final_rank = X.r
    elif cfg["solver"] == "rram":
        X, trace, status = rram_solve(inst.op, inst.F, opts, metric=metric, precond=precond)
        final_rank = X.r
    else:
        X, trace, status = truncated_cg_solve(
            inst.op, inst.F, precond, cfg["tol"], cfg["max_iters"]
        )
        final_rank = X.k
    wall = time.perf_counter() - t0
    exact_rows = [r for r in trace.rows if r["res_kind"] == "exact"]
    final_res = exact_rows[-1]["res_rel"] if exact_rows else ""
    summary = {
        "status": status,
        "iters": trace.last()["iter"],
        "final_res": final_res,
        "final_rank": final_rank,
        "peak_rank": max(trace.column("rank")),
        "evaluations": trace.counts["evaluations"],
        "gradients": trace.counts["gradients"],
        "wall_s": wall,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "seed": cfg["seed"],
        "environment": _environment(),
    }
    return summary, trace


def _environment():
    """Library versions, BLAS thread settings (None where unset) and CPU
    count: the scope within which a run's trace is reproducible."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def cmd_solve(args):
    cfg = _load_config(args)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    summary, trace = run_solve(cfg)
    trace.to_csv(os.path.join(out, "trace.csv"))
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"[{cfg['solver']}/{cfg['precond']}] status={summary['status']} "
          f"iters={summary['iters']} res={summary['final_res']} "
          f"rank={summary['final_rank']} -> {out}")
    return 0 if summary["status"] == "converged" else 2


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args):
    if len(args.summaries) < 2:
        raise ConfigError("compare needs at least two run summaries")
    rows = []
    for path in args.summaries:
        with open(path) as fh:
            s = json.load(fh)
        try:
            cfg = s.get("config", {})
            rows.append(
                [cfg.get("solver", ""), cfg.get("precond", ""), s["iters"],
                 s["wall_s"], s["final_rank"], s.get("peak_rank", ""),
                 s.get("evaluations", ""), s.get("gradients", ""), s["final_res"]]
            )
        except (AttributeError, KeyError) as exc:
            # exit code 4, as for an unreadable instance
            raise OSError(f"{path}: not a run summary ({type(exc).__name__}: {exc})") from None
    header = ["solver", "precond", "iters", "time_s", "final_rank", "peak_rank",
              "evaluations", "gradients", "final_res"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote comparison table to {args.out}")
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(_args):
    """Dense-oracle self-checks on tiny seeded instances, and on the
    blocked QR and factored norm at a size that spans several panels."""
    rng = np.random.default_rng(0)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    def rand_spd(k):
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        return Q @ np.diag(np.geomspace(1.0, 10.0, k)) @ Q.T

    m, n, r = 8, 7, 2
    E, D = rand_spd(m), rand_spd(n)
    met = geo.KroneckerMetric(E, D)
    Z = rng.standard_normal((m, n))
    U, s, V = geo.weighted_svd(Z, met)
    check(
        "weighted SVD reconstruction",
        np.linalg.norm(U @ np.diag(s) @ V.T - Z) <= 1e-12 * np.linalg.norm(Z),
    )
    X = geo.random_point(m, n, r, met, rng)
    xi = geo.project(X, Z)
    xi2 = geo.project(X, xi.embed())
    check(
        "projection idempotence",
        max(np.linalg.norm(xi2.M - xi.M), np.linalg.norm(xi2.Up - xi.Up)) <= 1e-11,
    )
    A, B = rand_spd(m), rand_spd(n)
    eta = geo.project(X, rng.standard_normal((m, n)))
    out = pc.GenSylvesterPrecond(A, B, met).apply_inv_tangent(eta)
    dense = out.point.U @ out.M @ out.point.V.T + out.Up @ out.point.V.T + out.point.U @ out.Vp.T
    back = geo.project(X, np.linalg.solve(E, A @ dense) + dense @ B @ np.linalg.inv(D))
    eta_norm = geo.norm(eta)
    check(
        "generalized Sylvester solve forward-check",
        geo.norm(back.plus(eta, -1.0)) <= 1e-9 * eta_norm,
    )
    met_id = geo.KroneckerMetric()
    Xs = geo.random_point(m, n, r, met_id, rng)
    eta_s = geo.project(Xs, rng.standard_normal((m, n)))
    xi_star = geo.project(Xs, rng.standard_normal((m, n)))
    dense_star = Xs.U @ xi_star.M @ Xs.V.T + xi_star.Up @ Xs.V.T + Xs.U @ xi_star.Vp.T
    PX = geo.project(Xs, A @ dense_star @ D + E @ dense_star @ B)
    again = pc.TangAdiPrecond(A, B, met, ((2.0, -2.0),) * 80).apply_inv_tangent(PX)
    check(
        "tangADI converges to the exact preimage",
        geo.norm(again.plus(xi_star, -1.0)) <= 1e-8 * geo.norm(xi_star),
    )
    inst = pb.gen_synthetic(6, 6, 3, seed=1)
    K = inst.op.dense_kron()
    x = np.linalg.solve(K, inst.F.densify(force=True).reshape(-1, order="F"))
    opts = RnlcgOptions(rank=6, tol=1e-10, max_iters=300)
    kron = geo.KroneckerMetric(inst.p1["E"], inst.p1["D"])
    Xr, _, status = rnlcg_solve(inst.op, inst.F, opts, metric=kron)
    err = np.linalg.norm(
        Xr.densify(force=True) - x.reshape((6, 6), order="F")
    ) / np.linalg.norm(x)
    check("tiny instance matches dense Kronecker solve", status == "converged" and err <= 1e-7)
    X1 = geo.random_point(6, 6, 1, kron, np.random.default_rng(1))
    ev = eqs.evaluate(inst.op, X1, inst.F)
    up = rank_increase(X1, inst.op, ev.R, 2)
    grown, fresh = up.evaluation(inst.F, ev), eqs.evaluate(inst.op, up.point, inst.F)
    check(
        "rank increase's grown evaluation matches evaluate at the grown point",
        grown is not None and abs(grown.f - fresh.f) <= 1e-12 * abs(fresh.f)
        and np.linalg.norm(grown.R.densify() - fresh.R.densify()) <= 1e-12 * fresh.norm
        and all(np.linalg.norm(getattr(grown, a) - getattr(fresh, a))
                <= 1e-12 * np.linalg.norm(getattr(fresh, a)) for a in ("RtU", "RtV", "UAU", "VBV")),
    )
    # one size over several QR panels, so the blocked Householder QR runs
    W = rng.standard_normal((200, 70))
    Q, R = numkit.qr_thin(W)
    check(
        "200x70 QR matches dense QR",
        np.linalg.norm(Q @ R - W) <= 1e-13 * np.linalg.norm(W)
        and np.linalg.norm(Q.T @ Q - np.eye(70)) <= 1e-13
        and np.allclose(np.abs(R), np.abs(np.linalg.qr(W, mode="r")), atol=1e-12),
    )
    for rows in (150, 50):  # k <= rows: QR and trmm; k > rows: the dense product
        Zf = geo.FactoredMatrix(W, rng.standard_normal((rows, 70)))
        ref = np.linalg.norm(Zf.left @ Zf.right.T)
        check(
            f"factored norm of 200x{rows} rank-70 product",
            abs(geo.factored_norm(Zf) - ref) <= 1e-12 * ref,
        )
    print("verify:", "all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = _Parser(
        prog="lrmeq",
        description="Low-rank multiterm matrix equation solver benchmark harness",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="generate a problem instance directory")
    g.add_argument("--family", required=True,
                   choices=["fd-diffusion", "stoch-galerkin", "synthetic"])
    g.add_argument("--n", type=int, default=200)
    g.add_argument("--m", type=int, default=6)
    g.add_argument("--alpha", type=float, default=10.0)
    g.add_argument("--lk", type=int, default=3)
    g.add_argument("--q", type=int, default=4)
    g.add_argument("--p", type=int, default=3)
    g.add_argument("--theta", type=float, default=0.55)
    g.add_argument("--l", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run a solver configuration")
    s.add_argument("--config", help="config JSON, overridden by flags")
    s.add_argument("--instance")
    s.add_argument("--solver", choices=["rnlcg", "rram", "trunc_cg"])
    s.add_argument("--precond", choices=["identity", "P1", "P2", "tangadi"])
    s.add_argument("--rank", type=int)
    s.add_argument("--r0", type=int)
    s.add_argument("--r-up", dest="r_up", type=int,
                   help="RRAM: the smallest rank increase; an increase also keeps every "
                        "normal direction whose weighted singular value is at least "
                        f"{UP_SHARE:g} times the largest")
    s.add_argument("--tol", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--max-iters", dest="max_iters", type=int)
    s.add_argument("--adi-shifts", dest="adi_shifts", type=int)
    s.add_argument("--check-every", dest="check_every", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="tabulate run summaries")
    c.add_argument("summaries", nargs="+")
    c.add_argument("--out")
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("verify", help="run dense-oracle self-checks")
    v.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
