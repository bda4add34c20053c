"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import precond as pc
from lrmeq import problems as pb
from lrmeq import solver_rram as rr
from lrmeq import trunc_cg as tc
from lrmeq.solver_rnlcg import RnlcgOptions, rnlcg_solve
from lrmeq.solver_rram import RramOptions, rram_solve

from oracles import (
    adi_error_bound,
    b_inner,
    dense_metric,
    dense_pcg,
    kron_matrix,
    proj_dense,
    projected_operator_matrix,
    rand_spd,
    rank_events,
    rram_phase_decisions,
    solve_projected_dense,
    spectral_radius,
    tangent_basis_dense,
    tv_dense,
)


def report(num, name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _std_point(m, n, r, rng):
    return geo.random_point(m, n, r, geo.KroneckerMetric(), rng)


def test_criterion_1_dense_preconditioner_oracles():
    """GenSylvesterPrecond (E = D = I and weighted) vs dense solves."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 11))
        n = int(rng.integers(6, 11))
        r = int(rng.integers(1, 4))
        A, B = rand_spd(m, rng, 20.0), rand_spd(n, rng, 20.0)
        D, E = rand_spd(n, rng, 6.0), rand_spd(m, rng, 6.0)

        X = _std_point(m, n, r, rng)
        eta = geo.project(X, rng.standard_normal((m, n)))
        etad = tv_dense(eta)

        xi = pc.GenSylvesterPrecond(A, B, X.metric).apply_inv_tangent(eta)
        ref = solve_projected_dense(X, etad, lambda T: A @ T + T @ B)
        worst = max(worst, np.linalg.norm(tv_dense(xi) - ref) / np.linalg.norm(ref))

        met = geo.KroneckerMetric(E, D)
        Xw = geo.random_point(m, n, r, met, rng)
        etaw = geo.project(Xw, rng.standard_normal((m, n)))
        Einv, Dinv = np.linalg.inv(E), np.linalg.inv(D)
        xi = pc.GenSylvesterPrecond(A, B, Xw.metric).apply_inv_tangent(etaw)
        ref = solve_projected_dense(Xw, tv_dense(etaw), lambda T: Einv @ A @ T + T @ B @ Dinv)
        worst = max(worst, np.linalg.norm(tv_dense(xi) - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    report(1, "dense preconditioner-oracle equivalence",
           worst <= 1e-9 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_weighted_geometry_suite():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(6, 11))
        n = int(rng.integers(6, 11))
        r = int(rng.integers(1, 4))
        met = geo.KroneckerMetric(rand_spd(m, rng, 8.0), rand_spd(n, rng, 8.0))
        E, D = dense_metric(met, (m, n))
        X = geo.random_point(m, n, r, met, rng)
        Z = rng.standard_normal((m, n))
        # weighted SVD reconstruction
        U, s, V = geo.weighted_svd(Z, met)
        rec = np.linalg.norm(U @ np.diag(s) @ V.T - Z) / np.linalg.norm(Z)
        ok &= rec <= 1e-12
        # projection idempotence
        xi = geo.project(X, Z)
        xi2 = geo.project(X, xi.embed())
        drift = max(np.linalg.norm(xi2.M - xi.M), np.linalg.norm(xi2.Up - xi.Up),
                    np.linalg.norm(xi2.Vp - xi.Vp))
        ok &= drift <= 1e-11 * max(1.0, geo.norm(xi))
        # B-orthogonality of the projection residual
        resid = Z - tv_dense(xi)
        for eta in tangent_basis_dense(X):
            ok &= abs(b_inner(resid, eta, E, D)) <= 1e-10 * np.linalg.norm(Z)
        # weighted Eckart-Young vs brute force (1000 candidates on one seed
        # of each size class keeps the budget; error formula on all)
        Zf = geo.FactoredMatrix(rng.standard_normal((m, r + 2)), rng.standard_normal((n, r + 2)))
        Xt = geo.truncate(Zf, r, met)
        diff = Zf.densify(force=True) - Xt.densify(force=True)
        err_star = np.sqrt(b_inner(diff, diff, E, D))
        _, sw, _ = geo.weighted_svd(Zf, met)
        ok &= abs(err_star - np.sqrt(np.sum(sw[r:] ** 2))) <= 1e-10 * max(1.0, err_star)
        n_cand = 1000 if seed < 2 else 50
        Zd = Zf.densify(force=True)
        for _ in range(n_cand):
            C = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
            denom = b_inner(C, C, E, D)
            scale = b_inner(Zd, C, E, D) / denom
            cand = Zd - scale * C
            ok &= np.sqrt(b_inner(cand, cand, E, D)) >= err_star - 1e-10
    elapsed = time.perf_counter() - t0
    report(2, "weighted geometry suite", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def _shifted_ops(A, B, D, E, p, q):
    return (lambda T: (A - q * E) @ T @ (B + p * D),
            lambda T: (A - p * E) @ T @ (B + q * D))


def test_criterion_3_spectral_radius_inequality():
    ok = True
    worst_gap = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(6, 9))
        n = int(rng.integers(6, 9))
        r = int(rng.integers(1, 3))
        A, B = rand_spd(m, rng, 15.0), rand_spd(n, rng, 15.0)
        D, E = rand_spd(n, rng, 4.0), rand_spd(m, rng, 4.0)
        kron = geo.KroneckerMetric(E, D)
        a, b = pc.spectral_interval(A, kron.apply_E, kron.solve_E)
        c, d = pc.spectral_interval(B, kron.apply_D, kron.solve_D)
        p, q = float(np.sqrt(a * b)), -float(np.sqrt(c * d))
        X = _std_point(m, n, r, rng)
        amb_G, amb_N = _shifted_ops(A, B, D, E, p, q)
        _, G_c, _ = projected_operator_matrix(X, amb_G)
        _, N_c, _ = projected_operator_matrix(X, amb_N)
        rho_X = spectral_radius(np.linalg.solve(G_c, N_c))
        GK = np.kron(B + p * D, A - q * E)
        NK = np.kron(B + q * D, A - p * E)
        rho_amb = spectral_radius(np.linalg.solve(GK, NK))
        worst_gap = max(worst_gap, rho_X - rho_amb)
        ok &= rho_X <= rho_amb + 1e-10
    report(3, "projected spectral-radius inequality", ok,
           f"max(rho_X - rho_ambient) = {worst_gap:.2e}")


def test_criterion_4_tangadi_contraction():
    ok = True
    worst = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(6, 9))
        n = int(rng.integers(6, 9))
        r = int(rng.integers(1, 3))
        A, B = rand_spd(m, rng, 20.0), rand_spd(n, rng, 20.0)
        D, E = rand_spd(n, rng, 3.0), rand_spd(m, rng, 3.0)
        kron = geo.KroneckerMetric(E, D)
        a, b = pc.spectral_interval(A, kron.apply_E, kron.solve_E)
        c, d = pc.spectral_interval(B, kron.apply_D, kron.solve_D)
        p, q = float(np.sqrt(a * b)), -float(np.sqrt(c * d))
        X = _std_point(m, n, r, rng)
        amb_G, _ = _shifted_ops(A, B, D, E, p, q)
        _, G_c, _ = projected_operator_matrix(X, amb_G)
        _, N_c, _ = projected_operator_matrix(
            X, _shifted_ops(A, B, D, E, p, q)[1]
        )
        rho_X = spectral_radius(np.linalg.solve(G_c, N_c))
        # exact solution by construction; error measured in the energy norm
        # of the split operator G_X, where the iteration is a rho_X-contraction
        xi_star = geo.project(X, rng.standard_normal((m, n)))
        star_d = tv_dense(xi_star)
        eta = geo.project(X, A @ star_d @ D + E @ star_d @ B)

        def g_norm(err):
            return np.sqrt(np.sum(proj_dense(X, amb_G(err)) * err))

        errs = []
        for steps in range(1, 10):
            out = pc.TangAdiPrecond(A, B, kron, ((p, q),) * steps).apply_inv_tangent(eta)
            errs.append(g_norm(tv_dense(out) - star_d))
        ratios = [errs[j + 1] / errs[j] for j in range(3, 8) if errs[j] > 1e-13]
        if ratios:
            worst = max(worst, max(ratios) - rho_X)
            ok &= max(ratios) <= rho_X + 0.05
    report(4, "tangADI per-step contraction vs projected spectral radius", ok,
           f"max(ratio - rho_X) = {worst:.3f}")


def test_criterion_5_wachspress_shifts():
    s1 = pc.wachspress_shifts(1.0, 100.0, 1.0, 100.0, 1)
    p1, q1 = s1[0]
    ok = abs(p1 - 10.0) <= 1e-8 and abs(q1 + 10.0) <= 1e-8
    detail = [f"J=1 shift {p1:.12f}"]
    lam = np.geomspace(1.0, 100.0, 200)
    from scipy.optimize import minimize

    def grid_bound(ps):
        r = np.ones_like(lam)
        for p in ps:
            r *= np.abs((lam - p) / (lam + p))
        return r.max()

    for J in (2, 4):
        ours = adi_error_bound(
            pc.wachspress_shifts(1.0, 100.0, 1.0, 100.0, J), lam, lam
        ).max()
        best = None
        rng = np.random.default_rng(0)
        inits = [np.log(np.geomspace(2.0, 50.0, J))]
        for _ in range(3):
            inits.append(np.log(1.0) + np.log(100.0) * np.sort(rng.uniform(size=J)))
        for x0 in inits:
            res = minimize(lambda lp: grid_bound(np.exp(lp)), x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000})
            if best is None or res.fun < best.fun:
                best = res
        ref = adi_error_bound([(p, -p) for p in np.exp(best.x)], lam, lam).max()
        ok &= ours <= 1.1 * ref
        detail.append(f"J={J}: ours {ours:.3e} vs brute {ref:.3e}")
    report(5, "Wachspress shift optimality", ok, "; ".join(detail))


def test_criterion_6_desk_scale_solver_correctness():
    t0 = time.perf_counter()
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    opts = RramOptions(r0=3, r_up=3, tol=1e-6, max_total_iters=500, seed=0)
    X, trace, status = rram_solve(inst.op, inst.F, opts, metric=met, precond=prec)
    elapsed = time.perf_counter() - t0
    res = eqs.residual_norm_exact(inst.op, X, inst.F)
    ok = status == "converged" and res <= 1e-6 and trace.last()["iter"] <= 500 and elapsed < 60.0

    # cross-check against a dense Kronecker solve at n = 32
    inst32 = pb.gen_fd_diffusion_paper(32, alpha=10.0, lk=3)
    spec32 = inst32.p2
    met32 = geo.KroneckerMetric(spec32["E"], spec32["D"])
    prec32 = pc.GenSylvesterPrecond(spec32["A"], spec32["B"], met32)
    X32, _, st32 = rram_solve(
        inst32.op, inst32.F,
        RramOptions(r0=3, r_up=3, tol=1e-6, max_total_iters=500, seed=0),
        metric=met32, precond=prec32,
    )
    K = kron_matrix(inst32.op.A, inst32.op.B)
    xd = np.linalg.solve(K, inst32.F.densify(force=True).reshape(-1, order="F"))
    err = np.linalg.norm(
        X32.densify(force=True).reshape(-1, order="F") - xd
    ) / np.linalg.norm(xd)
    ok = ok and st32 == "converged" and err <= 1e-5
    report(6, "desk-scale RRAM correctness (n=200 run + n=32 dense check)", ok,
           f"n=200: {status}, {trace.last()['iter']} iters, res {res:.2e}, "
           f"{elapsed:.1f}s; n=32 dense err {err:.2e}")


def test_criterion_7_preconditioner_ordering():
    # the rank-12 manifold floor at n=200 sits near 2.2e-6, so the ordering
    # is compared at a reachable tolerance (see decisions ledger)
    tol = 5e-6
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec2 = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    _, tr2, st2 = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=12, tol=tol, max_iters=300, seed=0),
                              metric=met, precond=prec2)
    prec1 = pc.GenSylvesterPrecond(
        inst.p1["A"], inst.p1["B"], geo.KroneckerMetric()
    )
    _, tr1, st1 = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=12, tol=tol, max_iters=300, seed=0),
                              precond=prec1)
    _, tr0, st0 = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=12, tol=tol, max_iters=300, seed=0))
    kron = geo.KroneckerMetric(spec["E"], spec["D"])
    shifts = pc.adi_shifts(spec["A"], spec["B"], kron)
    prec_adi = pc.TangAdiPrecond(spec["A"], spec["B"], kron, shifts)
    _, tra, sta = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=12, tol=tol, max_iters=300, seed=0),
                              precond=prec_adi)
    it2, it1, it0, ita = (t.last()["iter"] for t in (tr2, tr1, tr0, tra))
    ok = (st2 == "converged" and st1 == "converged"
          and it2 < it1 < it0 and ita <= 2 * it2)
    report(7, "preconditioner ordering P2 < P1 < identity; tangADI within 2x of P2",
           ok, f"P2 {it2} ({st2}), P1 {it1} ({st1}), identity {it0} ({st0}), "
               f"tangADI {ita} ({sta})")


def test_criterion_8_truncated_cg_fidelity(monkeypatch):
    # no truncation on a small instance: match dense PCG over 10 iters
    rng = np.random.default_rng(77)
    A = [rand_spd(6, rng, 20.0), rand_spd(6, rng, 3.0)]
    B = [np.eye(6), rand_spd(6, rng, 20.0)]
    op = eqs.MultitermOperator(A, B)
    F = eqs.LowRankRhs(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
    monkeypatch.setattr(tc, "X_TOL_SHARE", 0.0)
    monkeypatch.setattr(tc, "R_TOL_SHARE", 0.0)
    _, trace, _ = tc.truncated_cg_solve(op, F, pc.IdentityPrecond(), 1e-16, 10)
    K = kron_matrix(op.A, op.B)
    bb = F.densify(force=True).reshape(-1, order="F")
    _, hist = dense_pcg(K, bb, lambda r: r, 10)
    ours = np.array([row["res_rel"] for row in trace.rows])
    match = np.max(np.abs(ours - hist / hist[0]))
    report(8, "truncated-CG fidelity (dense PCG oracle)", match <= 1e-8,
           f"no-trunc match {match:.1e}")


def test_criterion_8_uncapped_truncated_cg_converges_on_fd200(tmp_path, monkeypatch):
    """Truncated CG with P2 (fADI) reaches 1e-6 on the fd-diffusion n=200
    instance with no rank cap: every recompression is relative to the
    norm of what it truncates, so the preconditioned direction keeps the
    rank it needs."""
    from lrmeq import cli
    from lrmeq import io as inst_io

    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3), inst_dir)
    solves = []

    def kept(*args):
        out = tc.truncated_cg_solve(*args)
        solves.append((args[0], args[1], out[0]))
        return out

    monkeypatch.setattr(cli, "truncated_cg_solve", kept)
    cfg = dict(cli._CONFIG_DEFAULTS, instance=str(inst_dir), solver="trunc_cg",
               precond="P2", tol=1e-6)
    summary, _ = cli.run_solve(cfg)
    (op, F, X), = solves
    res = eqs.residual_norm_exact(op, X, F)
    ok = summary["status"] == "converged" and res <= 1e-6 and summary["iters"] <= 60
    report(8, "uncapped truncated CG converges on fd n=200", ok,
           f"{summary['status']} in {summary['iters']} iterations, exact res {res:.1e}")


def test_criterion_9_rram_mechanics():
    rng = np.random.default_rng(99)
    # (a) rank trace changes only at tagged events, f nonincreasing at rank_up
    A = [rand_spd(18, rng, 60.0), np.eye(18)]
    B = [np.eye(16), rand_spd(16, rng, 60.0)]
    op = eqs.MultitermOperator(A, B)
    met = geo.KroneckerMetric()
    Xs = geo.random_point(18, 16, 6, met, rng)
    Ff = op.apply(Xs)
    F = eqs.LowRankRhs(Ff.left, Ff.right)
    X, trace, status = rram_solve(
        op, F,
        RramOptions(r0=2, r_up=2, tol=1e-7, max_total_iters=300, seed=1),
        metric=geo.KroneckerMetric(op.A[0], op.B[1]),
    )
    ok_events = True
    ok_f = True
    rows = trace.rows
    for prev, cur in zip(rows, rows[1:]):
        if cur["rank"] != prev["rank"]:
            ok_events &= ("rank_up" in cur["event"]) or ("rank_down" in cur["event"])
        if "rank_up" in cur["event"]:
            ok_f &= cur["f"] <= prev["f"] + 1e-10 * max(1.0, abs(prev["f"]))

    # (b) plateau rule vs direct evaluation on 50 synthetic sequences
    def direct_plateau(hist, start=None, gain_up=None):
        if gain_up is not None and len(hist) == 1:
            if 0.0 <= start - hist[0] < rr.FLOOR_SHARE * gain_up:
                return True
        return len(hist) >= rr.MIN_PHASE_STEPS and hist[-2] - hist[-1] < rr.PLATEAU_DECADES

    ok_plateau = True
    gen = np.random.default_rng(5)
    for _ in range(50):
        n_seg = int(gen.integers(2, 5))
        vals = []
        level = 0.0
        for _ in range(n_seg):
            rate = gen.uniform(0.01, 1.0)
            for _ in range(int(gen.integers(3, 8))):
                level -= rate
                vals.append(level)
        for k in range(1, len(vals) + 1):
            hist = vals[:k]
            ok_plateau &= rr.plateau_detect(hist) == direct_plateau(hist)
    # ... on 50 phases opened by a rank increase, whose first steps fall on
    # both sides of the floor share; the same histories with no increase
    gen = np.random.default_rng(6)
    floor_exits = 0
    for _ in range(50):
        start, gain_up = gen.uniform(-8.0, 0.0), gen.uniform(0.05, 0.5)
        hist = [start - gen.uniform(-0.1, 0.3) * gain_up]
        for _ in range(int(gen.integers(2, 7))):
            hist.append(hist[-1] - gen.uniform(0.0, 2 * rr.PLATEAU_DECADES))
        for k in range(1, len(hist) + 1):
            for g in (gain_up, None):
                ok_plateau &= (rr.plateau_detect(hist[:k], start, g)
                               == direct_plateau(hist[:k], start, g))
        floor_exits += direct_plateau(hist[:1], start, gain_up)
    ok_plateau &= 0 < floor_exits < 50
    # ... and on every phase decision of the run in (a), as its rows give it
    for i, hist, start, gain_up in rram_phase_decisions(rows):
        if i < len(rows) - 1 and "phase_cap" not in rows[i]["event"]:
            tagged = "plateau" in rows[i]["event"].split("+")
            ok_plateau &= tagged == direct_plateau(hist, start, gain_up)

    # (c) Hutch++ calibration on rank-20 residuals
    RL = np.random.default_rng(123).standard_normal((60, 20))
    RR_ = np.random.default_rng(321).standard_normal((55, 20))
    R = geo.FactoredMatrix(RL, RR_)
    exact = np.linalg.norm(RL @ RR_.T)
    errs = [
        abs(rr.hutchpp_residual_norm(R, 5, np.random.default_rng(s)) - exact) / exact
        for s in range(200)
    ]
    med = float(np.median(errs))
    ok = status == "converged" and ok_events and ok_f and ok_plateau and med <= 0.35
    report(9, "RRAM mechanics (events, monotone f, plateau oracle, Hutch++)",
           ok, f"status {status}, {floor_exits} of 50 floor exits, hutch median err {med:.3f}")


def test_criterion_9_rram_cut_keeps_the_rank_increase():
    """fd n=200 with P2 at tol 1e-8 converges, and no rank cut undoes the
    rank increase before it: after ``rank_up:c->d`` every ``rank_down:a->b``
    keeps ``b > c``.  A cut judged by sigma share alone ran
    ``rank_up:15->18``, ``rank_down:18->15`` until ``max_iter``."""
    inst = pb.gen_fd_diffusion_paper(200, alpha=10.0, lk=3)
    spec = inst.p2
    met = geo.KroneckerMetric(spec["E"], spec["D"])
    prec = pc.GenSylvesterPrecond(spec["A"], spec["B"], met)
    X, trace, status = rram_solve(
        inst.op, inst.F,
        RramOptions(r0=3, r_up=3, tol=1e-8, max_total_iters=500, seed=0),
        metric=met, precond=prec,
    )
    res = eqs.residual_norm_exact(inst.op, X, inst.F)
    ok_cuts = True
    ups = rank_events(trace.rows, "rank_up")
    for i, (_, after_cut) in rank_events(trace.rows, "rank_down").items():
        before_up = [c for j, (c, _) in ups.items() if j < i]
        ok_cuts &= not before_up or after_cut > before_up[-1]
    ok = status == "converged" and res <= 1e-8 and ok_cuts
    report(9, "RRAM rank cuts keep the rank increase (fd n=200, tol 1e-8)", ok,
           f"{status} in {trace.last()['iter']} iters at rank {X.r}, res {res:.2e}")


def test_criterion_10_stochastic_galerkin_analogue():
    # G_k entries vs quadrature oracle at higher order
    q, p = 4, 3
    Gs, idx = pb.legendre_coupling_matrices(q, p)
    idx = np.array(idx)
    I0, I1 = pb.legendre_tables(p, p + 6)
    worst = 0.0
    for k, G in enumerate(Gs):
        ref = I1[idx[:, None, k], idx[None, :, k]].astype(float)
        for cc in range(q):
            if cc != k:
                ref = ref * I0[idx[:, None, cc], idx[None, :, cc]]
        worst = max(worst, float(np.max(np.abs(G.toarray() - ref))))
    G1_small, _ = pb.legendre_coupling_matrices(1, 1)
    g01 = G1_small[0].toarray()[0, 1]
    ok = worst <= 1e-13 and abs(g01 - 1.0 / np.sqrt(3.0)) <= 1e-14

    inst = pb.gen_stoch_galerkin(32, q, p)
    met2 = geo.KroneckerMetric(inst.p2["E"], inst.p2["D"])
    X, trace, status = rram_solve(
        inst.op, inst.F,
        RramOptions(r0=3, r_up=3, tol=1e-5, max_total_iters=400, seed=0),
        metric=met2,
    )
    res = eqs.residual_norm_exact(inst.op, X, inst.F)
    ok &= status == "converged" and res <= 1e-5

    met1 = geo.KroneckerMetric(inst.p1["E"], None)
    _, tr1, st1 = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=30, tol=1e-5, max_iters=400, seed=0),
                              metric=met1)
    _, tr2, st2 = rnlcg_solve(inst.op, inst.F,
                              RnlcgOptions(rank=30, tol=1e-5, max_iters=400, seed=0),
                              metric=met2)
    it1, it2 = tr1.last()["iter"], tr2.last()["iter"]
    ok &= st1 == "converged" and st2 == "converged" and it2 < it1
    report(10, "stochastic-Galerkin analogue (quadrature, RRAM, P2 < P1)",
           ok, f"G err {worst:.1e}, G1(0,1)-1/sqrt3 {abs(g01 - 1/np.sqrt(3)):.1e}, "
               f"rram {status} res {res:.2e}, iters P2 {it2} < P1 {it1}")


def test_criterion_11_determinism(tmp_path):
    from lrmeq import io as inst_io
    from lrmeq.cli import main

    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_fd_diffusion_paper(48, alpha=10.0, lk=3), inst_dir)
    traces = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = main(["solve", "--instance", str(inst_dir), "--solver", "rram",
                     "--precond", "P2", "--r0", "3", "--r-up", "3",
                     "--tol", "1e-6", "--seed", "5", "--out", str(out)])
        import csv as _csv

        with open(out / "trace.csv") as fh:
            rows = list(_csv.reader(fh))
        header = rows[0]
        keep = [i for i, cname in enumerate(header) if cname != "time_s"]
        traces.append([[r[i] for i in keep] for r in rows])
    ok = traces[0] == traces[1] and len(traces[0]) > 3
    report(11, "determinism of seeded runs (time column excluded)", ok,
           f"{len(traces[0]) - 1} trace rows identical")
