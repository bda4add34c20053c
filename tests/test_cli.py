import csv
import json
import os
import platform
import re

import numpy as np
import pytest
import scipy

from lrmeq import cli
from lrmeq import equations as eqs
from lrmeq import geometry as geo
from lrmeq import io as inst_io
from lrmeq import numkit
from lrmeq import precond as pc
from lrmeq import problems as pb
from lrmeq.cli import main, run_solve, _CONFIG_DEFAULTS

from oracles import rand_spd


def read_trace_rows(path, drop_time=True):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    if drop_time:
        keep = [i for i, c in enumerate(header) if c != "time_s"]
        return [[r[i] for i in keep] for r in rows]
    return rows


def test_generate_fd_diffusion(tmp_path):
    out = tmp_path / "fd"
    code = main(["generate", "--family", "fd-diffusion", "--n", "24",
                 "--alpha", "10", "--lk", "3", "--out", str(out)])
    assert code == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["ell"] == 8
    assert manifest["meta"]["r_F"] == 4
    assert "p2" in manifest["precond"]


def test_generate_synthetic_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--family", "synthetic", "--m", "6", "--n", "6",
                     "--l", "3", "--seed", "1", "--out", str(out)]) == 0
    for name in ("A0.mtx", "B2.mtx", "FL.mtx"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_stoch_galerkin_counts(tmp_path):
    out = tmp_path / "sg"
    assert main(["generate", "--family", "stoch-galerkin", "--q", "4", "--p", "3",
                 "--n", "8", "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["meta"]["n_param"] == 35
    assert manifest["ell"] == 5


def test_instance_roundtrip_identical_traces(tmp_path):
    inst = pb.gen_synthetic(6, 6, 2, seed=3)
    d = tmp_path / "inst"
    inst_io.export_instance(inst, d)
    back = inst_io.import_instance(d)
    cfg = dict(_CONFIG_DEFAULTS)
    cfg.update({"instance": str(d), "solver": "rnlcg", "precond": "identity",
                "rank": 4, "tol": 1e-8, "max_iters": 100})
    s1, t1 = run_solve(cfg)
    # in-memory solve on the same imported data must give the same trace
    from lrmeq.solver_rnlcg import RnlcgOptions, rnlcg_solve

    X, t2, status = rnlcg_solve(
        back.op, back.F, RnlcgOptions(rank=4, tol=1e-8, max_iters=100, seed=0)
    )
    assert t1.rows_without_time() == t2.rows_without_time()


def test_spd_loss_exits_with_code_2(tmp_path, monkeypatch):
    class TurnsIndefinite:
        applies = 0

        def apply_inv_tangent(self, eta):
            self.applies += 1
            return eta if self.applies == 1 else eta.scaled(-1.0)

    def setup(inst, cfg):
        return geo.KroneckerMetric(), TurnsIndefinite()

    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    monkeypatch.setattr(cli, "_build_tangent_setup", setup)
    out = tmp_path / "run"
    code = main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--rank", "2", "--out", str(out)])
    assert code == 2
    with open(out / "summary.json") as fh:
        assert json.load(fh)["status"] == "spd_loss"


def test_solve_writes_outputs_and_converges(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    out = tmp_path / "run"
    code = main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--precond", "P1", "--rank", "6", "--tol", "1e-8", "--out", str(out)])
    assert code == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "converged"
    assert float(summary["final_res"]) <= 1e-8
    rows = read_trace_rows(out / "trace.csv", drop_time=False)
    header = rows[0]
    # summary residual equals last exact residual in the trace
    kind_col = header.index("res_kind")
    res_col = header.index("res_rel")
    exact = [r for r in rows[1:] if r[kind_col] == "exact"]
    assert float(exact[-1][res_col]) == float(summary["final_res"])


def test_solve_nonconvergence_exit_code(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    out = tmp_path / "run"
    code = main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--precond", "identity", "--rank", "2", "--tol", "1e-13",
                 "--max-iters", "3", "--out", str(out)])
    assert code == 2


def test_solve_trivial_tolerance(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    out = tmp_path / "run"
    code = main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--precond", "identity", "--rank", "2", "--tol", "1.0",
                 "--out", str(out)])
    assert code == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["iters"] <= 1


def test_invalid_config_exit_code(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "nope"), "--solver", "rnlcg"]) == 4
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"solver": "bogus"}))
    assert main(["solve", "--config", str(cfg), "--instance", "x"]) == 3


def test_determinism_identical_traces(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(8, 8, 3, seed=9), inst_dir)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main(["solve", "--instance", str(inst_dir), "--solver", "rram",
                     "--precond", "P1", "--r0", "2", "--r-up", "2", "--tol", "1e-7", "--seed", "11", "--out", str(out)])
        outs.append(out)
    t1 = read_trace_rows(outs[0] / "trace.csv")
    t2 = read_trace_rows(outs[1] / "trace.csv")
    assert t1 == t2


def test_compare_table(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    summaries = []
    for i, precond in enumerate(["identity", "P1"]):
        out = tmp_path / f"run{i}"
        main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
              "--precond", precond, "--rank", "6", "--tol", "1e-8", "--out", str(out)])
        summaries.append(str(out / "summary.json"))
    table = tmp_path / "cmp.csv"
    assert main(["compare", *summaries, "--out", str(table)]) == 0
    rows = list(csv.reader(open(table)))
    assert rows[0] == ["solver", "precond", "iters", "time_s", "final_rank", "peak_rank",
                       "evaluations", "gradients", "final_res"]
    assert len(rows) == 3
    assert rows[1][1] == "identity" and rows[2][1] == "P1"
    assert rows[1][5] == rows[2][5] == "6"


def rank_two_solution_instance():
    """An 18x16 instance whose solution has rank 2, with the Kronecker
    metric of its two terms as P1."""
    rng = np.random.default_rng(0)
    A = [rand_spd(18, rng, 60.0), np.eye(18)]
    B = [np.eye(16), rand_spd(16, rng, 60.0)]
    op = eqs.MultitermOperator(A, B)
    Ff = op.apply(geo.random_point(18, 16, 2, geo.KroneckerMetric(), rng))
    return pb.ProblemInstance(op, eqs.LowRankRhs(Ff.left, Ff.right),
                              p1={"kind": "kron", "E": A[0], "D": B[1]})


@pytest.mark.parametrize("solver, flags", [
    ("rnlcg", ["--rank", "4"]), ("rram", ["--r0", "4", "--r-up", "2"]), ("trunc_cg", []),
])
def test_summary_peak_rank_is_the_largest_trace_rank(tmp_path, solver, flags):
    """``peak_rank`` in summary.json is the largest ``rank`` of the trace,
    for each of the three solvers; RRAM, started at rank 4, cuts to the
    solution's rank 2, so its peak is above its final rank."""
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(rank_two_solution_instance(), inst_dir)
    out = tmp_path / "run"
    assert main(["solve", "--instance", str(inst_dir), "--solver", solver, "--precond", "P1",
                 "--tol", "1e-9", *flags, "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    with open(out / "trace.csv") as fh:
        ranks = [int(r["rank"]) for r in csv.DictReader(fh)]
    assert summary["peak_rank"] == max(ranks) >= summary["final_rank"]
    if solver == "rram":
        assert (summary["peak_rank"], summary["final_rank"]) == (4, 2)


@pytest.mark.parametrize("solver, flags", [
    ("rnlcg", ["--rank", "4"]), ("rram", ["--r0", "4", "--r-up", "2"]), ("trunc_cg", []),
])
def test_summary_counts_evaluations_and_gradients(tmp_path, solver, flags):
    """summary.json counts the solve's evaluations and gradients, and
    ``compare`` prints both after ``peak_rank``, with empty cells for a
    summary written before they were counted.  R-NLCG evaluates each of
    its ``iters + 1`` points and takes a gradient at every point but the
    last; RRAM evaluates its first point, each step's and some proposed
    cuts, and takes no gradient at the point that ends the solve; truncated CG
    preconditions its residual once per row and evaluates the true
    residual on every ``exact`` row but the first."""
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(rank_two_solution_instance(), inst_dir)
    out = tmp_path / "run"
    assert main(["solve", "--instance", str(inst_dir), "--solver", solver, "--precond", "P1",
                 "--tol", "1e-9", *flags, "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    iters, evals, grads = summary["iters"], summary["evaluations"], summary["gradients"]
    if solver == "rnlcg":
        assert (evals, grads) == (iters + 1, iters)
    elif solver == "rram":
        steps = sum("rank_up" not in r["event"] for r in rows[1:])
        assert 0 < grads < len(rows) and evals >= 1 + steps
    else:
        exact = sum(r["res_kind"] == "exact" for r in rows)
        assert (evals, grads) == (exact - 1, iters + 1)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({k: v for k, v in summary.items()
                               if k not in ("evaluations", "gradients")}))
    table = tmp_path / "cmp.csv"
    assert main(["compare", str(out / "summary.json"), str(old), "--out", str(table)]) == 0
    header, new_row, old_row = csv.reader(open(table))
    at = header.index("peak_rank")
    assert header[at + 1:at + 3] == ["evaluations", "gradients"]
    assert new_row[at + 1:at + 3] == [str(evals), str(grads)]
    assert old_row[at + 1:at + 3] == ["", ""]


def test_compare_prints_an_empty_peak_rank_for_an_older_summary(tmp_path):
    old = {"iters": 3, "wall_s": 0.5, "final_rank": 4, "final_res": 1e-7,
           "config": {"solver": "rram", "precond": "P2"}}
    paths = []
    for name, s in (("old", old), ("new", dict(old, peak_rank=9))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(s))
    table = tmp_path / "cmp.csv"
    assert main(["compare", *map(str, paths), "--out", str(table)]) == 0
    rows = list(csv.reader(open(table)))
    assert [r[4:6] for r in rows[1:]] == [["4", ""], ["4", "9"]]


def test_summary_records_the_environment(tmp_path, monkeypatch):
    """summary.json holds the library versions, the BLAS thread settings as
    set (None where unset) and the CPU count; ``compare`` ignores them."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    out = tmp_path / "run"
    main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg", "--precond", "P1",
          "--rank", "6", "--tol", "1e-8", "--out", str(out)])
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
        "cpu_count": os.cpu_count(),
    }
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(summary, environment={"python": "0", "threads": {}})))
    table = tmp_path / "cmp.csv"
    assert main(["compare", str(out / "summary.json"), str(other), "--out", str(table)]) == 0
    rows = list(csv.reader(open(table)))
    assert len(rows) == 3 and rows[1] == rows[2]


def test_compare_requires_two(tmp_path):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"iters": 1, "wall_s": 0.0, "final_rank": 1,
                             "final_res": 0.0, "config": {}}))
    assert main(["compare", str(s)]) == 3


@pytest.mark.parametrize(
    "bad", [{"wall_s": 0.0, "final_rank": 1, "final_res": 0.0, "config": {}}, [1, 2]],
    ids=["no-iters", "list"],
)
def test_compare_bad_summary_exits_4(tmp_path, capsys, bad):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"iters": 1, "wall_s": 0.0, "final_rank": 1,
                                "final_res": 0.0, "config": {}}))
    s = tmp_path / "bad.json"
    s.write_text(json.dumps(bad))
    assert main(["compare", str(good), str(s)]) == 4
    assert str(s) in capsys.readouterr().err


def test_compare_without_out_prints_the_table(tmp_path, capsys):
    """Without ``--out``, ``compare`` writes its header and one row per
    summary to stdout."""
    paths = []
    for name, precond in (("a", "identity"), ("b", "P1")):
        s = tmp_path / f"{name}.json"
        s.write_text(json.dumps({"iters": 3, "wall_s": 0.5, "final_rank": 2, "final_res": 1e-7,
                                 "config": {"solver": "rnlcg", "precond": precond}}))
        paths.append(str(s))
    assert main(["compare", *paths]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows == [
        ["solver", "precond", "iters", "time_s", "final_rank", "peak_rank",
         "evaluations", "gradients", "final_res"],
        ["rnlcg", "identity", "3", "0.5", "2", "", "", "", "1e-07"],
        ["rnlcg", "P1", "3", "0.5", "2", "", "", "", "1e-07"],
    ]


def test_verify_passes():
    assert main(["verify"]) == 0


def test_identical_compare_rows_mod_time(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    rows = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["solve", "--instance", str(inst_dir), "--solver", "trunc_cg",
              "--precond", "P1", "--tol", "1e-7", "--out", str(out)])
        with open(out / "summary.json") as fh:
            s = json.load(fh)
        rows.append((s["iters"], s["final_rank"], s["final_res"], s["status"]))
    assert rows[0] == rows[1]


def test_p1_is_generalized_sylvester_in_the_identity_metric(tmp_path):
    inst = pb.gen_fd_diffusion_paper(24)
    metric, prec = cli._build_tangent_setup(inst, dict(_CONFIG_DEFAULTS, precond="P1"))
    assert metric.is_identity
    assert isinstance(prec, pc.GenSylvesterPrecond)
    assert prec.metric is metric

    inst_dir = tmp_path / "inst"
    assert main(["generate", "--family", "fd-diffusion", "--n", "24",
                 "--out", str(inst_dir)]) == 0
    out = tmp_path / "run"
    assert main(["solve", "--instance", str(inst_dir), "--precond", "P1",
                 "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "converged" and float(summary["final_res"]) <= 1e-6


def test_stoch_galerkin_p1_builds():
    """The stochastic-Galerkin P1 spec has ``D = None``, which the Kronecker
    metric keeps as the identity.  The Riemannian solvers take the spec as
    their metric, with no preconditioner, and truncated CG as its ambient
    solve."""
    inst = pb.gen_stoch_galerkin(6, 2, 2)
    cfg = dict(_CONFIG_DEFAULTS, precond="P1")
    metric, prec = cli._build_tangent_setup(inst, cfg)
    assert metric.E is inst.p1["E"] and metric.D is None
    assert isinstance(prec, pc.IdentityPrecond)
    amb = cli._build_ambient_precond(inst, cfg)
    assert isinstance(amb, pc.KronPrecond) and amb.kron.D is None


def test_tangadi_setup_factors_e_and_d_once(monkeypatch):
    """tangADI's set-up factors E and D once each, in the KroneckerMetric it
    hands to the preconditioner; the two spectral intervals make no
    factorization of their own, and the shifted pencils wait for the first
    apply."""
    inst = pb.gen_fd_diffusion_paper(24)
    events = []
    init, interval = numkit.SpdFactorization.__init__, pc.spectral_interval

    def counted_init(self, A):
        events.append(("factor", A))
        init(self, A)

    def counted_interval(A, apply_E, solve_E):
        events.append(("interval", None))
        out = interval(A, apply_E, solve_E)
        events.append(("interval done", None))
        return out

    monkeypatch.setattr(numkit.SpdFactorization, "__init__", counted_init)
    monkeypatch.setattr(pc, "spectral_interval", counted_interval)
    metric, prec = cli._build_tangent_setup(inst, dict(_CONFIG_DEFAULTS, precond="tangadi"))
    assert metric.is_identity and isinstance(prec, pc.TangAdiPrecond)
    kron = prec.kron
    assert kron.E is inst.p2["E"] and kron.D is inst.p2["D"]
    expected = [
        ("factor", kron.E), ("factor", kron.D),
        ("interval", None), ("interval done", None),
        ("interval", None), ("interval done", None),
    ]
    assert len(events) == len(expected)
    assert all(k == k2 and x is x2 for (k, x), (k2, x2) in zip(events, expected))
    assert "factors" not in vars(prec)


def test_ambient_fadi_truncates_at_the_solver_tolerance(rng):
    """The fADI hook of truncated CG recompresses each sweep as the solver
    recompresses its residual, at the configured ``tol``: at ``tol = 0.5``
    (a relative cut of 0.05) it keeps two of these five singular values, at
    the default ``tol`` all five."""
    inst = pb.gen_synthetic(7, 6, 2, seed=5)
    cfg = dict(_CONFIG_DEFAULTS, solver="trunc_cg", precond="P2")
    Q1, _ = np.linalg.qr(rng.standard_normal((7, 5)))
    Q2, _ = np.linalg.qr(rng.standard_normal((6, 5)))
    Z = geo.FactoredMatrix(Q1 * np.geomspace(1.0, 1e-4, 5), Q2)
    for tol, keep in ((0.5, 2), (cfg["tol"], 5)):
        amb = cli._build_ambient_precond(inst, dict(cfg, tol=tol))
        assert isinstance(amb, pc.FadiAmbientPrecond)
        assert amb.truncate_fn(Z).k == keep


@pytest.mark.parametrize(
    "bad", [{"solver": "rnlgc"}, {"precond": "p2"}], ids=["solver", "precond"],
)
def test_config_file_with_unknown_value_exits_3(tmp_path, bad):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(inst_dir), "out": str(tmp_path / "run"), **bad}))
    assert main(["solve", "--config", str(cfg)]) == 3
    assert not (tmp_path / "run").exists()


def test_solve_without_instance_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--solver", "rnlcg"]) == 3
    assert "no instance directory given" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_preconditioner_exits_3(tmp_path, capsys):
    """A one-term instance has no P2."""
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 1, seed=5), inst_dir)
    assert main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--precond", "P2", "--out", str(tmp_path / "run")]) == 3
    assert "instance provides no P2 preconditioner" in capsys.readouterr().err


def test_tangadi_on_a_kronecker_spec_exits_3(tmp_path, capsys):
    """Stochastic Galerkin's preconditioners are Kronecker specs, which
    tangADI cannot use."""
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_stoch_galerkin(4, 2, 1), inst_dir)
    assert main(["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
                 "--precond", "tangadi", "--out", str(tmp_path / "run")]) == 3
    assert "tangADI needs a generalized-Sylvester" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["3", '[{"a": 1}]'], ids=["number", "list"])
def test_config_file_not_an_object_exits_3(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["solve", "--config", str(cfg), "--instance", str(tmp_path)]) == 3
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("adi_steps", 8), ("kron_mode", "metric"), ("rank_cap", 12)],
    ids=["adi_steps", "kron_mode", "rank_cap"],
)
def test_config_file_with_removed_key_exits_3(tmp_path, capsys, key, value):
    """``adi_steps`` is gone (the sweep count is the number of shifts), so
    is ``kron_mode`` (a Kronecker preconditioner is always the metric), and
    so is ``rank_cap`` (truncated CG truncates each quantity relative to its
    own norm, with no cap): a config file that still sets one names it as
    an unknown key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["solve", "--config", str(cfg), "--instance", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "unknown config keys" in err and key in err


def test_solve_flags_are_the_config_keys(capsys):
    """``lrmeq solve`` has one flag per config key, and besides them only
    ``--config``, ``--instance``, ``--out`` and ``--help``."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    expected = {"--" + key.replace("_", "-") for key in _CONFIG_DEFAULTS}
    assert len(expected) == len(_CONFIG_DEFAULTS)
    assert flags == expected | {"--config", "--instance", "--out", "--help"}


@pytest.mark.parametrize(
    "argv",
    [["--precond", "p2"], ["--rank", "abc"], ["--adi-steps", "8"], ["--kron-mode", "metric"],
     ["--rank-cap", "3"]],
    ids=["choice", "type", "removed", "removed_kron_mode", "removed_rank_cap"],
)
def test_flag_argparse_rejects_exits_3(tmp_path, capsys, argv):
    """A rejected flag value is an invalid configuration (3), like the same
    value in a config file, not a solve that did not converge (2)."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", str(tmp_path), *argv])
    assert exc.value.code == 3
    assert argv[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver, source, key, value",
    [
        ("rnlcg", "flag", "check_every", 0),
        ("rnlcg", "flag", "rank", 0),
        ("rram", "flag", "r0", 0),
        ("rram", "flag", "r_up", 0),
        ("rnlcg", "flag", "adi_shifts", 0),
        ("trunc_cg", "flag", "adi_shifts", 0),
        ("rram", "flag", "tol", -1.0),
        ("rnlcg", "file", "rank", "12"),
        ("rnlcg", "file", "tol", "1e-6"),
        ("rram", "file", "tol", "1e-6"),
        ("trunc_cg", "file", "tol", "1e-6"),
        ("rram", "file", "max_iters", 1.5),
    ],
)
def test_bad_setting_exits_3_before_set_up(tmp_path, capsys, monkeypatch, solver, source, key, value):
    """Out-of-range or wrongly typed settings are rejected before any set-up
    or solve, with exit 3 and a message that names the setting."""
    def no_set_up(*args):
        raise AssertionError("set-up reached")

    monkeypatch.setattr(cli, "_build_tangent_setup", no_set_up)
    monkeypatch.setattr(cli, "_build_ambient_precond", no_set_up)
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    argv = ["solve", "--instance", str(inst_dir), "--solver", solver,
            "--out", str(tmp_path / "run")]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--family", "fd-diffusion", "--n", "1"],
     ["--family", "stoch-galerkin", "--n", "4", "--theta", "5"],
     ["--family", "synthetic", "--l", "0"]],
    ids=["fd-n", "sg-theta", "synthetic-l"],
)
def test_generate_rejected_setting_exits_3(tmp_path, capsys, flags):
    """A setting the generator rejects is an invalid configuration."""
    assert main(["generate", *flags, "--out", str(tmp_path / "inst")]) == 3
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("key", ["instance", "out"])
def test_config_file_path_not_a_string_exits_3(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instance": str(tmp_path), key: 3}))
    assert main(["solve", "--config", str(cfg)]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--precond", "tangadi"], ["--solver", "trunc_cg", "--precond", "P2"]],
    ids=["tangadi", "trunc_cg-fadi"],
)
def test_non_spd_preconditioner_pencil_exits_4(tmp_path, capsys, flags):
    """P2's A shifted to ``A - 0.5 lam_max(A) I`` is symmetric but the pencil
    (A, E) is indefinite: the Wachspress set-up finds it and exits 4, as for
    any preconditioner matrix that is not SPD."""
    inst = pb.gen_fd_diffusion_paper(30)
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(inst, inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    A = inst.p2["A"].toarray()
    _rewrite(inst_dir, manifest, "p2_A", A - 0.5 * np.linalg.eigvalsh(A)[-1] * np.eye(len(A)))
    (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    argv = ["solve", "--instance", str(inst_dir), *flags, "--out", str(tmp_path / "run")]
    assert main(argv) == 4
    assert "not SPD" in capsys.readouterr().err


def test_corrupted_instance_exits_4(tmp_path):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    argv = ["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
            "--out", str(tmp_path / "run")]
    mtx = inst_dir / "A0.mtx"
    good = mtx.read_text()
    lines = good.splitlines(keepends=True)
    lines[-1] = lines[-1].replace("1", "2", 1)   # one changed digit of a value
    mtx.write_text("".join(lines))
    with pytest.raises(inst_io.InstanceError):
        inst_io.import_instance(inst_dir)
    assert main(argv) == 4

    mtx.write_text(good)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    (inst_dir / "manifest.json").write_text(json.dumps(dict(manifest, format="other")))
    assert main(argv) == 4


def _rewrite(inst_dir, manifest, name, M):
    """Replace the matrix file ``name`` by ``M`` with a matching hash."""
    path = inst_dir / manifest["files"][name]
    inst_io._write_matrix(str(path), M)
    manifest["sha256"][name] = inst_io._sha256(path)


def _no_terms(inst_dir, manifest, inst):
    manifest["ell"] = 0


def _short_rhs(inst_dir, manifest, inst):
    _rewrite(inst_dir, manifest, "FL", inst.F.left[:-1])


def _short_p2_E(inst_dir, manifest, inst):
    _rewrite(inst_dir, manifest, "p2_E", inst.p2["E"][:-1, :-1])


def _p2_D_on_the_m_side(inst_dir, manifest, inst):
    _rewrite(inst_dir, manifest, "p2_D", inst.p2["E"])


def _asymmetric_p2_E(inst_dir, manifest, inst):
    E = inst.p2["E"].toarray()
    E[0, 1] *= 1.0 + 1e-6
    _rewrite(inst_dir, manifest, "p2_E", E)


def _negated_p2_E(inst_dir, manifest, inst):
    _rewrite(inst_dir, manifest, "p2_E", -inst.p2["E"])


def _negated_p1_E(inst_dir, manifest, inst):
    _rewrite(inst_dir, manifest, "p1_E", -inst.p1["E"])


# (corruption, preconditioner of the solve, whether import_instance finds it);
# an indefinite matrix is found when the set-up factors it
MALFORMED = [
    (_no_terms, "P2", True),
    (_short_rhs, "P2", True),
    (_short_p2_E, "P2", True),
    (_p2_D_on_the_m_side, "P2", True),
    (_asymmetric_p2_E, "P2", True),
    (_negated_p2_E, "P2", False),
    (_negated_p1_E, "P1", False),
]


@pytest.mark.parametrize("corrupt, precond, at_import", MALFORMED,
                         ids=[case[0].__name__ for case in MALFORMED])
def test_malformed_instance_exits_4(tmp_path, capsys, corrupt, precond, at_import):
    """Files that hash correctly but do not form one m x n equation with
    SPD preconditioners are an unreadable instance: exit 4, not a
    traceback from the solver's set-up."""
    inst = pb.gen_synthetic(7, 6, 2, seed=5)
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(inst, inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    corrupt(inst_dir, manifest, inst)
    (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    if at_import:
        with pytest.raises(inst_io.InstanceError):
            inst_io.import_instance(inst_dir)
    argv = ["solve", "--instance", str(inst_dir), "--solver", "rnlcg", "--precond", precond,
            "--out", str(tmp_path / "run")]
    assert main(argv) == 4
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("solver, code", [("rnlcg", 3), ("rram", 3), ("trunc_cg", 0)])
def test_zero_rhs(tmp_path, capsys, solver, code):
    """F = 0 has the solution X = 0: truncated CG returns it, and the
    Riemannian solvers, whose residual is relative to F, refuse the
    instance as a configuration error naming the solver."""
    inst = pb.gen_synthetic(7, 6, 3, seed=2)
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(inst, inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    _rewrite(inst_dir, manifest, "FL", np.zeros_like(inst.F.left))
    (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    argv = ["solve", "--instance", str(inst_dir), "--solver", solver,
            "--out", str(tmp_path / "run")]
    assert main(argv) == code
    if code == 3:
        assert f"solver {solver!r}" in capsys.readouterr().err


def _with_p2_matrices(m, matrices):
    precond = dict(m["precond"], p2=dict(m["precond"]["p2"], matrices=matrices))
    return dict(m, precond=precond)


# rewrites of a 3-term instance's manifest whose hashes all still match
WRONG_TYPE = {
    "ell_bool": lambda m: dict(m, ell=True),
    "ell_short": lambda m: dict(m, ell=1),
    "ell_float": lambda m: dict(m, ell=3.0),
    "precond_list": lambda m: dict(m, precond=[]),
    "matrices_list": lambda m: _with_p2_matrices(m, []),
    "precond_kind_unknown": lambda m: dict(
        m, precond=dict(m["precond"], p2=dict(m["precond"]["p2"], kind="bogus"))),
    "sha256_list": lambda m: dict(m, sha256=[]),
    "manifest_list": lambda m: [m],
}


@pytest.mark.parametrize("rewrite", list(WRONG_TYPE.values()), ids=list(WRONG_TYPE))
def test_manifest_entry_of_wrong_type_exits_4(tmp_path, capsys, rewrite):
    """``ell`` must be a positive integer (not a bool) that counts the A and
    the B terms in ``files``, the manifest, ``precond``, each ``matrices``
    and ``sha256`` are JSON objects, and a preconditioner's ``kind`` is
    ``kron``, ``sylv`` or ``gen_sylv``: anything else is an unreadable
    instance, not a traceback, a configuration error or a truncated
    equation."""
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 3, seed=5), inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    (inst_dir / "manifest.json").write_text(json.dumps(rewrite(manifest)))
    with pytest.raises(inst_io.InstanceError):
        inst_io.import_instance(inst_dir)
    argv = ["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 4
    assert "I/O error" in capsys.readouterr().err


def _drop_ell(m):
    del m["ell"]


def _drop_files(m):
    del m["files"]


def _drop_file_entry(m):
    del m["files"]["A1"]


def _drop_precond_kind(m):
    del m["precond"]["p2"]["kind"]


def _drop_precond_matrices(m):
    del m["precond"]["p2"]["matrices"]


def _drop_p2_A(m):
    """A generalized-Sylvester spec without its A (E and D may be missing:
    each is then the identity)."""
    del m["precond"]["p2"]["matrices"]["A"]


@pytest.mark.parametrize("drop", [_drop_ell, _drop_files, _drop_file_entry,
                                  _drop_precond_kind, _drop_precond_matrices, _drop_p2_A])
def test_manifest_missing_key_exits_4(tmp_path, capsys, drop):
    inst_dir = tmp_path / "inst"
    inst_io.export_instance(pb.gen_synthetic(6, 6, 2, seed=5), inst_dir)
    manifest = json.loads((inst_dir / "manifest.json").read_text())
    drop(manifest)
    (inst_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(inst_io.InstanceError, match="manifest lacks"):
        inst_io.import_instance(inst_dir)
    argv = ["solve", "--instance", str(inst_dir), "--solver", "rnlcg",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 4
    assert "manifest lacks" in capsys.readouterr().err
