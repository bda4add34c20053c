import csv
import json

from lrmeq import cli
from lrmeq import geometry as geo
from lrmeq import io as inst_io
from lrmeq import problems as pb
from lrmeq.cli import main, run_solve, _CONFIG_DEFAULTS


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
        return geo.KroneckerMetric.identity(inst.op.m, inst.op.n), TurnsIndefinite()

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
                 "--precond", "P1", "--kron-mode", "gradient", "--rank", "6",
                 "--tol", "1e-8", "--out", str(out)])
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
                     "--precond", "P1", "--kron-mode", "gradient", "--r0", "2",
                     "--r-up", "2", "--tol", "1e-7", "--seed", "11", "--out", str(out)])
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
              "--precond", precond, "--kron-mode", "gradient", "--rank", "6",
              "--tol", "1e-8", "--out", str(out)])
        summaries.append(str(out / "summary.json"))
    table = tmp_path / "cmp.csv"
    assert main(["compare", *summaries, "--out", str(table)]) == 0
    rows = list(csv.reader(open(table)))
    assert rows[0] == ["solver", "precond", "iters", "time_s", "final_rank", "final_res"]
    assert len(rows) == 3
    assert rows[1][1] == "identity" and rows[2][1] == "P1"


def test_compare_requires_two(tmp_path):
    s = tmp_path / "s.json"
    s.write_text(json.dumps({"iters": 1, "wall_s": 0.0, "final_rank": 1,
                             "final_res": 0.0, "config": {}}))
    assert main(["compare", str(s)]) == 3


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
