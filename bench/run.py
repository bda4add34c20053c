"""Benchmark entry point: one workload in one process with one BLAS thread.

Run from the repository root:

    python3 bench/run.py --workload fd-p2 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics with every layer boundary wrapped.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric by name and unit.  The full result,
with every solve, goes to ``bench/out/``, and a traced run also writes its
spans there.  The program is imported from ``src/`` of the working
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Put ``src/`` of the working directory first on the path and check
    that ``lrmeq`` really comes from there."""
    src = Path.cwd() / "src"
    if not (src / "lrmeq" / "__init__.py").is_file():
        return f"no program to measure: {src / 'lrmeq'} not found (run from the repository root)"
    sys.path.insert(0, str(src))
    import lrmeq

    if Path(lrmeq.__file__).resolve().parent != (src / "lrmeq").resolve():
        return f"lrmeq imported from {lrmeq.__file__}, not from {src}"
    return None


def _write_spans(path, tracers):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["episode", "span", "name", "start", "end", "parent"])
        for ep, t in enumerate(tracers):
            for i, (name, t0, t1, parent) in enumerate(t.spans):
                w.writerow([ep, i, name, repr(t0), repr(t1), parent])


def main(argv=None):
    args = _args(argv)
    error = _import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = measure.environment(args.seed)
    if args.trace:
        metrics, outcomes, tracers, counts_repeat = measure.per_layer(w, args.seed, args.seconds)
        setups = None
    else:
        metrics, outcomes, setups = measure.end_to_end(w, args.seed, args.seconds)
        tracers, counts_repeat = [], True
    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and counts_repeat

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracers:
        _write_spans(stem.with_suffix(".spans.csv"), tracers)
    solves = [{k: v for k, v in vars(o).items() if k != "trace"} for o in outcomes]
    full = {"workload": w.name, "trace": args.trace, "env": env, "correct": correct,
            "counts_repeat": counts_repeat, "metrics": metrics, "solves": solves,
            "setups": setups}
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  tol {w.config['tol']:g}")
    print("env " + json.dumps(env))
    for o in outcomes:
        if not o.ok:
            print(f"FAILED solve seed={o.seed}: {o.reason}")
    if not counts_repeat:
        print("FAILED: per-layer call counts differ between identical traced solves")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:<12.6g} {unit}")
    print(f"{'fail_rate':48s} {failed / len(outcomes):<12.6g} 1  ({failed} of {len(outcomes)} solves)")
    res = sorted(o.final_res for o in outcomes if o.final_res is not None)
    if res:
        print(f"{'final_res':48s} {res[-1]:<12.6g} 1  (largest; median {res[len(res) // 2]:.6g})")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # The thread policy: one BLAS thread, fixed before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
