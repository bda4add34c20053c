"""Measurement loops: an untraced end-to-end run and a traced per-layer run.

Both repeat whole solves (fresh set-up, solve, gate) for the length of the
measurement window.  The untraced run gives solve ``j``
the solver seed ``seed * SEEDS_PER_RUN + j``, so its medians are taken over
random initial points.  The traced run repeats the solve of seed ``j = 0``,
alternating untraced and traced episodes, so its counts are exact and its
overhead compares identical work.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time

import tracer as tr
import workloads as wl

SETUP_REPS = 3     # extra set-ups timed before each solve
SEEDS_PER_RUN = 1000


def solver_seed(seed, j):
    return seed * SEEDS_PER_RUN + j


def repeat_until(seconds, step, min_steps=1):
    """Call ``step(j)`` for j = 0, 1, ... until the window of ``seconds`` is
    used: stop once the next call, as long as the median one so far, would
    end more than half a call past it."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) / 2 > seconds:
            return


def timed_setups(w):
    """Seconds of ``SETUP_REPS`` back-to-back set-ups; one that raises is
    skipped, since the solve records the failure."""
    out = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        try:
            wl.set_up(w)
        except Exception:
            continue
        out.append(time.perf_counter() - t0)
    return out


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(w, seed, seconds):
    """Untraced run; returns ``(metrics, outcomes, setups)`` with metrics as
    ``{name: (value, unit)}`` over the converged, verified solves.

    Set-up takes milliseconds, so besides the set-up of each solve it is
    repeated ``SETUP_REPS`` times before each solve; ``setup_s`` is the
    median of all of them, spread over the whole run like the solves.
    """
    setups, outcomes = [], []

    def step(j):
        setups.extend(timed_setups(w))
        setup_s, outcome = wl.run_one(w, solver_seed(seed, j))
        if setup_s is not None:
            setups.append(setup_s)
        outcomes.append(outcome)

    repeat_until(seconds, step)
    good = [o for o in outcomes if o.ok]
    metrics = {
        "solve_s": (_median(o.solve_s for o in good), "s"),
        "setup_s": (_median(setups), "s"),
        "iters": (_median(o.iters for o in good), "count"),
        "s_per_iter": (_median(o.solve_s / o.iters for o in good), "s"),
        "final_rank": (_median(o.rank for o in good), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, outcomes, setups


def _events(trace):
    events = trace.column("event") if trace is not None else []
    parts = [p for e in events for p in e.split("+")]
    return {
        "solver_rram.rank_ups": sum(p.startswith("rank_up:") for p in parts),
        "solver_rram.rank_downs": sum(p.startswith("rank_down:") for p in parts),
        "solver_rram.plateaus": sum(p == "plateau" for p in parts),
    }


def per_layer(w, seed, seconds):
    """Traced run; returns ``(metrics, outcomes, tracers, counts_repeat)``.

    Episodes alternate untraced and traced, all with solver seed ``j = 0``.
    Counts come from the first traced episode and must repeat in every
    other one.  A boundary's self time is reported as its share of the
    traced episode, the median over traced episodes: a boundary a workload
    never enters reads 0 rather than a time of 0 s, and the share cancels
    the machine's drift between runs.  ``trace.episode_s`` turns shares
    back into seconds.
    """
    s0 = solver_seed(seed, 0)
    plain, traced, tracers = [], [], []

    def step(j):
        if j % 2:
            t = tr.Tracer()
            traced.append(wl.run_one(w, s0, t)[1])
            tracers.append(t)
        else:
            plain.append(wl.run_one(w, s0)[1])

    repeat_until(seconds, step, min_steps=2)
    summaries = [t.self_times() for t in tracers]
    calls = summaries[0][0]
    counts_repeat = all(c == calls for c, _ in summaries)
    episodes = [t.episode_s() for t in tracers]
    metrics = {}
    for name in tr.LAYERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_share"] = (
            _median(s[name] / e for (_, s), e in zip(summaries, episodes)), "1")
    metrics["trace.episode_s"] = (_median(episodes), "s")
    first = tracers[0]
    pencil = calls["precond.pencil_factor"]
    searches = calls["solver_rnlcg.line_search"]
    metrics.update({
        "numkit.spd_solve.rhs_cols": (first.counters["numkit.spd_solve.rhs_cols"], "count"),
        "precond.pencil.hit_ratio": (
            1.0 - calls["numkit.factor_banded"] / pencil if pencil else 0.0, "1"),
        "solver_rnlcg.line_search.trials_per_step": (
            calls["geometry.retraction_at"] / searches if searches else 0.0, "1"),
        "solver_rnlcg.resets": (first.counters["solver_rnlcg.resets"], "count"),
    })
    trace = traced[0].trace
    metrics.update({k: (v, "count") for k, v in _events(trace).items()})
    plain_s = _median(o.solve_s for o in plain if o.ok)
    traced_s = _median(o.solve_s for o in traced if o.ok)
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "1")
    return metrics, plain + traced, tracers, counts_repeat


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(seed):
    """Library versions, BLAS threads and machine: the scope of any
    determinism claim made from this run."""
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }
