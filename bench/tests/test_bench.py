"""Tests of the benchmark itself, on small instances of its workloads.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import dataclasses
import json
from pathlib import Path

import measure
import pytest
import tracer as tr
import workloads as wl


def small(name, **config):
    w = wl.WORKLOADS[name]
    size = dict(w.size, n=120) if w.family == "fd-diffusion" else dict(w.size, ns=12, q=3, p=2)
    return dataclasses.replace(w, size=size, config=dict(w.config, **config))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_counts_repeat_between_traced_runs(name):
    w = small(name)
    first, *_ = measure.per_layer(w, seed=3, seconds=0)
    second, _, _, counts_repeat = measure.per_layer(w, seed=3, seconds=0)
    counts = {k: v for k, (v, unit) in first.items() if unit == "count"}
    assert counts == {k: v for k, (v, unit) in second.items() if unit == "count"}
    assert counts_repeat
    assert counts["solver_rnlcg.step.calls"] > 0


def test_wrapped_names_are_restored():
    before = [vars(owner)[attr] for _, owner, attr, _ in tr.BOUNDARIES]
    t = tr.Tracer()
    with t.installed():
        during = [vars(owner)[attr] for _, owner, attr, _ in tr.BOUNDARIES]
    _, outcome = wl.run_one(small("fd-p2"), 0, tr.Tracer())
    after = [vars(owner)[attr] for _, owner, attr, _ in tr.BOUNDARIES]
    assert outcome.ok
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_wrapped_names_are_restored_when_a_solve_raises():
    before = [vars(owner)[attr] for _, owner, attr, _ in tr.BOUNDARIES]
    _, outcome = wl.run_one(small("fd-tangadi", rank=0), 0, tr.Tracer())
    assert outcome.status == "raised" and not outcome.ok
    assert all(vars(owner)[attr] is b for (_, owner, attr, _), b in zip(tr.BOUNDARIES, before))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_children_fit_inside_their_parent(name):
    t = tr.Tracer()
    _, outcome = wl.run_one(small(name), 1, t)
    assert outcome.ok
    child_total = [0.0] * len(t.spans)
    for _, t0, t1, parent in t.spans:
        assert t0 <= t1
        if parent >= 0:
            p0, p1 = t.spans[parent][1:3]
            assert p0 <= t0 and t1 <= p1
            child_total[parent] += t1 - t0
    for (_, t0, t1, _), inner in zip(t.spans, child_total):
        assert inner <= t1 - t0
    calls, self_s = t.self_times()
    assert all(v >= 0.0 for v in self_s.values())
    assert [s[0] for s in t.spans if s[3] < 0] == ["bench.setup", "bench.solve"]
    assert sum(self_s.values()) == pytest.approx(t.episode_s())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_early_stop_is_a_failure_not_a_time(name):
    w = small(name, max_iters=1)
    metrics, outcomes, _ = measure.end_to_end(w, seed=0, seconds=0)
    assert outcomes and all(not o.ok for o in outcomes)
    assert outcomes[0].reason == "status max_iter"
    assert metrics["solve_s"][0] == 0.0 and metrics["iters"][0] == 0.0


def test_untraced_run_passes_the_gate():
    metrics, outcomes, setups = measure.end_to_end(small("fd-p2"), seed=0, seconds=0)
    assert len(outcomes) == 1 and outcomes[0].ok
    assert outcomes[0].final_res <= wl.WORKLOADS["fd-p2"].config["tol"]
    assert metrics["solve_s"][0] > 0.0 and metrics["setup_s"][0] > 0.0
    assert len(setups) == measure.SETUP_REPS + 1


def test_benchmark_json_declares_what_the_runs_report():
    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    w = small("sg-rram")
    untraced, _, _ = measure.end_to_end(w, seed=0, seconds=0)
    traced, *_ = measure.per_layer(w, seed=0, seconds=0)
    for key, metrics in (("end_to_end", untraced), ("per_layer", traced)):
        assert [(m["name"], m["unit"]) for m in declared[key]] == [
            (name, unit) for name, (_, unit) in metrics.items()
        ]
