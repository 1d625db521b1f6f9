"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import caralloc  # noqa: E402
import harness  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    #            root [0, 10]
    #   a [1, 4]             b [5, 9]
    #                    c [6, 7] (inside b)
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_recorded_self_times_sum_to_the_root_span():
    recorder = SpanRecorder()

    def leaf():
        return sum(range(2000))

    traced_leaf = recorder.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    root = recorder.wrap("root", recorder.wrap("middle", middle))
    root()
    name_id, start, end, parent, _ = recorder.arrays()
    assert [recorder.names[i] for i in name_id] == ["root", "middle", "leaf", "leaf"]
    assert parent.tolist() == [-1, 0, 1, 1]
    own = self_times(start, end, parent)
    assert (own >= 0).all()
    assert math.isclose(own.sum(), end[0] - start[0], rel_tol=1e-9)
    assert recorder.self_time_by_name()["leaf"][0] == 2


def _bindings():
    return {
        (module.__name__, attr): value
        for module in harness.caralloc_modules()
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_restores_every_rebound_name():
    original_update_beta = caralloc.sgpa.update_beta
    before = _bindings()
    recorder = SpanRecorder()
    workload = dataclasses.replace(harness.WORKLOADS["oracle_small"], min_trials=2)
    plain, traced, shapes = harness.run_traced(workload, seed=5, seconds=0.0, recorder=recorder)
    assert caralloc.sgpa.update_beta is original_update_beta
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # The wrappers were in place while the traced trials ran.
    calls = recorder.self_time_by_name()
    for name in ("sgpa.update_beta", "core.top_cap_indicator", "lp.solve_lp", "baselines.brute_force_oracle"):
        assert calls[name][0] > 0
    assert len(shapes.rows) == 2
    assert [t.index for t in plain] == [t.index for t in traced] == [0, 1]
    assert harness.failure_counts(plain + traced) == (12, 0)


def test_rebinding_is_undone_when_a_traced_call_raises():
    recorder = SpanRecorder()
    rebinder = harness.Rebinder(recorder, harness.caralloc_modules(), {caralloc.core.quantize: caralloc.core.quantize})
    original = caralloc.sgpa.quantize
    with pytest.raises(RuntimeError):
        with rebinder.active():
            assert caralloc.sgpa.quantize is not original
            raise RuntimeError
    assert caralloc.sgpa.quantize is original


def test_percentile_refuses_a_p90_with_fewer_than_ten_samples_beyond():
    with pytest.raises(harness.PercentileRefused):
        harness.percentile(np.arange(91.0), 90)
    with pytest.raises(harness.PercentileRefused):
        harness.percentile([], 50)
    assert harness.percentile(np.arange(100.0), 90) == pytest.approx(89.1)
    assert harness.percentile(np.arange(20.0), 50) == pytest.approx(9.5)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_mean_wsu_matches_run_sweep(name):
    workload = harness.WORKLOADS[name]
    seed, trials = 17, 2
    ours = [harness.run_trial(workload, seed, index) for index in range(trials)]
    config = caralloc.SweepConfig(
        algorithms=workload.algorithms,
        gen=workload.gen_params(seed, ()),
        trials=trials,
        base_seed=seed,
        sgpa=caralloc.SgpaConfig(max_iterations=workload.max_iterations),
    )
    rows = {row.algorithm: row for row in caralloc.run_sweep(config)}
    assert set(rows) == set(workload.algorithms)
    for algorithm in workload.algorithms:
        assert harness._mean_wsu(ours, algorithm) == rows[algorithm].mean_wsu
    assert harness.failure_counts(ours)[1] == 0


def test_checks_flag_an_infeasible_allocation_and_a_misreported_wsu():
    instance = caralloc.sample_instance(harness.WORKLOADS["oracle_small"].gen_params(3, (0, 0)))
    good = caralloc.solve(instance)
    wsu, problems = harness.check_allocation(instance, good.binary, good.wsu)
    assert problems == [] and wsu == good.wsu

    _, problems = harness.check_allocation(instance, good.binary, good.wsu + 1.0)
    assert any("reported WSU" in p for p in problems)

    crowded = caralloc.BinaryAllocation(
        np.ones_like(good.binary.alpha), np.ones_like(good.binary.beta), np.ones_like(good.binary.gamma)
    )
    _, problems = harness.check_allocation(instance, crowded, None)
    assert "check_feasibility rejects the allocation" in problems
    assert "allocation breaks a constraint (independent check)" in problems


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rng = np.random.default_rng(0)
    trials = [
        harness.Trial(i, 0.01, {a: harness.Call(a, rng.random() * 1e-3, 1.0, iterations=20) for a in harness.ALGORITHMS})
        for i in range(100)
    ]
    workload = harness.WORKLOADS["oracle_small"]

    end_to_end = harness.end_to_end_metrics(workload, trials, [0.5])
    assert [(m.name, m.unit) for m in end_to_end] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]

    per_layer = harness.layer_metrics(trials, trials, SpanRecorder(), harness.LpShapes()) + harness.algorithm_metrics(
        workload, trials
    )
    assert [(m.name, m.unit) for m in per_layer] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_launcher_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    shutil.copy(ROOT / "perfbench" / "run.py", bench / "run.py")
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "oracle_small"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
