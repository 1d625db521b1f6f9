"""Instance generation, sweeps, and the isolated convergence experiment."""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from caralloc import core, simharness
from caralloc.core import ProblemInstance, evaluate_wsu, top_cap_indicator
from caralloc.sgpa import IterationRecord, SgpaConfig
from caralloc.simharness import (
    ALGORITHMS,
    GenParams,
    SweepConfig,
    capacity_utilities,
    fig1_experiment,
    run_sweep,
    sample_instance,
    write_metadata,
    write_results_csv,
)


def small_params(**overrides):
    base = dict(K=2, M=3, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=0)
    base.update(overrides)
    return GenParams(**base)


class TestGenParams:
    def test_rejects_tiny_dimensions(self):
        with pytest.raises(ValueError):
            small_params(K=1)

    def test_rejects_cap_above_m(self):
        with pytest.raises(ValueError):
            small_params(ue_cc_cap=5)

    def test_limit_may_exceed_m(self):
        params = small_params(system_cc_cap_limit=50)
        assert params.effective_system_cap == 3

    def test_rejects_degenerate_snr_range(self):
        with pytest.raises(ValueError):
            small_params(snr_db_range=(5.0, 5.0))

    @pytest.mark.parametrize("snr_db_range", [(-10.0, np.inf), (-np.inf, 20.0), (np.nan, 20.0)])
    def test_rejects_non_finite_snr_range(self, snr_db_range):
        with pytest.raises(ValueError, match="snr_db_range must be finite"):
            small_params(snr_db_range=snr_db_range)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            small_params(seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("K", 2.5), ("M", 3.0), ("N", True), ("ue_cc_cap", 1.0), ("system_cc_cap_limit", "2"),
        ("seed", 0.5),
    ])
    def test_rejects_counts_that_are_not_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_params(**{name: value})

    def test_rejects_stream_key_items_that_are_not_integers(self):
        with pytest.raises(ValueError, match=r"stream_key\[1\] must be an integer"):
            small_params(stream_key=(0, 1.0))

    def test_rejects_negative_stream_key_items(self):
        with pytest.raises(ValueError, match=r"stream_key\[1\] must be >= 0"):
            small_params(stream_key=(0, np.int64(-1)))

    def test_accepts_numpy_integers(self):
        params = small_params(K=np.int64(2), M=np.int32(3), seed=np.uint8(4),
                              stream_key=(np.int64(1), 2))
        assert params == small_params(K=2, M=3, seed=4, stream_key=(1, 2))
        assert type(params.K) is int and type(params.stream_key[0]) is int

    def test_snr_range_list_is_stored_as_a_hashable_tuple(self):
        params = small_params(snr_db_range=[-10.0, 20.0])
        assert params.snr_db_range == (-10.0, 20.0) and type(params.snr_db_range) is tuple
        assert hash(params) == hash(small_params(snr_db_range=(-10.0, 20.0)))

    @pytest.mark.parametrize("snr_db_range, message", [
        (("a", "b"), r"snr_db_range\[0\] must be a number, not 'a'"),
        ((0.0, True), r"snr_db_range\[1\] must be a number, not True"),
        ((0.0, 10**400), r"snr_db_range\[1\] must be a number within float range"),
        ((0.0,), r"snr_db_range must be a list of 2 numbers"),
    ])
    def test_rejects_snr_ranges_that_are_not_two_numbers(self, snr_db_range, message):
        with pytest.raises(ValueError, match=message):
            small_params(snr_db_range=snr_db_range)

    def test_snr_bound_keeps_utilities_finite(self):
        params = small_params(K=10, M=10, N=20, snr_db_range=(-1000.0, 1000.0))
        assert np.isfinite(sample_instance(params).utilities).all()
        for snr_db_range in ((-1000.5, 0.0), (0.0, 1000.5)):
            with pytest.raises(ValueError, match="snr_db_range must lie within"):
                small_params(snr_db_range=snr_db_range)


class TestCapacityUtilities:
    def test_zero_gain_gives_zero_utility(self):
        out = capacity_utilities(np.zeros((1, 1, 1)), np.zeros((1, 1)), 1)
        assert out[0, 0, 0] == 0.0

    def test_zero_db_is_unit_snr(self):
        out = capacity_utilities(np.ones((1, 1, 1)), np.zeros((1, 1)), 1)
        assert out[0, 0, 0] == pytest.approx(1.0)  # log2(1 + 1*1)

    def test_normalization_by_block_count(self):
        full = capacity_utilities(np.ones((1, 1, 1)), np.zeros((1, 1)), 1)
        quarter = capacity_utilities(np.ones((1, 1, 1)), np.zeros((1, 1)), 4)
        assert quarter[0, 0, 0] == pytest.approx(full[0, 0, 0] / 4.0)

    @pytest.mark.parametrize("num_rbs, message", [
        (0, "num_rbs must be >= 1, not 0"),
        (-3, "num_rbs must be >= 1, not -3"),
        (2.5, "num_rbs must be an integer, not 2.5"),
        (True, "num_rbs must be an integer, not True"),
    ])
    def test_rejects_a_block_count_that_is_not_a_positive_integer(self, num_rbs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            capacity_utilities(np.ones((1, 1, 1)), np.zeros((1, 1)), num_rbs)

    @pytest.mark.parametrize("gain", [-2.0, -1e-300, np.nan])
    def test_rejects_gains_that_are_not_nonnegative(self, gain):
        with pytest.raises(ValueError, match="gains must be nonnegative"):
            capacity_utilities(np.array([[[1.0, gain]]]), np.zeros((1, 1)), 2)

    def test_mean_matches_quadrature(self):
        """Monte-Carlo mean of the utility at fixed unit SNR vs the integral
        of log2(1 + g) against the unit-mean exponential density."""
        expected, _ = integrate.quad(lambda g: np.log2(1.0 + g) * np.exp(-g), 0, np.inf)
        rng = np.random.Generator(np.random.Philox(123))
        gains = rng.exponential(1.0, 100_000)
        sample_mean = capacity_utilities(
            gains.reshape(1, 1, -1), np.zeros((1, 1)), 1
        ).mean()
        assert sample_mean == pytest.approx(expected, rel=0.02)


class TestSampleInstance:
    def test_deterministic_for_fixed_seed(self):
        a = sample_instance(small_params(seed=42))
        b = sample_instance(small_params(seed=42))
        np.testing.assert_array_equal(a.utilities, b.utilities)
        assert a.to_json() == b.to_json()

    def test_different_streams_differ(self):
        a = sample_instance(small_params(seed=42))
        b = sample_instance(GenParams(**{**small_params(seed=42).__dict__, "stream_key": (1,)}))
        assert not np.array_equal(a.utilities, b.utilities)

    def test_utilities_nonnegative_finite(self):
        inst = sample_instance(small_params(seed=7, K=4, M=5, N=3, ue_cc_cap=2))
        assert np.all(inst.utilities >= 0)
        assert np.all(np.isfinite(inst.utilities))

    def test_equal_weights(self):
        inst = sample_instance(small_params(seed=1))
        np.testing.assert_array_equal(inst.weights, [1.0, 1.0])

    def test_simplex_weights_sum_to_one(self):
        inst = sample_instance(small_params(seed=1, weight_mode="uniform_simplex", K=5, ue_cc_cap=1))
        assert inst.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(inst.weights > 0)

    def test_effective_system_cap_applied(self):
        inst = sample_instance(small_params(system_cc_cap_limit=50))
        assert inst.system_cc_cap == 3


class TestAlgorithms:
    def test_entries_return_the_allocation_wsu_and_facts(self):
        instance = sample_instance(small_params(seed=4))
        facts = {
            "sgpa": ["iterations_run", "converged", "active_carriers", "binary_distance"],
            "greedy": [],
            "heuristic": ["lp_pivots", "lp_bound_flips"],
            "oracle": [],
        }
        assert list(ALGORITHMS) == list(facts)
        for name, entry in ALGORITHMS.items():
            run = entry(instance, SgpaConfig())
            assert run.wsu == evaluate_wsu(instance, run.allocation)
            assert list(run.facts) == facts[name]
            assert run.trace is None

    def test_only_a_recording_solver_returns_its_trace(self):
        instance = sample_instance(small_params(seed=4))
        config = SgpaConfig(max_iterations=3, record_trace=True)
        traces = {name: entry(instance, config).trace for name, entry in ALGORITHMS.items()}
        assert [rec.iteration for rec in traces.pop("sgpa")] == [1, 2, 3]
        assert traces == {"greedy": None, "heuristic": None, "oracle": None}


class TestRunSweep:
    def test_single_cell_sweep(self):
        config = SweepConfig(
            algorithms=("sgpa",), gen=small_params(), trials=1, base_seed=5
        )
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.algorithm == "sgpa" and row.trials == 1
        assert row.stderr_wsu == 0.0
        assert row.M == 3 and row.Mk == 1 and row.M0 == 2

    def test_deterministic_means(self):
        config = SweepConfig(
            algorithms=("sgpa", "heuristic", "greedy"),
            gen=small_params(),
            trials=4,
            base_seed=9,
            m_grid=(3, 4),
        )
        first = run_sweep(config)
        second = run_sweep(config)
        assert [r.mean_wsu for r in first] == [r.mean_wsu for r in second]
        assert [(r.algorithm, r.M) for r in first] == [(r.algorithm, r.M) for r in second]

    def test_parallel_matches_sequential(self):
        config = SweepConfig(
            algorithms=("sgpa", "heuristic"),
            gen=small_params(),
            trials=6,
            base_seed=3,
            m_grid=(3, 4),
        )
        sequential = run_sweep(config)
        parallel = run_sweep(SweepConfig(**{**config.__dict__, "jobs": 2}))

        def untimed(rows):
            return [{**asdict(row), "mean_solve_seconds": None} for row in rows]

        assert len(sequential) == 4
        assert untimed(sequential) == untimed(parallel)

    @pytest.mark.parametrize(
        "jobs, trials, affinity, cpus, workers",
        [
            (5000, 3, 64, 64, 6),
            (5000, 3, 4, 64, 4),
            (3, 3, 64, 64, 3),
            (2, 1, 64, 64, 2),
            (5000, 1, 1, 64, 1),
            (5000, 3, None, 4, 4),
            (4, 3, None, None, 1),
        ],
    )
    def test_pool_is_sized_to_the_trials_and_cpus(self, monkeypatch, jobs, trials, affinity, cpus, workers):
        """The pool gets min(jobs, trials, usable CPUs) workers, and one
        worker means no pool at all (a fork-started pool forks every worker
        at once, so ``--jobs 5000`` must not ask for 5000). The usable CPUs
        are the process's affinity set where the platform has one (here
        smaller than the machine's count), else the machine's count, else 1.
        A stub executor records the request and runs the trials here; the
        rows match a serial run."""
        requested = []

        class StubExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        config = SweepConfig(algorithms=("greedy",), gen=small_params(), trials=trials, base_seed=4, m_grid=(3, 4))
        serial = run_sweep(config)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
        monkeypatch.setattr(simharness.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(simharness.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(simharness.os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
        rows = run_sweep(replace(config, jobs=jobs))
        assert requested == ([] if workers == 1 else [workers])

        def untimed(rows):
            return [{**asdict(row), "mean_solve_seconds": None} for row in rows]

        assert untimed(rows) == untimed(serial)

    def test_importing_the_package_loads_no_process_pool(self):
        # The pool's module is imported where run_sweep starts one, so the
        # CLI and every import that runs no pool skip multiprocessing.
        src = str(Path(simharness.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, caralloc, caralloc.cli; print('multiprocessing' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_oracle_budget_marks_row_skipped(self):
        config = SweepConfig(
            algorithms=("sgpa", "oracle"),
            gen=small_params(system_cc_cap_limit=15),
            trials=2,
            base_seed=1,
            m_grid=(3, 30),
        )
        rows = run_sweep(config)
        oracle_rows = [r for r in rows if r.algorithm == "oracle"]
        assert [(r.M, r.skipped) for r in oracle_rows] == [(3, False), (30, True)]
        assert "budget" in oracle_rows[1].skip_reason
        assert all(not r.skipped for r in rows if r.algorithm == "sgpa")

    def test_skipped_oracle_rows_match_across_jobs(self):
        # With M0 = min(M, 15), M=3 needs 9 enumerations and M=30 needs
        # C(30, 15) * 15**2 = 3.5e10, so only M=30 skips.
        config = SweepConfig(
            algorithms=("oracle", "sgpa", "greedy"),
            gen=small_params(system_cc_cap_limit=15),
            trials=3,
            base_seed=2,
            m_grid=(3, 30),
            mk_grid=(1,),
        )
        sequential = run_sweep(config)
        parallel = run_sweep(SweepConfig(**{**config.__dict__, "jobs": 2}))

        def untimed(rows):  # repr, since the skipped row's NaN != NaN
            return [repr({**asdict(row), "mean_solve_seconds": None}) for row in rows]

        assert untimed(sequential) == untimed(parallel)
        assert [(r.algorithm, r.M, r.skipped) for r in sequential] == [
            ("oracle", 3, False), ("sgpa", 3, False), ("greedy", 3, False),
            ("sgpa", 30, False), ("greedy", 30, False), ("oracle", 30, True),
        ]
        skipped = sequential[-1]
        assert skipped.skip_reason == "needs 34901442000 enumerations, budget 10000000"
        assert skipped.trials == 0 and np.isnan(skipped.mean_wsu)
        assert [r.above_oracle for r in sequential[3:5]] == [None, None]

    def test_csv_and_metadata(self, tmp_path):
        config = SweepConfig(
            algorithms=("sgpa",), gen=small_params(), trials=2, base_seed=11
        )
        rows = run_sweep(config)
        csv_path = tmp_path / "rows.csv"
        write_results_csv(rows, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == (
            "algorithm,M,Mk,M0,trials,mean_wsu,stderr_wsu,mean_solve_seconds,above_oracle"
        )
        assert len(lines) == 2
        meta_path = tmp_path / "rows.meta.json"
        write_metadata(config, rows, meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta["generator"] == "numpy.random.Philox"
        assert meta["base_seed"] == 11
        assert "version" in meta

    def test_config_from_dict(self):
        config = SweepConfig.from_dict(
            {
                "algorithms": ["sgpa", "heuristic"],
                "gen": {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2,
                        "snr_db_range": [0, 10]},
                "trials": 3,
                "base_seed": 7,
                "m_grid": [3, 4],
                "sgpa": {"max_iterations": 10},
            }
        )
        assert config.sgpa.max_iterations == 10
        # Every JSON array of a Tuple field reads back as a tuple.
        assert config.algorithms == ("sgpa", "heuristic") and config.m_grid == (3, 4)
        assert config.mk_grid is None and config.gen.snr_db_range == (0, 10)
        gen = GenParams.from_dict({**asdict(config.gen), "stream_key": [4, 2]})
        assert gen == replace(config.gen, stream_key=(4, 2))
        assert config.grid_points() == [
            replace(config.gen, M=3, ue_cc_cap=1), replace(config.gen, M=4, ue_cc_cap=1)
        ]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            SweepConfig(algorithms=("magic",), gen=small_params(), trials=1, base_seed=0)

    def test_rejects_per_user_caps_that_differ(self):
        # The grid would run every trial at one cap and write it as Mk.
        gen = {k: v for k, v in asdict(small_params(K=3)).items() if k not in ("seed", "stream_key")}
        gen["ue_cc_cap"] = [1, 2, 3]
        doc = {"algorithms": ["sgpa"], "gen": gen, "trials": 1, "base_seed": 0}
        with pytest.raises(ValueError, match="ue_cc_cap"):
            SweepConfig.from_dict(doc)
        doc["gen"]["ue_cc_cap"] = 2
        config = SweepConfig.from_dict(doc)
        assert [p.ue_cc_cap for p in config.grid_points()] == [2]

    @pytest.mark.parametrize("name, value", [
        ("trials", 1.5), ("trials", True), ("base_seed", 0.0), ("jobs", True), ("jobs", 2.0),
        ("m_grid", (3, 4.0)), ("mk_grid", (True,)),
    ])
    def test_rejects_counts_that_are_not_integers(self, name, value):
        counts = {"trials": 1, "base_seed": 0, name: value}
        with pytest.raises(ValueError, match=rf"{name}(\[\d\])? must be an integer"):
            SweepConfig(algorithms=("sgpa",), gen=small_params(), **counts)

    def test_accepts_numpy_integers(self):
        config = SweepConfig(algorithms=("sgpa",), gen=small_params(), trials=np.int64(2),
                             base_seed=np.int32(0), m_grid=(np.int64(3),), jobs=np.uint8(1))
        assert (config.trials, config.base_seed, config.m_grid, config.jobs) == (2, 0, (3,), 1)
        assert type(config.trials) is int and type(config.m_grid[0]) is int

    @pytest.mark.parametrize("name, value, message", [
        ("m_grid", 3, "m_grid must be a list of integers, not 3"),
        ("algorithms", (["sgpa"],), "algorithms[0] must be a string, not ['sgpa']"),
        ("gen", {"K": 2}, "gen must be a GenParams, not {'K': 2}"),
        ("sgpa", {"max_iterations": 3}, "sgpa must be a SgpaConfig, not {'max_iterations': 3}"),
        ("sgpa", SgpaConfig(record_trace=True), "sgpa.record_trace must be false"),
    ])
    def test_rejects_fields_of_the_wrong_type(self, name, value, message):
        fields_ = {"algorithms": ("sgpa",), "gen": small_params(), "trials": 1, "base_seed": 0}
        with pytest.raises(ValueError) as raised:
            SweepConfig(**{**fields_, name: value})
        assert str(raised.value).startswith(message)

    def test_config_is_hashable(self):
        config = SweepConfig(algorithms=["sgpa"], gen=small_params(), trials=1, base_seed=0)
        same = SweepConfig(algorithms=("sgpa",), gen=small_params(), trials=1, base_seed=0)
        assert config.algorithms == ("sgpa",) and hash(config) == hash(same)

    def test_readme_sweep_configs_load(self):
        # Every ```json block in README.md is a sweep config.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) >= 3
        for block in blocks:
            SweepConfig.from_dict(json.loads(block))

    def test_readme_column_and_key_lists_match_the_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        trace = ",".join(f.name for f in fields(IterationRecord))
        sweep = ",".join(simharness.CSV_HEADER)
        # Every comma-joined column list in backticks is one of the two CSV headers.
        assert sorted(re.findall(r"`(\w+(?:,\w+)+)`", readme)) == sorted([trace, sweep])
        keys = re.search(r"instance file \(JSON: \{(.*?)\}\)", readme).group(1)
        written = ProblemInstance(np.ones(1), np.ones((1, 1, 1)), [1], 1).to_dict()
        assert json.loads(f"[{keys}]") == list(written)


class TestFig1Experiment:
    @pytest.mark.parametrize("args, name", [
        ((4.0, 2, 1, 0), "M"), ((4, True, 1, 0), "M_k"), ((4, 2, 1.0, 0), "iterations"),
        ((4, 2, 1, 0.5), "seed"),
    ])
    def test_rejects_arguments_that_are_not_integers(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            fig1_experiment(*args)

    def test_accepts_numpy_integers(self):
        np.testing.assert_array_equal(
            fig1_experiment(np.int64(4), np.int32(2), np.uint8(3), np.int64(1)),
            fig1_experiment(4, 2, 3, 1),
        )

    def test_trajectory_shape_and_start(self):
        traj = fig1_experiment(10, 2, 30, seed=0)
        assert traj.shape == (31, 10)
        assert traj[0].sum() == pytest.approx(2.0, abs=1e-9)
        assert np.all(traj[0] > 0)

    def test_converges_to_top_cap_carriers(self):
        traj = fig1_experiment(20, 3, 200, seed=1)
        expected = np.zeros(20)
        expected[:3] = 1.0
        np.testing.assert_array_equal(traj[-1], expected)

    def test_slack_cap_saturates_in_one_iteration(self):
        traj = fig1_experiment(6, 6, 3, seed=2)
        np.testing.assert_array_equal(traj[1], np.ones(6))

    def test_quantizing_midway_recovers_the_top_set(self):
        # Rates are sorted descending inside, so the right answer is 0..2.
        traj = fig1_experiment(20, 3, 20, seed=3)
        quantized = top_cap_indicator(traj[15], 3)
        expected = np.zeros(20, dtype=np.int8)
        expected[:3] = 1
        np.testing.assert_array_equal(quantized, expected)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            fig1_experiment(12, 2, 40, seed=9), fig1_experiment(12, 2, 40, seed=9)
        )


class TestOneTypeRule:
    """Every config field passes one rule, whether built in Python or read from JSON."""

    GEN = {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2}
    SWEEP = {"algorithms": ["sgpa"], "trials": 1, "base_seed": 0}

    @pytest.mark.parametrize("cls, doc, name, value", [
        (SgpaConfig, {}, "max_iterations", 2.5),
        (SgpaConfig, {}, "max_iterations", True),
        (SgpaConfig, {}, "record_trace", "no"),
        (SgpaConfig, {}, "record_trace", 1),
        (GenParams, GEN, "K", "2"),
        (GenParams, GEN, "snr_db_range", [0, "10"]),
        (GenParams, GEN, "snr_db_range", [0, 10**400]),
        (GenParams, GEN, "snr_db_range", 5),
        (GenParams, GEN, "weight_mode", 1),
        (GenParams, GEN, "stream_key", [0, 1.0]),
        (SweepConfig, SWEEP, "trials", "1"),
        (SweepConfig, SWEEP, "jobs", 2.0),
        (SweepConfig, SWEEP, "m_grid", 3),
        (SweepConfig, SWEEP, "mk_grid", [[1]]),
        (SweepConfig, SWEEP, "algorithms", [["sgpa"]]),
    ])
    def test_python_and_json_give_the_same_message(self, cls, doc, name, value):
        built = {**doc, "gen": small_params()} if cls is SweepConfig else dict(doc)
        read = {**doc, "gen": self.GEN} if cls is SweepConfig else dict(doc)
        with pytest.raises(ValueError) as from_python:
            cls(**{**built, name: value})
        with pytest.raises(ValueError) as from_json:
            cls.from_dict({**read, name: value})
        assert str(from_python.value) == str(from_json.value)
        assert str(from_python.value).startswith(name)

    def test_every_field_annotation_is_one_the_rule_knows(self):
        scalars = set(core._KINDS)
        for cls in (SgpaConfig, GenParams, SweepConfig):
            for field in fields(cls):
                annotation = re.sub(r"^Optional\[(.*)\]$", r"\1", field.type)
                items = re.fullmatch(r"Tuple\[(.*)\]", annotation)
                if items:
                    first, *rest = items.group(1).split(", ")
                    assert first in scalars and set(rest) <= {first, "..."}, (cls, field.name)
                else:
                    assert annotation in scalars | {"GenParams", "SgpaConfig"}, (cls, field.name)
