"""Command-line interface: exit codes, file formats, determinism."""

import csv
import json

import numpy as np
import pytest

from caralloc import baselines
from caralloc.baselines import MAX_ENUMERATIONS, _carrier_selection_lp
from caralloc.cli import build_parser, main
from caralloc.core import BinaryAllocation, ProblemInstance
from caralloc.lp import solve_lp
from caralloc.sgpa import SgpaConfig, solve
from caralloc.simharness import ALGORITHMS, fig1_experiment


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, capsys, name="inst.json", **flags):
    args = ["gen", "--K", "2", "--M", "3", "--N", "2", "--Mk", "1",
            "--M0-limit", "2", "--seed", "7", "-o", str(tmp_path / name)]
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return tmp_path / name


class TestGen:
    def test_writes_valid_schema(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        doc = json.loads(path.read_text())
        assert set(doc) == {"K", "M", "N", "weights", "Mk", "M0", "phi"}
        instance = ProblemInstance.from_dict(doc)
        assert instance.num_ues == 2 and instance.system_cc_cap == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = write_instance(tmp_path, capsys, name="a.json")
        b = write_instance(tmp_path, capsys, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_single_ue(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--K", "1", "--M", "3", "--N", "2",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "K" in err or "2" in err

    def test_unwritable_output_fails(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "gen", "--K", "2", "--M", "3", "--N", "2",
            "-o", str(tmp_path / "missing_dir" / "x.json"),
        )
        assert code == 2


class TestSolve:
    def test_sgpa_reports_wsu_and_feasibility(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        code, out, _ = run(capsys, "solve", "--instance", str(path), "--algorithm", "sgpa")
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["wsu"] > 0
        assert doc["iterations_run"] <= 20

    def test_sgpa_reports_run_facts(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        instance = ProblemInstance.from_json(path.read_text())
        for sweeps in ("1", "200"):
            code, out, _ = run(
                capsys, "solve", "--instance", str(path), "--max-iterations", sweeps
            )
            assert code == 0
            doc = json.loads(out)
            result = solve(instance, SgpaConfig(max_iterations=int(sweeps)))
            assert doc["active_carriers"] == result.active_carriers
            assert doc["binary_distance"] == result.binary_distance
            assert 1 <= doc["active_carriers"] <= instance.num_ccs
            assert 0.0 <= doc["binary_distance"] <= 0.5

    def test_heuristic_reports_lp_facts(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, capsys)
        instance = ProblemInstance.from_json(path.read_text())
        expected = solve_lp(_carrier_selection_lp(instance))
        solved = []

        def counted_solve_lp(lp):
            solved.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(baselines, "solve_lp", counted_solve_lp)
        code, out, _ = run(capsys, "solve", "--instance", str(path), "--algorithm", "heuristic")
        assert code == 0
        doc = json.loads(out)
        assert len(solved) == 1
        assert doc["lp_pivots"] == expected.pivots > 0
        assert doc["lp_bound_flips"] == expected.bound_flips

    def test_all_algorithms_run(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        wsus = {}
        for algorithm in ("sgpa", "greedy", "heuristic", "oracle"):
            code, out, _ = run(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
            assert code == 0
            wsus[algorithm] = json.loads(out)["wsu"]
        assert wsus["sgpa"] <= wsus["oracle"] + 1e-9
        assert wsus["heuristic"] <= wsus["oracle"] + 1e-9

    def test_oracle_budget_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        code, _, err = run(
            capsys, "solve", "--instance", str(path), "--algorithm", "oracle",
            "--budget", "3",
        )
        assert code == 4
        assert "budget" in err

    def test_zero_budget_exits_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        code, _, err = run(
            capsys, "solve", "--instance", str(path), "--algorithm", "oracle", "--budget", "0"
        )
        assert code == 2
        assert "budget" in err

    def test_flags_of_other_algorithms_are_checked(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        for algorithm, flag, value, name in (
            ("heuristic", "--max-iterations", "0", "max_iterations"),
            ("sgpa", "--budget", "0", "budget"),
        ):
            code, out, err = run(
                capsys, "solve", "--instance", str(path), "--algorithm", algorithm, flag, value
            )
            assert code == 2
            assert out == ""
            assert name in err

    def test_greedy_reports_whether_it_kept_the_caps(self, tmp_path, capsys):
        # With Mk = M0 = M every cap is slack; with Mk = 1 the greedy hands
        # all 3 carriers' blocks to 2 users, so one of them holds two carriers.
        for mk, within_caps in (("3", True), ("1", False)):
            path = tmp_path / f"mk{mk}.json"
            code, _, err = run(
                capsys, "gen", "--K", "2", "--M", "3", "--N", "2", "--Mk", mk,
                "--seed", "7", "-o", str(path),
            )
            assert code == 0, err
            code, out, _ = run(capsys, "solve", "--instance", str(path), "--algorithm", "greedy")
            assert code == 0
            doc = json.loads(out)
            assert doc["within_caps"] is within_caps
            assert doc["feasible"] is within_caps

    def test_algorithm_choices_are_the_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--help")
        assert code == 0
        assert "--algorithm {" + ",".join(ALGORITHMS) + "}" in out
        assert list(ALGORITHMS) == ["sgpa", "greedy", "heuristic", "oracle"]

    @pytest.mark.parametrize(
        "algorithm, flags",
        [("greedy", ()), ("heuristic", ()), ("oracle", ()), ("oracle", ("--budget", "1"))],
        ids=["greedy", "heuristic", "oracle", "oracle-over-budget"],
    )
    def test_trace_with_another_algorithm_exits_2(self, tmp_path, capsys, algorithm, flags):
        """Only the solver records a trace, so ``--trace`` with any other
        algorithm is refused before the run: with a budget of 1 the oracle
        would otherwise stop with exit 4."""
        path = write_instance(tmp_path, capsys)
        trace = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "solve", "--instance", str(path), "--algorithm", algorithm,
            "--trace", str(trace), *flags,
        )
        assert code == 2
        assert "--trace" in err
        assert not trace.exists()

    def test_solver_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["solve", "--instance", "inst.json"])
        assert args.max_iterations == SgpaConfig().max_iterations
        assert args.budget == MAX_ENUMERATIONS

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "solve", "--instance", str(tmp_path / "nope.json"))
        assert code == 2

    def test_list_valued_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "solve", "--instance", str(path))
        assert code == 2
        assert "JSON object" in err

    def test_non_integer_dimension_fields_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        for name, value in (("M0", [2]), ("K", "2"), ("M0", 2.7)):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**doc, name: value}))
            code, _, err = run(capsys, "solve", "--instance", str(path))
            assert code == 2
            assert f"{name!r} must be a JSON integer" in err

    def test_non_integer_cap_or_non_number_weight_items_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        assert doc["K"] == 2
        for name, value, expected in (
            ("Mk", [1.7, 2.9], "JSON array of integers"),
            ("Mk", [True, 1], "JSON array of integers"),
            ("weights", ["1", 1.0], "JSON array of numbers"),
            ("weights", [True, 1.0], "JSON array of numbers"),
        ):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**doc, name: value}))
            code, _, err = run(capsys, "solve", "--instance", str(path))
            assert code == 2
            assert f"{name!r} must be a {expected}" in err

    def test_non_number_utility_items_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        for leaf in (True, "2.5", None, [1.0]):
            phi = json.loads(json.dumps(doc["phi"]))
            phi[1][2][0] = leaf
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**doc, "phi": phi}))
            code, _, err = run(capsys, "solve", "--instance", str(path))
            assert code == 2
            assert "'phi' must hold only JSON numbers" in err
        # JSON integers are numbers too.
        path.write_text(json.dumps({**doc, "phi": [[[1, 0]] * 3] * 2}))
        code, _, err = run(capsys, "solve", "--instance", str(path))
        assert code == 0, err

    def test_trace_csv_written(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "solve", "--instance", str(path), "--trace", str(trace)
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,relaxed_wsu,max_change,sum_residual,zero_rate_ues"
        assert len(lines) >= 2

    def test_allocation_out(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        alloc_path = tmp_path / "alloc.json"
        code, _, _ = run(
            capsys, "solve", "--instance", str(path), "--allocation-out", str(alloc_path)
        )
        assert code == 0
        alloc = BinaryAllocation.from_json(alloc_path.read_text())
        assert alloc.alpha.shape == (2, 3, 2)


class TestSweep:
    def test_sweep_roundtrip(self, tmp_path, capsys):
        config = {
            "algorithms": ["sgpa", "heuristic"],
            "gen": {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2},
            "trials": 1,
            "base_seed": 3,
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(config_path), "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == (
            "algorithm,M,Mk,M0,trials,mean_wsu,stderr_wsu,mean_solve_seconds,above_oracle"
        )
        assert len(lines) == 3  # two algorithms, one grid point
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert meta["base_seed"] == 3

    def test_above_oracle_counts_trials_that_beat_the_oracle(self, tmp_path, capsys):
        config = {
            "algorithms": ["sgpa", "heuristic", "greedy", "oracle"],
            "gen": {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2},
            "trials": 50,
            "base_seed": 0,
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out_path = tmp_path / "rows.csv"
        code, _, err = run(capsys, "sweep", "--config", str(config_path), "-o", str(out_path))
        assert code == 0, err
        with open(out_path, newline="") as fh:
            rows = {row["algorithm"]: row for row in csv.DictReader(fh)}
        # Only greedy, which ignores the carrier caps, may beat the exact optimum.
        assert rows["sgpa"]["above_oracle"] == "0"
        assert rows["heuristic"]["above_oracle"] == "0"
        assert int(rows["greedy"]["above_oracle"]) > 0
        assert rows["oracle"]["above_oracle"] == ""
        oracle_mean = float(rows["oracle"]["mean_wsu"])
        for name in ("sgpa", "heuristic"):
            assert 0.0 < float(rows[name]["mean_wsu"]) / oracle_mean <= 1.0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text("{not json")
        code, _, _ = run(capsys, "sweep", "--config", str(config_path), "-o", str(tmp_path / "o.csv"))
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["sweep", "--bogus"]) == 2

    def test_misspelled_config_fields_exit_2(self, tmp_path, capsys):
        gen = {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2}
        config = {"algorithms": ["sgpa"], "gen": gen, "trials": 1, "base_seed": 3}
        for misspelled, name in (
            ({**config, "gen": {**gen, "snr_range": [0, 10]}}, "snr_range"),
            ({**config, "mgrid": [3, 4]}, "mgrid"),
        ):
            config_path = tmp_path / "sweep.json"
            config_path.write_text(json.dumps(misspelled))
            code, _, err = run(
                capsys, "sweep", "--config", str(config_path), "-o", str(tmp_path / "o.csv")
            )
            assert code == 2
            assert name in err

    def test_missing_or_malformed_config_fields_exit_2(self, tmp_path, capsys):
        gen = {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2}
        config = {"algorithms": ["sgpa"], "gen": gen, "trials": 1, "base_seed": 3}
        no_trials = {key: value for key, value in config.items() if key != "trials"}
        for broken, names in (
            (no_trials, ["trials"]),
            ({**config, "gen": {"K": 2}}, ["M", "N", "ue_cc_cap", "system_cc_cap_limit"]),
            ({**config, "sgpa": 5}, ["sgpa", "JSON object"]),
            ({**config, "oracle_budget": [5]}, ["oracle_budget"]),
            ({**config, "oracle_budget": 5.0}, ["oracle_budget"]),
            ({**config, "trials": "1"}, ["trials"]),
            ({**config, "trials": True}, ["trials"]),
            ({**config, "gen": {**gen, "K": "2"}}, ["K"]),
            ({**config, "gen": {**gen, "ue_cc_cap": [1, 2]}}, ["ue_cc_cap"]),
            ({**config, "sgpa": {"snap_tolerance": "tiny"}}, ["snap_tolerance"]),
            ({**config, "sgpa": {"record_trace": "no"}}, ["'record_trace' must be a JSON boolean"]),
            ({**config, "m_grid": 3}, ["'m_grid' must be a JSON array of integers"]),
            ({**config, "m_grid": [[3]]}, ["'m_grid' must be a JSON array of integers"]),
            ({**config, "mk_grid": 3}, ["'mk_grid' must be a JSON array of integers"]),
            ({**config, "gen": {**gen, "snr_db_range": 5}}, ["'snr_db_range' must be a JSON array"]),
            ({**config, "gen": {**gen, "snr_db_range": [1]}}, ["'snr_db_range' must be a JSON array"]),
            ({**config, "gen": {**gen, "seed": 1}}, ["'gen.seed'"]),
            ({**config, "gen": {**gen, "seed": 999, "stream_key": [7, 7]}}, ["'gen.seed'"]),
            ({**config, "gen": {**gen, "stream_key": [7, 7]}}, ["'gen.stream_key'"]),
            ({**config, "sgpa": {"record_trace": True}}, ["'sgpa.record_trace'"]),
            ({**config, "oracle_budget": 0}, ["oracle_budget"]),
            ({**config, "algorithms": []}, ["algorithms"]),
            ({**config, "algorithms": ["sgpa", "sgpa"]}, ["algorithms"]),
        ):
            config_path = tmp_path / "sweep.json"
            config_path.write_text(json.dumps(broken))
            code, _, err = run(
                capsys, "sweep", "--config", str(config_path), "-o", str(tmp_path / "o.csv")
            )
            assert code == 2
            for name in names:
                assert name in err


class TestFig1Command:
    def test_trajectory_csv(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "fig1", "--M", "8", "--Mk", "2", "--iterations", "12",
            "--seed", "4", "-o", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "iteration," + ",".join(f"cc{m}" for m in range(8))
        assert len(lines) == 14  # header + initialization + 12 iterations

    def test_share_cells_read_back_as_floats(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "fig1", "--M", "4", "--Mk", "2", "--iterations", "1",
            "--seed", "1", "-o", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        shares = np.array([[float(cell) for cell in row[1:]] for row in rows])
        np.testing.assert_array_equal(shares, fig1_experiment(4, 2, 1, 1))
