"""Command-line interface: exit codes, file formats, determinism."""

import argparse
import csv
import json
import time
from dataclasses import fields

import numpy as np
import pytest

from caralloc import baselines
from caralloc.baselines import _carrier_selection_lp
from caralloc.cli import build_parser, main
from caralloc.core import BinaryAllocation, ProblemInstance
from caralloc.lp import solve_lp
from caralloc.sgpa import SgpaConfig, solve
from caralloc.simharness import ALGORITHMS, WEIGHT_MODES, GenParams, SweepConfig, fig1_experiment


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Overrides of :func:`write_instance`'s flags for K=2, M=30, N=2, Mk=1,
#: M0=15: C(30, 15) * 15**2 = 3.5e10 enumerations, too many for the oracle.
OVER_THE_ORACLE_LIMIT = ("--M", "30", "--M0-limit", "15")


def write_instance(tmp_path, capsys, *flags, name="inst.json"):
    """K=2, M=3, N=2, Mk=1, M0=2 and seed 7; later ``flags`` override these."""
    args = ["gen", "--K", "2", "--M", "3", "--N", "2", "--Mk", "1",
            "--M0-limit", "2", "--seed", "7", *flags, "-o", str(tmp_path / name)]
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

    @pytest.mark.parametrize(
        "flags, name",
        [(("--snr-high", "inf"), "snr_db_range"), (("--snr-low=-inf",), "snr_db_range"),
         (("--seed", "-1"), "seed")],
        ids=["snr-high-inf", "snr-low-minus-inf", "negative-seed"],
    )
    def test_rejects_non_finite_snr_or_negative_seed(self, tmp_path, capsys, flags, name):
        path = tmp_path / "x.json"
        code, _, err = run(
            capsys, "gen", "--K", "2", "--M", "3", "--N", "2", *flags, "-o", str(path)
        )
        assert code == 2
        assert name in err
        assert not path.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "dims, snr",
        [(("2", "3", "2"), ("--snr-high", "1e308")),
         (("10", "10", "20"), ("--snr-low", "3079", "--snr-high", "3080"))],
        ids=["overflow-in-power", "overflow-in-product"],
    )
    def test_rejects_snr_that_overflows(self, tmp_path, capsys, dims, snr):
        path = tmp_path / "x.json"
        K, M, N = dims
        code, _, err = run(capsys, "gen", "--K", K, "--M", M, "--N", N, *snr, "-o", str(path))
        assert code == 2
        assert "snr_db_range" in err
        assert not path.exists()

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
        """An instance over the oracle's limit is refused before any work."""
        path = write_instance(tmp_path, capsys, *OVER_THE_ORACLE_LIMIT)
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "--instance", str(path), "--algorithm", "oracle")
        assert time.perf_counter() - start < 5.0
        assert code == 4
        assert out == ""
        assert err == (
            "error: exhaustive search needs 34901442000 enumerations, budget allows 10000000\n"
        )

    def test_flags_of_other_algorithms_are_checked(self, tmp_path, capsys):
        path = write_instance(tmp_path, capsys)
        code, out, err = run(
            capsys, "solve", "--instance", str(path), "--algorithm", "heuristic",
            "--max-iterations", "0",
        )
        assert code == 2
        assert out == ""
        assert "max_iterations" in err

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
        "algorithm, gen_flags",
        [("greedy", ()), ("heuristic", ()), ("oracle", ()), ("oracle", OVER_THE_ORACLE_LIMIT)],
        ids=["greedy", "heuristic", "oracle", "oracle-over-budget"],
    )
    def test_trace_with_another_algorithm_exits_2(self, tmp_path, capsys, algorithm, gen_flags):
        """Only the solver records a trace, so ``--trace`` with any other
        algorithm is refused before the run: on an instance over its limit
        the oracle would otherwise stop with exit 4."""
        path = write_instance(tmp_path, capsys, *gen_flags)
        trace = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "solve", "--instance", str(path), "--algorithm", algorithm,
            "--trace", str(trace),
        )
        assert code == 2
        assert "--trace" in err
        assert not trace.exists()

    def test_solver_flag_defaults_are_the_config_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "--instance", "inst.json"])
        assert args.max_iterations == SgpaConfig().max_iterations
        args = parser.parse_args(["gen", "--K", "2", "--M", "3", "--N", "2", "-o", "x.json"])
        defaults = GenParams(K=2, M=3, N=2, ue_cc_cap=1, system_cc_cap_limit=3)
        assert (args.snr_low, args.snr_high) == defaults.snr_db_range
        assert args.weights == defaults.weight_mode
        assert args.seed == defaults.seed
        weights = next(a for a in subcommands(parser)["gen"]._actions if a.dest == "weights")
        assert tuple(weights.choices) == WEIGHT_MODES

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
            assert f"{name} must be an integer, not {value!r}" in err

    def test_dimension_fields_that_disagree_with_phi_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        for name, value in (("K", 3), ("M", 2), ("N", 1)):
            dims = {"K": 2, "M": 3, "N": 2, name: value}
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**doc, name: value}))
            code, _, err = run(capsys, "solve", "--instance", str(path))
            assert code == 2
            assert f"give shape {(dims['K'], dims['M'], dims['N'])}, but 'phi' has shape (2, 3, 2)" in err

    def test_non_integer_cap_or_non_number_weight_items_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        assert doc["K"] == 2
        for name, value, expected in (
            ("Mk", [1.7, 2.9], "[0] must be an integer, not 1.7"),
            ("Mk", [True, 1], "[0] must be an integer, not True"),
            ("weights", ["1", 1.0], "[0] must be a number, not '1'"),
            ("weights", [True, 1.0], "[0] must be a number, not True"),
        ):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps({**doc, name: value}))
            code, _, err = run(capsys, "solve", "--instance", str(path))
            assert code == 2
            assert f"{name}{expected}" in err

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

    def test_numbers_beyond_float_range_exit_2(self, tmp_path, capsys):
        doc = json.loads(write_instance(tmp_path, capsys).read_text())
        phi = json.loads(json.dumps(doc["phi"]))
        phi[1][2][0] = 10**400
        for broken, expected in (
            ({**doc, "weights": [1.0, 10**400]}, "weights[1] must be a number within float range"),
            ({**doc, "phi": phi}, "utilities must be an array of numbers within float range"),
        ):
            path = tmp_path / "broken.json"
            path.write_text(json.dumps(broken))
            code, out, err = run(capsys, "solve", "--instance", str(path))
            assert (code, out) == (2, "")
            assert expected in err and "Traceback" not in err

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_infinite_weight_exits_2(self, tmp_path, capsys, algorithm):
        path = tmp_path / "inst.json"
        doc = {"K": 2, "M": 2, "N": 2, "weights": [float("inf"), 1.0], "Mk": [1, 1], "M0": 2,
               "phi": np.ones((2, 2, 2)).tolist()}
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        code, out, err = run(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
        assert code == 2
        assert out == ""
        assert "weights" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_overflowing_weighted_utilities_exit_2(self, tmp_path, capsys, algorithm):
        # Every weight and utility is finite; the product 1e300 * 1e300 is not.
        path = tmp_path / "inst.json"
        phi = np.ones((2, 2, 2))
        phi[0, 0, 0] = 1e300
        doc = {"K": 2, "M": 2, "N": 2, "weights": [1e300, 1.0], "Mk": [1, 1], "M0": 2,
               "phi": phi.tolist()}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
        assert code == 2
        assert out == ""
        assert err == "error: weights times utilities overflow: their weighted sum must be finite\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_all_zero_utilities_solve_to_zero(self, tmp_path, capsys, algorithm):
        path = tmp_path / "inst.json"
        doc = {"K": 2, "M": 3, "N": 2, "weights": [1.0, 2.0], "Mk": [1, 2], "M0": 2,
               "phi": np.zeros((2, 3, 2)).tolist()}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
        assert code == 0, err
        report = json.loads(out)
        assert report["wsu"] == 0.0
        if algorithm == "sgpa":
            # No score is positive, so every row keeps its start: one sweep.
            assert report["feasible"] and report["converged"] and report["iterations_run"] == 1

    def test_report_keys_and_order(self, tmp_path, capsys):
        """The report lists the algorithm, its WSU, the feasibility verdicts
        and first violations, then the algorithm's run facts."""
        path = write_instance(tmp_path, capsys)
        verdicts = ["algorithm", "wsu", "feasible", "c1_ok", "c2_ok", "c3_ok", "consistency_ok",
                    "c1_violation", "c2_violation", "c3_violation", "consistency_violation"]
        facts = {
            "sgpa": ["iterations_run", "converged", "active_carriers", "binary_distance"],
            "greedy": ["within_caps"],
            "heuristic": ["lp_pivots", "lp_bound_flips"],
            "oracle": [],
        }
        for algorithm in ALGORITHMS:
            code, out, _ = run(capsys, "solve", "--instance", str(path), "--algorithm", algorithm)
            assert code == 0
            assert list(json.loads(out)) == verdicts + facts[algorithm]

    def test_trace_csv_rows_are_the_records(self, tmp_path, capsys):
        """Each trace row is the matching record of an in-process solve: the
        iteration, the ``repr`` of each float, and the held users joined by
        ``;``. Users 2 and 3 earn nothing, so their rows are held."""
        rng = np.random.default_rng(3)
        phi = rng.uniform(0.1, 1.0, (4, 3, 2))
        phi[2:] = 0.0
        instance = ProblemInstance(np.ones(4), phi, [1, 1, 1, 1], 2)
        path = tmp_path / "inst.json"
        path.write_text(instance.to_json())
        trace = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "solve", "--instance", str(path), "--max-iterations", "200", "--trace", str(trace)
        )
        assert code == 0, err
        records = solve(instance, SgpaConfig(max_iterations=200, record_trace=True)).trace
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [
            [str(rec.iteration), repr(rec.relaxed_wsu), repr(rec.max_change),
             repr(rec.sum_residual), ";".join(map(str, rec.zero_rate_ues))]
            for rec in records
        ]
        assert {row[-1] for row in rows} == {"2;3"}

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
        alloc = BinaryAllocation(**json.loads(alloc_path.read_text()))
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

    def test_snr_range_beyond_float_range_exits_2(self, tmp_path, capsys):
        gen = {"K": 2, "M": 3, "N": 2, "ue_cc_cap": 1, "system_cc_cap_limit": 2,
               "snr_db_range": [0, 10**400]}
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps({"algorithms": ["sgpa"], "gen": gen, "trials": 1, "base_seed": 3}))
        code, _, err = run(capsys, "sweep", "--config", str(config_path), "-o", str(tmp_path / "o.csv"))
        assert code == 2
        assert "snr_db_range[1] must be a number within float range" in err
        assert not (tmp_path / "o.csv").exists()

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
            ({**config, "oracle_budget": 5}, ["unknown sweep config fields", "oracle_budget"]),
            ({**config, "trials": "1"}, ["trials"]),
            ({**config, "trials": True}, ["trials"]),
            ({**config, "gen": {**gen, "K": "2"}}, ["K"]),
            ({**config, "gen": {**gen, "ue_cc_cap": [1, 2]}}, ["ue_cc_cap"]),
            ({**config, "sgpa": {"snap_tolerance": "tiny"}}, ["snap_tolerance"]),
            ({**config, "sgpa": {"record_trace": "no"}}, ["record_trace must be a boolean, not 'no'"]),
            ({**config, "m_grid": 3}, ["m_grid must be a list of integers, not 3"]),
            ({**config, "m_grid": [[3]]}, ["m_grid[0] must be an integer, not [3]"]),
            ({**config, "mk_grid": 3}, ["mk_grid must be a list of integers, not 3"]),
            ({**config, "gen": {**gen, "snr_db_range": 5}}, ["snr_db_range must be a list of 2 numbers"]),
            ({**config, "gen": {**gen, "snr_db_range": [1]}}, ["snr_db_range must be a list of 2 numbers"]),
            ({**config, "gen": {**gen, "seed": 1}}, ["'gen.seed'"]),
            ({**config, "gen": {**gen, "seed": 999, "stream_key": [7, 7]}}, ["'gen.seed'"]),
            ({**config, "gen": {**gen, "stream_key": [7, 7]}}, ["'gen.stream_key'"]),
            ({**config, "sgpa": {"record_trace": True}}, ["sgpa.record_trace must be false"]),
            ({**config, "m_grid": [3, 4, 1]}, ["m_grid", "M=1"]),
            ({**config, "mk_grid": [1, 4]}, ["mk_grid", "Mk=4"]),
            ({**config, "algorithms": []}, ["algorithms"]),
            ({**config, "algorithms": ["sgpa", "sgpa"]}, ["algorithms"]),
            ({**config, "gen": {**gen, "snr_db_range": [-10, float("inf")]}}, ["snr_db_range"]),
            ({**config, "gen": {**gen, "snr_db_range": [float("-inf"), 20]}}, ["snr_db_range"]),
            ({**config, "m_grid": []}, ["m_grid"]),
            ({**config, "mk_grid": []}, ["mk_grid"]),
            ({**config, "base_seed": -1}, ["base_seed"]),
        ):
            config_path = tmp_path / "sweep.json"
            config_path.write_text(json.dumps(broken))
            code, _, err = run(
                capsys, "sweep", "--config", str(config_path), "-o", str(tmp_path / "o.csv")
            )
            assert code == 2
            for name in names:
                assert name in err
            assert not (tmp_path / "o.csv").exists()


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

    def test_gives_up_on_a_rate_gap_too_rare_to_draw(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        start = time.perf_counter()
        code, _, err = run(capsys, "fig1", "--M", "400", "--Mk", "200", "-o", str(out_path))
        assert time.perf_counter() - start < 10.0
        assert code == 2
        assert "M=400, Mk=200" in err
        assert not out_path.exists()


def subcommands(parser):
    """Each subcommand's parser, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_settable_surface():
    """Every config field and command-line flag, so that a new knob shows up
    as a change to this list."""
    surface = {name: [f.name for f in fields(cls)] for name, cls in
               (("SgpaConfig", SgpaConfig), ("GenParams", GenParams), ("SweepConfig", SweepConfig))}
    for name, sub in subcommands(build_parser()).items():
        surface[name] = ["/".join(a.option_strings) for a in sub._actions if a.dest != "help"]
    assert surface == {
        "SgpaConfig": ["max_iterations", "record_trace"],
        "GenParams": ["K", "M", "N", "ue_cc_cap", "system_cc_cap_limit", "snr_db_range",
                      "weight_mode", "seed", "stream_key"],
        "SweepConfig": ["algorithms", "gen", "trials", "base_seed", "m_grid", "mk_grid", "sgpa",
                        "jobs"],
        "gen": ["--K", "--M", "--N", "--Mk", "--M0-limit", "--snr-low", "--snr-high", "--weights",
                "--seed", "-o/--output"],
        "solve": ["--instance", "--algorithm", "--max-iterations", "--trace", "--allocation-out"],
        "sweep": ["--config", "-o/--output", "--jobs"],
        "fig1": ["--M", "--Mk", "--iterations", "--seed", "-o/--output"],
    }
