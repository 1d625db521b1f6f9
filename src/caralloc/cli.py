"""Command-line interface.

Subcommands: gen, solve, sweep, fig1. ``solve`` and ``sweep`` run every
algorithm through :data:`caralloc.simharness.ALGORITHMS`, and ``solve``
prints the run's facts. Comparing algorithms against the exhaustive oracle
is a sweep with "oracle" among its algorithms. Structured output is JSON on
stdout, tabular output is CSV files. Exit codes: 0 on success, 2 for
usage/config/file problems, 3 when an algorithm emitted an allocation that
fails its own feasibility guarantee, 4 when the exhaustive search would need
more than ``baselines.MAX_ENUMERATIONS`` enumerations.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from .baselines import BudgetExceededError
from .core import ProblemInstance, check_feasibility
from .sgpa import SgpaConfig, write_trace_csv
from .simharness import (
    ALGORITHMS,
    WEIGHT_MODES,
    GenParams,
    SweepConfig,
    fig1_experiment,
    run_sweep,
    sample_instance,
    write_metadata,
    write_results_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caralloc",
        description="Joint carrier and resource-block allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance JSON file")
    p_gen.add_argument("--K", type=int, required=True, help="number of users (>= 2)")
    p_gen.add_argument("--M", type=int, required=True, help="number of carriers (>= 2)")
    p_gen.add_argument("--N", type=int, required=True, help="blocks per carrier (>= 2)")
    p_gen.add_argument("--Mk", type=int, default=1, help="per-user carrier cap")
    p_gen.add_argument(
        "--M0-limit", type=int, default=None,
        help="system carrier cap limit (effective cap is min(M, limit); default M)",
    )
    low, high = GenParams.snr_db_range
    p_gen.add_argument("--snr-low", type=float, default=low, help="SNR range low (dB)")
    p_gen.add_argument("--snr-high", type=float, default=high, help="SNR range high (dB)")
    p_gen.add_argument(
        "--weights", choices=WEIGHT_MODES, default=GenParams.weight_mode, help="user weight mode"
    )
    p_gen.add_argument("--seed", type=int, default=GenParams.seed, help="generator seed")
    p_gen.add_argument("-o", "--output", required=True, help="instance JSON path")

    p_solve = sub.add_parser("solve", help="solve an instance file with one algorithm")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    p_solve.add_argument("--algorithm", choices=list(ALGORITHMS), default="sgpa")
    p_solve.add_argument("--max-iterations", type=int, default=SgpaConfig.max_iterations)
    p_solve.add_argument("--trace", default=None, help="write sgpa's per-iteration trace CSV here")
    p_solve.add_argument("--allocation-out", default=None, help="write the allocation JSON here")

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON path")
    p_sweep.add_argument("-o", "--output", required=True, help="results CSV path")
    p_sweep.add_argument("--jobs", type=int, default=None, help="parallel trial workers")

    p_fig1 = sub.add_parser("fig1", help="carrier-share convergence trajectory CSV")
    p_fig1.add_argument("--M", type=int, required=True)
    p_fig1.add_argument("--Mk", type=int, required=True)
    p_fig1.add_argument("--iterations", type=int, default=50)
    p_fig1.add_argument("--seed", type=int, default=0)
    p_fig1.add_argument("-o", "--output", required=True, help="trajectory CSV path")

    return parser


def cmd_gen(args) -> int:
    limit = args.M0_limit if args.M0_limit is not None else args.M
    params = GenParams(
        K=args.K,
        M=args.M,
        N=args.N,
        ue_cc_cap=args.Mk,
        system_cc_cap_limit=limit,
        snr_db_range=(args.snr_low, args.snr_high),
        weight_mode=args.weights,
        seed=args.seed,
    )
    instance = sample_instance(params)
    with open(args.output, "w") as fh:
        fh.write(instance.to_json())
    print(
        f"wrote {args.output}: K={instance.num_ues} M={instance.num_ccs} "
        f"N={instance.num_rbs_per_cc} M0={instance.system_cc_cap}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    # Every flag is checked, whichever algorithm reads it.
    config = SgpaConfig(max_iterations=args.max_iterations, record_trace=args.trace is not None)
    if args.trace is not None and args.algorithm != "sgpa":
        raise ValueError(f"--trace: algorithm {args.algorithm} records no trace")
    with open(args.instance) as fh:
        instance = ProblemInstance.from_json(fh.read())

    run = ALGORITHMS[args.algorithm](instance, config)
    if args.trace is not None:
        write_trace_csv(run, args.trace)
    feasibility = check_feasibility(instance, run.allocation)
    doc = {"algorithm": args.algorithm, "wsu": run.wsu, **feasibility.to_dict(), **run.facts}
    # Greedy deliberately ignores the carrier caps, so it reports whether its
    # output respects them, and an infeasible greedy result is not an
    # internal error.
    greedy = args.algorithm == "greedy"
    if greedy:
        doc["within_caps"] = feasibility.c2_ok and feasibility.c3_ok
    print(json.dumps(doc))

    if args.allocation_out is not None:
        with open(args.allocation_out, "w") as fh:
            fh.write(run.allocation.to_json())

    if not feasibility.ok and not greedy:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = SweepConfig.from_json_file(args.config)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    rows = run_sweep(config)
    write_results_csv(rows, args.output)
    write_metadata(config, rows, str(args.output) + ".meta.json")
    print(f"wrote {args.output} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fig1(args) -> int:
    trajectory = fig1_experiment(args.M, args.Mk, args.iterations, args.seed)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + [f"cc{m}" for m in range(args.M)])
        for i, row in enumerate(trajectory):
            writer.writerow([i] + [repr(float(v)) for v in row])
    print(f"wrote {args.output} ({trajectory.shape[0]} rows)")
    return EXIT_OK


_HANDLERS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "fig1": cmd_fig1,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
