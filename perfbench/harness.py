"""caralloc benchmark: workloads, the closed trial loop, output checks, metrics.

Start it through ``run.py``, which pins BLAS/OpenMP to one thread before
numpy is imported and puts the checkout's ``src`` first on the import path.
README.md lists every metric and says why each workload exists.

Trial t of a run with seed s samples its instance from stream
``SeedSequence(s, spawn_key=(0, t))``, the keying ``run_sweep`` uses for grid
point 0, so a run's per-algorithm WSU can be reproduced with ``caralloc sweep``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import caralloc
from caralloc import baselines, core, lp, sgpa, simharness

from spans import Rebinder, SpanRecorder, span_name

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Separate processes timed from spawn to the end of their warm-up trial.
SETUP_PROBES = 5
#: The warm-up instance is the same for every seed, so set-up time does not
#: depend on how quickly one random instance converges.
WARMUP_SEED = 0
WARMUP_STREAM = 1
BINARY_TOLERANCE = 1e-6  # acceptance criterion 3's binary_distance threshold
DOMINANCE_SLACK = 1e-9

ALGORITHMS = ("sgpa", "heuristic", "oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    K: int
    M: int
    N: int
    Mk: int
    M0: int
    max_iterations: int
    algorithms: Tuple[str, ...]
    #: Every run measures at least this many trials, so each p90 has ten
    #: samples beyond it; quality metrics are means over exactly the first
    #: this-many trials, which makes them a function of the seed alone.
    min_trials: int = 100

    def gen_params(self, seed: int, stream_key: Tuple[int, ...]) -> simharness.GenParams:
        return simharness.GenParams(
            K=self.K,
            M=self.M,
            N=self.N,
            ue_cc_cap=self.Mk,
            system_cc_cap_limit=self.M0,
            seed=seed,
            stream_key=stream_key,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's regime at large M: full K*M*N array passes and the
        # per-user normalisation loop; the LP and the oracle never run.
        Workload("sgpa_massive", K=10, M=640, N=20, Mk=2, M0=20, max_iterations=20, algorithms=("sgpa",)),
        # The binding system cap makes the dense simplex tableau dominate.
        Workload("heuristic_lp", K=10, M=12, N=20, Mk=2, M0=6, max_iterations=20, algorithms=("sgpa", "heuristic")),
        # Tiny arrays, long solves: per-call overhead and convergence speed,
        # and the only place quality is measured against the exact optimum.
        # Per-instance WSU varies most here, so quality averages more trials.
        Workload("oracle_small", K=4, M=6, N=4, Mk=2, M0=2, max_iterations=200, algorithms=ALGORITHMS,
                 min_trials=300),
    )
}


@dataclass
class Call:
    """One algorithm call on one instance, with what the checks found."""

    algorithm: str
    seconds: float
    wsu: float
    problems: List[str] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    binary: bool = False


@dataclass
class Trial:
    index: int
    seconds: float
    calls: Dict[str, Call]


def binary_distance(relaxed) -> float:
    """Largest distance of any relaxed share from {0, 1}."""
    return max(float(np.minimum(a, 1.0 - a).max()) for a in (relaxed.alpha, relaxed.beta, relaxed.gamma))


def check_allocation(instance, allocation, reported_wsu: Optional[float]) -> Tuple[float, List[str]]:
    """WSU of ``allocation`` and every check it fails.

    Feasibility and the objective are checked twice: through caralloc's own
    ``check_feasibility``/``evaluate_wsu``, and recomputed here from the raw
    arrays so that a fault shared by an algorithm and its checker shows too.
    """
    problems = []
    if not core.check_feasibility(instance, allocation).ok:
        problems.append("check_feasibility rejects the allocation")
    wsu = core.evaluate_wsu(instance, allocation)
    if reported_wsu is not None and reported_wsu != wsu:
        problems.append(f"reported WSU {reported_wsu!r} != evaluate_wsu {wsu!r}")

    alpha, beta, gamma = (np.asarray(a, dtype=bool) for a in (allocation.alpha, allocation.beta, allocation.gamma))
    held = alpha & beta[:, :, None] & gamma[None, :, None]
    feasible = (
        (alpha.sum(axis=0) <= 1).all()
        and (beta.sum(axis=1) <= instance.ue_cc_caps).all()
        and gamma.sum() <= instance.system_cc_cap
        and not (alpha & ~held).any()
    )
    if not feasible:
        problems.append("allocation breaks a constraint (independent check)")
    weighted = instance.weights[:, None, None] * instance.utilities
    if not math.isclose(float(weighted[held].sum()), wsu, rel_tol=1e-9, abs_tol=1e-12):
        problems.append("evaluate_wsu disagrees with the independent sum")
    return wsu, problems


def _call(algorithm: str, instance, workload: Workload) -> Call:
    start = perf_counter()
    try:
        result = None
        if algorithm == "sgpa":
            result = sgpa.solve(instance, sgpa.SgpaConfig(max_iterations=workload.max_iterations))
            allocation, reported = result.binary, result.wsu
        elif algorithm == "heuristic":
            allocation, reported = baselines.heuristic_solve(instance), None
        else:
            allocation, reported = baselines.brute_force_oracle(instance)
        seconds = perf_counter() - start
        wsu, problems = check_allocation(instance, allocation, reported)
    except Exception as exc:  # a failing call is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        # No allocation means no utility.
        return Call(algorithm, perf_counter() - start, 0.0, [f"raised {type(exc).__name__}"])
    call = Call(algorithm, seconds, wsu, problems)
    if result is not None:
        call.iterations = result.iterations_run
        call.converged = result.converged
        call.binary = binary_distance(result.relaxed) <= BINARY_TOLERANCE
    return call


def run_trial(workload: Workload, seed: int, index: int, stream: int = 0) -> Trial:
    """Sample instance ``(seed, (stream, index))``, run and check every algorithm."""
    start = perf_counter()
    instance = simharness.sample_instance(workload.gen_params(seed, (stream, index)))
    calls = {name: _call(name, instance, workload) for name in workload.algorithms}
    oracle = calls.get("oracle")
    if oracle is not None:
        for name in ("sgpa", "heuristic"):
            if name in calls and calls[name].wsu > oracle.wsu + DOMINANCE_SLACK:
                calls[name].problems.append(f"WSU {calls[name].wsu!r} beats the oracle's {oracle.wsu!r}")
    return Trial(index, perf_counter() - start, calls)


def run_untraced(workload: Workload, seed: int, seconds: float) -> List[Trial]:
    """Closed loop: one caller, each trial starts when the previous one ends."""
    trials: List[Trial] = []
    start = perf_counter()
    while len(trials) < workload.min_trials or perf_counter() - start < seconds:
        trials.append(run_trial(workload, seed, len(trials)))
    return trials


def caralloc_modules():
    return [module for name, module in sorted(sys.modules.items()) if name.split(".")[0] == "caralloc"]


TRACED_FUNCTIONS = (
    simharness.sample_instance,
    sgpa.solve,
    sgpa.update_alpha,
    sgpa.update_beta,
    sgpa.update_gamma,
    sgpa.capped_simplex_normalize,
    core.quantize,
    core.evaluate_wsu,
    core.check_feasibility,
    core.top_cap_indicator,
    lp.solve_lp,
    baselines.heuristic_solve,
    baselines.brute_force_oracle,
)
TRACED_NAMES = tuple(span_name(fn) for fn in TRACED_FUNCTIONS)


@dataclass
class LpShapes:
    """Rows, columns and status of every LP solved in traced trials."""

    rows: List[int] = field(default_factory=list)
    cols: List[int] = field(default_factory=list)
    optimal: List[bool] = field(default_factory=list)

    def observed(self, solve_lp):
        def solve_and_record(program, *args, **kwargs):
            solution = solve_lp(program, *args, **kwargs)
            self.rows.append(program.constraint_matrix.shape[0])
            self.cols.append(program.constraint_matrix.shape[1])
            self.optimal.append(solution.status is lp.LpStatus.OPTIMAL)
            return solution

        return solve_and_record


def run_traced(workload: Workload, seed: int, seconds: float, recorder: SpanRecorder):
    """Each trial twice, once traced and once not, alternating which goes first.

    Returns (untraced trials, traced trials, LP shapes). The untraced copies
    give the tracing overhead on identical work and the return-value metrics.
    """
    shapes = LpShapes()
    bodies = {fn: fn for fn in TRACED_FUNCTIONS}
    bodies[lp.solve_lp] = shapes.observed(lp.solve_lp)
    rebinder = Rebinder(recorder, caralloc_modules(), bodies)
    plain: List[Trial] = []
    traced: List[Trial] = []
    start = perf_counter()
    while len(plain) < workload.min_trials or perf_counter() - start < seconds:
        index = len(plain)
        recorder.current_trial = index
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                with rebinder.active():
                    traced.append(run_trial(workload, seed, index))
            else:
                plain.append(run_trial(workload, seed, index))
        for name, call in traced[-1].calls.items():
            if call.wsu != plain[-1].calls[name].wsu:
                call.problems.append("tracing changed the result")
    return plain, traced, shapes


def measure_setup(workload: Workload, seed: int) -> List[float]:
    """Wall time of fresh processes from spawn to the end of one warm-up trial."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload.name,
               "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(perf_counter() - start)
    return times


# ---------------------------------------------------------------- metrics


class PercentileRefused(ValueError):
    """Fewer than ten samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation), refused unless at least
    ten samples rank above its interpolation position."""
    values = np.asarray(values, dtype=float)
    position = q / 100.0 * (values.size - 1)
    beyond = values.size - 1 - math.floor(position)
    if values.size == 0 or beyond < 10:
        raise PercentileRefused(f"p{q:g} of {values.size} samples has {max(beyond, 0)} beyond it; need 10")
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    samples: int


def _latency(name: str, seconds: Sequence[float], q: float) -> Metric:
    """A latency percentile in ms; reads 0 when the call never ran."""
    return Metric(name, percentile(seconds, q) * 1e3 if seconds else 0.0, "ms", len(seconds))


def _calls(trials: Sequence[Trial], algorithm: str) -> List[Call]:
    return [t.calls[algorithm] for t in trials if algorithm in t.calls]


def _mean_wsu(trials: Sequence[Trial], algorithm: str) -> float:
    """Mean WSU over ``trials``, computed as ``run_sweep`` averages it."""
    wsus = [c.wsu for c in _calls(trials, algorithm)]
    return float(np.array(wsus).mean()) if wsus else 0.0


def failure_counts(trials: Sequence[Trial]) -> Tuple[int, int]:
    """(algorithm calls attempted, calls that raised or failed a check)."""
    calls = [c for t in trials for c in t.calls.values()]
    return len(calls), sum(1 for c in calls if c.problems)


def end_to_end_metrics(workload: Workload, trials: Sequence[Trial], setup_times: Sequence[float]) -> List[Metric]:
    """The gated metrics. Medians and throughput are left to
    ``algorithm_metrics``: on a shared host they swing with its load (README)."""
    quality = trials[: workload.min_trials]
    worst = min(_mean_wsu(quality, a) for a in workload.algorithms)
    return [
        Metric("setup_s", float(np.median(setup_times)), "s", len(setup_times)),
        _latency("trial_ms_p90", [t.seconds for t in trials], 90),
        _latency("sgpa_ms_p90", [c.seconds for c in _calls(trials, "sgpa")], 90),
        Metric("sgpa_wsu_mean", _mean_wsu(quality, "sgpa"), "utility", len(quality)),
        Metric("worst_wsu_mean", worst, "utility", len(quality)),
        Metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    ]


def algorithm_metrics(workload: Workload, trials: Sequence[Trial]) -> List[Metric]:
    """Metrics read from trial timings and return values; no tracing needed.

    Those of an algorithm the workload does not run read 0.
    """
    quality = trials[: workload.min_trials]
    sgpa_calls = _calls(trials, "sgpa")
    iterations = [c.iterations for c in sgpa_calls]
    oracle_calls = _calls(trials, "oracle")
    oracle_wsu = _mean_wsu(quality, "oracle")
    heuristic_n = len(_calls(quality, "heuristic"))
    enumerations = 0
    if oracle_calls:
        enumerations = baselines.oracle_enumeration_count(workload.M, [workload.Mk] * workload.K, min(workload.M, workload.M0))
    attempted, failed = failure_counts(trials)
    heuristic_seconds = [c.seconds for c in _calls(trials, "heuristic")]
    oracle_times = [c.seconds for c in oracle_calls]
    return [
        Metric("trials_per_s", len(trials) / sum(t.seconds for t in trials), "1/s", len(trials)),
        _latency("trial_ms_p50", [t.seconds for t in trials], 50),
        _latency("sgpa_ms_p50", [c.seconds for c in sgpa_calls], 50),
        _latency("heuristic_ms_p50", heuristic_seconds, 50),
        _latency("heuristic_ms_p90", heuristic_seconds, 90),
        _latency("oracle_ms_p50", oracle_times, 50),
        _latency("oracle_ms_p90", oracle_times, 90),
        Metric("heuristic_wsu_mean", _mean_wsu(quality, "heuristic"), "utility", heuristic_n),
        Metric("sgpa_oracle_ratio", _mean_wsu(quality, "sgpa") / oracle_wsu if oracle_wsu else 0.0, "ratio",
               len(_calls(quality, "oracle"))),
        Metric("heuristic_oracle_ratio", _mean_wsu(quality, "heuristic") / oracle_wsu if oracle_wsu else 0.0, "ratio",
               len(_calls(quality, "oracle")) if heuristic_n else 0),
        Metric("sgpa_binary_frac", float(np.mean([c.binary for c in _calls(quality, "sgpa")])), "fraction",
               len(quality)),
        Metric("failed_frac", failed / attempted, "fraction", attempted),
        Metric("sgpa.iterations_mean", float(np.mean(iterations)), "count", len(iterations)),
        Metric("sgpa.iterations_p90", percentile(iterations, 90), "count", len(iterations)),
        Metric("sgpa.converged_frac", float(np.mean([c.converged for c in sgpa_calls])), "fraction", len(sgpa_calls)),
        Metric("sgpa.ms_per_iteration", sum(c.seconds for c in sgpa_calls) * 1e3 / sum(iterations), "ms", sum(iterations)),
        Metric("baselines.oracle.enumerations", float(enumerations), "count", len(oracle_calls)),
        Metric("baselines.oracle.enumerations_per_s",
               enumerations * len(oracle_calls) / sum(oracle_times) if oracle_calls else 0.0, "1/s", len(oracle_calls)),
    ]


def layer_metrics(plain: Sequence[Trial], traced: Sequence[Trial], recorder: SpanRecorder,
                  shapes: LpShapes) -> List[Metric]:
    """Per-function calls, self time and share of traced trial time, LP
    shapes, tracing overhead and the trial time no span covers."""
    n = len(traced)
    traced_seconds = sum(t.seconds for t in traced)
    by_name = recorder.self_time_by_name()
    metrics = []
    for name in TRACED_NAMES:
        calls, self_seconds = by_name.get(name, (0, 0.0))
        metrics += [
            Metric(f"{name}.calls", calls / n, "count", calls),
            Metric(f"{name}.self_ms", self_seconds * 1e3 / n, "ms", calls),
            Metric(f"{name}.share", self_seconds / traced_seconds, "fraction", calls),
        ]
    rows = float(np.mean(shapes.rows)) if shapes.rows else 0.0
    cols = float(np.mean(shapes.cols)) if shapes.cols else 0.0
    attributed = sum(seconds for _, seconds in by_name.values())
    return metrics + [
        Metric("lp.rows", rows, "count", len(shapes.rows)),
        Metric("lp.cols", cols, "count", len(shapes.cols)),
        # Computed from the shape, rows * (cols + rows) doubles; not measured.
        Metric("lp.tableau_mb", rows * (cols + rows) * 8 / 2**20, "MB", len(shapes.rows)),
        Metric("lp.optimal_frac", float(np.mean(shapes.optimal)) if shapes.optimal else 0.0, "fraction", len(shapes.optimal)),
        Metric("trace.overhead_frac", 1.0 - sum(t.seconds for t in plain) / traced_seconds, "fraction", n),
        Metric("trace.unattributed_share", 1.0 - attributed / traced_seconds, "fraction", n),
    ]


# ------------------------------------------------------------ environment


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(workload: Workload, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caralloc": caralloc.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": asdict(workload),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


# ------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one caralloc benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="least time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--setup-probe", action="store_true",
                        help="run the warm-up trial and exit (the set-up time measurement)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        warmup = run_trial(workload, WARMUP_SEED, 0, stream=WARMUP_STREAM)
        return 1 if failure_counts([warmup])[1] else 0

    setup_times = [] if args.trace else measure_setup(workload, args.seed)
    warmup = run_trial(workload, WARMUP_SEED, 0, stream=WARMUP_STREAM)
    print("env " + json.dumps(environment(workload, args)), flush=True)
    if args.trace:
        recorder = SpanRecorder()
        plain, traced, shapes = run_traced(workload, args.seed, args.seconds, recorder)
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        recorder.write(span_path)
        print(f"spans written to {span_path.relative_to(REPO_ROOT)}")
        reported = layer_metrics(plain, traced, recorder, shapes) + algorithm_metrics(workload, plain)
        shown = reported
        checked = [warmup, *plain, *traced]
    else:
        trials = run_untraced(workload, args.seed, args.seconds)
        reported = end_to_end_metrics(workload, trials, setup_times)
        shown = reported + algorithm_metrics(workload, trials)
        checked = [warmup, *trials]

    for trial in checked:
        for call in trial.calls.values():
            for problem in call.problems:
                print(f"FAILED trial {trial.index} {call.algorithm}: {problem}", file=sys.stderr)
    for m in shown:
        print(f"{m.name:<44} {m.value:>14.6g} {m.unit:<9} n={m.samples}")
    attempted, failed = failure_counts(checked)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in reported},
    }))
    return 0 if failed == 0 else 1
