"""The algorithm table, seeded random instances and the Monte-Carlo sweep.

Randomness comes from numpy's Philox counter-based generator. Every stream
is keyed by ``SeedSequence(seed, spawn_key=...)``: a sweep derives the trial
stream from (base seed, grid index, trial index), so results are a pure
function of the configuration no matter how trials are scheduled. The
generator name is recorded in the sweep metadata.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .baselines import (
    MAX_ENUMERATIONS,
    BudgetExceededError,
    brute_force_oracle,
    greedy_unconstrained,
    heuristic_run,
)
from .core import BinaryAllocation, ProblemInstance, _checked, _float_array, check_document, check_fields, evaluate_wsu
from .sgpa import IterationRecord, SgpaConfig, _snap, capped_simplex_normalize, solve

__all__ = [
    "GENERATOR_NAME",
    "ALGORITHMS",
    "Run",
    "GenParams",
    "SweepConfig",
    "ResultRow",
    "capacity_utilities",
    "sample_instance",
    "run_sweep",
    "fig1_experiment",
    "write_results_csv",
    "write_metadata",
]

GENERATOR_NAME = "numpy.random.Philox"


@dataclass(frozen=True)
class Run:
    """One algorithm's output on one instance: the allocation, its WSU, the
    algorithm's run facts, and the solver's trace records when its config
    records them."""

    allocation: BinaryAllocation
    wsu: float
    facts: dict = field(default_factory=dict)
    trace: Optional[List[IterationRecord]] = None


def _run_sgpa(instance: ProblemInstance, sgpa: SgpaConfig) -> Run:
    result = solve(instance, sgpa)
    names = ("iterations_run", "converged", "active_carriers", "binary_distance")
    facts = {name: getattr(result, name) for name in names}
    return Run(result.binary, result.wsu, facts, result.trace)


def _run_greedy(instance: ProblemInstance, sgpa: SgpaConfig) -> Run:
    allocation = greedy_unconstrained(instance)
    return Run(allocation, evaluate_wsu(instance, allocation))


def _run_heuristic(instance: ProblemInstance, sgpa: SgpaConfig) -> Run:
    allocation, lp = heuristic_run(instance)
    facts = {"lp_pivots": lp.pivots, "lp_bound_flips": lp.bound_flips}
    return Run(allocation, evaluate_wsu(instance, allocation), facts)


def _run_oracle(instance: ProblemInstance, sgpa: SgpaConfig) -> Run:
    return Run(*brute_force_oracle(instance))


#: Every algorithm as a call from (instance, solver config) to its
#: :class:`Run`: the one way ``caralloc solve`` and :func:`run_sweep` run an
#: algorithm.
ALGORITHMS: Dict[str, Callable[[ProblemInstance, SgpaConfig], Run]] = {
    "sgpa": _run_sgpa,
    "greedy": _run_greedy,
    "heuristic": _run_heuristic,
    "oracle": _run_oracle,
}

#: Smallest kept/dropped rate ratio r[M_k-1] / r[M_k] that fig1_experiment accepts.
FIG1_MIN_RATE_RATIO = 1.25
#: Most rate draws fig1_experiment makes before it gives up on that ratio.
FIG1_MAX_DRAWS = 100_000

#: The user weight modes of :class:`GenParams`.
WEIGHT_MODES = ("equal", "uniform_simplex")
#: Largest SNR magnitude in dB: a linear SNR of at most 1e100 keeps utilities finite.
MAX_SNR_DB = 1000.0


def _rng(seed: int, stream_key: Tuple[int, ...] = ()) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream_key)))


@dataclass(frozen=True)
class GenParams:
    """Description of the random instance family.

    Every user gets the same carrier cap ``ue_cc_cap`` (a ``ProblemInstance``
    itself may carry one cap per user). The effective system cap is
    ``min(M, system_cc_cap_limit)``, so the limit may exceed the carrier
    count. SNRs are drawn uniformly in dB, channel gains are unit-mean
    exponential, and each block utility is the normalized link capacity of
    its channel. Every field takes what :func:`~caralloc.core.check_fields`
    lets its annotation take, and the seed and each ``stream_key`` item are
    >= 0; ValueError naming the field otherwise.
    """

    K: int
    M: int
    N: int
    ue_cc_cap: int
    system_cc_cap_limit: int
    snr_db_range: Tuple[float, float] = (-10.0, 20.0)
    weight_mode: str = "equal"
    seed: int = 0
    stream_key: Tuple[int, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if self.K < 2 or self.M < 2 or self.N < 2:
            raise ValueError("generated instances need K >= 2, M >= 2, N >= 2")
        if not 1 <= self.ue_cc_cap <= self.M:
            raise ValueError("ue_cc_cap must lie in [1, M]")
        if self.system_cc_cap_limit < 1:
            raise ValueError("system_cc_cap_limit must be >= 1")
        low, high = self.snr_db_range
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise ValueError("snr_db_range must be finite and satisfy low < high")
        if max(abs(low), abs(high)) > MAX_SNR_DB:
            raise ValueError(f"snr_db_range must lie within +-{MAX_SNR_DB:g} dB, not {(low, high)}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, not {self.weight_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for i, item in enumerate(self.stream_key):
            if item < 0:
                raise ValueError(f"stream_key[{i}] must be >= 0, not {item}")

    @property
    def effective_system_cap(self) -> int:
        return min(self.M, self.system_cc_cap_limit)

    @classmethod
    def from_dict(cls, doc: dict) -> "GenParams":
        return cls(**check_document(doc, cls, "instance family"))


def capacity_utilities(gains: np.ndarray, snr_db: np.ndarray, num_rbs: int) -> np.ndarray:
    """Normalized link capacity per block: log2(1 + gain * linear SNR) / N.

    ``gains`` is (K, M, N) and nonnegative; ``snr_db`` is (K, M) and shared
    by all blocks of a carrier (or any shape broadcastable against the
    gains); ``num_rbs`` is an integer >= 1. ValueError naming the argument
    otherwise.
    """
    gains = _float_array(gains, "gains")
    snr_db = _float_array(snr_db, "snr_db")
    num_rbs = _checked("int", num_rbs, "num_rbs")
    if num_rbs < 1:
        raise ValueError(f"num_rbs must be >= 1, not {num_rbs}")
    if not np.all(gains >= 0):
        raise ValueError("gains must be nonnegative")
    if snr_db.ndim == 2 and gains.ndim == 3:
        snr_db = snr_db[:, :, None]
    snr_linear = 10.0 ** (snr_db / 10.0)
    return np.log2(1.0 + gains * snr_linear) / float(num_rbs)


def sample_instance(params: GenParams) -> ProblemInstance:
    """Draw one instance; deterministic for fixed (seed, stream_key).

    Draw order is fixed: channel gains, then per-(user, carrier) SNRs, then
    weights (skipped in equal-weight mode).
    """
    rng = _rng(params.seed, params.stream_key)
    K, M, N = params.K, params.M, params.N
    gains = rng.exponential(1.0, size=(K, M, N))
    snr_db = rng.uniform(params.snr_db_range[0], params.snr_db_range[1], size=(K, M))
    phi = capacity_utilities(gains, snr_db, N)

    if params.weight_mode == "equal":
        weights = np.ones(K)
    else:
        draws = rng.exponential(1.0, size=K)
        weights = draws / draws.sum()

    return ProblemInstance(weights, phi, np.full(K, params.ue_cc_cap), params.effective_system_cap)


@dataclass(frozen=True)
class SweepConfig:
    """One Monte-Carlo experiment: algorithms x grid x trials.

    The grid is the cartesian product of ``m_grid`` and ``mk_grid`` (each
    defaulting to the template's single value), walked M-major, and every
    point is checked when the config is built. Trial t of grid point g draws
    its instance from stream (base_seed, g, t); all algorithms see the same
    instance. Every field takes what :func:`~caralloc.core.check_fields`
    lets its annotation take, and ``sgpa`` records no trace (a sweep keeps
    none); ValueError naming the field otherwise.
    """

    algorithms: Tuple[str, ...]
    gen: GenParams
    trials: int
    base_seed: int
    m_grid: Optional[Tuple[int, ...]] = None
    mk_grid: Optional[Tuple[int, ...]] = None
    sgpa: SgpaConfig = field(default_factory=SgpaConfig)
    jobs: int = 1

    def __post_init__(self):
        check_fields(self)
        if self.sgpa.record_trace:
            raise ValueError("sgpa.record_trace must be false: a sweep keeps no trace")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, not {self.base_seed}")
        for name in ("m_grid", "mk_grid"):
            if getattr(self, name) is not None and len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must be non-empty and distinct, not {list(self.algorithms)}")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}; pick from {tuple(ALGORITHMS)}")
        self.grid_points()

    def grid_points(self) -> List[GenParams]:
        """Each grid point's instance family, M-major; ValueError naming the
        point if the template does not take its M and Mk."""
        points = []
        for m in self.m_grid or (self.gen.M,):
            for mk in self.mk_grid or (self.gen.ue_cc_cap,):
                try:
                    points.append(replace(self.gen, M=m, ue_cc_cap=mk))
                except ValueError as exc:
                    raise ValueError(f"m_grid/mk_grid point M={m}, Mk={mk}: {exc}") from None
        return points

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        """The config of a parsed JSON document; like a malformed field, a
        ``gen`` seed or stream key (the sweep sets both) is a ValueError."""
        doc = check_document(doc, cls, "sweep config")
        gen, doc["gen"] = doc["gen"], GenParams.from_dict(doc["gen"])
        for name in ("seed", "stream_key"):
            if name in gen:
                raise ValueError(f"sweep config field 'gen.{name}' is set by the sweep")
        if "sgpa" in doc:
            doc["sgpa"] = SgpaConfig.from_dict(doc["sgpa"])
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path) -> "SweepConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ResultRow:
    algorithm: str
    M: int
    Mk: int
    M0: int
    trials: int
    mean_wsu: float
    stderr_wsu: float
    mean_solve_seconds: float
    above_oracle: Optional[int] = None
    skip_reason: str = ""

    @property
    def skipped(self) -> bool:
        """The row ran no trial: ``skip_reason`` says why."""
        return self.skip_reason != ""


#: The sweep CSV's columns: every :class:`ResultRow` field but the skip reason.
CSV_HEADER = [f.name for f in fields(ResultRow) if f.name != "skip_reason"]


def _run_trial(args) -> dict:
    """One grid trial: sample the point's instance once, run every algorithm
    on it. Each maps to (wsu, seconds), or to a skip reason when the oracle refuses."""
    config, grid_index, point, trial_index = args
    instance = sample_instance(
        replace(point, seed=config.base_seed, stream_key=(grid_index, trial_index))
    )
    out = {}
    for algorithm in config.algorithms:
        start = time.perf_counter()
        try:
            wsu = ALGORITHMS[algorithm](instance, config.sgpa).wsu
            out[algorithm] = (wsu, time.perf_counter() - start)
        except BudgetExceededError as exc:
            out[algorithm] = f"needs {exc.required} enumerations, budget {MAX_ENUMERATIONS}"
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (so a ``taskset`` or container CPU set counts), else every
    CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: SweepConfig) -> List[ResultRow]:
    """Run the sweep and aggregate one row per (grid point, algorithm).

    Deterministic apart from the timing column. Every trial runs every
    algorithm; where :func:`~caralloc.baselines.brute_force_oracle` refuses a
    grid point's instances as too large (its enumeration count depends
    only on M, Mk and M0, so it refuses all of them or none), the point's
    oracle row is marked skipped and comes after its other rows. Where the
    oracle ran, every other row counts in ``above_oracle`` the trials whose
    WSU beats the oracle's by more than 1e-9. With ``jobs > 1`` the trials
    of every grid point share one process pool of at most ``jobs`` workers,
    no more than there are trials or CPUs this process may run on; where
    that leaves one worker, the trials run in this process.
    """
    points = config.grid_points()
    tasks = [
        (config, grid_index, point, trial_index)
        for grid_index, point in enumerate(points)
        for trial_index in range(config.trials)
    ]

    # A fork-started pool forks every worker at its first submit, so the
    # pool is sized to the work and the usable CPUs, not to the request alone.
    workers = min(config.jobs, len(tasks), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: importing caralloc loads no multiprocessing

        # One trial per task: trial cost grows along the grid, so larger
        # chunks would leave one worker running the heaviest ones alone.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, tasks))
    else:
        results = [_run_trial(task) for task in tasks]

    rows: List[ResultRow] = []
    for grid_index, point in enumerate(points):
        m, mk, m0 = point.M, point.ue_cc_cap, point.effective_system_cap
        trial_results = results[grid_index * config.trials : (grid_index + 1) * config.trials]
        first = trial_results[0]
        skips = {name: first[name] for name in config.algorithms if isinstance(first[name], str)}
        ran = [name for name in config.algorithms if name not in skips]
        wsus = {name: np.array([res[name][0] for res in trial_results]) for name in ran}
        for algorithm in ran:
            times = np.array([res[algorithm][1] for res in trial_results])
            wsu = wsus[algorithm]
            stderr = float(wsu.std(ddof=1) / np.sqrt(len(wsu))) if len(wsu) > 1 else 0.0
            above = None
            if "oracle" in wsus and algorithm != "oracle":
                above = int(np.sum(wsu > wsus["oracle"] + 1e-9))
            rows.append(
                ResultRow(
                    algorithm=algorithm,
                    M=m,
                    Mk=mk,
                    M0=m0,
                    trials=config.trials,
                    mean_wsu=float(wsu.mean()),
                    stderr_wsu=stderr,
                    mean_solve_seconds=float(times.mean()),
                    above_oracle=above,
                )
            )
        nan = float("nan")
        rows.extend(ResultRow(name, m, mk, m0, 0, nan, nan, nan, skip_reason=reason)
                    for name, reason in skips.items())
    return rows


def write_results_csv(rows: Sequence[ResultRow], path) -> None:
    """Fixed-schema CSV; skipped rows keep their key columns, numeric cells
    empty. ``above_oracle`` is empty where it is None."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            stats = [row.mean_wsu, row.stderr_wsu, row.mean_solve_seconds]
            cells = ["" if row.skipped else repr(value) for value in stats]
            above = "" if row.above_oracle is None else row.above_oracle
            writer.writerow([row.algorithm, row.M, row.Mk, row.M0, row.trials, *cells, above])


def write_metadata(config: SweepConfig, rows: Sequence[ResultRow], path) -> None:
    """Sidecar JSON: seed, generator identity, package version, skipped rows."""
    doc = {
        "base_seed": config.base_seed,
        "generator": GENERATOR_NAME,
        "version": __version__,
        "algorithms": list(config.algorithms),
        "trials": config.trials,
        "skipped": [
            {"algorithm": r.algorithm, "M": r.M, "Mk": r.Mk, "reason": r.skip_reason}
            for r in rows
            if r.skipped
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def fig1_experiment(M: int, M_k: int, iterations: int, seed: int) -> np.ndarray:
    """Carrier-share iteration in isolation, for convergence studies.

    Blocks and activations are pinned to 1, so only one user's carrier-share
    row iterates against a fixed vector of effective per-carrier rates. The
    rates are unit-mean exponential draws sorted descending, so the target
    carriers are always indices 0..M_k-1. Returns the (iterations + 1, M)
    trajectory; row 0 is a random positive initialization summing to M_k.
    Each sweep is snapped as the solver snaps its shares.

    The number of iterations needed to resolve the boundary between kept and
    dropped carriers grows like 1 / log(r[M_k-1] / r[M_k]), so draws are
    rejected until that ratio reaches ``FIG1_MIN_RATE_RATIO``; ValueError if
    none of ``FIG1_MAX_DRAWS`` draws does (the chance of a passing draw falls
    exponentially as M grows at M_k = M / 2).
    """
    M, M_k = _checked("int", M, "M"), _checked("int", M_k, "M_k")
    iterations, seed = _checked("int", iterations, "iterations"), _checked("int", seed, "seed")
    if not M >= M_k >= 1:
        raise ValueError("need M >= M_k >= 1")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = _rng(seed)

    for _ in range(FIG1_MAX_DRAWS):
        rates = np.sort(rng.exponential(1.0, size=M))[::-1]
        if M_k == M or rates[M_k] == 0 or rates[M_k - 1] / rates[M_k] >= FIG1_MIN_RATE_RATIO:
            break
    else:
        raise ValueError(f"no rate draw in {FIG1_MAX_DRAWS} has r[Mk-1] / r[Mk] >= "
                         f"{FIG1_MIN_RATE_RATIO} at M={M}, Mk={M_k}")

    start = capped_simplex_normalize(rng.uniform(0.5, 1.5, size=M), M_k).x
    trajectory = np.empty((iterations + 1, M))
    trajectory[0] = start
    x = start
    for i in range(1, iterations + 1):
        x = capped_simplex_normalize(x * rates, M_k).x
        x = _snap(x)
        trajectory[i] = x
    return trajectory
