"""End-to-end acceptance suite.

Every test prints one line, ``[acceptance] criterion N (<name>): PASS/FAIL
(<measured numbers>)``; run ``pytest tests/test_acceptance.py -v -s`` to see
the lines for passing criteria too. Seeds are fixed, so all reported numbers
(except wall-clock timings) are reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from caralloc.baselines import brute_force_oracle, greedy_unconstrained, heuristic_solve
from caralloc.core import check_feasibility, evaluate_wsu, top_cap_indicator
from caralloc.sgpa import SgpaConfig, capped_simplex_normalize, solve
from caralloc.simharness import GenParams, SweepConfig, fig1_experiment, run_sweep, sample_instance

from helpers import bisect_capped_simplex_kappa, reference_enumeration_count


def report(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def binary_distance(relaxed):
    return max(
        float(np.minimum(a, 1.0 - a).max())
        for a in (relaxed.alpha, relaxed.beta, relaxed.gamma)
    )


def test_criterion_1_normalization_oracle():
    """Exact multiplier matches a bisection solve on 1000 randomized cases."""
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(1, 101))
        cap = int(rng.integers(1, size + 1))
        v = rng.exponential(1.0, size)
        v[rng.uniform(size=size) < 0.25] = 0.0
        if not np.any(v > 0):
            v[int(rng.integers(size))] = rng.exponential(1.0) + 0.05
        sol = capped_simplex_normalize(v, cap)
        positives = int((v > 0).sum())
        assert abs(sol.x.sum() - min(cap, positives)) < 1e-9
        kappa_ref = bisect_capped_simplex_kappa(v, cap, iterations=90)
        assert abs(sol.kappa - kappa_ref) <= 1e-8 * kappa_ref
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 1000 and elapsed < 1.0
    assert report(1, "normalization oracle", ok, f"{checked}/1000 cases, {elapsed:.2f} s")


def test_criterion_2_isolated_share_convergence():
    """Carrier-share iteration alone: exact top-set recovery, and midway
    quantization, over 100 seeded trials."""
    target = np.zeros(20)
    target[:3] = 1.0
    converged = 0
    midway = 0
    for seed in range(100):
        trajectory = fig1_experiment(20, 3, 200, seed=seed)
        converged += int(np.array_equal(trajectory[-1], target))
        midway += int(
            np.array_equal(top_cap_indicator(trajectory[15], 3).astype(float), target)
        )
    ok = converged == 100 and midway >= 95
    assert report(
        2,
        "isolated share convergence",
        ok,
        f"converged {converged}/100 (need 100), midway quantization {midway}/100 (need >= 95)",
    )


def test_criterion_3_binary_convergence():
    """All relaxed variables within 1e-6 of 0/1 after at most 2000 iterations
    in at least 99 of 100 seeded trials.

    Known to fall short of its target: resolving a contest between scores
    with ratio r takes about ln(1e6)/ln(r) iterations, and instances whose
    activation boundary or per-block contests land within ~0.7% occur at
    roughly 14% for this instance size, exceeding the 1% failure allowance
    no matter the tolerance knobs. The companion test below verifies the
    underlying claim: those trials do binarize with a larger budget.
    """
    config = SgpaConfig(max_iterations=2000)
    good = 0
    for seed in range(100):
        instance = sample_instance(
            GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=seed)
        )
        result = solve(instance, config)
        good += int(binary_distance(result.relaxed) <= 1e-6)
    ok = good >= 99
    assert report(3, "binary convergence", ok, f"{good}/100 trials binary (need >= 99)")


def test_criterion_3_companion_asymptotic_binarization():
    """Trials that miss the 2000-iteration budget binarize with more room."""
    slow_seeds = (3, 5, 47)
    resolved = 0
    for seed in slow_seeds:
        instance = sample_instance(
            GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=seed)
        )
        short = solve(instance, SgpaConfig(max_iterations=2000))
        long = solve(instance, SgpaConfig(max_iterations=60000))
        assert binary_distance(short.relaxed) > 1e-6  # genuinely slow at 2000
        resolved += int(binary_distance(long.relaxed) <= 1e-6)
    assert resolved == len(slow_seeds)


def test_criterion_4_slack_cap_optimality():
    """With both caps slack the quantized solver result equals the per-block
    greedy winner-takes-all utility exactly, 100/100."""
    matches = 0
    for seed in range(100):
        instance = sample_instance(
            GenParams(K=5, M=4, N=6, ue_cc_cap=4, system_cc_cap_limit=4, seed=seed)
        )
        result = solve(instance)
        greedy_wsu = evaluate_wsu(instance, greedy_unconstrained(instance))
        matches += int(result.wsu == greedy_wsu)
    ok = matches == 100
    assert report(4, "slack-cap optimality", ok, f"{matches}/100 exact matches (need 100)")


def test_criterion_5_oracle_dominance_and_gap():
    """Feasible always, never above the exhaustive optimum, and the mean
    utility ratio to the optimum is at least 0.90."""
    feasible = 0
    dominated = 0
    solver_wsus, heuristic_wsus, oracle_wsus = [], [], []
    for seed in range(200):
        instance = sample_instance(
            GenParams(K=2, M=3, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=seed)
        )
        result = solve(instance)
        heuristic_alloc = heuristic_solve(instance)
        heuristic_wsu = evaluate_wsu(instance, heuristic_alloc)
        _, oracle_wsu = brute_force_oracle(instance)
        feasible += int(
            check_feasibility(instance, result.binary).ok
            and check_feasibility(instance, heuristic_alloc).ok
        )
        dominated += int(result.wsu <= oracle_wsu + 1e-9 and heuristic_wsu <= oracle_wsu + 1e-9)
        solver_wsus.append(result.wsu)
        heuristic_wsus.append(heuristic_wsu)
        oracle_wsus.append(oracle_wsu)
    ratio = float(np.mean(solver_wsus) / np.mean(oracle_wsus))
    heuristic_ratio = float(np.mean(heuristic_wsus) / np.mean(oracle_wsus))
    ok = feasible == 200 and dominated == 200 and ratio >= 0.90
    assert report(
        5,
        "oracle dominance and gap",
        ok,
        f"feasible {feasible}/200, dominated {dominated}/200, "
        f"mean ratio solver/oracle {ratio:.4f} (need >= 0.90; heuristic {heuristic_ratio:.4f})",
    )


@pytest.fixture(scope="module")
def capacity_sweep_rows():
    """The M-sweep shared by criterion 6 and the cap-saturation property.

    The solver budget is raised to 100 iterations: at this desk scale (20
    blocks per carrier instead of hundreds) the carrier contest needs more
    sweeps to resolve than at full scale, and this criterion, unlike the
    timing one, does not pin the iteration count.
    """
    config = SweepConfig(
        algorithms=("sgpa", "heuristic"),
        gen=GenParams(K=10, M=5, N=20, ue_cc_cap=2, system_cc_cap_limit=10, seed=0),
        trials=200,
        base_seed=20260810,
        m_grid=(5, 10, 15, 20),
        sgpa=SgpaConfig(max_iterations=100),
        jobs=4,
    )
    return run_sweep(config)


def test_criterion_6_capacity_sweep_direction(capacity_sweep_rows):
    """Across M in {5, 10, 15, 20} (200 trials each): the iterative solver's
    mean utility is at least the heuristic's at every grid point, and is
    nondecreasing in M."""
    rows = capacity_sweep_rows
    solver_means = {r.M: r.mean_wsu for r in rows if r.algorithm == "sgpa"}
    heuristic_means = {r.M: r.mean_wsu for r in rows if r.algorithm == "heuristic"}
    grid = sorted(solver_means)
    ahead = all(solver_means[m] >= heuristic_means[m] for m in grid)
    monotone = all(
        solver_means[a] <= solver_means[b] + 1e-12 for a, b in zip(grid, grid[1:])
    )
    gaps = ", ".join(
        f"M={m}: {solver_means[m]:.2f} vs {heuristic_means[m]:.2f}" for m in grid
    )
    ok = ahead and monotone
    assert report(6, "capacity sweep direction", ok, f"{gaps}; monotone={monotone}")


def test_capacity_gain_saturates_above_system_cap(capacity_sweep_rows):
    """Harness-level property, not a numbered criterion: once the carrier
    count passes the system activation cap (10 here), the marginal gain from
    more carriers is small next to the gains below the cap."""
    solver_means = {r.M: r.mean_wsu for r in capacity_sweep_rows if r.algorithm == "sgpa"}
    below_cap_gain = solver_means[10] - solver_means[5]
    above_cap_gain = solver_means[20] - solver_means[15]
    assert above_cap_gain < 0.5 * below_cap_gain


def test_criterion_7_linear_time_scaling():
    """Mean solve time at M=40 over M=10 stays within 5x at fixed 20
    iterations (ideal linear scaling would be 4x)."""
    config = SgpaConfig(max_iterations=20)
    timings = {}
    warmup = sample_instance(
        GenParams(K=10, M=10, N=20, ue_cc_cap=2, system_cc_cap_limit=20, seed=999)
    )
    solve(warmup, config)
    for M in (10, 40):
        elapsed = []
        for trial in range(20):
            instance = sample_instance(
                GenParams(
                    K=10, M=M, N=20, ue_cc_cap=2, system_cc_cap_limit=20,
                    seed=77, stream_key=(M, trial),
                )
            )
            start = time.perf_counter()
            solve(instance, config)
            elapsed.append(time.perf_counter() - start)
        timings[M] = float(np.mean(elapsed))
    ratio = timings[40] / timings[10]
    ok = ratio <= 5.0
    assert report(
        7,
        "linear time scaling",
        ok,
        f"mean {timings[10]*1e3:.2f} ms at M=10, {timings[40]*1e3:.2f} ms at M=40, "
        f"ratio {ratio:.2f} (need <= 5)",
    )


def test_criterion_8_per_user_cap_sweep_shape():
    """Mean utility is nondecreasing in the per-user cap, and the marginal
    gain from 4 to 8 is strictly below the gain from 1 to 2."""
    config = SweepConfig(
        algorithms=("sgpa",),
        gen=GenParams(K=10, M=20, N=20, ue_cc_cap=1, system_cc_cap_limit=20, seed=0),
        trials=200,
        base_seed=8081,
        mk_grid=(1, 2, 4, 8),
        jobs=4,
    )
    rows = run_sweep(config)
    means = {r.Mk: r.mean_wsu for r in rows}
    caps = sorted(means)
    monotone = all(means[a] <= means[b] + 1e-12 for a, b in zip(caps, caps[1:]))
    early_gain = means[2] - means[1]
    late_gain = means[8] - means[4]
    ok = monotone and late_gain < early_gain
    assert report(
        8,
        "per-user cap sweep shape",
        ok,
        f"means {[round(means[c], 2) for c in caps]}, gain 1->2 = {early_gain:.2f}, "
        f"gain 4->8 = {late_gain:.2f}",
    )


#: Criterion 9 runs the oracle where the every-size walk of
#: ``helpers.reference_oracle`` stays this small (439 of its 500 draws).
CRITERION_9_ORACLE_MAX = 200_000


def criterion_9_draws():
    """Criterion 9's 500 instances, as (instance, slack, runs_oracle).

    Every fifth draw has slack caps, so the greedy is optimal on it.
    """
    rng = np.random.default_rng(314159)
    for index in range(500):
        K = int(rng.integers(2, 6))
        M = int(rng.integers(2, 7))
        N = int(rng.integers(2, 5))
        slack = index % 5 == 0
        cap = M if slack else int(rng.integers(1, min(M, 3) + 1))
        limit = M if slack else int(rng.integers(1, M + 1))
        instance = sample_instance(
            GenParams(K=K, M=M, N=N, ue_cc_cap=cap, system_cc_cap_limit=limit, seed=index)
        )
        required = reference_enumeration_count(M, [cap] * K, min(M, limit))
        yield instance, slack, required <= CRITERION_9_ORACLE_MAX


def test_criterion_9_feasibility_and_iterate_identities():
    """500 random instances: every emitted allocation is feasible and every
    solver iterate satisfies its normalization identities within 1e-9.

    The exhaustive search runs on the instances whose enumeration stays
    small; the greedy runs where its slack-cap precondition holds.
    """
    feasible = 0
    worst_residual = 0.0
    oracle_runs = 0
    greedy_runs = 0
    for instance, slack, runs_oracle in criterion_9_draws():
        result = solve(instance, SgpaConfig(record_trace=True))
        residual = max(rec.sum_residual for rec in result.trace)
        worst_residual = max(worst_residual, residual)
        entry_ok = residual < 1e-9 and check_feasibility(instance, result.binary).ok

        entry_ok &= check_feasibility(instance, heuristic_solve(instance)).ok

        if runs_oracle:
            oracle_alloc, _ = brute_force_oracle(instance)
            entry_ok &= check_feasibility(instance, oracle_alloc).ok
            oracle_runs += 1

        if slack:
            entry_ok &= check_feasibility(instance, greedy_unconstrained(instance)).ok
            greedy_runs += 1

        feasible += int(entry_ok)
    ok = feasible == 500
    assert report(
        9,
        "feasibility and iterate identities",
        ok,
        f"{feasible}/500 instances clean (oracle on {oracle_runs}, greedy on {greedy_runs}), "
        f"worst sum residual {worst_residual:.2e}",
    )
