"""Reference allocation algorithms.

* per-block winner-takes-all greedy (optimal when both carrier caps are slack),
* a two-stage LP rounding heuristic of comparable cost to the iterative solver,
* an exhaustive search over carrier activations and per-user carrier subsets,
  exact on small instances and used as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    BinaryAllocation,
    ProblemInstance,
    block_winners,
    evaluate_wsu,
    round_allocation,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp

__all__ = [
    "OracleBudget",
    "BudgetExceededError",
    "GreedyResult",
    "greedy_unconstrained",
    "HeuristicResult",
    "heuristic_run",
    "heuristic_solve",
    "brute_force_oracle",
    "oracle_enumeration_count",
]


@dataclass(frozen=True)
class OracleBudget:
    """Hard cap on how many (activation set, carrier subsets) combinations
    the exhaustive search may evaluate."""

    max_enumerations: int = 10_000_000

    def __post_init__(self):
        if self.max_enumerations < 1:
            raise ValueError("max_enumerations must be positive")


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: OracleBudget):
        super().__init__(
            f"exhaustive search needs {required} enumerations, "
            f"budget allows {budget.max_enumerations}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class GreedyResult:
    """Greedy output plus whether it happened to respect both carrier caps."""

    allocation: BinaryAllocation
    within_caps: bool


def greedy_unconstrained(instance: ProblemInstance) -> GreedyResult:
    """Winner-takes-all per resource block.

    Every block goes to the user with the largest weighted utility on it
    (ties to the lowest user index); carrier admissions and activations are
    derived as indicators of what got used. Carrier caps are ignored, which
    is optimal exactly when they are slack; ``within_caps`` reports whether
    the output respects them anyway.
    """
    everyone = np.ones((instance.num_ues, instance.num_ccs), dtype=np.int8)
    alpha = block_winners(instance.weighted_utilities, everyone, everyone[0])
    beta = (alpha.sum(axis=2) > 0).astype(np.int8)
    gamma = (beta.sum(axis=0) > 0).astype(np.int8)
    within_caps = bool(
        np.all(beta.sum(axis=1) <= instance.ue_cc_caps)
        and gamma.sum() <= instance.system_cc_cap
    )
    return GreedyResult(BinaryAllocation(alpha, beta, gamma), within_caps)


def _carrier_selection_lp(instance: ProblemInstance) -> LinearProgram:
    """LP relaxation of maximizing sum of gains[k, m] * beta[k, m] * gamma[m].

    The gains are each user's weighted utility summed over a carrier's
    blocks, divided by their max: the simplex tolerances are absolute, so the
    LP sees gains on a fixed scale, and scaling every utility leaves the
    allocation unchanged. Variables are ordered [beta (K*M), gamma (M)], all
    in [0, 1], with beta <= gamma, per-user sum beta <= cap, sum gamma <=
    system cap, and the objective is gains @ beta. The bilinear objective's
    linearization min(beta, gamma) equals beta on this feasible set, so this
    LP has the optimum value of the one with a separate product variable
    t <= beta, t <= gamma (take t = beta).
    """
    gains = instance.weights[:, None] * instance.utilities.sum(axis=2)
    top = gains.max()
    if top > 0:
        gains = gains / top
    K, M = gains.shape
    km = K * M
    n = km + M
    A = np.zeros((km + K + 1, n))
    b = np.zeros(km + K + 1)

    pair = np.arange(km)  # beta index k * M + m, also its beta <= gamma row
    A[pair, pair] = 1.0
    A[pair, km + pair % M] = -1.0
    A[km + pair // M, pair] = 1.0
    b[km : km + K] = instance.ue_cc_caps
    A[-1, km:] = 1.0
    b[-1] = instance.system_cc_cap

    c = np.zeros(n)
    c[:km] = gains.ravel()
    bounds = np.column_stack([np.zeros(n), np.ones(n)])
    return LinearProgram(c, A, b, bounds)


@dataclass(frozen=True)
class HeuristicResult:
    """Heuristic output plus the solved carrier-selection LP, whose
    ``pivots`` and ``bound_flips`` count the simplex's work."""

    allocation: BinaryAllocation
    lp: LpSolution


def heuristic_run(instance: ProblemInstance) -> HeuristicResult:
    """Two-stage baseline: LP carrier selection, round, then per-block winners.

    Stage one pretends every user holds every block (alpha = 1), reducing the
    problem to picking carrier admissions and activations; that bilinear
    objective is relaxed to an LP with the same optimum value. Stage two is
    :func:`~caralloc.core.round_allocation`, the rounding the iterative
    solver ends with, scoring blocks by weighted utility.
    """
    K, M = instance.num_ues, instance.num_ccs
    sol = solve_lp(_carrier_selection_lp(instance))
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"carrier-selection LP came back {sol.status.value}")

    km = K * M
    allocation = round_allocation(
        instance, instance.weighted_utilities, sol.x[:km].reshape(K, M), sol.x[km:]
    )
    return HeuristicResult(allocation, sol)


def heuristic_solve(instance: ProblemInstance) -> BinaryAllocation:
    """The allocation of :func:`heuristic_run`."""
    return heuristic_run(instance).allocation


def oracle_enumeration_count(num_ccs: int, caps, system_cap: int) -> int:
    """Number of (activation set, per-user subset) combinations the
    exhaustive search would evaluate."""
    caps = np.asarray(caps, dtype=int)
    total = 0
    for size in range(min(system_cap, num_ccs) + 1):
        per_ue = 1
        for cap in caps:
            per_ue *= sum(math.comb(size, j) for j in range(min(int(cap), size) + 1))
        total += math.comb(num_ccs, size) * per_ue
    return total


def brute_force_oracle(
    instance: ProblemInstance, budget: Optional[OracleBudget] = None
) -> Tuple[BinaryAllocation, float]:
    """Exact optimum by exhaustive enumeration.

    Activation sets are walked in ascending size, lexicographic within each
    size; so are each user's carrier subsets. With all carrier memberships
    fixed, the best block assignment decouples per block (winner-takes-all
    among the members), so only the membership combinations need walking.
    Ties keep the first combination found. Raises BudgetExceededError (with
    the required count) before doing any work that would blow the budget.
    """
    budget = budget if budget is not None else OracleBudget()
    required = oracle_enumeration_count(
        instance.num_ccs, instance.ue_cc_caps, instance.system_cc_cap
    )
    if required > budget.max_enumerations:
        raise BudgetExceededError(required, budget)

    K, M, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc
    weighted = instance.weighted_utilities

    best_value = -1.0
    best_active: tuple = ()
    best_membership: Optional[np.ndarray] = None

    for size in range(instance.system_cc_cap + 1):
        for active in itertools.combinations(range(M), size):
            active_arr = np.array(active, dtype=int)
            w_active = weighted[:, active_arr, :] if size else np.zeros((K, 0, N))

            per_ue_subsets = []
            for k in range(K):
                cap = min(int(instance.ue_cc_caps[k]), size)
                masks = []
                for count in range(cap + 1):
                    for chosen in itertools.combinations(range(size), count):
                        mask = np.zeros(size, dtype=bool)
                        mask[list(chosen)] = True
                        masks.append(mask)
                per_ue_subsets.append(masks)

            for combo in itertools.product(*per_ue_subsets):
                membership = np.array(combo, dtype=bool).reshape(K, size)
                value = float(
                    (w_active * membership[:, :, None]).max(axis=0).sum()
                ) if size else 0.0
                if value > best_value:
                    best_value = value
                    best_active = active
                    best_membership = membership

    beta = np.zeros((K, M), dtype=np.int8)
    gamma = np.zeros(M, dtype=np.int8)
    if best_active:
        gamma[list(best_active)] = 1
        beta[:, list(best_active)] = best_membership
    allocation = BinaryAllocation(block_winners(weighted, beta, gamma), beta, gamma)
    return allocation, evaluate_wsu(instance, allocation)
