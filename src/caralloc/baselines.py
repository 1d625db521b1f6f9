"""Reference allocation algorithms.

* per-block winner-takes-all greedy (optimal when both carrier caps are slack),
* a two-stage LP rounding heuristic of comparable cost to the iterative solver,
* an exhaustive search over the maximal carrier activations and per-user
  carrier subsets (no smaller set can do better, since utilities are
  nonnegative), exact on instances of at most ``MAX_ENUMERATIONS``
  combinations and used as a test oracle.

Each returns a ``BinaryAllocation`` (the oracle with its WSU);
:data:`caralloc.simharness.ALGORITHMS` adds the WSU and the run facts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    BinaryAllocation,
    ProblemInstance,
    block_winners,
    evaluate_wsu,
    round_allocation,
)
from .lp import LinearProgram, LpSolution, solve_lp

__all__ = [
    "MAX_ENUMERATIONS",
    "BudgetExceededError",
    "greedy_unconstrained",
    "HeuristicResult",
    "heuristic_run",
    "heuristic_solve",
    "brute_force_oracle",
    "oracle_enumeration_count",
]


#: Most (activation set, carrier subsets) combinations the exhaustive search
#: evaluates; larger instances are refused before any work.
MAX_ENUMERATIONS = 10_000_000


class BudgetExceededError(RuntimeError):
    """The exhaustive search needs ``required`` enumerations, more than
    :data:`MAX_ENUMERATIONS`; ``args`` is ``(required,)``, so the error pickles."""

    def __init__(self, required: int):
        super().__init__(required)
        self.required = required

    def __str__(self) -> str:
        return f"exhaustive search needs {self.required} enumerations, budget allows {MAX_ENUMERATIONS}"


def _used_allocation(alpha: np.ndarray) -> BinaryAllocation:
    """The allocation of block assignment ``alpha`` that admits each user only
    to the carriers where it holds a block and activates only the carriers
    with an admitted user."""
    beta = (alpha.sum(axis=2) > 0).astype(np.int8)
    gamma = (beta.sum(axis=0) > 0).astype(np.int8)
    return BinaryAllocation(alpha, beta, gamma)


def greedy_unconstrained(instance: ProblemInstance) -> BinaryAllocation:
    """Winner-takes-all per resource block.

    Every block goes to the user with the largest weighted utility on it
    (ties to the lowest user index); carrier admissions and activations are
    derived as indicators of what got used. Carrier caps are ignored, which
    is optimal exactly when they are slack; the output may break them, which
    :func:`~caralloc.core.check_feasibility` reports as its C2 and C3
    verdicts.
    """
    everyone = np.ones((instance.num_ues, instance.num_ccs), dtype=np.int8)
    return _used_allocation(block_winners(instance, everyone, everyone[0]))


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
    solver ends with.
    """
    K, M = instance.num_ues, instance.num_ccs
    sol = solve_lp(_carrier_selection_lp(instance))
    beta, gamma = sol.x[: K * M].reshape(K, M), sol.x[K * M :]
    return HeuristicResult(round_allocation(instance, beta, gamma), sol)


def heuristic_solve(instance: ProblemInstance) -> BinaryAllocation:
    """The allocation of :func:`heuristic_run`."""
    return heuristic_run(instance).allocation


def oracle_enumeration_count(num_ccs: int, caps, system_cap: int) -> int:
    """Number of (activation set, per-user subset) combinations the
    exhaustive search evaluates: C(M, M0) * prod_k C(M0, min(cap_k, M0))."""
    size = min(system_cap, num_ccs)
    per_ue = [math.comb(size, min(int(cap), size)) for cap in caps]
    return math.comb(num_ccs, size) * math.prod(per_ue)


def brute_force_oracle(instance: ProblemInstance) -> Tuple[BinaryAllocation, float]:
    """Exact optimum by exhaustive enumeration of the maximal carrier sets.

    Utilities are nonnegative and weights positive, so activating one more
    carrier, or admitting a user to one more active carrier, never lowers the
    best block assignment. Some optimum therefore activates exactly M0
    carriers and admits each user to exactly min(cap_k, M0) of them, and
    only those sets are walked: activation sets in lexicographic order, and
    within each, every combination of the users' subsets (each user's in
    lexicographic order). With all memberships fixed, the best block
    assignment decouples per block (winner-takes-all among the members), so
    a combination's value is a sum over one (M0, N) array of block maxima.
    The first combination with the largest value wins; the returned
    allocation keeps only the admissions and activations its blocks use.
    Before any work, raises BudgetExceededError if the count of
    :func:`oracle_enumeration_count` exceeds :data:`MAX_ENUMERATIONS`; a
    sweep skips its oracle rows on that error.
    """
    required = oracle_enumeration_count(
        instance.num_ccs, instance.ue_cc_caps, instance.system_cc_cap
    )
    if required > MAX_ENUMERATIONS:
        raise BudgetExceededError(required)

    K, M, size = instance.num_ues, instance.num_ccs, instance.system_cc_cap
    weighted = instance.weighted_utilities
    # Row j of masks[k] marks user k's j-th carrier subset of an active set.
    slots = np.arange(size)
    masks = [
        np.array([np.isin(slots, c) for c in itertools.combinations(slots, min(int(cap), size))])
        for cap in instance.ue_cc_caps
    ]

    best_value = -1.0
    for active in itertools.combinations(range(M), size):
        w_active = weighted[:, active, :]
        for combo in itertools.product(*masks):
            membership = np.array(combo)
            value = float((w_active * membership[:, :, None]).max(axis=0).sum())
            if value > best_value:
                best_value, best_active, best_membership = value, active, membership

    beta = np.zeros((K, M), dtype=np.int8)
    beta[:, list(best_active)] = best_membership
    allocation = _used_allocation(block_winners(instance, beta, np.ones(M)))
    return allocation, evaluate_wsu(instance, allocation)
