"""Joint component-carrier and resource-block allocation toolkit.

A library for weighted sum-utility maximization over many aggregated
carriers: an iterative multiplicative-update solver with exact capped-simplex
normalization, greedy / LP-heuristic / exhaustive reference algorithms, and a
seeded Monte-Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .core import (
    BinaryAllocation,
    DimensionMismatchError,
    FeasibilityReport,
    ProblemInstance,
    RelaxedAllocation,
    check_feasibility,
    evaluate_relaxed_wsu,
    evaluate_wsu,
    block_winners,
    quantize,
    round_allocation,
    top_cap_indicator,
)
from .sgpa import (
    NormalizationSolution,
    SgpaConfig,
    SgpaResult,
    capped_simplex_normalize,
    solve,
    update_alpha,
    update_beta,
    update_gamma,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .baselines import (
    MAX_ENUMERATIONS,
    BudgetExceededError,
    HeuristicResult,
    brute_force_oracle,
    greedy_unconstrained,
    heuristic_run,
    heuristic_solve,
    oracle_enumeration_count,
)
from .simharness import (
    GenParams,
    ResultRow,
    SweepConfig,
    capacity_utilities,
    fig1_experiment,
    run_sweep,
    sample_instance,
)
