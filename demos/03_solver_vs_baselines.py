#!/usr/bin/env python3
"""The iterative solver against its reference points on small instances.

On instances small enough for exhaustive search, compare: the iterative
solver (20 iterations + rounding), the two-stage LP heuristic, and the exact
optimum. With tight carrier caps, the per-block greedy rule ignores the caps
and lands infeasible; that is what it is for.
"""

import numpy as np

from caralloc import (
    GenParams,
    SgpaConfig,
    brute_force_oracle,
    check_feasibility,
    evaluate_wsu,
    greedy_unconstrained,
    heuristic_solve,
    sample_instance,
    solve,
)

TRIALS = 50
rows = []
for seed in range(TRIALS):
    instance = sample_instance(
        GenParams(K=2, M=3, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=seed)
    )
    solver = solve(instance, SgpaConfig(max_iterations=20))
    heuristic_wsu = evaluate_wsu(instance, heuristic_solve(instance))
    _, oracle_wsu = brute_force_oracle(instance)
    greedy = greedy_unconstrained(instance)
    rows.append(
        (
            solver.wsu,
            heuristic_wsu,
            oracle_wsu,
            evaluate_wsu(instance, greedy),
            check_feasibility(instance, greedy).ok,
        )
    )

rows = np.array(rows, dtype=object)
solver_mean = np.mean([r[0] for r in rows])
heuristic_mean = np.mean([r[1] for r in rows])
oracle_mean = np.mean([r[2] for r in rows])

print(f"{TRIALS} tiny instances (2 users, 3 carriers x 2 blocks, caps 1/2)\n")
print(f"mean utility  solver    : {solver_mean:.4f}  ({solver_mean/oracle_mean:7.2%} of optimum)")
print(f"mean utility  heuristic : {heuristic_mean:.4f}  ({heuristic_mean/oracle_mean:7.2%} of optimum)")
print(f"mean utility  optimum   : {oracle_mean:.4f}")

exact = sum(1 for r in rows if abs(r[0] - r[2]) < 1e-9)
print(f"\nsolver hits the exact optimum in {exact}/{TRIALS} trials")

greedy_feasible = sum(1 for r in rows if r[4])
print(f"cap-ignoring greedy is feasible in {greedy_feasible}/{TRIALS} trials "
      f"(it only respects caps by luck here)")
