#!/usr/bin/env python3
"""Tour of the data model: build a tiny allocation problem by hand, evaluate
allocations, check feasibility, and round a fractional allocation.

Two users share two carriers of two blocks each. User 0 is good on carrier 0,
user 1 on carrier 1; each user may hold one carrier and the system may
activate both.
"""

import numpy as np

from caralloc import (
    BinaryAllocation,
    ProblemInstance,
    RelaxedAllocation,
    check_feasibility,
    evaluate_relaxed_wsu,
    evaluate_wsu,
    quantize,
)

phi = np.array(
    [
        [[0.9, 0.8], [0.2, 0.1]],  # user 0: strong on carrier 0
        [[0.1, 0.2], [0.7, 0.9]],  # user 1: strong on carrier 1
    ]
)
# K, M and N are read off the utilities' shape (2, 2, 2).
instance = ProblemInstance(weights=[1.0, 1.0], utilities=phi, ue_cc_caps=[1, 1], system_cc_cap=2)
print("K, M, N:", instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc)
print("instance:", instance.to_json())

# The natural assignment: each user takes its strong carrier.
alpha = np.zeros((2, 2, 2), dtype=int)
alpha[0, 0, :] = 1
alpha[1, 1, :] = 1
good = BinaryAllocation(alpha, beta=[[1, 0], [0, 1]], gamma=[1, 1])
print("hand-built allocation utility:", evaluate_wsu(instance, good))
print("feasible:", check_feasibility(instance, good).ok)

# Swapping a block across the carrier cap breaks consistency.
bad_alpha = alpha.copy()
bad_alpha[0, 1, 0] = 1  # user 0 grabs a block on a carrier it does not hold
bad = BinaryAllocation(bad_alpha, beta=[[1, 0], [0, 1]], gamma=[1, 1])
report = check_feasibility(instance, bad)
print("tampered allocation feasible:", report.ok, "- first broken chain:", report.consistency_violation)
print("note: the inconsistent block adds nothing:", evaluate_wsu(instance, bad))

# A fractional allocation and its rounding. Rounding picks carriers and
# admissions from gamma and beta, then gives each block to the admitted user
# with the largest weighted utility w_k * phi[k, m, n]; alpha, here an even
# split, is not read.
relaxed = RelaxedAllocation(
    alpha=np.full((2, 2, 2), 0.5),
    beta=[[0.8, 0.2], [0.3, 0.7]],
    gamma=[0.9, 0.6],
)
print("relaxed utility:", round(evaluate_relaxed_wsu(instance, relaxed), 4))
rounded = quantize(instance, relaxed)
print("rounded beta:\n", rounded.beta)
for m, n in np.ndindex(2, 2):
    k = int(rounded.alpha[:, m, n].argmax())
    print(f"carrier {m} block {n} -> user {k}, the admitted user with the largest "
          f"weighted utility ({instance.weights[k] * phi[k, m, n]})")
print("rounded utility:", evaluate_wsu(instance, rounded))
print("rounded allocation feasible:", check_feasibility(instance, rounded).ok)
