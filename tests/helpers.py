"""Independent oracles shared by the test modules.

These deliberately avoid the implementation paths they check: the capped
simplex multiplier is found by bisection on the saturation count, and the
row-batched normalization is checked byte for byte against a scalar
breakpoint scan that handles one score vector at a time; small LPs are
solved by enumerating candidate vertices, the heuristic's carrier-selection
LP has a reference formulation with explicit product variables, the
exhaustive oracle has a reference that walks every carrier set of every
size, the exact optimum beyond the oracle's reach comes from an integer
program solved by scipy's HiGHS, and the solver's rounding is compared with the former rule that gave
each block to the admitted user with the largest relaxed share, and the
feasibility check has a loop that walks every index in turn. It also
holds the small builders and measures that several test modules share.
"""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from caralloc.core import (
    BinaryAllocation,
    ProblemInstance,
    block_winners,
    evaluate_wsu,
    round_allocation,
)
from caralloc.lp import LinearProgram
from caralloc.sgpa import NormalizationSolution


def bisect_capped_simplex_kappa(v, cap, iterations=200):
    """Largest kappa with sum_p min(1, v_p / kappa) >= min(cap, #positive).

    When more scores are positive than the cap, this is the unique root of
    sum min(1, v/kappa) = cap; otherwise it is the smallest positive score
    (the boundary of the all-saturated plateau).
    """
    v = np.asarray(v, dtype=float)
    positive = v[v > 0]
    target = min(int(cap), positive.size)

    def reaches(kappa):
        return np.minimum(1.0, v / kappa).sum() >= target - 1e-12

    lo = positive.min() / 2.0
    hi = max(positive.sum() / target, positive.max()) * 2.0
    assert reaches(lo) and not reaches(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_capped_simplex_normalize(v, cap: int) -> NormalizationSolution:
    """Capped-simplex normalization of one score vector by a scalar scan.

    With the positive scores sorted descending, the number of saturated
    entries t is the first value in {0, ..., cap-1} for which kappa = (sum
    of scores from position t on) / (cap - t) lands between the scores at
    positions t and t-1, tried one t at a time. When at most ``cap`` scores
    are positive, they all saturate (kappa = smallest positive score).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    cap = int(cap)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap > v.size:
        raise ValueError(f"cap {cap} exceeds the number of entries {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("scores must be finite and nonnegative")

    positive = v > 0
    num_positive = int(positive.sum())
    if num_positive == 0:
        raise ValueError("at least one score must be positive")

    if num_positive <= cap:
        kappa = float(v[positive].min())
        x = np.where(positive, 1.0, 0.0)
        return NormalizationSolution(kappa=kappa, x=x, saturated_count=num_positive)

    vs = np.sort(v[positive])[::-1]
    tail_sums = np.cumsum(vs[::-1])[::-1]  # tail_sums[t] = vs[t:].sum()
    upper = np.inf
    for t in range(cap):
        kappa = tail_sums[t] / (cap - t)
        # Exact arithmetic puts kappa in (vs[t], upper] at exactly one t. The
        # relative slack admits float-degenerate boundaries (a tiny tail entry
        # absorbed by the sum can land kappa exactly on vs[t]); neighbouring t
        # values give the same x to within the slack there.
        if kappa <= upper * (1.0 + 1e-12) and kappa >= vs[t] * (1.0 - 1e-12):
            x = np.minimum(1.0, v / kappa)
            x[~positive] = 0.0
            return NormalizationSolution(
                kappa=float(kappa), x=x, saturated_count=int((x == 1.0).sum())
            )
        upper = vs[t]
    raise RuntimeError("no saturation level satisfied the breakpoint conditions")


def enumerate_lp_optimum(objective, A, b, lower, upper):
    """Brute-force LP optimum by checking every basic point of the box polytope.

    Stacks the inequality rows with the bound rows and solves every n-subset
    as an equality system; feasible solutions are candidate vertices. Only
    usable for tiny problems.
    """
    objective = np.asarray(objective, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = objective.size

    eye = np.eye(n)
    rows = np.vstack([A, eye, -eye])
    rhs = np.concatenate([b, upper, -lower])

    best = None
    for subset in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, rhs[list(subset)])
        if np.any(rows @ x > rhs + 1e-9):
            continue
        value = float(objective @ x)
        if best is None or value > best[0]:
            best = (value, x)
    assert best is not None, "polytope unexpectedly empty"
    return best


def three_block_carrier_selection_lp(instance):
    """The carrier-selection LP with a product variable per (user, carrier).

    Variables are ordered [t (K*M), beta (K*M), gamma (M)], all in [0, 1],
    with t <= beta, t <= gamma, per-user sum beta <= cap, sum gamma <=
    system cap; the objective is gains @ t, with the gains scaled as
    ``caralloc.baselines._carrier_selection_lp`` scales them. At an optimum
    t = min(beta, gamma) because the gains are nonnegative, so the
    t-objective equals the bilinear objective gains @ (beta * gamma).
    """
    gains = instance.weights[:, None] * instance.utilities.sum(axis=2)
    top = gains.max()
    if top > 0:
        gains = gains / top
    caps, system_cap = instance.ue_cc_caps, instance.system_cc_cap
    K, M = gains.shape
    km = K * M
    n = 2 * km + M
    num_rows = 2 * km + K + 1
    A = np.zeros((num_rows, n))
    b = np.zeros(num_rows)
    gamma_off = 2 * km

    row = 0
    for k in range(K):
        for m in range(M):
            A[row, k * M + m] = 1.0
            A[row, km + k * M + m] = -1.0
            row += 1
    for k in range(K):
        for m in range(M):
            A[row, k * M + m] = 1.0
            A[row, gamma_off + m] = -1.0
            row += 1
    for k in range(K):
        A[row, km + k * M : km + (k + 1) * M] = 1.0
        b[row] = float(caps[k])
        row += 1
    A[row, gamma_off:] = 1.0
    b[row] = float(system_cap)

    c = np.zeros(n)
    c[:km] = gains.ravel()
    bounds = np.column_stack([np.zeros(n), np.ones(n)])
    return LinearProgram(c, A, b, bounds)


def binary_distance(relaxed):
    """Largest distance of any relaxed share from {0, 1}."""
    return max(
        float(np.minimum(a, 1.0 - a).max())
        for a in (relaxed.alpha, relaxed.beta, relaxed.gamma)
    )


def permuted_instance(instance, ue_perm, cc_perm):
    """``instance`` with its users reordered by ``ue_perm`` and its carriers
    by ``cc_perm``."""
    return ProblemInstance(
        instance.weights[ue_perm],
        instance.utilities[np.ix_(ue_perm, cc_perm)],
        instance.ue_cc_caps[ue_perm],
        instance.system_cc_cap,
    )


def reference_enumeration_count(num_ccs, caps, system_cap):
    """Number of combinations :func:`reference_oracle` walks: every
    activation set of every size up to the system cap, times every per-user
    subset of every size up to the user's cap."""
    caps = np.asarray(caps, dtype=int)
    total = 0
    for size in range(min(system_cap, num_ccs) + 1):
        per_ue = 1
        for cap in caps:
            per_ue *= sum(math.comb(size, j) for j in range(min(int(cap), size) + 1))
        total += math.comb(num_ccs, size) * per_ue
    return total


def reference_oracle(instance):
    """Exact optimum by walking every carrier set, smallest first.

    Activation sets are walked in ascending size, lexicographic within each
    size; so are each user's carrier subsets. Ties keep the first
    combination found, and the allocation admits and activates the whole
    winning combination, used or not. Each activation set's combinations
    are valued in batches, in walk order, so the first largest value of a
    batch is the one a one-by-one walk would keep.
    """
    K, M, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc
    weighted = instance.weighted_utilities

    best_value = -1.0
    best_active = ()
    best_membership = None

    for size in range(instance.system_cc_cap + 1):
        memberships = _membership_stack(instance.ue_cc_caps, size)
        for active in itertools.combinations(range(M), size):
            w_active = weighted[:, np.array(active, dtype=int), :]
            for start in range(0, len(memberships), REFERENCE_BATCH):
                batch = memberships[start : start + REFERENCE_BATCH]
                values = (w_active[None] * batch[..., None]).max(axis=1).sum(axis=(1, 2))
                first = int(np.argmax(values))
                if values[first] > best_value:
                    best_value = float(values[first])
                    best_active = active
                    best_membership = batch[first]

    beta = np.zeros((K, M), dtype=np.int8)
    gamma = np.zeros(M, dtype=np.int8)
    if best_active:
        gamma[list(best_active)] = 1
        beta[:, list(best_active)] = best_membership
    allocation = BinaryAllocation(block_winners(instance, beta, gamma), beta, gamma)
    return allocation, evaluate_wsu(instance, allocation)


#: Combinations valued at once by :func:`reference_oracle`, which bounds
#: its temporaries to a few MB.
REFERENCE_BATCH = 4096


def _membership_stack(caps, size):
    """Every combination of per-user carrier subsets of an activation set of
    ``size`` carriers, in :func:`reference_oracle`'s walk order, as a bool
    array (combinations, K, size): user k takes every subset of at most
    ``caps[k]`` carriers, by count and then lexicographically, and the last
    user's subset varies fastest."""
    per_ue = []
    for cap in caps:
        masks = []
        for count in range(min(int(cap), size) + 1):
            for chosen in itertools.combinations(range(size), count):
                mask = np.zeros(size, dtype=bool)
                mask[list(chosen)] = True
                masks.append(mask)
        per_ue.append(np.array(masks).reshape(len(masks), size))
    picks = np.indices([len(masks) for masks in per_ue]).reshape(len(per_ue), -1)
    return np.stack([masks[pick] for masks, pick in zip(per_ue, picks)], axis=1)


def reference_feasibility(instance, alloc):
    """The first violation of each hard constraint, None where it holds:
    ``(c1, c2, c3, consistency)`` as :class:`caralloc.core.FeasibilityReport`
    defines them, found by walking blocks, users and carriers one at a time
    in C order."""
    K, M, N = alloc.alpha.shape
    c1 = next(((m, n) for m in range(M) for n in range(N)
               if sum(int(alloc.alpha[k, m, n]) for k in range(K)) > 1), None)
    c2 = next((k for k in range(K) if sum(int(b) for b in alloc.beta[k]) > instance.ue_cc_caps[k]), None)
    active = [m for m in range(M) if alloc.gamma[m] == 1]
    c3 = active[instance.system_cc_cap] if len(active) > instance.system_cc_cap else None
    consistency = next(((k, m, n) for k in range(K) for m in range(M) for n in range(N)
                        if alloc.alpha[k, m, n] == 1 and not (alloc.beta[k, m] == 1 and alloc.gamma[m] == 1)), None)
    return c1, c2, c3, consistency


def alpha_rounding(instance, relaxed):
    """The solver's former rounding: carriers and admissions as
    :func:`caralloc.core.round_allocation` picks them, then each block to the
    admitted user with the largest relaxed ``alpha`` (ties to the lowest
    index). The current rule scores blocks by weighted utility instead."""
    rounded = round_allocation(instance, relaxed.beta, relaxed.gamma)
    beta, gamma = rounded.beta, rounded.gamma
    admitted = (beta == 1) & (gamma == 1)
    winners = np.argmax(np.where(admitted[:, :, None], relaxed.alpha, -np.inf), axis=0)
    alpha = np.zeros(relaxed.alpha.shape, dtype=np.int8)
    np.put_along_axis(alpha, winners[None], admitted.any(axis=0)[None, :, None], axis=0)
    return BinaryAllocation(alpha, beta, gamma)


def milp_optimum(instance):
    """Exact optimum WSU by HiGHS's branch and bound (``scipy.optimize.milp``).

    Variables are [alpha (K*M*N), beta (K*M), gamma (M)], all in [0, 1], with
    beta and gamma binary. Maximize sum w_k phi[k, m, n] alpha[k, m, n] over
    the rows: every block's shares sum to at most gamma[m], alpha <= beta,
    beta <= gamma, each user's admissions stay within its cap, and the
    activations within the system cap. alpha may stay continuous: once beta
    and gamma are fixed, each block's rows are a simplex over its admitted
    users, so some optimum is integral. The value is read back from the
    rounded beta and gamma: every active carrier's blocks go to their
    admitted user with the largest weighted utility.
    """
    K, M, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc
    weighted = instance.weighted_utilities
    eye, kron, ones = sparse.identity, sparse.kron, np.ones
    A = sparse.bmat([
        [kron(ones((1, K)), eye(M * N)), None, -kron(eye(M), ones((N, 1)))],
        [eye(K * M * N), -kron(eye(K * M), ones((N, 1))), None],
        [None, eye(K * M), -kron(ones((K, 1)), eye(M))],
        [None, kron(eye(K), ones((1, M))), None],
        [None, None, ones((1, M))],
    ])
    zeros = np.zeros(M * N + K * M * N + K * M)
    upper = np.concatenate([zeros, instance.ue_cc_caps, [instance.system_cc_cap]])
    binary = np.concatenate([np.zeros(K * M * N), np.ones(K * M + M)])
    objective = np.concatenate([-weighted.ravel(), np.zeros(K * M + M)])
    result = milp(
        objective, constraints=LinearConstraint(A, -np.inf, upper), integrality=binary,
        bounds=Bounds(0.0, 1.0), options={"mip_rel_gap": 0.0},
    )
    assert result.status == 0, result.message
    beta = result.x[K * M * N : -M].round().reshape(K, M) == 1
    gamma = result.x[-M:].round() == 1
    admitted = beta & gamma
    assert np.all(admitted.sum(axis=1) <= instance.ue_cc_caps)
    assert gamma.sum() <= instance.system_cc_cap
    return float(np.where(admitted[:, :, None], weighted, 0.0).max(axis=0).sum())
