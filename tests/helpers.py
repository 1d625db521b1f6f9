"""Independent oracles shared by the test modules.

These deliberately avoid the implementation paths they check: the capped
simplex multiplier is found by bisection on the saturation count, small
LPs are solved by enumerating candidate vertices, and the heuristic's
carrier-selection LP has a reference formulation with explicit product
variables.
"""

import itertools

import numpy as np

from caralloc.lp import LinearProgram


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
