"""Iterative allocation solver with closed-form multiplicative updates.

The binary allocation problem is relaxed to continuous shares in (0, 1] and
attacked through a sequence of convexified subproblems, each of which has a
closed-form optimum: every variable is rescaled by its current marginal rate
and renormalized onto a capped simplex (sum fixed by the relevant cap, each
entry at most 1). The carrier shares and activations differ only in their
caps, so they share one matrix: a row per user, then the activation row.
Iterating this update drives the shares toward 0/1 values; a final
quantization rounds what is left, each block by weighted utility. The start
(each block spread evenly over its cap) and the thresholds (the constants
``SNAP_TOLERANCE``, ``ZERO_TOLERANCE`` and ``CONVERGENCE_TOLERANCE``) are
fixed; :class:`SgpaConfig` sets only the sweep budget and the trace.

The normalization multiplier is found exactly by a breakpoint scan over the
sorted rates (no root-finding). One scan, :func:`_normalize_rows`, serves
every normalization: it takes a whole array of rows with one cap each, so
one call normalizes every share row, and it skips the scan when every row
has at most its cap of positive scores (they all saturate). Input is
validated only at the public entry, :func:`capped_simplex_normalize`; the
updates inside :func:`solve` call the scan directly.

A carrier whose activation reaches exactly 0 stays switched off, and every
share under it is 0 from then on. Once at least half of the carriers in its
working arrays are switched off, :func:`solve` cuts the arrays down to the
live carriers, so later sweeps cost time in proportion to the live carriers
only. The cut is exact: within a sweep, sums run over users or blocks, and
the capped-simplex normalizations over carriers see only positive scores,
so every live value is the same bits as when sweeping all carriers.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from typing import List, Optional

import numpy as np

from .core import (
    BinaryAllocation,
    ProblemInstance,
    RelaxedAllocation,
    check_document,
    evaluate_relaxed_wsu,
    evaluate_wsu,
    quantize,
)

__all__ = [
    "SgpaConfig",
    "NormalizationSolution",
    "IterationRecord",
    "SgpaResult",
    "capped_simplex_normalize",
    "update_alpha",
    "update_beta",
    "update_gamma",
    "solve",
    "write_trace_csv",
]


#: Values within this distance of 1 are snapped to exactly 1 after every
#: sweep, emulating what finite precision would eventually do anyway.
SNAP_TOLERANCE = 1e-9
#: Values at or below this are snapped to exactly 0 after every sweep, which
#: removes them from their active set for all later sweeps.
ZERO_TOLERANCE = 1e-12
#: The solve stops once no value changes by this much or more in one sweep.
CONVERGENCE_TOLERANCE = 1e-10


@dataclass
class SgpaConfig:
    """Solver settings: the sweep budget and whether to record a per-sweep
    trace. The start (alpha = 1/K, beta row k = 1/M_k, gamma = 1/M0) and the
    thresholds (the ``*_TOLERANCE`` constants) are fixed."""

    max_iterations: int = 20
    record_trace: bool = False

    def __post_init__(self):
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        self.max_iterations = int(self.max_iterations)

    @classmethod
    def from_dict(cls, doc: dict) -> "SgpaConfig":
        return cls(**check_document(doc, cls, "sgpa config"))


@dataclass(frozen=True)
class NormalizationSolution:
    """Outcome of one capped-simplex normalization.

    ``x[p] = min(1, v[p] / kappa)`` for positive inputs, 0 for zero inputs;
    ``saturated_count`` is the number of entries equal to 1.
    """

    kappa: float
    x: np.ndarray
    saturated_count: int


def capped_simplex_normalize(v, cap: int) -> NormalizationSolution:
    """Scale nonnegative scores onto the capped simplex {0 <= x <= 1, sum = cap}.

    Finds kappa > 0 with ``sum_p min(1, v_p / kappa) = cap`` and returns
    ``x_p = min(1, v_p / kappa)``; zero scores map to zero. When at most
    ``cap`` scores are positive, no such kappa exists: the positive entries
    all saturate at 1 instead (kappa = smallest positive score) and the sum
    falls short of the cap.

    This is the checked entry point: it validates ``v`` and ``cap`` once and
    hands one row to the batched breakpoint scan the solver's updates call
    directly (see :func:`_normalize_rows`).
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
    if not np.any(v > 0):
        raise ValueError("at least one score must be positive")

    x, kappa = _normalize_rows(v[None, :], np.array([cap]))
    return NormalizationSolution(
        kappa=float(kappa[0]), x=x[0], saturated_count=int(np.count_nonzero(x == 1.0))
    )


def _normalize_rows(v: np.ndarray, caps: np.ndarray) -> tuple:
    """Capped-simplex normalization of every row of ``v`` (rows, P) at once,
    row r onto sum ``caps[r]``: the arrays ``x`` (rows, P) and ``kappa``
    (rows,), as :func:`capped_simplex_normalize` defines them per row.

    Unchecked: every row must hold a positive score, and 1 <= caps <= P.

    The solve is exact, not iterative. With a row's scores sorted
    descending, the number of saturated entries t is the first value in
    {0, ..., cap-1} for which kappa = (sum of scores from position t on) /
    (cap - t) lands between the scores at positions t and t-1. Each row is
    sorted ascending, so the zeros lead and add exactly 0.0 to the running
    sums, which therefore carry the same bits as sums over the positive
    scores alone. O(P log P) per row. When every row has at most ``cap``
    positive scores, all of them saturate and no scan is needed.
    """
    positive = v > 0.0
    counts = positive.sum(axis=1)
    saturated = counts <= caps
    if saturated.all():
        return positive.astype(float), np.where(positive, v, np.inf).min(axis=1)

    asc = np.sort(v, axis=1)
    width = int(caps.max())
    desc = asc[:, : -width - 1 : -1]  # the largest `width` scores, descending
    tail = np.cumsum(asc, axis=1)[:, : -width - 1 : -1]  # tail[:, t] = sum of desc[t:]
    kappa = tail / np.maximum(caps[:, None] - np.arange(width), 1)  # cap - t
    # Exact arithmetic puts kappa in [desc[t], desc[t-1]] at exactly one
    # t < cap. The relative slack admits float-degenerate boundaries (a tiny
    # tail entry absorbed by the sum can land kappa exactly on desc[t]);
    # neighbouring t values give the same x to within the slack there. The
    # first t passing the lower test alone is that one: the test holds at
    # t = cap - 1 (kappa is the tail sum there), and failing it at t - 1
    # puts kappa[t] below desc[t-1] by more than rounding (normal floats).
    fits = kappa >= desc * (1.0 - 1e-12)
    if not (fits.any(axis=1) | saturated).all():
        raise RuntimeError("no saturation level satisfied the breakpoint conditions")
    kappa = kappa[np.arange(len(v)), fits.argmax(axis=1)]
    if saturated.any():
        # A row with at most cap positive scores takes its smallest positive
        # score, so min(1, v / kappa) is exactly 1 on every positive entry.
        kappa[saturated] = asc[saturated, v.shape[1] - counts[saturated]]
    x = np.minimum(1.0, v / kappa[:, None])
    x[~positive] = 0.0
    return x, kappa


def _sweep_scores(weights, utilities, alpha, shares) -> tuple:
    """The block scores and the share scores of one sweep, each product
    formed once. ``shares`` stacks ``beta`` (rows 0..K-1) over ``gamma``.

    With weighted utilities ``W = w_k * phi[k, m, n]`` and per-carrier rates
    ``r[k, m] = sum_n alpha[k, m, n] * W[k, m, n]``, the block scores are
    ``alpha * beta * W`` and the share scores ``shares * rates``, whose
    rates are ``gamma * r`` in the user rows and ``sum_k beta * r`` in the
    activation row. The activations cancel in the block update and do not
    appear there. The arrays may hold any subset of the carriers: every sum
    here runs over users or blocks, never over carriers, so each carrier's
    scores do not depend on which other carriers are present.
    """
    beta, gamma = shares[:-1], shares[-1]
    weighted = weights[:, None, None] * utilities
    per_cc = np.einsum("kmn,kmn->km", alpha, weighted)
    rates = np.vstack((gamma * per_cc, (beta * per_cc).sum(axis=0)))
    return alpha * beta[:, :, None] * weighted, shares * rates


def update_alpha(scores: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """One block-share update: scale each (carrier, block) column of the
    scores to sum to 1. A column whose scores are all zero keeps its
    previous shares ``alpha`` (it earns nothing either way)."""
    denom = scores.sum(axis=0, keepdims=True)
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, scores / safe, alpha)


def update_beta(scores: np.ndarray, shares: np.ndarray, caps) -> np.ndarray:
    """One share update for every row at once: capped-simplex normalization
    of score row r with ``caps[r]`` as the target sum. :func:`solve` passes
    every user's carrier shares (cap ``M_k``) and, as the last row, the
    activations (cap ``M0``). A row whose scores are all zero keeps its
    previous shares."""
    live = scores.max(axis=1) > 0.0
    out = shares.copy()
    out[live] = _normalize_rows(scores[live], np.asarray(caps)[live])[0]
    return out


def update_gamma(scores: np.ndarray, gamma: np.ndarray, cap: int) -> np.ndarray:
    """One activation update on its own: :func:`update_beta` of the single
    row ``gamma`` with the system cap. :func:`solve` updates the activations
    as the last row of its share matrix instead."""
    return update_beta(scores[None, :], gamma[None, :], [cap])[0]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics.

    ``relaxed_wsu`` is :func:`~caralloc.core.evaluate_relaxed_wsu` of the
    full-size iterate after the sweep. ``sum_residual`` is the worst deviation of the raw (pre-snap) update from
    its normalization identities: block columns summing to 1, carrier-share
    rows and activations summing to min(cap, number of positive scores).
    ``zero_rate_ues`` lists users whose carrier-share row was held because
    every score was zero (a held activation row is not listed).
    """

    iteration: int
    relaxed_wsu: float
    max_change: float
    sum_residual: float
    zero_rate_ues: tuple


@dataclass
class SgpaResult:
    """Outcome of :func:`solve`.

    ``active_carriers`` counts the carriers whose relaxed activation is
    positive at stop; ``binary_distance`` is the largest distance of any
    relaxed share from {0, 1} at stop (0 when the iterate is binary).
    """

    relaxed: RelaxedAllocation
    binary: BinaryAllocation
    wsu: float
    iterations_run: int
    converged: bool
    active_carriers: int
    binary_distance: float
    trace: Optional[List[IterationRecord]] = None


def _snap(arr: np.ndarray) -> np.ndarray:
    """Snap a fresh update ``arr`` in place (no K*M*N copy per sweep) and return it."""
    arr[arr >= 1.0 - SNAP_TOLERANCE] = 1.0
    arr[arr <= ZERO_TOLERANCE] = 0.0
    return arr


def solve(instance: ProblemInstance, config: Optional[SgpaConfig] = None) -> SgpaResult:
    """Run the iterative solver and quantize the final iterate.

    The state is the block shares ``alpha`` (K, M, N) and one share matrix
    (K+1, M), the carrier shares over the activations, with caps ``M_k``
    and ``M0``; each starts as the uniform spread over its cap. Both are
    updated in parallel from the previous iterate (pure Jacobi sweep). After
    each sweep, values within ``SNAP_TOLERANCE`` of 1 are snapped to 1 and
    values at or below ``ZERO_TOLERANCE`` are zeroed; iteration stops early
    once the largest change across all variables falls below
    ``CONVERGENCE_TOLERANCE``. A row with no positive score keeps its
    shares, so an instance with no positive utility stops at its start.

    Once at least half of the carriers in the working arrays have zero
    activation, the arrays are cut down to the live carriers, and the
    sweeps run on those alone. The cut is exact (see the module notes): a
    carrier at zero activation stays there with every share under it 0, so
    each later sweep would only recompute those zeros, and no live value
    depends on it. The caps are clipped to the live count; where that
    changes a cap, at most cap scores are positive, so the normalization
    takes the same branch as at full size (every positive score
    saturates). The iterate is scattered back to full size at the end, and
    for each trace record.
    """
    cfg = config if config is not None else SgpaConfig()
    K, num_ccs, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc

    # Every entry of the start lies far above ZERO_TOLERANCE, and after every
    # _snap the iterate lies in {0} and (ZERO_TOLERANCE, 1], so the sweeps
    # run on plain arrays.
    alpha = np.full((K, num_ccs, N), 1.0 / K)
    caps = np.append(instance.ue_cc_caps, instance.system_cc_cap)
    shares = np.repeat((1.0 / caps)[:, None], num_ccs, axis=1)

    trace: Optional[List[IterationRecord]] = [] if cfg.record_trace else None
    live = np.arange(num_ccs)  # the carriers in the working arrays
    utilities = instance.utilities
    converged = False

    def full_size() -> RelaxedAllocation:
        beta_gamma = _scatter(shares, live, num_ccs)
        return RelaxedAllocation(_scatter(alpha, live, num_ccs), beta_gamma[:-1], beta_gamma[-1])

    for iteration in range(1, cfg.max_iterations + 1):
        block_scores, share_scores = _sweep_scores(instance.weights, utilities, alpha, shares)
        new_alpha = update_alpha(block_scores, alpha)
        new_shares = update_beta(share_scores, shares, caps)

        residual, zero_rate = 0.0, ()
        if cfg.record_trace:
            # The share sums here run over carriers: take them at full size,
            # so they add in the same order with or without a cut.
            residual, zero_rate = _sum_identity_residual(
                block_scores, share_scores, new_alpha, _scatter(new_shares, live, num_ccs), caps
            )
        del block_scores, share_scores  # free the K*M*N block scores now, not at the next sweep

        new_alpha, new_shares = _snap(new_alpha), _snap(new_shares)

        # Active-set removal cascades: a carrier whose activation hit exact
        # zero can never recover (its rates are identically zero from here
        # on), so the shares under it are permanently inert. Zeroing them
        # keeps them from freezing at stale fractional values; live dynamics
        # are unaffected because every path through them carries the zero.
        dead = new_shares[-1] == 0.0
        if dead.any():
            new_shares[:, dead] = 0.0
            new_alpha[:, dead, :] = 0.0

        # abs in place: one K*M*N temporary, not two, at the sweep's peak.
        max_change = max(float(np.abs(d, out=d).max()) for d in (new_alpha - alpha, new_shares - shares))
        alpha, shares = new_alpha, new_shares

        if cfg.record_trace:
            relaxed_wsu = evaluate_relaxed_wsu(instance, full_size())
            trace.append(IterationRecord(iteration, relaxed_wsu, max_change, residual, zero_rate))

        if max_change < CONVERGENCE_TOLERANCE:
            converged = True
            break

        # Cut to the live carriers once at least half are switched off.
        # compress, not boolean indexing: a masked array comes back out of
        # C order, and numpy's sums over users then add in another order,
        # which changes last bits.
        if 2 * np.count_nonzero(dead) >= dead.size:
            keep = ~dead
            live = live[keep]
            utilities = utilities.compress(keep, axis=1)
            alpha = alpha.compress(keep, axis=1)
            shares = shares.compress(keep, axis=1)
            caps = np.minimum(caps, live.size)

    # Both facts read the same on the live carriers as at full size: a cut
    # carrier's activation and shares are all exactly 0.
    active_carriers = int(np.count_nonzero(shares[-1]))
    binary_distance = max(float(np.minimum(arr, 1.0 - arr).max()) for arr in (alpha, shares))
    final = full_size()
    binary = quantize(instance, final)
    return SgpaResult(
        relaxed=final,
        binary=binary,
        wsu=evaluate_wsu(instance, binary),
        iterations_run=iteration,
        converged=converged,
        active_carriers=active_carriers,
        binary_distance=binary_distance,
        trace=trace,
    )


def _scatter(arr: np.ndarray, live: np.ndarray, num_ccs: int) -> np.ndarray:
    """``arr``, whose carrier axis 1 holds the ``live`` carriers, at full
    size with zeros at every other carrier."""
    if live.size == num_ccs:
        return arr
    out = np.zeros((arr.shape[0], num_ccs) + arr.shape[2:])
    out[:, live] = arr
    return out


def _sum_identity_residual(block_scores, share_scores, new_alpha, new_shares, caps):
    """Worst deviation of the raw update from its normalization identities,
    and the users whose carrier-share row was held (all scores zero). Caps
    clipped to the live count give the same targets min(cap, positives)."""
    live_cols = block_scores.sum(axis=0) > 0
    residual = 0.0
    if live_cols.any():
        residual = float(np.abs(new_alpha.sum(axis=0)[live_cols] - 1.0).max())

    positives = (share_scores > 0).sum(axis=1)
    live_rows = positives > 0
    if live_rows.any():
        deviation = np.abs(new_shares.sum(axis=1) - np.minimum(caps, positives))
        residual = max(residual, float(deviation[live_rows].max()))
    return residual, tuple(np.flatnonzero(~live_rows[:-1]).tolist())


def write_trace_csv(result: SgpaResult, path) -> None:
    """Write the trace of ``result`` (an :class:`SgpaResult`, or any run
    that carries its ``trace``) as CSV: one column per
    :class:`IterationRecord` field, each value as its ``repr``, and
    ``zero_rate_ues`` as user indices joined with ``;`` (empty when no row
    was held).
    """
    if result.trace is None:
        raise ValueError("solver was run without trace recording")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in fields(IterationRecord))
        for rec in result.trace:
            writer.writerow(
                ";".join(map(str, value)) if isinstance(value, tuple) else repr(value)
                for value in astuple(rec)
            )
