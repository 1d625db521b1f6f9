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
sorted rates (no root-finding). One routine, :func:`_normalize_rows`, serves
every normalization: it takes a whole array of rows with one cap each and
writes the shares over it, and every row takes the same steps, one sort and
one scan. The same sort tells which rows saturate (at most their cap of
positive scores, so their positive scores all become 1) and which have no
positive score at all. What the steps need of the caps and the row length
is formed once per cap set and length and cached. Scores are validated only
at the public entry, :func:`capped_simplex_normalize`; the updates inside
:func:`solve` call :func:`_normalize_rows` directly and check only that the
scores are floats they can write the new shares over.

The sweep's cost is linear in K*M*N, and its passes run in place. An iterate
is one flat buffer, with the block shares and the share matrix as two views
of it. :func:`solve` forms the weighted utilities once, writes each sweep's
block and share scores into a second such buffer, and :func:`update_alpha`
and :func:`update_beta` normalize them there; the snap then takes one pass
over the whole buffer. The change takes one pass over the share matrix, and
over the block shares only once the share matrix has settled (or for a
trace). Apart from its start and its cuts, a solve allocates no K*M*N array
until the rounding.

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
import functools
from dataclasses import astuple, dataclass, fields
from typing import List, NamedTuple, Optional

import numpy as np

from .core import (
    BinaryAllocation,
    ProblemInstance,
    RelaxedAllocation,
    _checked,
    _float_array,
    check_document,
    check_fields,
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


@dataclass(frozen=True)
class SgpaConfig:
    """Solver settings: the sweep budget and whether to record a per-sweep
    trace. The start (alpha = 1/K, beta row k = 1/M_k, gamma = 1/M0) and the
    thresholds (the ``*_TOLERANCE`` constants) are fixed."""

    max_iterations: int = 20
    record_trace: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

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
    hands one row to :func:`_normalize_rows`, which the solver's updates
    call directly.
    """
    v = _float_array(v, "scores")
    if v.ndim != 1 or v.size == 0:
        raise ValueError("scores must be a nonempty 1-D array")
    cap = _checked("int", cap, "cap")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap > v.size:
        raise ValueError(f"cap {cap} exceeds the number of entries {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("scores must be finite and nonnegative")
    if not np.any(v > 0):
        raise ValueError("at least one score must be positive")

    x = v.copy()
    kappa = float(_normalize_rows(x[None, :], np.array([cap]))[0][0])
    positive = v[v > 0]
    if positive.size <= cap:  # saturated: the kernel gives kappa 0 there
        kappa = float(positive.min())
    return NormalizationSolution(kappa=kappa, x=x, saturated_count=int(np.count_nonzero(x == 1.0)))


def _normalize_rows(v: np.ndarray, caps: np.ndarray) -> tuple:
    """Capped-simplex normalization of every row of ``v`` (rows, P) at once,
    row r onto sum ``caps[r]``, written over ``v``: each row becomes ``x``
    as :func:`capped_simplex_normalize` defines it. Returns ``kappa``
    (rows,) and the mask of rows with no positive score.

    Unchecked: caps >= 1; a cap above P acts as P. A row with at most its
    cap of positive scores saturates: ``x`` is its positive mask, and
    ``kappa`` is 0 there (a row with no positive score comes out all zero).

    The solve is exact, not iterative, and every row takes the same steps.
    With a row's scores sorted descending, the number of saturated entries
    t is the first value in {0, ..., cap-1} for which kappa = (sum of
    scores from position t on) / (cap - t) lands between the scores at
    positions t and t-1. Each row is sorted ascending, so the zeros lead
    and add exactly 0.0 to the running sums, which therefore carry the same
    bits as sums over the positive scores alone. A row saturates when its
    (cap+1)-th largest score is 0 or its cap is at least P; the scan does
    not find that case itself (with exactly cap near-tied positive scores,
    t = 0 can fit and leave the shares a rounding short of 1). O(P log P)
    per row, and each row's result is independent of the other rows passed
    with it.
    """
    plan = _scan_plan(caps.tobytes(), caps.dtype.str, v.shape[1])
    asc = v.copy()
    asc.sort(axis=1)
    width = plan.denominators.shape[1]
    desc = asc[:, : -width - 1 : -1]  # the largest `width` scores, descending
    tail = asc.cumsum(axis=1)[:, : -width - 1 : -1]  # tail[:, t] = sum of desc[t:]
    levels = tail / plan.denominators
    # Exact arithmetic puts kappa in [desc[t], desc[t-1]] at exactly one
    # t < cap. The relative slack admits float-degenerate boundaries (a tiny
    # tail entry absorbed by the sum can land kappa exactly on desc[t]);
    # neighbouring t values give the same x to within the slack there. The
    # first t passing the lower test alone is that one: the test holds at
    # t = cap - 1 (kappa is the tail sum there, and a float sum of
    # nonnegative terms is at least each term), so every row that does not
    # saturate has one, and failing it at t - 1 puts kappa[t] below
    # desc[t-1] by more than rounding (normal floats).
    fits = levels >= desc * (1.0 - 1e-12)
    kappa = levels.ravel()[plan.row_starts + fits.argmax(axis=1)]
    flat = asc.ravel()
    kappa[flat[plan.saturation] <= plan.saturation_limit] = 0.0
    zero = v == 0.0
    # A saturated row's kappa is 0: its positive scores divide to inf and
    # clip to 1, its zeros divide to nan and are reset below, so neither
    # warning means a fault.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(v, kappa[:, None], out=v)
        np.minimum(v, 1.0, out=v)
    v[zero] = 0.0  # a zero score of either sign maps to +0.0
    return kappa, flat[plan.row_tops] == 0.0


class _ScanPlan(NamedTuple):
    """What :func:`_normalize_rows` needs of the caps and the row length P,
    as read-only arrays, with W = min(max cap, P) scan columns:

    - ``denominators``: ``max(min(cap, P) - t, 1)`` for t < W, (rows, W);
    - ``row_starts``: each row's first flat index in a (rows, W) array;
    - ``row_tops``: each row's flat index of its largest score in the
      sorted (rows, P) array;
    - ``saturation`` and ``saturation_limit``: a flat index into the sorted
      rows and a limit, such that a row saturates when its score there is
      at most the limit. With a cap below P, that is the row's (cap+1)-th
      largest score with limit 0; with a cap of at least P, any score of
      the row with limit inf.
    """

    denominators: np.ndarray
    row_starts: np.ndarray
    row_tops: np.ndarray
    saturation: np.ndarray
    saturation_limit: np.ndarray


@functools.lru_cache(maxsize=64)
def _scan_plan(caps_bytes: bytes, dtype: str, width: int) -> _ScanPlan:
    """The :class:`_ScanPlan` of the caps whose bytes and dtype are given,
    for rows of length ``width``. A solve calls the kernel with one cap set
    every sweep, and with one row length between its cuts, so forming these
    once per cap set and length saves their cost on every later sweep."""
    caps = np.minimum(np.frombuffer(caps_bytes, dtype=dtype), width).astype(int)
    columns = int(caps.max(initial=1))  # 1 for an empty batch
    rows = np.arange(caps.size)
    wide = caps == width
    plan = _ScanPlan(
        denominators=np.maximum(caps[:, None] - np.arange(columns), 1).astype(float),
        row_starts=rows * columns,
        row_tops=rows * width + width - 1,
        saturation=rows * width + np.where(wide, 0, width - 1 - caps),
        saturation_limit=np.where(wide, np.inf, 0.0),
    )
    for array in plan:
        array.flags.writeable = False
    return plan


def _sweep_scores(weighted, alpha, shares, blocks, share_scores) -> tuple:
    """The block scores and the share scores of one sweep, each product
    formed once and written into the given buffers, ``blocks`` of
    ``alpha``'s shape and ``share_scores`` of ``shares``' shape; returns
    both. ``weighted`` holds the weighted utilities ``W = w_k * phi[k, m, n]``
    and ``shares`` stacks ``beta`` (rows 0..K-1) over ``gamma``.

    With per-carrier rates ``r[k, m] = sum_n alpha[k, m, n] * W[k, m, n]``,
    the block scores are ``alpha * beta * W`` and the share scores
    ``shares * rates``, whose rates are ``gamma * r`` in the user rows and
    ``sum_k beta * r`` in the activation row. The rates are formed in
    ``share_scores`` itself and multiplied by the shares there. The
    activations cancel in the block update and do not appear there. The
    arrays may hold any subset of the carriers: every sum here runs over
    users or blocks, never over carriers, so each carrier's scores do not
    depend on which other carriers are present.
    """
    beta, gamma = shares[:-1], shares[-1]
    per_cc = np.einsum("kmn,kmn->km", alpha, weighted)
    np.multiply(gamma, per_cc, out=share_scores[:-1])
    per_cc *= beta
    per_cc.sum(axis=0, out=share_scores[-1])
    share_scores *= shares
    np.multiply(alpha, beta[:, :, None], out=blocks)
    blocks *= weighted
    return blocks, share_scores


def update_alpha(scores: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """One block-share update, in place: scale each (carrier, block) column
    of ``scores`` to sum to 1 and return ``scores``. A column whose scores
    are all zero takes its previous shares ``alpha`` (it earns nothing
    either way), copied bit for bit. ``scores`` must be a float64 array,
    since the new shares are written over it."""
    _check_float(scores)
    denom = scores.sum(axis=0)
    idle = denom == 0.0
    # An idle column divides 0 by 0 into nan, and its held shares replace
    # that below. A masked divide would skip those columns, but it runs
    # slower than the plain one on a full-size sweep's block scores.
    with np.errstate(invalid="ignore"):
        scores /= denom
    np.copyto(scores, alpha, where=idle)
    return scores


def update_beta(scores: np.ndarray, shares: np.ndarray, caps) -> np.ndarray:
    """One share update for every row at once, in place: capped-simplex
    normalization of score row r with ``caps[r]`` as the target sum, written
    over ``scores``, which is returned and must be a float64 array.
    :func:`solve` passes every user's carrier shares (cap ``M_k``) and, as
    the last row, the activations (cap ``M0``).

    The rows go through :func:`_normalize_rows`; a row whose scores are all
    zero keeps its previous shares, copied bit for bit."""
    _check_float(scores)
    held = _normalize_rows(scores, np.asarray(caps))[1]
    np.copyto(scores, shares, where=held[:, None])
    return scores


def _check_float(scores: np.ndarray) -> None:
    """Refuse a score array the in-place updates cannot write shares into."""
    if scores.dtype != np.float64:
        raise ValueError(f"scores must be a float64 array, not {scores.dtype}")


def update_gamma(scores: np.ndarray, gamma: np.ndarray, cap: int) -> np.ndarray:
    """One activation update on its own: :func:`update_beta` of the single
    row ``gamma`` with the system cap, in place over ``scores``. :func:`solve`
    updates the activations as the last row of its share matrix instead."""
    return update_beta(scores[None, :], gamma[None, :], [cap])[0]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics.

    ``relaxed_wsu`` is :func:`~caralloc.core.evaluate_relaxed_wsu` of the
    full-size iterate after the sweep. ``sum_residual`` is the worst
    deviation of the raw (pre-snap) update from its normalization
    identities: block columns summing to 1, carrier-share rows and
    activations summing to min(cap, number of positive scores).
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
    """Snap a fresh update ``arr`` in place and return it: values within
    ``SNAP_TOLERANCE`` of 1 become 1, values at or below ``ZERO_TOLERANCE``
    become 0."""
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

    An iterate is one flat buffer: ``alpha`` and the share matrix are two
    views of it, so the snap and the final distance from binary each take
    one pass over the buffer. The sweep runs in place on two such
    buffers beside the weighted utilities, which are formed once per solve.
    The block and share scores go into the free buffer, :func:`update_alpha`
    and :func:`update_beta` normalize them there into the new iterate, the
    old iterate's buffer takes the change, and the two buffers swap names.
    So no K*M*N array is allocated after the start except at a cut, and the
    free buffer is released before the rounding.

    Once at least half of the carriers in the working arrays have zero
    activation, the arrays are cut down to the live carriers, and the
    sweeps run on those alone. The cut is exact (see the module notes): a
    carrier at zero activation stays there with every share under it 0, so
    each later sweep would only recompute those zeros, and no live value
    depends on it. The caps stay as they are: a row with no more positive
    scores than its cap saturates, so a cap above the live count acts as
    the live count. The iterate is scattered back to full size at the end,
    and for each trace record.
    """
    cfg = config if config is not None else SgpaConfig()
    K, num_ccs, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc

    # Every entry of the start lies far above ZERO_TOLERANCE, and after every
    # _snap the iterate lies in {0} and (ZERO_TOLERANCE, 1], so the sweeps
    # run on plain arrays.
    caps = np.append(instance.ue_cc_caps, instance.system_cc_cap)
    iterate, alpha, shares = _iterate_buffer(K, num_ccs, N)
    alpha.fill(1.0 / K)
    shares[...] = (1.0 / caps)[:, None]
    weighted = instance.weighted_utilities
    free, new_alpha, new_shares = _iterate_buffer(K, num_ccs, N)  # the next scores

    trace: Optional[List[IterationRecord]] = [] if cfg.record_trace else None
    live = np.arange(num_ccs)  # the carriers in the working arrays
    converged = False

    def full_size() -> RelaxedAllocation:
        beta_gamma = _scatter(shares, live, num_ccs)
        return RelaxedAllocation(_scatter(alpha, live, num_ccs), beta_gamma[:-1], beta_gamma[-1])

    for iteration in range(1, cfg.max_iterations + 1):
        _sweep_scores(weighted, alpha, shares, new_alpha, new_shares)
        if cfg.record_trace:
            live_cols = new_alpha.sum(axis=0) > 0.0
            positives = (new_shares > 0.0).sum(axis=1)
        update_alpha(new_alpha, alpha)  # normalized where the scores sit
        update_beta(new_shares, shares, caps)

        residual, zero_rate = 0.0, ()
        if cfg.record_trace:
            # The share sums here run over carriers: take them at full size,
            # so they add in the same order with or without a cut.
            residual, zero_rate = _sum_identity_residual(
                live_cols, positives, new_alpha, _scatter(new_shares, live, num_ccs), caps
            )

        _snap(free)

        # Active-set removal cascades: a carrier whose activation hit exact
        # zero can never recover (its rates are identically zero from here
        # on), so the shares under it are permanently inert. Zeroing them
        # keeps them from freezing at stale fractional values; live dynamics
        # are unaffected because every path through them carries the zero.
        dead = new_shares[-1] == 0.0
        dead_count = np.count_nonzero(dead)
        if dead_count:
            new_shares[:, dead] = 0.0
            new_alpha[:, dead, :] = 0.0

        # The old iterate's buffer takes |new - old|, then the next scores.
        # The share matrix goes first: while it moves by the tolerance or
        # more, the solve goes on whatever the block shares did, so their
        # change is taken only to stop or for the trace.
        max_change = _max_change(new_shares, shares)
        if max_change < CONVERGENCE_TOLERANCE or cfg.record_trace:
            max_change = max(max_change, _max_change(new_alpha, alpha))
        iterate, alpha, shares, free, new_alpha, new_shares = (
            free, new_alpha, new_shares, iterate, alpha, shares
        )

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
        if 2 * dead_count >= dead.size:
            del free, new_alpha, new_shares  # released before the cut's copies
            keep = ~dead
            live = live[keep]
            weighted = weighted.compress(keep, axis=1)
            cut = _iterate_buffer(K, live.size, N)
            alpha.compress(keep, axis=1, out=cut[1])
            shares.compress(keep, axis=1, out=cut[2])
            iterate, alpha, shares = cut
            del cut
            free, new_alpha, new_shares = _iterate_buffer(K, live.size, N)

    # Both facts read the same on the live carriers as at full size: a cut
    # carrier's activation and shares are all exactly 0. The free buffer
    # takes min(x, 1 - x).
    active_carriers = int(np.count_nonzero(shares[-1]))
    np.minimum(iterate, np.subtract(1.0, iterate, out=free), out=free)
    binary_distance = float(free.max())
    # The free buffer and the weighted utilities go before the rounding.
    del free, new_alpha, new_shares, weighted
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


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    """The largest ``|new - old|``, formed over ``old``."""
    np.abs(np.subtract(new, old, out=old), out=old)
    return float(old.max())


def _iterate_buffer(K: int, num_ccs: int, N: int) -> tuple:
    """A flat buffer for one iterate and its two views: the block shares
    (K, M, N) and the share matrix (K+1, M)."""
    size = K * num_ccs * N
    flat = np.empty(size + (K + 1) * num_ccs)
    return flat, flat[:size].reshape(K, num_ccs, N), flat[size:].reshape(K + 1, num_ccs)


def _scatter(arr: np.ndarray, live: np.ndarray, num_ccs: int) -> np.ndarray:
    """``arr``, whose carrier axis 1 holds the ``live`` carriers, at full
    size with zeros at every other carrier."""
    if live.size == num_ccs:
        return arr
    out = np.zeros((arr.shape[0], num_ccs) + arr.shape[2:])
    out[:, live] = arr
    return out


def _sum_identity_residual(live_cols, positives, new_alpha, new_shares, caps):
    """Worst deviation of the raw update from its normalization identities,
    and the users whose carrier-share row was held (all scores zero).
    ``live_cols`` marks the (carrier, block) columns with a positive block
    score, the ones :func:`update_alpha` normalized, and ``positives``
    counts each share row's positive scores."""
    residual = 0.0
    if live_cols.any():
        residual = float(np.abs(new_alpha.sum(axis=0)[live_cols] - 1.0).max())

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
