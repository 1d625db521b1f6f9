"""The row-batched capped-simplex kernel against the scalar reference scan.

Every output must carry the same bits as the scalar scan in
``helpers.reference_capped_simplex_normalize`` gives row by row: the shares
``x`` on every row, and the multiplier ``kappa`` on every row with more
positive scores than its cap (the kernel gives a saturated row kappa 0;
:func:`capped_simplex_normalize` reports its smallest positive score). The
score sets cover the solver's shapes (K up to 10 users, M up to 640
carriers), zeros, heavy skew, ties, rows whose positive scores all
saturate, all-zero rows and one cap per row.
"""

import numpy as np
import pytest

from caralloc.sgpa import (
    SgpaConfig,
    _normalize_rows,
    _scan_plan,
    capped_simplex_normalize,
    solve,
    update_beta,
    update_gamma,
)
from caralloc.simharness import GenParams, sample_instance

from helpers import reference_capped_simplex_normalize

KINDS = ("exponential", "lognormal", "ties", "saturated", "mixed")


def score_set(rng, kind):
    """One (rows, M) score array of the given kind and one cap per row.

    A third of the entries are zero; some arrays hold an all-zero row, and
    half of them give every row the same cap."""
    K = int(rng.integers(1, 11))
    M = int(rng.integers(2, 641)) if rng.uniform() < 0.25 else int(rng.integers(2, 25))
    caps = rng.integers(1, M + 1, size=K)
    if rng.uniform() < 0.5:
        caps[:] = caps[0]
    if kind == "exponential":
        v = rng.exponential(1.0, (K, M))
    elif kind == "lognormal":
        v = rng.lognormal(0.0, 4.0, (K, M))
    elif kind == "ties":
        v = rng.integers(0, 4, (K, M)) * 0.25
    else:
        v = rng.exponential(1.0, (K, M))
    v[rng.uniform(size=(K, M)) < 0.3] = 0.0
    if kind in ("saturated", "mixed"):
        # Keep at most cap positive scores in every row (every other row
        # for "mixed").
        for k in range(0, K, 1 if kind == "saturated" else 2):
            keep = rng.permutation(M)[: int(rng.integers(1, caps[k] + 1))]
            row = np.zeros(M)
            row[keep] = rng.exponential(1.0, keep.size) + 0.1
            v[k] = row
    if rng.uniform() < 0.2:
        v[int(rng.integers(K))] = 0.0
    return v, caps


def score_sets(count=1200, seed=12):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield KINDS[i % len(KINDS)], *score_set(rng, KINDS[i % len(KINDS)])


def float_bytes(value):
    return np.float64(value).tobytes()


def normalized(v, caps):
    """``_normalize_rows`` out of place: the shares, kappa and held mask."""
    x = np.array(v, dtype=float)
    kappa, held = _normalize_rows(x, np.asarray(caps))
    return x, kappa, held


class TestKernelAgainstReference:
    def test_bytes_equal_the_scalar_scan(self):
        rows_checked = {kind: 0 for kind in KINDS}
        all_saturated = 0
        for kind, v, caps in score_sets():
            live = v.max(axis=1) > 0.0
            if not live.any():
                continue
            v, caps = v[live], caps[live]
            x, kappa, held = normalized(v, caps)
            assert x.shape == v.shape and kappa.shape == held.shape == (len(v),)
            assert not held.any()
            saturated = (v > 0).sum(axis=1) <= caps
            all_saturated += bool(saturated.all())
            for r in range(len(v)):
                ref = reference_capped_simplex_normalize(v[r], caps[r])
                assert x[r].tobytes() == ref.x.tobytes(), (kind, r)
                if saturated[r]:
                    assert kappa[r] == 0.0, (kind, r)
                    kappa_r = capped_simplex_normalize(v[r], caps[r]).kappa
                else:
                    kappa_r = kappa[r]
                assert float_bytes(kappa_r) == float_bytes(ref.kappa), (kind, r)
                rows_checked[kind] += 1
        assert min(rows_checked.values()) >= 500
        assert all_saturated >= 200  # batches with no row to scan are covered

    def test_public_entry_matches_the_scalar_scan(self):
        rng = np.random.default_rng(13)
        for i in range(300):
            kind = KINDS[i % len(KINDS)]
            v, caps = score_set(rng, kind)
            for row, cap in zip(v, caps):
                if not row.max() > 0.0:
                    continue
                sol = capped_simplex_normalize(row, cap)
                ref = reference_capped_simplex_normalize(row, cap)
                assert sol.x.tobytes() == ref.x.tobytes()
                assert float_bytes(sol.kappa) == float_bytes(ref.kappa)
                assert sol.saturated_count == ref.saturated_count

    def test_float_degenerate_boundary(self):
        # A score absorbed by the tail sum lands kappa on a breakpoint.
        v = np.array([[4.2, 2.7, 3.7e-22], [1.0, 1.0, 1.0]])
        x, kappa, _ = normalized(v, [2, 2])
        for r in range(2):
            ref = reference_capped_simplex_normalize(v[r], 2)
            assert x[r].tobytes() == ref.x.tobytes()
            assert float_bytes(kappa[r]) == float_bytes(ref.kappa)

    def test_cap_above_the_width_acts_as_the_width(self):
        # The solver keeps its caps when it cuts to fewer live carriers than
        # a cap: such a row has at most its cap of positive scores and
        # saturates, as it does at a cap equal to the width.
        rng = np.random.default_rng(17)
        for kind, v, caps in score_sets(count=300, seed=19):
            width = v.shape[1]
            above = caps + rng.integers(width, 2 * width + 1, caps.size)
            x_above, kappa_above, held_above = normalized(v, above)
            x_width, kappa_width, held_width = normalized(v, np.full(caps.size, width))
            assert x_above.tobytes() == x_width.tobytes() == (v > 0).astype(float).tobytes()
            assert (kappa_above == 0.0).all() and (kappa_width == 0.0).all()
            live = v.max(axis=1) > 0.0
            assert (held_above == ~live).all() and (held_width == ~live).all()
            for row in v[live]:
                sol = capped_simplex_normalize(row, width)
                assert sol.x.tobytes() == (row > 0).astype(float).tobytes()
                assert sol.kappa == row[row > 0].min()

    def test_negative_zero_maps_to_zero(self):
        # -0.0 passes the nonnegativity check; its share is +0.0, as in the
        # scalar scan, not the -0.0 that -0.0 / kappa gives.
        for v, cap in (([-0.0, 3.0, 1.0, 1.0], 1), ([-0.0, 3.0, 1.0], 2)):
            sol = capped_simplex_normalize(v, cap)
            assert sol.x.tobytes() == reference_capped_simplex_normalize(v, cap).x.tobytes()

    def test_exactly_cap_near_tied_scores_saturate(self):
        # With exactly cap positive scores the scan alone can fit t = 0 and
        # leave each share a rounding short of 1 (0.9999999999999998 for
        # [0.1] * 3 at cap 3); the saturation test makes them exactly 1.
        rng = np.random.default_rng(23)
        rows = [[0.1, 0.1, 0.1], [0.1, 0.0, 0.1, 0.1], [0.0, 0.1, 0.0, 0.1]]
        caps = [3, 3, 2]
        for _ in range(200):
            cap = int(rng.integers(1, 9))
            row = np.zeros(cap + int(rng.integers(0, 4)))
            row[rng.permutation(row.size)[:cap]] = rng.uniform(0.01, 10.0) * (
                1.0 + rng.integers(-2, 3, cap) * np.finfo(float).eps
            )
            rows.append(row)
            caps.append(cap)
        for row, cap in zip(rows, caps):
            x, kappa, held = normalized([row], [cap])
            ref = reference_capped_simplex_normalize(row, cap)
            assert x[0].tobytes() == ref.x.tobytes() == (np.asarray(row) > 0).astype(float).tobytes()
            assert kappa[0] == 0.0 and not held[0]

    def test_all_zero_rows_come_out_zero_and_held(self):
        v = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]])
        x, _, held = normalized(v, [1, 1, 3, 2])
        assert held.tolist() == [True, False, True, True]
        assert x[held].tobytes() == np.zeros((3, 3)).tobytes()
        assert x[1].tobytes() == reference_capped_simplex_normalize(v[1], 1).x.tobytes()

    def test_negative_zero_maps_to_zero_in_every_row_kind(self):
        # A scanned row, a saturated row and a row whose cap is its length:
        # -0.0 gives +0.0 in each, as in the scalar scan, not the -0.0 or
        # nan its division gives.
        v = np.array([[-0.0, 3.0, 1.0, 1.0], [-0.0, 3.0, 0.0, 1.0], [-0.0, 3.0, 1.0, 1.0]])
        caps = [1, 2, 4]
        x, _, _ = normalized(v, caps)
        for r, cap in enumerate(caps):
            assert x[r].tobytes() == reference_capped_simplex_normalize(v[r], cap).x.tobytes()

    def test_plan_arrays_are_read_only(self):
        caps = np.array([2, 3, 5])
        plan = _scan_plan(caps.tobytes(), caps.dtype.str, 4)
        for array in plan:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def out_of_place_update_beta(scores, shares, caps):
    """The share update as a fresh array: each held row (no positive score)
    copied from ``shares``, every other row through ``_normalize_rows``."""
    out = shares.copy()
    live = scores.max(axis=1) > 0.0
    out[live] = normalized(scores[live], caps[live])[0]
    return out


class TestUpdates:
    def test_update_beta_normalizes_in_place_to_the_out_of_place_bytes(self):
        rng = np.random.default_rng(18)
        rows = {"saturated": 0, "held": 0, "scanned": 0}
        all_three = 0
        for kind, scores, caps in score_sets(count=400, seed=19):
            shares = rng.uniform(0.1, 1.0, scores.shape)
            expected = out_of_place_update_beta(scores, shares, caps)
            counts = (scores > 0.0).sum(axis=1)
            seen = {"held": counts == 0, "saturated": (counts > 0) & (counts <= caps), "scanned": counts > caps}
            before = shares.copy()
            out = update_beta(scores, shares, caps)
            assert out is scores
            assert out.tobytes() == expected.tobytes(), kind
            assert shares.tobytes() == before.tobytes()
            for name, mask in seen.items():
                rows[name] += int(mask.sum())
            all_three += all(mask.any() for mask in seen.values())
        assert min(rows.values()) >= 50 and all_three >= 20

    def test_update_beta_rows_and_held_rows(self):
        rng = np.random.default_rng(14)
        held_rows = 0
        for kind, scores, caps in score_sets(count=300, seed=15):
            beta = rng.uniform(0.1, 1.0, scores.shape)
            previous = beta.copy()
            out = update_beta(scores.copy(), beta, caps)
            assert beta.tobytes() == previous.tobytes()  # the shares are left alone
            for k in range(len(scores)):
                if scores[k].max() > 0.0:
                    expected = reference_capped_simplex_normalize(scores[k], caps[k]).x
                else:
                    expected = beta[k]  # held: the previous row, bit for bit
                    held_rows += 1
                assert out[k].tobytes() == expected.tobytes(), (kind, k)
        assert held_rows >= 20

    def test_update_gamma_matches_the_scalar_scan(self):
        rng = np.random.default_rng(16)
        held = 0
        for i in range(400):
            M = int(rng.integers(2, 641)) if i % 4 == 0 else int(rng.integers(2, 25))
            scores = rng.lognormal(0.0, 2.0, M)
            scores[rng.uniform(size=M) < 0.3] = 0.0
            if i % 10 == 0:
                scores[:] = 0.0
            gamma = rng.uniform(0.1, 1.0, M)
            cap = int(rng.integers(1, M + 1))
            if scores.max() > 0.0:
                expected = reference_capped_simplex_normalize(scores, cap).x
            else:
                expected = gamma  # held: the previous row, bit for bit
                held += 1
            assert update_gamma(scores, gamma, cap).tobytes() == expected.tobytes()
        assert held >= 40

    def test_stacked_rows_equal_row_by_row_calls(self):
        # The solver normalizes the users' carrier shares and, as the last
        # row, the activations in one call; each row must come out as it
        # would alone. The last cap exceeds every other, some rows saturate
        # while others do not (so the all-saturated exit mostly does not
        # fire), and some rows are all zero, the activation row included.
        rng = np.random.default_rng(17)
        held = scanned = 0
        for i in range(300):
            K = int(rng.integers(1, 11))
            M = int(rng.integers(6, 641)) if i % 4 == 0 else int(rng.integers(6, 25))
            caps = np.append(rng.integers(1, 4, size=K), int(rng.integers(4, M)))
            scores = rng.lognormal(0.0, 3.0, (K + 1, M))
            scores[rng.uniform(size=scores.shape) < 0.3] = 0.0
            scores[-1, rng.permutation(M)[: caps[-1] + 1]] = 1.0 + rng.uniform(size=caps[-1] + 1)
            for r in range(0, K, 2):  # at most cap positive scores: saturated
                scores[r] = 0.0
                scores[r, rng.permutation(M)[: caps[r]]] = rng.exponential(1.0, caps[r]) + 0.1
            if i % 3 == 0:
                scores[int(rng.integers(K))] = 0.0
            if i % 5 == 4:
                scores[-1] = 0.0
            shares = rng.uniform(0.1, 1.0, scores.shape)
            scanned += not np.all((scores > 0).sum(axis=1) <= caps)
            stacked = update_beta(scores.copy(), shares, caps)
            for r in range(K + 1):
                alone = update_beta(scores[r : r + 1].copy(), shares[r : r + 1], caps[r : r + 1])[0]
                assert stacked[r].tobytes() == alone.tobytes(), (i, r)
                if not scores[r].max() > 0.0:
                    assert stacked[r].tobytes() == shares[r].tobytes()
                    held += 1
            live = scores.max(axis=1) > 0.0
            x, kappa, _ = normalized(scores[live], caps[live])
            for row, cap, x_row, kappa_row in zip(scores[live], caps[live], x, kappa):
                x_alone, kappa_alone, _ = normalized(row[None, :], [cap])
                assert x_row.tobytes() == x_alone[0].tobytes()
                assert float_bytes(kappa_row) == float_bytes(kappa_alone[0])
        assert held >= 100 and scanned >= 250


def solve_bytes(instance, sweeps):
    result = solve(instance, SgpaConfig(max_iterations=sweeps, record_trace=True))
    relaxed, binary = result.relaxed, result.binary
    arrays = (relaxed.alpha, relaxed.beta, relaxed.gamma, binary.alpha, binary.beta, binary.gamma)
    return b"".join(a.tobytes() for a in arrays), result.wsu, result.trace


def test_interleaved_solves_match_solves_on_a_fresh_plan_cache():
    # Two cap sets on one shape and a second shape, solved in turn, so each
    # solve finds the plans of the others in the cache; the first case cuts
    # to fewer live carriers than its user cap of 3 (a shorter row length,
    # caps above it). Every solve must give the bytes it gives alone on an
    # empty cache: a plan keyed too loosely would show here.
    cases = [
        (GenParams(K=12, M=6, N=4, ue_cc_cap=3, system_cc_cap_limit=1, seed=20170611, stream_key=(0, 4)), 200),
        (GenParams(K=12, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=4, seed=7), 200),
        (GenParams(K=4, M=8, N=4, ue_cc_cap=2, system_cc_cap_limit=2, seed=8), 60),
    ]
    instances = [(sample_instance(params), sweeps) for params, sweeps in cases]
    alone = []
    for instance, sweeps in instances:
        _scan_plan.cache_clear()
        alone.append(solve_bytes(instance, sweeps))
    assert solve(instances[0][0], SgpaConfig(max_iterations=200)).active_carriers == 1
    for _ in range(2):
        for (instance, sweeps), expected in zip(instances, alone):
            assert solve_bytes(instance, sweeps) == expected
