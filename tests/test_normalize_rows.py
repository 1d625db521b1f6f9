"""The row-batched capped-simplex kernel against the scalar reference scan.

Every output must carry the same bits as the scalar scan in
``helpers.reference_capped_simplex_normalize`` gives row by row: the shares
``x`` and the multiplier ``kappa`` alike. The score sets cover the solver's
shapes (K up to 10 users, M up to 640 carriers), zeros, heavy skew, ties,
rows whose positive scores all saturate, all-zero rows and one cap per row.
"""

import numpy as np

from caralloc.sgpa import (
    _normalize_rows,
    capped_simplex_normalize,
    update_beta,
    update_gamma,
)

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


class TestKernelAgainstReference:
    def test_bytes_equal_the_scalar_scan(self):
        rows_checked = {kind: 0 for kind in KINDS}
        all_saturated = 0
        for kind, v, caps in score_sets():
            live = v.max(axis=1) > 0.0
            if not live.any():
                continue
            v, caps = v[live], caps[live]
            x, kappa = _normalize_rows(v, caps)
            assert x.shape == v.shape and kappa.shape == (len(v),)
            all_saturated += bool(np.all((v > 0).sum(axis=1) <= caps))
            for r in range(len(v)):
                ref = reference_capped_simplex_normalize(v[r], caps[r])
                assert x[r].tobytes() == ref.x.tobytes(), (kind, r)
                assert float_bytes(kappa[r]) == float_bytes(ref.kappa), (kind, r)
                rows_checked[kind] += 1
        assert min(rows_checked.values()) >= 500
        assert all_saturated >= 200  # the exit that skips the scan is covered

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
        x, kappa = _normalize_rows(v, np.array([2, 2]))
        for r in range(2):
            ref = reference_capped_simplex_normalize(v[r], 2)
            assert x[r].tobytes() == ref.x.tobytes()
            assert float_bytes(kappa[r]) == float_bytes(ref.kappa)

    def test_negative_zero_maps_to_zero(self):
        # -0.0 passes the nonnegativity check; its share is +0.0, as in the
        # scalar scan, not the -0.0 that -0.0 / kappa gives.
        for v, cap in (([-0.0, 3.0, 1.0, 1.0], 1), ([-0.0, 3.0, 1.0], 2)):
            sol = capped_simplex_normalize(v, cap)
            assert sol.x.tobytes() == reference_capped_simplex_normalize(v, cap).x.tobytes()


class TestUpdates:
    def test_update_beta_rows_and_held_rows(self):
        rng = np.random.default_rng(14)
        held_rows = 0
        for kind, scores, caps in score_sets(count=300, seed=15):
            beta = rng.uniform(0.1, 1.0, scores.shape)
            previous = beta.copy()
            out = update_beta(scores, beta, caps)
            assert beta.tobytes() == previous.tobytes()  # the input is left alone
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
            stacked = update_beta(scores, shares, caps)
            for r in range(K + 1):
                alone = update_beta(scores[r : r + 1], shares[r : r + 1], caps[r : r + 1])[0]
                assert stacked[r].tobytes() == alone.tobytes(), (i, r)
                if not scores[r].max() > 0.0:
                    assert stacked[r].tobytes() == shares[r].tobytes()
                    held += 1
            live = scores.max(axis=1) > 0.0
            x, kappa = _normalize_rows(scores[live], caps[live])
            for row, cap, x_row, kappa_row in zip(scores[live], caps[live], x, kappa):
                x_alone, kappa_alone = _normalize_rows(row[None, :], np.array([cap]))
                assert x_row.tobytes() == x_alone[0].tobytes()
                assert float_bytes(kappa_row) == float_bytes(kappa_alone[0])
        assert held >= 100 and scanned >= 250
