"""The iterative solver: update rules, fixed-rate convergence, full solve."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from caralloc.core import (
    ProblemInstance,
    RelaxedAllocation,
    check_feasibility,
    evaluate_relaxed_wsu,
    evaluate_wsu,
    quantize,
)
from caralloc.baselines import greedy_unconstrained
from caralloc.sgpa import (
    SgpaConfig,
    _sweep_scores,
    capped_simplex_normalize,
    solve,
    update_alpha,
    update_beta,
    update_gamma,
    write_trace_csv,
)
from caralloc.simharness import GenParams, sample_instance

from helpers import alpha_rounding, binary_distance
from test_golden import CUT_CASES, ITERATE_SWEEPS, SHAPES, WEIGHT_MODES, case_instance


class TestConfig:
    def test_defaults(self):
        cfg = SgpaConfig()
        assert cfg.max_iterations == 20
        assert cfg.record_trace is False

    def test_from_dict(self):
        cfg = SgpaConfig.from_dict({"max_iterations": 5, "record_trace": True})
        assert cfg.max_iterations == 5 and cfg.record_trace is True

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SgpaConfig.from_dict({"iterations": 5})

    def test_from_dict_rejects_the_removed_start_setting(self):
        with pytest.raises(ValueError, match="initialization"):
            SgpaConfig.from_dict({"initialization": "uniform"})

    @pytest.mark.parametrize("value", [2.7, 3.0, True, "3"])
    def test_rejects_sweep_budgets_that_are_not_integers(self, value):
        # Neither truncated (2.7 used to run 2 sweeps) nor read as 1 (True).
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SgpaConfig(max_iterations=value)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_rejects_a_record_trace_that_is_not_a_boolean(self, value):
        with pytest.raises(ValueError, match=f"record_trace must be a boolean, not {value!r}"):
            SgpaConfig(record_trace=value)

    def test_is_frozen_and_hashable(self):
        cfg = SgpaConfig(record_trace=np.bool_(True))
        assert cfg.record_trace is True and hash(cfg) == hash(SgpaConfig(record_trace=True))
        with pytest.raises(AttributeError):
            cfg.max_iterations = 0

    def test_accepts_numpy_integers(self):
        cfg = SgpaConfig(max_iterations=np.int64(3))
        assert cfg.max_iterations == 3 and type(cfg.max_iterations) is int


class TestSweepScores:
    def test_hand_example(self):
        # K=2, M=2, N=1. Weighted utilities W = w * phi = [[2, 8], [6, 3]];
        # rates r = alpha * W = [[1, 2], [3, 2.25]].
        instance = ProblemInstance([2.0, 3.0], [[[1.0], [4.0]], [[2.0], [1.0]]], [1, 1], 1)
        weighted = instance.weighted_utilities
        alpha = np.array([[[0.5], [0.25]], [[0.5], [0.75]]])
        # The carrier shares beta over the activations gamma = [0.5, 0.25].
        shares = np.array([[0.5, 1.0], [1.0, 0.5], [0.5, 0.25]])
        blocks, share_scores = _sweep_scores(weighted, alpha, shares, np.empty_like(alpha), np.empty_like(shares))
        # alpha * beta * W
        np.testing.assert_array_equal(blocks[:, :, 0], [[0.5, 2.0], [3.0, 1.125]])
        # beta * gamma * r, then gamma * sum_k beta * r = [0.5 * 3.5, 0.25 * 3.125]
        np.testing.assert_array_equal(share_scores, [[0.25, 0.5], [1.5, 0.28125], [1.75, 0.78125]])

        # The activations cancel out of the block update: only the share
        # scores move with gamma.
        doubled = shares.copy()
        doubled[-1] *= 2.0
        blocks2, share_scores2 = _sweep_scores(weighted, alpha, doubled, np.empty_like(alpha), np.empty_like(shares))
        np.testing.assert_array_equal(blocks2, blocks)
        np.testing.assert_array_equal(share_scores2, 2.0 * share_scores)

    def test_carrier_subset_gives_the_same_columns(self):
        # No sum in a sweep runs over carriers, so scoring a subset of the
        # carriers gives the full-size scores' columns bit for bit.
        rng = np.random.default_rng(5)
        K, M, N = 10, 40, 20
        weights = rng.uniform(0.5, 2.0, K)
        utilities = rng.uniform(0.0, 3.0, (K, M, N))
        weighted = weights[:, None, None] * utilities
        alpha = rng.uniform(0.0, 1.0, (K, M, N))
        shares = rng.uniform(0.0, 1.0, (K + 1, M))
        keep = rng.uniform(size=M) < 0.3
        full = _sweep_scores(weighted, alpha, shares, np.empty_like(alpha), np.empty_like(shares))
        cut_alpha, cut_shares = alpha.compress(keep, axis=1), shares.compress(keep, axis=1)
        cut = _sweep_scores(
            weighted.compress(keep, axis=1), cut_alpha, cut_shares, np.empty_like(cut_alpha), np.empty_like(cut_shares)
        )
        np.testing.assert_array_equal(cut[0], full[0][:, keep])
        np.testing.assert_array_equal(cut[1], full[1][:, keep])

    def test_block_scores_fill_the_given_buffer_with_the_same_bits(self):
        # The product keeps its order, (alpha * beta) * W, so the reused
        # buffer holds the bits of the out-of-place product.
        rng = np.random.default_rng(6)
        K, M, N = 6, 9, 5
        weighted = rng.uniform(0.0, 3.0, (K, M, N))
        alpha = rng.uniform(0.0, 1.0, (K, M, N))
        shares = rng.uniform(0.0, 1.0, (K + 1, M))
        buffer = np.full_like(alpha, np.nan)
        blocks, _ = _sweep_scores(weighted, alpha, shares, buffer, np.empty_like(shares))
        assert blocks is buffer
        assert blocks.tobytes() == (alpha * shares[:-1, :, None] * weighted).tobytes()

    def test_share_scores_fill_the_given_buffer_with_the_same_bits(self):
        # The rates are formed in the share buffer itself and then scaled
        # there, to the bits of the out-of-place shares * rates.
        rng = np.random.default_rng(7)
        for _ in range(50):
            K, M, N = rng.integers(1, 12, size=3)
            weighted = rng.uniform(0.0, 3.0, (K, M, N))
            alpha = rng.uniform(0.0, 1.0, (K, M, N))
            shares = rng.uniform(0.0, 1.0, (K + 1, M)) * (rng.uniform(size=(K + 1, M)) < 0.8)
            buffer = np.full_like(shares, np.nan)
            _, share_scores = _sweep_scores(weighted, alpha, shares, np.empty_like(alpha), buffer)
            assert share_scores is buffer
            per_cc = np.einsum("kmn,kmn->km", alpha, weighted)
            rates = np.vstack((shares[-1] * per_cc, (shares[:-1] * per_cc).sum(axis=0)))
            assert share_scores.tobytes() == (shares * rates).tobytes()


def out_of_place_update_alpha(scores, alpha):
    """The block update as a fresh array: each column of ``scores`` over
    its sum, or the previous ``alpha`` where that sum is 0."""
    denom = scores.sum(axis=0, keepdims=True)
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.where(denom > 0.0, scores / safe, alpha)


class TestUpdateAlpha:
    def test_reweighting_hand_example(self):
        # One block, two users: shares [0.5, 0.5], products [4, 1] -> [0.8, 0.2].
        phi = np.array([[[4.0]], [[1.0]]])
        alpha = np.full((2, 1, 1), 0.5)
        out = update_alpha(alpha * phi, alpha)
        np.testing.assert_allclose(out[:, 0, 0], [0.8, 0.2])

    def test_equal_rates_preserve_direction(self):
        phi = np.array([[[3.0]], [[3.0]]])
        alpha = np.array([[[0.9]], [[0.1]]])
        out = update_alpha(alpha * phi, alpha)
        np.testing.assert_allclose(out[:, 0, 0], [0.9, 0.1])

    def test_iterated_update_converges_to_argmax(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.1, 1.0, (4, 1, 1))
        alpha = np.full((4, 1, 1), 0.25)
        for _ in range(50):
            alpha = update_alpha(alpha * phi, alpha)
        expected = np.zeros(4)
        expected[np.argmax(phi[:, 0, 0])] = 1.0
        np.testing.assert_allclose(alpha[:, 0, 0], expected, atol=1e-6)

    def test_zero_column_is_held(self):
        phi = np.zeros((2, 1, 2))
        phi[:, 0, 0] = [1.0, 2.0]  # second block has zero utility for everyone
        alpha = np.full((2, 1, 2), 0.5)
        out = update_alpha(alpha * phi, alpha)
        np.testing.assert_array_equal(out[:, 0, 1], [0.5, 0.5])
        assert out[:, 0, 0].sum() == pytest.approx(1.0)

    def test_held_columns_are_copied_bit_for_bit(self):
        rng = np.random.default_rng(2)
        alpha = rng.uniform(0.0, 1.0, (4, 3, 5))  # not a sum-to-1 column anywhere
        scores = rng.uniform(0.1, 1.0, (4, 3, 5))
        held = np.zeros((3, 5), dtype=bool)
        held[[0, 2, 2], [1, 0, 4]] = True
        scores[:, held] = 0.0
        out = update_alpha(scores, alpha)
        assert out[:, held].tobytes() == alpha[:, held].tobytes()
        np.testing.assert_allclose(out[:, ~held].sum(axis=0), 1.0)

    def test_normalizes_in_place_to_the_out_of_place_bytes(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            K, M, N = rng.integers(1, 7, size=3)
            alpha = rng.uniform(0.0, 1.0, (K, M, N))
            scores = rng.uniform(0.0, 5.0, (K, M, N)) * (rng.uniform(size=(K, M, N)) < 0.6)
            scores[:, rng.uniform(size=(M, N)) < 0.3] = 0.0  # whole zero columns
            expected = out_of_place_update_alpha(scores, alpha)
            before = alpha.copy()
            out = update_alpha(scores, alpha)
            assert out is scores
            assert out.tobytes() == expected.tobytes()
            assert alpha.tobytes() == before.tobytes()


class TestUpdateBeta:
    def test_capped_normalization_hand_example(self):
        # Rates per carrier [9, 3, 3], uniform previous shares 1/3, cap 1:
        # scores [3, 1, 1] -> kappa 5 -> [0.6, 0.2, 0.2].
        rates = np.array([[9.0, 3.0, 3.0]])
        beta = np.full((1, 3), 1.0 / 3.0)
        out = update_beta(beta * rates, beta, [1])
        np.testing.assert_allclose(out[0], [0.6, 0.2, 0.2])

    def test_slack_cap_saturates_everything(self):
        rng = np.random.default_rng(1)
        phi = rng.uniform(0.1, 1.0, (2, 3, 2))
        beta = rng.uniform(0.1, 1.0, (2, 3))
        # Block shares 0.5 everywhere: rates are 0.5 * phi summed over blocks.
        out = update_beta(beta * (0.5 * phi).sum(axis=2), beta, [3, 3])
        np.testing.assert_array_equal(out, np.ones((2, 3)))

    def test_zero_rate_carrier_absorbs_to_zero(self):
        rates = np.array([[2.0, 0.0]])  # carrier 1 worthless
        beta = np.full((1, 2), 0.5)
        out = update_beta(beta * rates, beta, [1])
        assert out[0, 1] == 0.0
        again = update_beta(out * rates, out, [1])
        assert again[0, 1] == 0.0

    def test_all_zero_rates_hold_row(self):
        rates = np.zeros((2, 2))
        rates[1] = 1.0  # only user 1 sees anything
        beta = np.full((2, 2), 0.4)
        out = update_beta(beta * rates, beta, [1, 1])
        np.testing.assert_array_equal(out[0], [0.4, 0.4])  # held
        assert out[1].sum() == pytest.approx(1.0)

    def test_updates_refuse_scores_that_are_not_float64(self):
        # The new shares are written over the scores: an integer array would
        # truncate them (a held row of 0.5 shares to 0), so every in-place
        # update refuses one before writing anything.
        shares = np.full((2, 3), 0.5)
        scores = np.array([[2, 1, 1], [0, 0, 0]])
        with pytest.raises(ValueError, match="float64"):
            update_beta(scores, shares, [1, 1])
        with pytest.raises(ValueError, match="float64"):
            update_gamma(scores[0], shares[0], 1)
        with pytest.raises(ValueError, match="float64"):
            update_alpha(np.ones((2, 3, 2), dtype=np.int64), np.full((2, 3, 2), 0.5))
        with pytest.raises(ValueError, match="float64"):
            update_beta(scores.astype(np.float32), shares, [1, 1])
        assert scores.tolist() == [[2, 1, 1], [0, 0, 0]]


class TestUpdateGamma:
    def test_slack_cap_saturates(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.1, 1.0, (2, 2, 2))
        gamma = np.full(2, 0.5)
        # Block shares 0.5, carrier shares 1: rates are 0.5 * phi summed over
        # users and blocks.
        out = update_gamma(gamma * (0.5 * phi).sum(axis=(0, 2)), gamma, 2)
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_capped_hand_example(self):
        # Scores gamma*rate = [3, 1], cap 1 -> kappa 4 -> [0.75, 0.25].
        gamma = np.full(2, 0.5)
        np.testing.assert_allclose(update_gamma(gamma * np.array([6.0, 2.0]), gamma, 1), [0.75, 0.25])

    def test_symmetric_tie_makes_no_progress(self):
        gamma = np.full(2, 0.5)
        np.testing.assert_allclose(update_gamma(gamma * np.array([2.0, 2.0]), gamma, 1), [0.5, 0.5])

    def test_all_zero_activation_row_is_held(self):
        # As a user's row: no positive score keeps the previous shares, alone
        # or as the last row of the solver's share matrix.
        gamma = np.array([0.5, 0.25])
        assert update_gamma(np.zeros(2), gamma, 1).tobytes() == gamma.tobytes()
        shares = np.array([[0.5, 0.5], [0.3, 0.7], [0.5, 0.25]])
        scores = np.array([[1.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
        out = update_beta(scores, shares, [1, 1, 1])
        np.testing.assert_allclose(out[0], [0.25, 0.75])
        assert out[1:].tobytes() == shares[1:].tobytes()


class TestFixedRateIteration:
    """The one-vector update with constant rates, where the limit is known."""

    @staticmethod
    def iterate(rates, cap, x0, steps, snap=1e-9, zero=1e-12):
        trajectory = [np.asarray(x0, dtype=float)]
        kappas = []
        x = trajectory[0]
        for _ in range(steps):
            sol = capped_simplex_normalize(x * rates, cap)
            kappas.append(sol.kappa)
            x = sol.x.copy()
            x[x >= 1 - snap] = 1.0
            x[x <= zero] = 0.0
            trajectory.append(x)
        return np.array(trajectory), np.array(kappas)

    def test_converges_to_top_cap_indicator(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            size = int(rng.integers(4, 12))
            cap = int(rng.integers(1, size))
            rates = np.sort(rng.uniform(0.5, 3.0, size))[::-1]
            if np.min(rates[:-1] / rates[1:]) < 1.05:
                continue  # keep the run length bounded
            x0 = capped_simplex_normalize(rng.uniform(0.5, 1.5, size), cap).x
            trajectory, _ = self.iterate(rates, cap, x0, 600)
            expected = np.concatenate([np.ones(cap), np.zeros(size - cap)])
            np.testing.assert_array_equal(trajectory[-1], expected)

    def test_zero_rate_entries_die_immediately(self):
        rates = np.array([2.0, 1.0, 0.0])
        x0 = np.array([0.3, 0.3, 0.4])
        trajectory, _ = self.iterate(rates, 1, x0, 5)
        assert np.all(trajectory[1:, 2] == 0.0)

    def test_best_unsaturated_entry_strictly_climbs(self):
        """At every step before the fixed point, the entry with the largest
        rate among the non-saturated ones strictly increases."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            size = 10
            cap = 3
            rates = np.sort(rng.uniform(0.5, 5.0, size))[::-1]
            x0 = capped_simplex_normalize(rng.uniform(0.5, 1.5, size), cap).x
            trajectory, _ = self.iterate(rates, cap, x0, 400)
            target = np.concatenate([np.ones(cap), np.zeros(size - cap)])
            for i in range(trajectory.shape[0] - 1):
                if np.array_equal(trajectory[i], target):
                    break
                if (trajectory[i] == 1.0).sum() >= cap:
                    continue  # all slots taken: only the tail is still dying
                unsaturated = np.flatnonzero(trajectory[i] < 1.0)
                best = unsaturated[np.argmax(rates[unsaturated])]
                after = trajectory[i + 1, best]
                assert after > trajectory[i, best] or after == 1.0

    def test_kappa_below_best_unsaturated_rate(self):
        """While saturation slots remain open, the normalization multiplier
        stays strictly below the best rate among non-saturated entries."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            rates = np.sort(rng.uniform(0.5, 5.0, 10))[::-1]
            x0 = capped_simplex_normalize(rng.uniform(0.5, 1.5, 10), 3).x
            trajectory, kappas = self.iterate(rates, 3, x0, 200)
            checked = 0
            for i, kappa in enumerate(kappas):
                if (trajectory[i] == 1.0).sum() >= 3:
                    break
                unsaturated = np.flatnonzero(trajectory[i] < 1.0)
                assert kappa < rates[unsaturated].max()
                checked += 1
            assert checked > 0

    def test_saturated_entries_stay_saturated(self):
        rng = np.random.default_rng(8)
        rates = np.sort(rng.uniform(0.5, 5.0, 8))[::-1]
        x0 = capped_simplex_normalize(rng.uniform(0.5, 1.5, 8), 2).x
        trajectory, _ = self.iterate(rates, 2, x0, 300)
        for p in range(8):
            hits = np.flatnonzero(trajectory[:, p] == 1.0)
            if hits.size:
                assert np.all(trajectory[hits[0] :, p] == 1.0)


class TestSolve:
    def test_trivial_instance_converges_in_one_iteration(self):
        inst = ProblemInstance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst)
        assert result.converged
        assert result.iterations_run == 1
        assert result.relaxed.alpha[0, 0, 0] == 1.0
        assert result.relaxed.beta[0, 0] == 1.0
        assert result.relaxed.gamma[0] == 1.0
        assert result.wsu == 2.0

    def test_slack_caps_match_greedy_winners(self):
        for seed in range(10):
            inst = sample_instance(
                GenParams(K=4, M=3, N=5, ue_cc_cap=3, system_cc_cap_limit=3, seed=seed)
            )
            result = solve(inst)
            greedy = greedy_unconstrained(inst)
            np.testing.assert_array_equal(result.binary.alpha, greedy.alpha)
            assert result.wsu == evaluate_wsu(inst, greedy)

    def test_iterate_sum_identities_hold(self):
        for seed in range(20):
            inst = sample_instance(
                GenParams(K=3, M=5, N=3, ue_cc_cap=2, system_cc_cap_limit=3, seed=seed)
            )
            result = solve(inst, SgpaConfig(record_trace=True))
            assert max(rec.sum_residual for rec in result.trace) < 1e-9

    def test_result_invariants(self):
        inst = sample_instance(GenParams(K=3, M=4, N=3, ue_cc_cap=2, system_cc_cap_limit=2, seed=3))
        cfg = SgpaConfig(max_iterations=15)
        result = solve(inst, cfg)
        assert result.iterations_run <= 15
        assert result.wsu == evaluate_wsu(inst, result.binary)
        assert check_feasibility(inst, result.binary).ok

    def test_deactivated_carriers_zero_their_subtree(self):
        inst = sample_instance(GenParams(K=3, M=6, N=3, ue_cc_cap=2, system_cc_cap_limit=2, seed=9))
        result = solve(inst, SgpaConfig(max_iterations=300))
        dead = result.relaxed.gamma == 0.0
        assert dead.any()
        assert np.all(result.relaxed.beta[:, dead] == 0.0)
        assert np.all(result.relaxed.alpha[:, dead, :] == 0.0)

    @pytest.mark.parametrize(
        "K, M, N, Mk, M0, sweeps",
        [(4, 6, 4, 2, 2, 20), (12, 6, 4, 3, 1, 200), (10, 160, 20, 2, 8, 60), (3, 5, 3, 5, 5, 1)],
    )
    def test_run_facts_at_stop(self, K, M, N, Mk, M0, sweeps):
        for seed in range(3):
            inst = sample_instance(
                GenParams(K=K, M=M, N=N, ue_cc_cap=Mk, system_cc_cap_limit=M0, seed=seed)
            )
            result = solve(inst, SgpaConfig(max_iterations=sweeps))
            assert result.active_carriers == np.count_nonzero(result.relaxed.gamma > 0.0)
            assert result.binary_distance == binary_distance(result.relaxed)

    def test_sweeps_allocate_no_block_sized_temporaries(self):
        """The sweep reuses two K*M*N buffers beside the weighted utilities,
        so one solve of a cut shape, rounding included, peaks below four
        K*M*N float arrays under tracemalloc (an out-of-place sweep peaks
        near 4.4). A traced solve keeps the previous full-size iterate and
        one scratch buffer besides, not a history: it peaks below 7.5 such
        arrays, the same at 20 sweeps as at 200."""
        inst = sample_instance(GenParams(K=10, M=160, N=20, ue_cc_cap=2, system_cc_cap_limit=8, seed=0))

        def peak(config):
            solve(inst, config)  # first-call setup outside the measurement
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                solve(inst, config)
                return (tracemalloc.get_traced_memory()[1] - before) / inst.utilities.nbytes
            finally:
                tracemalloc.stop()

        assert peak(SgpaConfig()) < 4
        traced = [peak(SgpaConfig(max_iterations=sweeps, record_trace=True)) for sweeps in (20, 200)]
        assert max(traced) < 7.5
        assert traced[0] == pytest.approx(traced[1], abs=0.01)


class TestTrace:
    def test_single_iteration_series(self):
        inst = ProblemInstance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst, SgpaConfig(max_iterations=1, record_trace=True))
        assert [(rec.iteration, rec.relaxed_wsu) for rec in result.trace] == [(1, 2.0)]

    def test_fixed_point_series_is_constant(self):
        # With one user, one carrier and caps of 1, the uniform start is the
        # all-ones fixed point.
        inst = ProblemInstance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst, SgpaConfig(max_iterations=5, record_trace=True))
        assert {rec.relaxed_wsu for rec in result.trace} == {2.0}

    def test_untraced_run_raises(self, tmp_path):
        """An untraced run carries no trace, and writing one is refused."""
        inst = ProblemInstance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst)
        assert result.trace is None
        with pytest.raises(ValueError, match="without trace recording"):
            write_trace_csv(result, tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_series_finite_on_random_instance(self):
        """One record per sweep; the last record's objective is the
        relaxed objective of the returned iterate."""
        inst = sample_instance(GenParams(K=4, M=5, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=21))
        result = solve(inst, SgpaConfig(max_iterations=30, record_trace=True))
        assert [rec.iteration for rec in result.trace] == list(range(1, result.iterations_run + 1))
        assert all(np.isfinite(rec.relaxed_wsu) for rec in result.trace)
        assert result.trace[-1].relaxed_wsu == evaluate_relaxed_wsu(inst, result.relaxed)

    def test_max_change_is_the_largest_change_of_any_share(self):
        """An untraced solve takes the block shares' change only once the
        share matrix has settled, yet it stops where the traced one does,
        and each record's ``max_change`` is the largest change of any share
        (block shares, carrier shares or activations) in its sweep. This
        instance converges in 76 sweeps, with a live-carrier cut on the way."""
        inst = sample_instance(GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=2, seed=3,
                                         stream_key=(0, 17)))
        traced = solve(inst, SgpaConfig(max_iterations=200, record_trace=True))
        plain = solve(inst, SgpaConfig(max_iterations=200))
        assert traced.converged and traced.active_carriers < 3
        assert (plain.iterations_run, plain.converged) == (traced.iterations_run, True)
        K, M = inst.num_ues, inst.num_ccs
        previous = (np.full(inst.utilities.shape, 1.0 / K),
                    np.repeat(1.0 / inst.ue_cc_caps[:, None], M, axis=1),
                    np.full(M, 1.0 / inst.system_cc_cap))
        for rec in traced.trace:
            relaxed = solve(inst, SgpaConfig(max_iterations=rec.iteration)).relaxed
            current = (relaxed.alpha, relaxed.beta, relaxed.gamma)
            assert rec.max_change == max(np.abs(a - b).max() for a, b in zip(current, previous))
            previous = current

    def test_tracing_leaves_the_solve_untouched(self):
        """A traced solve returns what an untraced one does, bit for bit: on
        every golden cut case at both pinned budgets, and on criterion 3's
        three slow draws (K=4, M=6, N=4, Mk=2, M0 limit 3), which use all of
        its 2,000 sweeps."""
        runs = [(case_instance(case), sweeps) for case in CUT_CASES for sweeps in ITERATE_SWEEPS]
        runs += [
            (sample_instance(GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=seed)), 2000)
            for seed in (3, 5, 47)
        ]

        def facts(result):
            relaxed, binary = result.relaxed, result.binary
            return (
                [arr.tobytes() for arr in (relaxed.alpha, relaxed.beta, relaxed.gamma)],
                [arr.tobytes() for arr in (binary.alpha, binary.beta, binary.gamma)],
                repr(result.wsu), result.iterations_run, result.converged,
                result.active_carriers, repr(result.binary_distance),
            )

        for instance, sweeps in runs:
            plain = solve(instance, SgpaConfig(max_iterations=sweeps))
            traced = solve(instance, SgpaConfig(max_iterations=sweeps, record_trace=True))
            assert facts(traced) == facts(plain)

    @pytest.mark.parametrize(
        "instance, digest",
        [
            # A golden cut case that runs all 2,000 sweeps and ends with two
            # live carriers, holding users' rows in most records.
            (case_instance((12, 6, 4, 3, 1, "equal", 3)), "a7b24c783c9063ee"),
            # Two of six carriers switch off, so it is never cut; it
            # converges at sweep 879.
            (sample_instance(GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=4, seed=3)),
             "4ad5a41747f3a7e2"),
        ],
        ids=["cut", "uncut"],
    )
    def test_trace_csv_is_pinned_at_2000_sweeps(self, tmp_path, instance, digest):
        """The bytes of the trace CSV over a 2,000-sweep budget, criterion
        3's, where the golden digests pin traces only at 20 and 200."""
        path = tmp_path / "trace.csv"
        write_trace_csv(solve(instance, SgpaConfig(max_iterations=2000, record_trace=True)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_csv_export(self, tmp_path):
        inst = sample_instance(GenParams(K=2, M=2, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=0))
        result = solve(inst, SgpaConfig(max_iterations=4, record_trace=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,relaxed_wsu,max_change,sum_residual,zero_rate_ues"
        assert len(lines) == 1 + result.iterations_run


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "K{}-M{}-N{}-Mk{}-M0{}".format(*shape))
def test_utility_rounding_never_loses_to_alpha_rounding(shape):
    """The final rounding gives each block to the admitted user with the
    largest weighted utility; the former rule gave it to the largest relaxed
    share. On seeded draws of the golden shapes (the first is the
    ``heuristic_lp`` benchmark shape), rounding the 20-sweep iterate both ways
    picks the same carriers and admissions, and no block holds less weighted
    utility than before. Replacing ``alpha`` leaves the rounding unchanged."""
    K, M, N, Mk, M0 = shape
    rng = np.random.default_rng(16)
    for mode in WEIGHT_MODES:
        for seed in range(10):
            params = GenParams(K=K, M=M, N=N, ue_cc_cap=Mk, system_cc_cap_limit=M0,
                               weight_mode=mode, seed=seed)
            instance = sample_instance(params)
            relaxed = solve(instance, SgpaConfig(max_iterations=20)).relaxed
            new, old = quantize(instance, relaxed), alpha_rounding(instance, relaxed)
            assert new.beta.tobytes() == old.beta.tobytes()
            assert new.gamma.tobytes() == old.gamma.tobytes()
            weighted = instance.weighted_utilities
            assert np.all((new.alpha * weighted).sum(axis=0) >= (old.alpha * weighted).sum(axis=0))

            other = RelaxedAllocation(rng.uniform(size=relaxed.alpha.shape), relaxed.beta, relaxed.gamma)
            redone = quantize(instance, other)
            for name in ("alpha", "beta", "gamma"):
                assert getattr(redone, name).tobytes() == getattr(new, name).tobytes()
