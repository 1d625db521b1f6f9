"""The iterative solver: update rules, fixed-rate convergence, full solve."""

import numpy as np
import pytest

from caralloc.core import ProblemInstance, RelaxedAllocation, check_feasibility, evaluate_wsu, quantize
from caralloc.baselines import greedy_unconstrained
from caralloc.sgpa import (
    DegenerateInstanceError,
    SgpaConfig,
    _sweep_scores,
    capped_simplex_normalize,
    relaxed_wsu_trace,
    solve,
    update_alpha,
    update_beta,
    update_gamma,
    write_trace_csv,
)
from caralloc.simharness import GenParams, sample_instance

from helpers import alpha_rounding
from test_acceptance import binary_distance
from test_golden import SHAPES, WEIGHT_MODES


def make_instance(weights, phi, caps, m0):
    phi = np.asarray(phi, dtype=float)
    K, M, N = phi.shape
    return ProblemInstance(
        num_ues=K,
        num_ccs=M,
        num_rbs_per_cc=N,
        weights=weights,
        utilities=phi,
        ue_cc_caps=caps,
        system_cc_cap=m0,
    )


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


class TestSweepScores:
    def test_hand_example(self):
        # K=2, M=2, N=1. Weighted utilities W = w * phi = [[2, 8], [6, 3]];
        # rates r = alpha * W = [[1, 2], [3, 2.25]].
        instance = make_instance([2.0, 3.0], [[[1.0], [4.0]], [[2.0], [1.0]]], [1, 1], 1)
        alpha = np.array([[[0.5], [0.25]], [[0.5], [0.75]]])
        beta = np.array([[0.5, 1.0], [1.0, 0.5]])
        gamma = np.array([0.5, 0.25])
        blocks, carriers, activations = _sweep_scores(
            instance.weights, instance.utilities, alpha, beta, gamma
        )
        # alpha * beta * W
        np.testing.assert_array_equal(blocks[:, :, 0], [[0.5, 2.0], [3.0, 1.125]])
        # beta * gamma * r
        np.testing.assert_array_equal(carriers, [[0.25, 0.5], [1.5, 0.28125]])
        # gamma * sum_k beta * r = [0.5 * 3.5, 0.25 * 3.125]
        np.testing.assert_array_equal(activations, [1.75, 0.78125])

        # The activations cancel out of the block update: only the carrier
        # and activation scores move with gamma.
        blocks2, carriers2, activations2 = _sweep_scores(
            instance.weights, instance.utilities, alpha, beta, 2.0 * gamma
        )
        np.testing.assert_array_equal(blocks2, blocks)
        np.testing.assert_array_equal(carriers2, 2.0 * carriers)
        np.testing.assert_array_equal(activations2, 2.0 * activations)

    def test_carrier_subset_gives_the_same_columns(self):
        # No sum in a sweep runs over carriers, so scoring a subset of the
        # carriers gives the full-size scores' columns bit for bit.
        rng = np.random.default_rng(5)
        K, M, N = 10, 40, 20
        weights = rng.uniform(0.5, 2.0, K)
        utilities = rng.uniform(0.0, 3.0, (K, M, N))
        alpha = rng.uniform(0.0, 1.0, (K, M, N))
        beta = rng.uniform(0.0, 1.0, (K, M))
        gamma = rng.uniform(0.0, 1.0, M)
        keep = rng.uniform(size=M) < 0.3
        full = _sweep_scores(weights, utilities, alpha, beta, gamma)
        cut = _sweep_scores(
            weights,
            utilities.compress(keep, axis=1),
            alpha.compress(keep, axis=1),
            beta.compress(keep, axis=1),
            gamma.compress(keep),
        )
        np.testing.assert_array_equal(cut[0], full[0][:, keep])
        np.testing.assert_array_equal(cut[1], full[1][:, keep])
        np.testing.assert_array_equal(cut[2], full[2][keep])


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


class TestUpdateGamma:
    def test_slack_cap_saturates(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.1, 1.0, (2, 2, 2))
        gamma = np.full(2, 0.5)
        # Block shares 0.5, carrier shares 1: rates are 0.5 * phi summed over
        # users and blocks.
        np.testing.assert_array_equal(update_gamma(gamma * (0.5 * phi).sum(axis=(0, 2)), 2), [1.0, 1.0])

    def test_capped_hand_example(self):
        # Scores gamma*rate = [3, 1], cap 1 -> kappa 4 -> [0.75, 0.25].
        rates = np.array([6.0, 2.0])
        out = update_gamma(np.full(2, 0.5) * rates, 1)
        np.testing.assert_allclose(out, [0.75, 0.25])

    def test_symmetric_tie_makes_no_progress(self):
        rates = np.array([2.0, 2.0])
        np.testing.assert_allclose(update_gamma(np.full(2, 0.5) * rates, 1), [0.5, 0.5])

    def test_degenerate_instance_raises(self):
        with pytest.raises(DegenerateInstanceError):
            update_gamma(np.full(2, 0.5) * np.zeros(2), 1)


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
        inst = make_instance([1.0], [[[2.0]]], [1], 1)
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


class TestTrace:
    def test_single_iteration_series(self):
        inst = make_instance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst, SgpaConfig(max_iterations=1, record_trace=True))
        series = relaxed_wsu_trace(result)
        assert series == [(1, 2.0)]

    def test_fixed_point_series_is_constant(self):
        # With one user, one carrier and caps of 1, the uniform start is the
        # all-ones fixed point.
        inst = make_instance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst, SgpaConfig(max_iterations=5, record_trace=True))
        values = {wsu for _, wsu in relaxed_wsu_trace(result)}
        assert values == {2.0}

    def test_untraced_run_raises(self):
        inst = make_instance([1.0], [[[2.0]]], [1], 1)
        result = solve(inst)
        with pytest.raises(ValueError):
            relaxed_wsu_trace(result)

    def test_series_finite_on_random_instance(self):
        inst = sample_instance(GenParams(K=4, M=5, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=21))
        result = solve(inst, SgpaConfig(max_iterations=30, record_trace=True))
        series = relaxed_wsu_trace(result)
        assert len(series) == result.iterations_run
        assert all(np.isfinite(wsu) for _, wsu in series)

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
