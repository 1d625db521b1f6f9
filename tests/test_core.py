"""Data model, objective, feasibility, and quantization."""

import json

import numpy as np
import pytest

from caralloc.core import (
    BinaryAllocation,
    DimensionMismatchError,
    ProblemInstance,
    RelaxedAllocation,
    check_feasibility,
    evaluate_relaxed_wsu,
    evaluate_wsu,
    quantize,
    round_allocation,
    top_cap_indicator,
)

from helpers import make_instance


def full_binary(instance):
    K, M, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc
    return BinaryAllocation(np.ones((K, M, N)), np.ones((K, M)), np.ones(M))


def empty_binary(instance):
    K, M, N = instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc
    return BinaryAllocation(np.zeros((K, M, N)), np.zeros((K, M)), np.zeros(M))


class TestProblemInstance:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_instance([1.0, 1.0], [[[1.0]]], [1], 1)  # weights longer than K

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            make_instance([0.0], [[[1.0]]], [1], 1)

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="weights must be finite"):
            make_instance([weight, 1.0], np.ones((2, 2, 2)), [1, 1], 2)

    def test_rejects_negative_utility(self):
        with pytest.raises(ValueError):
            make_instance([1.0], [[[-0.1]]], [1], 1)

    def test_rejects_weighted_utilities_that_overflow(self):
        # Each factor is finite; their product is not.
        with pytest.raises(ValueError, match="weights times utilities"):
            make_instance([1e300, 1.0], [[[1e300]], [[1.0]]], [1, 1], 1)
        with np.errstate(over="raise"):
            make_instance([1e300, 1.0], [[[1.0]], [[1.0]]], [1, 1], 1)

    def test_rejects_cap_out_of_range(self):
        with pytest.raises(ValueError):
            make_instance([1.0], [[[1.0], [1.0]]], [3], 1)  # cap 3 > M=2

    def test_arrays_are_read_only(self):
        inst = make_instance([1.0], [[[1.0]]], [1], 1)
        with pytest.raises(ValueError):
            inst.utilities[0, 0, 0] = 2.0

    def test_json_round_trip(self):
        inst = make_instance([1.0, 2.0], [[[1.0, 2.0]], [[3.0, 4.0]]], [1, 1], 1)
        doc = json.loads(inst.to_json())
        assert set(doc) == {"K", "M", "N", "weights", "Mk", "M0", "phi"}
        back = ProblemInstance.from_json(inst.to_json())
        assert back.num_ues == 2 and back.num_ccs == 1 and back.num_rbs_per_cc == 2
        np.testing.assert_array_equal(back.utilities, inst.utilities)
        np.testing.assert_array_equal(back.weights, inst.weights)
        assert inst.to_json() == back.to_json()


class TestEvaluateWsu:
    def test_single_entry(self):
        inst = make_instance([1.0], [[[2.5]]], [1], 1)
        assert evaluate_wsu(inst, full_binary(inst)) == 2.5

    def test_empty_allocation_is_zero(self):
        inst = make_instance([1.0, 1.0], np.ones((2, 2, 2)), [2, 2], 2)
        assert evaluate_wsu(inst, empty_binary(inst)) == 0.0

    def test_two_ue_hand_sum(self):
        # UE 0 takes carrier 0 (utility 3), UE 1 takes carrier 1 (utility 4).
        phi = [[[3.0], [1.0]], [[2.0], [4.0]]]
        inst = make_instance([1.0, 1.0], phi, [2, 2], 2)
        alpha = np.zeros((2, 2, 1))
        alpha[0, 0, 0] = 1
        alpha[1, 1, 0] = 1
        beta = np.array([[1, 0], [0, 1]])
        alloc = BinaryAllocation(alpha, beta, np.ones(2))
        assert evaluate_wsu(inst, alloc) == 7.0

    def test_inconsistent_entries_do_not_count(self):
        inst = make_instance([1.0], [[[5.0]]], [1], 1)
        alloc = BinaryAllocation(np.ones((1, 1, 1)), np.zeros((1, 1)), np.ones(1))
        assert evaluate_wsu(inst, alloc) == 0.0

    def test_dimension_mismatch(self):
        inst = make_instance([1.0], [[[1.0]]], [1], 1)
        other = make_instance([1.0], [[[1.0], [1.0]]], [1], 1)
        with pytest.raises(DimensionMismatchError):
            evaluate_wsu(inst, full_binary(other))


class TestEvaluateRelaxedWsu:
    def test_all_ones(self):
        inst = make_instance([1.0], [[[1.0, 2.0]]], [1], 1)
        rel = RelaxedAllocation(np.ones((1, 1, 2)), np.ones((1, 1)), np.ones(1))
        assert evaluate_relaxed_wsu(inst, rel) == 3.0

    def test_linear_in_beta(self):
        inst = make_instance([1.0], [[[1.0, 2.0]]], [1], 1)
        rel = RelaxedAllocation(np.ones((1, 1, 2)), np.full((1, 1), 0.5), np.ones(1))
        assert evaluate_relaxed_wsu(inst, rel) == 1.5

    def test_matches_binary_on_binary_values(self):
        phi = [[[3.0], [1.0]], [[2.0], [4.0]]]
        inst = make_instance([1.0, 1.0], phi, [2, 2], 2)
        alpha = np.zeros((2, 2, 1))
        alpha[0, 0, 0] = 1
        alpha[1, 1, 0] = 1
        beta = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = RelaxedAllocation(alpha, beta, np.ones(2))
        assert evaluate_relaxed_wsu(inst, rel) == 7.0


class TestCheckFeasibility:
    def test_empty_allocation_passes(self):
        inst = make_instance([1.0, 1.0], np.ones((2, 2, 2)), [1, 1], 1)
        report = check_feasibility(inst, empty_binary(inst))
        assert report.ok

    def test_shared_block_fails_c1(self):
        inst = make_instance([1.0, 1.0], np.ones((2, 2, 2)), [2, 2], 2)
        alloc = full_binary(inst)  # both UEs on every block
        report = check_feasibility(inst, alloc)
        assert not report.c1_ok
        assert report.c1_violation == (0, 0)

    def test_too_many_carriers_fails_c2(self):
        inst = make_instance([1.0], np.ones((1, 3, 2)), [1], 3)
        alloc = BinaryAllocation(np.zeros((1, 3, 2)), np.ones((1, 3)), np.ones(3))
        report = check_feasibility(inst, alloc)
        assert not report.c2_ok
        assert report.c2_violation == 0
        assert report.c1_ok

    def test_too_many_active_carriers_fails_c3(self):
        inst = make_instance([1.0], np.ones((1, 3, 2)), [1], 1)
        alloc = BinaryAllocation(np.zeros((1, 3, 2)), np.zeros((1, 3)), np.ones(3))
        report = check_feasibility(inst, alloc)
        assert not report.c3_ok
        assert report.c3_violation == 1  # second active carrier breaks the cap of 1

    def test_broken_chain_fails_consistency(self):
        inst = make_instance([1.0], np.ones((1, 2, 2)), [1], 2)
        alpha = np.zeros((1, 2, 2))
        alpha[0, 1, 1] = 1
        alloc = BinaryAllocation(alpha, np.zeros((1, 2)), np.ones(2))
        report = check_feasibility(inst, alloc)
        assert not report.consistency_ok
        assert report.consistency_violation == (0, 1, 1)


class TestTopCapIndicator:
    def test_simple_top2(self):
        out = top_cap_indicator(np.array([0.9, 0.1, 0.8, 0.2]), 2)
        np.testing.assert_array_equal(out, [1, 0, 1, 0])

    def test_tie_prefers_lowest_index(self):
        out = top_cap_indicator(np.array([0.5, 0.5, 0.5]), 1)
        np.testing.assert_array_equal(out, [1, 0, 0])



class TestRoundAllocation:
    def test_users_take_their_carriers_from_the_active_ones(self):
        # M0 = 2 activates carriers 1 and 3.
        inst = make_instance([1.0] * 3, np.ones((3, 5, 1)), [1, 1, 4], 2)
        gamma = np.array([0.1, 0.9, 0.2, 0.8, 0.3])
        beta = np.array([
            [1.0, 0.5, 0.9, 0.5, 0.7],  # a tie on the active carriers: the lower index
            [0.9, 0.2, 0.9, 0.6, 0.9],  # every inactive carrier scores higher
            [0.5, 0.5, 0.5, 0.5, 0.5],  # a cap of 4 above the 2 active carriers
        ])
        out = round_allocation(inst, beta, gamma)
        np.testing.assert_array_equal(out.gamma, [0, 1, 0, 1, 0])
        np.testing.assert_array_equal(out.beta, [[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 1, 0, 1, 0]])

    def test_matches_each_user_rounded_alone(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            K, M = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            caps = rng.integers(1, M + 1, K)
            inst = make_instance(np.ones(K), np.ones((K, M, 1)), caps, int(rng.integers(1, M + 1)))
            beta = rng.integers(0, 4, (K, M)) * 0.25  # ties are common
            gamma = rng.uniform(size=M)
            out = round_allocation(inst, beta, gamma)
            active = np.flatnonzero(out.gamma)
            for k in range(K):
                expected = np.zeros(M, dtype=np.int8)
                expected[active] = top_cap_indicator(beta[k, active], min(caps[k], active.size))
                np.testing.assert_array_equal(out.beta[k], expected)


class TestQuantize:
    def test_binary_input_is_fixed_point(self):
        phi = np.ones((2, 2, 1))
        inst = make_instance([1.0, 1.0], phi, [1, 1], 2)
        alpha = np.zeros((2, 2, 1))
        alpha[0, 0, 0] = 1
        alpha[1, 1, 0] = 1
        beta = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = RelaxedAllocation(alpha, beta, np.ones(2))
        out = quantize(inst, rel)
        np.testing.assert_array_equal(out.alpha, alpha)
        np.testing.assert_array_equal(out.beta, beta)
        np.testing.assert_array_equal(out.gamma, [1, 1])

    def test_gamma_top2(self):
        inst = make_instance([1.0], np.ones((1, 4, 2)), [4], 2)
        rel = RelaxedAllocation(
            np.full((1, 4, 2), 0.5), np.full((1, 4), 0.5), np.array([0.9, 0.1, 0.8, 0.2])
        )
        out = quantize(inst, rel)
        np.testing.assert_array_equal(out.gamma, [1, 0, 1, 0])

    def test_beta_top1(self):
        inst = make_instance([1.0], np.ones((1, 3, 2)), [1], 3)
        rel = RelaxedAllocation(
            np.full((1, 3, 2), 0.5), np.array([[0.2, 0.7, 0.1]]), np.ones(3)
        )
        out = quantize(inst, rel)
        np.testing.assert_array_equal(out.beta, [[0, 1, 0]])

    def test_always_feasible_on_random_input(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            K = int(rng.integers(1, 5))
            M = int(rng.integers(1, 6))
            N = int(rng.integers(1, 4))
            inst = make_instance(
                rng.uniform(0.1, 2.0, K),
                rng.uniform(0.0, 1.0, (K, M, N)),
                rng.integers(1, M + 1, K),
                int(rng.integers(1, M + 1)),
            )
            rel = RelaxedAllocation(
                rng.uniform(0, 1, (K, M, N)), rng.uniform(0, 1, (K, M)), rng.uniform(0, 1, M)
            )
            assert check_feasibility(inst, quantize(inst, rel)).ok

    def test_argsort_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            K, M, N = 3, 5, 2
            inst = make_instance(
                rng.uniform(0.1, 2.0, K),
                rng.uniform(0.0, 1.0, (K, M, N)),
                rng.integers(1, M + 1, K),
                int(rng.integers(1, M + 1)),
            )
            alpha = rng.uniform(0, 1, (K, M, N))
            beta = rng.uniform(0.01, 1, (K, M))
            gamma = rng.uniform(0.01, 1, M)
            base = quantize(inst, RelaxedAllocation(alpha, beta, gamma))
            # Strictly increasing maps: x -> x^3 on gamma, x -> tanh(2x) per beta row.
            warped = quantize(
                inst, RelaxedAllocation(alpha, np.tanh(2.0 * beta), gamma**3)
            )
            np.testing.assert_array_equal(base.gamma, warped.gamma)
            np.testing.assert_array_equal(base.beta, warped.beta)

    def test_beats_independent_quantization(self):
        """Consistency-aware rounding never scores below rounding each block
        independently and zeroing inconsistent entries afterwards."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            K = int(rng.integers(2, 5))
            M = int(rng.integers(2, 6))
            N = int(rng.integers(1, 4))
            caps = rng.integers(1, M + 1, K)
            m0 = int(rng.integers(1, M + 1))
            inst = make_instance(
                rng.uniform(0.1, 2.0, K), rng.uniform(0.0, 1.0, (K, M, N)), caps, m0
            )
            alpha = rng.uniform(0, 1, (K, M, N))
            beta = rng.uniform(0, 1, (K, M))
            gamma = rng.uniform(0, 1, M)
            rel = RelaxedAllocation(alpha, beta, gamma)
            aware = evaluate_wsu(inst, quantize(inst, rel))

            gamma_bin = top_cap_indicator(gamma, m0)
            beta_bin = np.zeros((K, M), dtype=np.int8)
            for k in range(K):
                beta_bin[k] = top_cap_indicator(beta[k], int(caps[k]))
            alpha_bin = np.zeros((K, M, N), dtype=np.int8)
            winners = np.argmax(alpha, axis=0)
            mm, nn = np.meshgrid(np.arange(M), np.arange(N), indexing="ij")
            alpha_bin[winners, mm, nn] = 1
            alpha_bin &= beta_bin[:, :, None] & gamma_bin[None, :, None]
            literal = evaluate_wsu(inst, BinaryAllocation(alpha_bin, beta_bin, gamma_bin))

            assert aware >= literal - 1e-12


class TestRelaxedAllocation:
    def test_exact_zero_is_kept(self):
        rel = RelaxedAllocation(np.zeros((1, 1, 1)), np.ones((1, 1)), np.ones(1))
        assert rel.alpha[0, 0, 0] == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RelaxedAllocation(np.full((1, 1, 1), 1.5), np.ones((1, 1)), np.ones(1))

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(DimensionMismatchError):
            RelaxedAllocation(np.ones((2, 2, 1)), np.ones((2, 3)), np.ones(2))


class TestBinaryAllocationSerialization:
    def test_json_round_trip(self):
        alpha = np.zeros((2, 2, 1))
        alpha[1, 0, 0] = 1
        alloc = BinaryAllocation(alpha, np.array([[0, 0], [1, 0]]), np.array([1, 0]))
        back = BinaryAllocation.from_json(alloc.to_json())
        np.testing.assert_array_equal(back.alpha, alloc.alpha)
        np.testing.assert_array_equal(back.beta, alloc.beta)
        np.testing.assert_array_equal(back.gamma, alloc.gamma)

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            BinaryAllocation(np.full((1, 1, 1), 0.5), np.ones((1, 1)), np.ones(1))
