"""Greedy, LP-rounding heuristic, and the exhaustive-search oracle."""

import pickle

import numpy as np
import pytest

from caralloc.baselines import (
    MAX_ENUMERATIONS,
    BudgetExceededError,
    brute_force_oracle,
    greedy_unconstrained,
    heuristic_solve,
    oracle_enumeration_count,
)
from caralloc.core import check_feasibility, evaluate_wsu
from caralloc.sgpa import SgpaConfig, solve
from caralloc.simharness import ALGORITHMS, GenParams, sample_instance

from helpers import make_instance, milp_optimum, reference_oracle
from test_acceptance import criterion_9_draws


class TestGreedy:
    def test_higher_utility_wins(self):
        inst = make_instance([1.0, 1.0], [[[5.0]], [[3.0]]], [1, 1], 1)
        result = greedy_unconstrained(inst)
        assert result.alpha[0, 0, 0] == 1
        assert result.alpha[1, 0, 0] == 0

    def test_weight_can_flip_the_winner(self):
        inst = make_instance([1.0, 10.0], [[[5.0]], [[1.0]]], [1, 1], 1)
        result = greedy_unconstrained(inst)
        assert result.alpha[1, 0, 0] == 1  # 10*1 > 1*5

    def test_tie_goes_to_lowest_index(self):
        inst = make_instance([1.0, 1.0], [[[2.0]], [[2.0]]], [1, 1], 1)
        result = greedy_unconstrained(inst)
        assert result.alpha[0, 0, 0] == 1

    def test_matches_oracle_when_caps_are_slack(self):
        for seed in range(15):
            inst = sample_instance(
                GenParams(K=3, M=3, N=2, ue_cc_cap=3, system_cc_cap_limit=3, seed=seed)
            )
            greedy = greedy_unconstrained(inst)
            assert check_feasibility(inst, greedy).ok
            _, oracle_wsu = brute_force_oracle(inst)
            assert evaluate_wsu(inst, greedy) == pytest.approx(oracle_wsu, abs=1e-9)

    def test_flags_cap_violations(self):
        rng = np.random.default_rng(0)
        inst = make_instance(
            np.ones(2), rng.uniform(0.5, 1.0, (2, 4, 2)), [1, 1], 4
        )
        report = check_feasibility(inst, greedy_unconstrained(inst))
        assert not (report.c2_ok and report.c3_ok)


class TestHeuristic:
    def test_reduces_to_greedy_with_slack_caps(self):
        for seed in range(10):
            inst = sample_instance(
                GenParams(K=3, M=3, N=4, ue_cc_cap=3, system_cc_cap_limit=3, seed=seed)
            )
            heuristic = heuristic_solve(inst)
            greedy = greedy_unconstrained(inst)
            np.testing.assert_array_equal(heuristic.alpha, greedy.alpha)

    def test_single_ue_lp_vertex_by_hand(self):
        # Per-carrier gains [5, 1] with a single-carrier cap: the LP puts the
        # whole budget on carrier 0 and every one of its blocks goes to the UE.
        phi = np.array([[[2.5, 2.5], [0.5, 0.5]]])
        inst = make_instance([1.0], phi, [1], 2)
        out = heuristic_solve(inst)
        np.testing.assert_array_equal(out.beta, [[1, 0]])
        np.testing.assert_array_equal(out.alpha[0, 0], [1, 1])
        np.testing.assert_array_equal(out.alpha[0, 1], [0, 0])

    def test_never_beats_oracle(self):
        for seed in range(30):
            inst = sample_instance(
                GenParams(K=2, M=3, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=seed)
            )
            wsu = evaluate_wsu(inst, heuristic_solve(inst))
            _, oracle_wsu = brute_force_oracle(inst)
            assert wsu <= oracle_wsu + 1e-9

    def test_output_feasible(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            K = int(rng.integers(2, 5))
            M = int(rng.integers(2, 6))
            inst = sample_instance(
                GenParams(
                    K=K,
                    M=M,
                    N=int(rng.integers(2, 4)),
                    ue_cc_cap=int(rng.integers(1, M + 1)),
                    system_cc_cap_limit=int(rng.integers(1, M + 1)),
                    seed=seed,
                )
            )
            assert check_feasibility(inst, heuristic_solve(inst)).ok


class TestOracle:
    def test_two_carrier_hand_case(self):
        # Single UE limited to one carrier: takes the better one.
        inst = make_instance([1.5], [[[3.0], [7.0]]], [1], 2)
        alloc, wsu = brute_force_oracle(inst)
        assert wsu == pytest.approx(1.5 * 7.0)
        np.testing.assert_array_equal(alloc.beta, [[0, 1]])

    def test_enumeration_count_formula(self):
        # M=3, M0=2, caps [1, 1]: C(3, 2) carrier pairs * C(2, 1)**2 user subsets.
        assert oracle_enumeration_count(3, [1, 1], 2) == 12

    def test_budget_guard(self):
        # C(30, 15) activation sets * 15**2 user subsets = 3.5e10 enumerations.
        inst = sample_instance(
            GenParams(K=2, M=30, N=2, ue_cc_cap=1, system_cc_cap_limit=15, seed=0)
        )
        with pytest.raises(BudgetExceededError) as err:
            brute_force_oracle(inst)
        assert err.value.required == oracle_enumeration_count(30, [1, 1], 15) > MAX_ENUMERATIONS

    def test_budget_error_survives_pickling(self):
        error = BudgetExceededError(34901442000)
        copy = pickle.loads(pickle.dumps(error))
        assert copy.required == 34901442000
        assert str(copy) == str(error) == (
            "exhaustive search needs 34901442000 enumerations, budget allows 10000000"
        )

    def test_monotone_in_caps(self):
        for seed in range(10):
            base = GenParams(K=2, M=4, N=2, ue_cc_cap=1, system_cc_cap_limit=2, seed=seed)
            inst = sample_instance(base)
            _, wsu = brute_force_oracle(inst)
            looser_ue = make_instance(
                inst.weights, inst.utilities, [2, 2], inst.system_cc_cap
            )
            _, wsu_ue = brute_force_oracle(looser_ue)
            looser_sys = make_instance(inst.weights, inst.utilities, [1, 1], 3)
            _, wsu_sys = brute_force_oracle(looser_sys)
            assert wsu_ue >= wsu - 1e-12
            assert wsu_sys >= wsu - 1e-12

    def test_matches_every_size_reference(self):
        """On criterion 9's oracle draws, the maximal-set walk returns the
        reference's allocation and the very same WSU. Only where the
        reference activates a carrier that admits no user (an ulp of its
        smaller-array sums decided the tie) does its gamma differ."""
        compared = 0
        for instance, _, runs_oracle in criterion_9_draws():
            if not runs_oracle:
                continue
            alloc, wsu = brute_force_oracle(instance)
            ref, ref_wsu = reference_oracle(instance)
            assert repr(wsu) == repr(ref_wsu)
            np.testing.assert_array_equal(alloc.alpha, ref.alpha)
            np.testing.assert_array_equal(alloc.beta, ref.beta)
            np.testing.assert_array_equal(alloc.gamma, ref.gamma & ref.beta.any(axis=0))
            compared += 1
        assert compared == 439

    def test_dominates_other_algorithms(self):
        for seed in range(20):
            inst = sample_instance(
                GenParams(K=3, M=4, N=2, ue_cc_cap=2, system_cc_cap_limit=2, seed=seed)
            )
            alloc, wsu = brute_force_oracle(inst)
            assert check_feasibility(inst, alloc).ok
            assert solve(inst).wsu <= wsu + 1e-9
            assert evaluate_wsu(inst, heuristic_solve(inst)) <= wsu + 1e-9


class TestMilpReference:
    def test_equals_the_oracle(self):
        for seed in range(20):
            inst = sample_instance(
                GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=3, seed=seed)
            )
            assert milp_optimum(inst) == pytest.approx(brute_force_oracle(inst)[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "shape, within_caps",
        [(dict(K=10, M=20, N=20, ue_cc_cap=2, system_cc_cap_limit=10), 0),
         (dict(K=40, M=12, N=2, ue_cc_cap=2, system_cc_cap_limit=12), 3)],
        ids=["M20-N20", "K40-N2"],
    )
    def test_bounds_every_algorithm_beyond_the_oracle(self, shape, within_caps):
        """Where the exhaustive search refuses, no algorithm beats the
        optimum; a greedy allocation within the caps is optimal, since the
        greedy is optimal without them. ``within_caps`` counts those draws."""
        greedy_within_caps = 0
        for seed in range(6):
            inst = sample_instance(GenParams(**shape, seed=seed))
            with pytest.raises(BudgetExceededError):
                brute_force_oracle(inst)
            optimum = milp_optimum(inst)
            assert solve(inst).wsu <= optimum * (1 + 1e-12)
            assert evaluate_wsu(inst, heuristic_solve(inst)) <= optimum * (1 + 1e-12)
            greedy = greedy_unconstrained(inst)
            if check_feasibility(inst, greedy).ok:
                assert evaluate_wsu(inst, greedy) == pytest.approx(optimum, rel=1e-12, abs=0)
                greedy_within_caps += 1
        assert greedy_within_caps == within_caps


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**40])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_allocation_invariant_to_utility_scale(algorithm, scale):
    """Multiplying every utility by a power of two is exact in floating
    point, so every algorithm must return the very same allocation."""

    def run(instance):
        return ALGORITHMS[algorithm](instance, SgpaConfig()).allocation

    for trial in range(20):
        inst = sample_instance(
            GenParams(K=4, M=6, N=4, ue_cc_cap=2, system_cc_cap_limit=2, seed=0, stream_key=(0, trial))
        )
        scaled = make_instance(inst.weights, inst.utilities * scale, inst.ue_cc_caps, inst.system_cc_cap)
        base, out = run(inst), run(scaled)
        for name in ("alpha", "beta", "gamma"):
            np.testing.assert_array_equal(getattr(out, name), getattr(base, name))
