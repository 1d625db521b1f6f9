"""Property-based checks of the shared rounding step and of every
algorithm's indifference to how users and carriers are numbered."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caralloc.core import ProblemInstance, check_feasibility, evaluate_wsu, round_allocation
from caralloc.sgpa import SgpaConfig, solve
from caralloc.simharness import ALGORITHMS, GenParams, sample_instance

from helpers import permuted_instance

UNIT = st.floats(0.0, 1.0)


@st.composite
def rounding_inputs(draw):
    """A small instance with drawn weights and utilities, plus carrier and
    admission shares.

    Utilities and weights come from the coarse set {0, 0.5, 1} (weights from
    {0.5, 1}) as well as the unit interval, so ties between users' weighted
    utilities are common.
    """
    K = draw(st.integers(1, 4))
    M = draw(st.integers(1, 5))
    N = draw(st.integers(1, 3))
    coarse = draw(st.booleans())
    values = st.sampled_from([0.0, 0.5, 1.0]) if coarse else UNIT
    weights = st.sampled_from([0.5, 1.0]) if coarse else st.floats(0.01, 1.0)
    instance = ProblemInstance(
        num_ues=K,
        num_ccs=M,
        num_rbs_per_cc=N,
        weights=draw(arrays(float, K, elements=weights)),
        utilities=draw(arrays(float, (K, M, N), elements=values)),
        ue_cc_caps=draw(arrays(int, K, elements=st.integers(1, M))),
        system_cc_cap=draw(st.integers(1, M)),
    )
    beta = draw(arrays(float, (K, M), elements=UNIT))
    gamma = draw(arrays(float, M, elements=UNIT))
    return instance, beta, gamma


@settings(max_examples=300, deadline=None)
@given(rounding_inputs())
def test_round_allocation_is_feasible_and_gives_blocks_to_best_admitted_user(case):
    """Every held block goes to an admitted user of largest weighted
    utility, the lowest-numbered one among ties."""
    instance, beta, gamma = case
    out = round_allocation(instance, beta, gamma)
    assert check_feasibility(instance, out).ok

    weighted = instance.weighted_utilities
    admitted = (out.beta == 1) & (out.gamma == 1)[None, :]
    for m in range(instance.num_ccs):
        for n in range(instance.num_rbs_per_cc):
            holders = np.flatnonzero(out.alpha[:, m, n])
            members = np.flatnonzero(admitted[:, m])
            if members.size == 0:
                assert holders.size == 0
                continue
            best = weighted[members, m, n].max()
            assert holders.size == 1
            assert admitted[holders[0], m]
            assert weighted[holders[0], m, n] == best
            assert holders[0] == members[weighted[members, m, n] == best][0]


#: (K, M, N, Mk, M0 limit): the oracle_small shape, small golden shapes,
#: a slack-cap shape, and (3, 3, 2, 1, 2), the shape of the former oracle-only
#: permutation test.
PERMUTATION_SHAPES = (
    (3, 3, 2, 1, 2),
    (4, 6, 4, 2, 2),
    (3, 5, 3, 2, 3),
    (2, 3, 2, 1, 2),
    (4, 4, 6, 3, 3),
    (3, 3, 2, 3, 3),
)


@st.composite
def permuted_pairs(draw):
    """A sampled instance and the same instance with its users and carriers
    renumbered, plus the two permutations."""
    K, M, N, Mk, M0 = draw(st.sampled_from(PERMUTATION_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    ue_perm = np.array(draw(st.permutations(range(K))))
    cc_perm = np.array(draw(st.permutations(range(M))))
    instance = sample_instance(
        GenParams(K=K, M=M, N=N, ue_cc_cap=Mk, system_cc_cap_limit=M0, seed=seed)
    )
    return instance, permuted_instance(instance, ue_perm, cc_perm), ue_perm, cc_perm


@settings(max_examples=100, deadline=None)
@given(permuted_pairs())
def test_algorithms_commute_with_index_permutations(case):
    """Renumbering users and carriers leaves the WSU of every algorithm in
    the table but the solver unchanged, and renumbers the solver's relaxed
    iterate at 20 sweeps. The solver's WSU is not compared: its rounding
    breaks exact ties by index, and iterates of 0.0 and 9e-16 are a tie."""
    instance, permuted, ue_perm, cc_perm = case
    config = SgpaConfig(max_iterations=20)
    for name, run in ALGORITHMS.items():
        if name == "sgpa":
            continue  # compared by its relaxed iterate below
        wsu = evaluate_wsu(instance, run(instance, config).allocation)
        permuted_wsu = evaluate_wsu(permuted, run(permuted, config).allocation)
        assert permuted_wsu == pytest.approx(wsu, rel=1e-9), name

    relaxed = solve(instance, config).relaxed
    relaxed_permuted = solve(permuted, config).relaxed
    rows = np.ix_(ue_perm, cc_perm)
    np.testing.assert_allclose(relaxed_permuted.alpha, relaxed.alpha[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(relaxed_permuted.beta, relaxed.beta[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(relaxed_permuted.gamma, relaxed.gamma[cc_perm], rtol=0, atol=1e-12)
