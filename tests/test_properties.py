"""Property-based checks of the shared rounding step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from caralloc.core import ProblemInstance, check_feasibility, round_allocation

UNIT = st.floats(0.0, 1.0)


@st.composite
def rounding_inputs(draw):
    """A small instance plus arbitrary block scores and carrier/admission shares.

    Scores come from a coarse grid as well as the unit interval, so ties
    between users are common.
    """
    K = draw(st.integers(1, 4))
    M = draw(st.integers(1, 5))
    N = draw(st.integers(1, 3))
    instance = ProblemInstance(
        num_ues=K,
        num_ccs=M,
        num_rbs_per_cc=N,
        weights=np.ones(K),
        utilities=np.ones((K, M, N)),
        ue_cc_caps=draw(arrays(int, K, elements=st.integers(1, M))),
        system_cc_cap=draw(st.integers(1, M)),
    )
    score_values = draw(st.sampled_from([UNIT, st.sampled_from([0.0, 0.5, 1.0])]))
    scores = draw(arrays(float, (K, M, N), elements=score_values))
    beta = draw(arrays(float, (K, M), elements=UNIT))
    gamma = draw(arrays(float, M, elements=UNIT))
    return instance, scores, beta, gamma


@settings(max_examples=300, deadline=None)
@given(rounding_inputs())
def test_round_allocation_is_feasible_and_gives_blocks_to_best_admitted_user(case):
    instance, scores, beta, gamma = case
    out = round_allocation(instance, scores, beta, gamma)
    assert check_feasibility(instance, out).ok

    admitted = (out.beta == 1) & (out.gamma == 1)[None, :]
    for m in range(instance.num_ccs):
        for n in range(instance.num_rbs_per_cc):
            holders = np.flatnonzero(out.alpha[:, m, n])
            if not admitted[:, m].any():
                assert holders.size == 0
                continue
            best = scores[admitted[:, m], m, n].max()
            assert holders.size == 1
            assert admitted[holders[0], m]
            assert scores[holders[0], m, n] == best
