"""Golden outputs: seeded allocations and WSU pinned as digests.

Each case samples instance ``(SEED, (0, t))`` -- the keying of ``run_sweep``
grid point 0 -- and runs every algorithm on it. A case's digest hashes the
int8 ``alpha``/``beta``/``gamma`` bytes and ``repr(wsu)``, so any change in
any allocated entry or in the last bit of the objective shows. The solver's
run is pinned as well, at 20 and at 200 sweeps: the float64 bytes of its
relaxed iterate, its iteration count, its convergence flag and every trace
record. The heuristic's carrier-selection LP is pinned by the float64 bytes
of its solution ``x`` and ``repr`` of its objective value. The cut cases
run only the solver, on shapes where most carriers switch off during the
run, so the solver's live-carrier cut is pinned too (the LP and the oracle
would be too slow at M=160). Refactors must leave every digest unchanged.

Regenerate (only for an intended change of behaviour) with::

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from caralloc.baselines import (
    _carrier_selection_lp,
    brute_force_oracle,
    greedy_unconstrained,
    heuristic_solve,
)
from caralloc.core import evaluate_wsu
from caralloc.lp import solve_lp
from caralloc.sgpa import SgpaConfig, solve
from caralloc.simharness import GenParams, sample_instance

from helpers import reference_enumeration_count

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SEED = 20170611
TRIALS = 6
#: The oracle runs only where the every-size walk of
#: ``helpers.reference_oracle`` stays this small, which pins the case set.
ORACLE_MAX_ENUMERATIONS = 20_000
#: Sweep budgets at which the solver's relaxed iterate and trace are pinned.
ITERATE_SWEEPS = (20, 200)

#: (K, M, N, Mk, M0)
SHAPES = (
    (10, 12, 20, 2, 6),
    (4, 6, 4, 2, 2),
    (3, 5, 3, 2, 3),
    (2, 3, 2, 1, 2),
    (4, 4, 6, 3, 3),
)
WEIGHT_MODES = ("equal", "uniform_simplex")


CASES = [
    (K, M, N, Mk, M0, mode, t)
    for K, M, N, Mk, M0 in SHAPES
    for mode in WEIGHT_MODES
    for t in range(TRIALS)
]


#: Solver-only cases: (shape, trials). At 200 sweeps most carriers end
#: switched off, and several (12, 6, 4, 3, 1) runs end with one live carrier,
#: below that shape's user cap of 3. With K >= 8 users, numpy sums over users
#: in another order when an array is not C-ordered: trial 3 of the
#: (8, 160, 4, 5, 2) shape changes in its last bits if the solver's cut
#: arrays are not.
CUT_SHAPES = (
    ((10, 160, 20, 2, 8), 3),
    ((12, 6, 4, 3, 1), 6),
    ((8, 160, 4, 5, 2), 4),
)
CUT_CASES = [
    (K, M, N, Mk, M0, mode, t)
    for (K, M, N, Mk, M0), trials in CUT_SHAPES
    for mode in WEIGHT_MODES
    for t in range(trials)
]


def case_id(case):
    return "K{}-M{}-N{}-Mk{}-M0{}-{}-t{}".format(*case)


def case_instance(case):
    K, M, N, Mk, M0, mode, trial = case
    return sample_instance(
        GenParams(K=K, M=M, N=N, ue_cc_cap=Mk, system_cc_cap_limit=M0,
                  weight_mode=mode, seed=SEED, stream_key=(0, trial))
    )


def digest(allocation, wsu):
    h = hashlib.sha256()
    for arr in (allocation.alpha, allocation.beta, allocation.gamma):
        h.update(arr.tobytes())
    h.update(repr(wsu).encode())
    return h.hexdigest()[:16]


def lp_digest(instance):
    solution = solve_lp(_carrier_selection_lp(instance))
    assert solution.x.dtype == np.float64
    h = hashlib.sha256()
    h.update(solution.x.tobytes())
    h.update(repr(solution.objective_value).encode())
    return h.hexdigest()[:16]


def iterate_digest(instance, config):
    result = solve(instance, config)
    h = hashlib.sha256()
    for arr in (result.relaxed.alpha, result.relaxed.beta, result.relaxed.gamma):
        assert arr.dtype == np.float64
        h.update(arr.tobytes())
    h.update(repr((result.iterations_run, result.converged)).encode())
    for rec in result.trace:
        h.update(repr(rec).encode())
    return h.hexdigest()[:16]


def iterate_digests(instance):
    return {
        f"sgpa_iterate_{sweeps}": iterate_digest(
            instance, SgpaConfig(max_iterations=sweeps, record_trace=True)
        )
        for sweeps in ITERATE_SWEEPS
    }


def case_digests(instance):
    result = solve(instance)
    greedy = greedy_unconstrained(instance).allocation
    heuristic = heuristic_solve(instance)
    out = {
        "sgpa": digest(result.binary, result.wsu),
        "greedy": digest(greedy, evaluate_wsu(instance, greedy)),
        "heuristic": digest(heuristic, evaluate_wsu(instance, heuristic)),
        "heuristic_lp": lp_digest(instance),
    }
    required = reference_enumeration_count(
        instance.num_ccs, instance.ue_cc_caps, instance.system_cc_cap
    )
    if required <= ORACLE_MAX_ENUMERATIONS:
        out["oracle"] = digest(*brute_force_oracle(instance))
    out.update(iterate_digests(instance))
    return out


def cut_case_digests(instance):
    result = solve(instance)
    return {"sgpa": digest(result.binary, result.wsu), **iterate_digests(instance)}


def all_digests():
    out = {case_id(case): case_digests(case_instance(case)) for case in CASES}
    out.update((case_id(case), cut_case_digests(case_instance(case))) for case in CUT_CASES)
    return out


def test_digest_file_covers_every_case():
    golden = json.loads(DIGEST_FILE.read_text())
    assert sorted(golden) == sorted(case_id(case) for case in CASES + CUT_CASES)
    assert sum("oracle" in entry for entry in golden.values()) >= len(CASES) // 2
    assert all(f"sgpa_iterate_{sweeps}" in entry for entry in golden.values() for sweeps in ITERATE_SWEEPS)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_outputs_match_golden(case):
    golden = json.loads(DIGEST_FILE.read_text())[case_id(case)]
    assert case_digests(case_instance(case)) == golden


@pytest.mark.parametrize("case", CUT_CASES, ids=case_id)
def test_cut_outputs_match_golden(case):
    golden = json.loads(DIGEST_FILE.read_text())[case_id(case)]
    assert cut_case_digests(case_instance(case)) == golden


def test_cut_cases_end_with_one_live_carrier():
    """Some cut case ends with a single live carrier under a user cap above
    1, so the solver's caps clipped to the live count are pinned too."""
    config = SgpaConfig(max_iterations=max(ITERATE_SWEEPS))
    assert any(
        solve(case_instance(case), config).active_carriers == 1 and case[3] > 1
        for case in CUT_CASES
    )


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
