"""Golden outputs: seeded allocations and WSU pinned as digests.

Each case samples instance ``(SEED, (0, t))`` -- the keying of ``run_sweep``
grid point 0 -- and runs every algorithm on it. A case's digest hashes the
int8 ``alpha``/``beta``/``gamma`` bytes and ``repr(wsu)``, so any change in
any allocated entry or in the last bit of the objective shows. Refactors
must leave every digest unchanged.

Regenerate (only for an intended change of behaviour) with::

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from caralloc.baselines import (
    brute_force_oracle,
    greedy_unconstrained,
    heuristic_solve,
    oracle_enumeration_count,
)
from caralloc.core import evaluate_wsu
from caralloc.sgpa import solve
from caralloc.simharness import GenParams, sample_instance

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SEED = 20170611
TRIALS = 6
#: The oracle runs only where the exhaustive search stays this small.
ORACLE_MAX_ENUMERATIONS = 20_000

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


def case_digests(instance):
    result = solve(instance)
    greedy = greedy_unconstrained(instance).allocation
    heuristic = heuristic_solve(instance)
    out = {
        "sgpa": digest(result.binary, result.wsu),
        "greedy": digest(greedy, evaluate_wsu(instance, greedy)),
        "heuristic": digest(heuristic, evaluate_wsu(instance, heuristic)),
    }
    required = oracle_enumeration_count(instance.M, instance.ue_cc_caps, instance.system_cc_cap)
    if required <= ORACLE_MAX_ENUMERATIONS:
        out["oracle"] = digest(*brute_force_oracle(instance))
    return out


def test_digest_file_covers_every_case():
    golden = json.loads(DIGEST_FILE.read_text())
    assert sorted(golden) == sorted(case_id(case) for case in CASES)
    assert sum("oracle" in entry for entry in golden.values()) >= len(golden) // 2


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_outputs_match_golden(case):
    golden = json.loads(DIGEST_FILE.read_text())[case_id(case)]
    assert case_digests(case_instance(case)) == golden


if __name__ == "__main__":
    print(json.dumps({case_id(c): case_digests(case_instance(c)) for c in CASES}, indent=1, sort_keys=True))
