"""The dense bounded-variable simplex."""

import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog

from caralloc import lp as lp_module
from caralloc.baselines import _carrier_selection_lp
from caralloc.lp import LinearProgram, LpSolution, LpStatus, solve_lp
from caralloc.simharness import GenParams, sample_instance

from helpers import enumerate_lp_optimum, three_block_carrier_selection_lp
from test_golden import CASES, case_instance

#: sha256 prefix of every :func:`pivot_pin_lps` solve's ``x`` bytes, ``repr``
#: of its objective value, pivots and bound flips. A change of entering or
#: leaving rule that reached the same vertex by another path changes it.
PIVOT_SEQUENCE_DIGEST = "c3a11c34430fe457"

#: The same hash over :func:`workload_lps`.
WORKLOAD_PIVOT_DIGEST = "f0fbed8741cf077c"

#: The same hash over the golden-case and random pin LPs with Bland's
#: entering rule on every step (``_DEGENERATE_LIMIT = 0``).
BLAND_PIVOT_DIGEST = "44e37eb01b8e2ad5"


def random_box_lps():
    """120 random [0, 1]-box LPs with a nonnegative rhs, so the origin is
    feasible: (c, A, b, lower, upper)."""
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.0, 0.5, m)
        yield c, A, b, np.zeros(n), np.ones(n)


def carrier_selection_instances():
    """40 sampled instances of assorted shapes and caps."""
    rng = np.random.default_rng(13)
    for trial in range(40):
        M = int(rng.integers(2, 11))
        params = GenParams(
            K=int(rng.integers(2, 9)), M=M, N=4,
            ue_cc_cap=int(rng.integers(1, M + 1)),
            system_cc_cap_limit=int(rng.integers(1, M + 1)),
            weight_mode=("equal", "uniform_simplex")[trial % 2],
            seed=13, stream_key=(trial,),
        )
        yield sample_instance(params)


def carrier_selection_lps():
    """The heuristic's LPs of the 40 instances above."""
    for instance in carrier_selection_instances():
        yield _carrier_selection_lp(instance)


def golden_case_lps():
    """The carrier-selection LPs of the golden cases."""
    for case in CASES:
        yield _carrier_selection_lp(case_instance(case))


def random_pin_lps():
    """300 seeded random boxed LPs: finite random bounds (some spans zero),
    rows tight at the start point about a third of the time, and half with
    coefficients on a grid of halves so that ties and degenerate pivots are
    common."""
    rng = np.random.default_rng(29)
    for trial in range(300):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        c, A = rng.normal(size=n), rng.normal(size=(m, n))
        if trial % 2:
            c, A = np.round(2 * c) / 2, np.round(2 * A) / 2
        lower = rng.uniform(-1.0, 0.0, n)
        upper = lower + np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.5, 2.0, n))
        slack = np.where(rng.uniform(size=m) < 0.3, 0.0, rng.uniform(0.0, 1.0, m))
        yield LinearProgram(c, A, A @ lower + slack, np.column_stack([lower, upper]))


def pivot_pin_lps():
    """The golden-case LPs, one that runs past the reduced-cost refresh, then
    the random ones."""
    yield from golden_case_lps()
    yield _carrier_selection_lp(sample_instance(
        GenParams(K=20, M=40, N=5, ue_cc_cap=2, system_cc_cap_limit=10, seed=0)))
    yield from random_pin_lps()


def workload_lps():
    """100 carrier-selection LPs at each benchmark workload shape that runs
    the heuristic, (K, M, N, Mk, M0) = (10, 12, 20, 2, 6) and (4, 6, 4, 2, 2),
    drawn from seed 5 on the benchmark's trial streams (0, t)."""
    for K, M, N, Mk, M0 in ((10, 12, 20, 2, 6), (4, 6, 4, 2, 2)):
        for trial in range(100):
            yield _carrier_selection_lp(sample_instance(GenParams(
                K=K, M=M, N=N, ue_cc_cap=Mk, system_cc_cap_limit=M0, seed=5, stream_key=(0, trial))))


def pivot_digest(solutions):
    """sha256 prefix of every solution's ``x`` bytes, ``repr`` of its
    objective value, pivots and bound flips."""
    h = hashlib.sha256()
    for sol in solutions:
        h.update(sol.x.tobytes())
        h.update(repr((sol.objective_value, sol.pivots, sol.bound_flips)).encode())
    return h.hexdigest()[:16]


def highs_optimum(lp):
    """Maximum of ``lp`` by scipy's HiGHS."""
    res = linprog(
        -lp.objective,
        A_ub=lp.constraint_matrix,
        b_ub=lp.constraint_rhs,
        bounds=lp.variable_bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def box_lp(c, A, b, lower=0.0, upper=1.0):
    c = np.asarray(c, dtype=float)
    n = c.size
    bounds = np.column_stack([np.full(n, lower), np.full(n, upper)])
    return LinearProgram(c, np.asarray(A, dtype=float).reshape(-1, n), b, bounds)


class TestSmallExamples:
    def test_unconstrained_box_maximum(self):
        lp = box_lp([1.0], np.zeros((0, 1)), np.zeros(0))
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_degenerate_optimum_face(self):
        lp = box_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0)

    def test_vertex_selection(self):
        lp = box_lp([3.0, 2.0], [[1.0, 1.0]], [1.0])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(3.0)
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-9)

    def test_nonzero_lower_bounds(self):
        c = np.array([1.0, -1.0])
        bounds = np.array([[0.25, 2.0], [0.5, 3.0]])
        lp = LinearProgram(c, np.array([[1.0, 1.0]]), np.array([2.0]), bounds)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        # best: x0 as large as the row allows with x1 pinned at its lower bound
        np.testing.assert_allclose(sol.x, [1.5, 0.5], atol=1e-9)


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=5)
        A = rng.normal(size=(4, 5))
        b = rng.uniform(1, 2, 4)
        bounds = np.column_stack([np.zeros(5), np.ones(5)])
        lp = LinearProgram(c, A, b, bounds)
        first = solve_lp(lp)
        second = solve_lp(LinearProgram(c, A, b, bounds))
        np.testing.assert_array_equal(first.x, second.x)
        assert first.objective_value == second.objective_value

    def test_pivot_sequence_is_pinned(self):
        h = hashlib.sha256()
        for lp in pivot_pin_lps():
            sol = solve_lp(lp)
            h.update(sol.x.tobytes())
            h.update(repr((sol.objective_value, sol.pivots, sol.bound_flips)).encode())
        assert h.hexdigest()[:16] == PIVOT_SEQUENCE_DIGEST

    def test_workload_pivot_sequence_is_pinned(self):
        assert pivot_digest(map(solve_lp, workload_lps())) == WORKLOAD_PIVOT_DIGEST

    def test_bland_pivot_sequence_is_pinned(self, monkeypatch):
        # Only Beale's example reaches the Bland fallback otherwise; with a
        # limit of 0 every step enters on the smallest improving index. The
        # pin set's long LP is left out: it takes about 5,900 pivots this way.
        monkeypatch.setattr(lp_module, "_DEGENERATE_LIMIT", 0)
        lps = [*golden_case_lps(), *random_pin_lps()]
        solutions = [solve_lp(lp) for lp in lps]
        assert pivot_digest(solutions) == BLAND_PIVOT_DIGEST
        for lp, sol in zip(lps, solutions):
            assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7)


class TestAgainstVertexEnumeration:
    def test_random_small_lps(self):
        rng = np.random.default_rng(10)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            c = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            lower = rng.uniform(-1.0, 0.0, n)
            upper = lower + rng.uniform(0.5, 2.0, n)
            # rhs chosen so a random box point and the lower corner stay feasible
            x0 = rng.uniform(lower, upper)
            b = np.maximum(A @ x0, A @ lower) + rng.uniform(0.0, 1.0, m)
            lp = LinearProgram(c, A, b, np.column_stack([lower, upper]))
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL
            ref_value, _ = enumerate_lp_optimum(c, A, b, lower, upper)
            assert sol.objective_value == pytest.approx(ref_value, abs=1e-7)
            assert np.all(A @ sol.x <= b + 1e-7)
            assert np.all(sol.x >= lower - 1e-9) and np.all(sol.x <= upper + 1e-9)

    def test_random_box_lps(self):
        for c, A, b, lower, upper in random_box_lps():
            lp = LinearProgram(c, A, b, np.column_stack([lower, upper]))
            sol = solve_lp(lp)
            ref_value, _ = enumerate_lp_optimum(c, A, b, lower, upper)
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(ref_value, abs=1e-7)

    def test_never_worse_than_random_feasible_points(self):
        rng = np.random.default_rng(12)
        n, m = 6, 5
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(0, 1, n)
        b = np.maximum(A @ x0, 0.0) + rng.uniform(0.1, 0.5, m)
        lp = LinearProgram(c, A, b, np.column_stack([np.zeros(n), np.ones(n)]))
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        found = 0
        while found < 100:
            x = rng.uniform(0, 1, n)
            if np.all(A @ x <= b):
                found += 1
                assert c @ x <= sol.objective_value + 1e-9


class TestCycling:
    def test_beale_example_terminates(self):
        """Beale's LP (Chvatal 1983, ch. 3), on which largest-coefficient
        pricing cycles through degenerate pivots at the origin; the switch
        to Bland's rule after a run of them must still reach the optimum."""
        c = [0.75, -20.0, 0.5, -6.0]
        A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
        sol = solve_lp(box_lp(c, A, np.array([0.0, 0.0, 1.0]), upper=1000.0))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.25, abs=1e-9)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-9)


class TestCarrierSelectionFormulation:
    def test_optimum_matches_three_block_formulation(self):
        """Dropping the product variables keeps the optimum value: the
        package's LP solves to HiGHS's optimum of the [t, beta, gamma] one."""
        for instance in carrier_selection_instances():
            sol = solve_lp(_carrier_selection_lp(instance))
            reference = highs_optimum(three_block_carrier_selection_lp(instance))
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(reference, abs=1e-7)


class TestAgainstHighs:
    """Objective values agree with an independent solver (scipy's HiGHS)."""

    def test_carrier_selection_lps(self):
        for lp in carrier_selection_lps():
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7)

    def test_random_box_lps(self):
        for c, A, b, lower, upper in random_box_lps():
            lp = LinearProgram(c, A, b, np.column_stack([lower, upper]))
            sol = solve_lp(lp)
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7)

    def test_long_run_refreshes_its_reduced_costs(self, monkeypatch):
        # The reduced costs are recomputed from scratch every
        # _RC_REFRESH_PERIOD steps; the heuristic LPs of the other tests
        # stop well before the first refresh, this one runs past it.
        refreshes = []
        reduced_costs = lp_module._Tableau.reduced_costs

        def counted(tab, c_all):
            refreshes.append(tab.pivots + tab.bound_flips)
            return reduced_costs(tab, c_all)

        monkeypatch.setattr(lp_module._Tableau, "reduced_costs", counted)
        params = GenParams(K=20, M=40, N=5, ue_cc_cap=2, system_cc_cap_limit=10, seed=0)
        lp = _carrier_selection_lp(sample_instance(params))
        sol = solve_lp(lp)
        assert sol.pivots + sol.bound_flips > lp_module._RC_REFRESH_PERIOD
        assert refreshes[0] == 0 and lp_module._RC_REFRESH_PERIOD in refreshes
        assert sol.objective_value == pytest.approx(highs_optimum(lp), abs=1e-7)


class TestCounts:
    def test_flip_then_degenerate_pivot(self):
        # max 3x + 2y, x + y <= 1: x flips to its upper bound without a basis
        # change, then y enters at 0 in place of the tight slack.
        sol = solve_lp(box_lp([3.0, 2.0], [[1.0, 1.0]], [1.0]))
        assert (sol.pivots, sol.bound_flips) == (1, 1)

    def test_largest_gain_enters_first(self):
        # max x + 3y, x + y <= 1: y enters first and flips to its upper
        # bound, then x enters at 0 in place of the tight slack. Entering on
        # the lowest index would take x first and need more steps.
        sol = solve_lp(box_lp([1.0, 3.0], [[1.0, 1.0]], [1.0]))
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
        assert (sol.pivots, sol.bound_flips) == (1, 1)

    def test_repeat_runs_report_equal_counts(self):
        lp = next(carrier_selection_lps())
        first, second = solve_lp(lp), solve_lp(lp)
        assert first.pivots > 0
        assert (first.pivots, first.bound_flips) == (second.pivots, second.bound_flips)

    def test_pivots_count_every_basis_change(self, monkeypatch):
        calls = []
        pivot = lp_module._Tableau.pivot

        def counted_pivot(tab, row, col):
            calls.append(col)
            pivot(tab, row, col)

        monkeypatch.setattr(lp_module._Tableau, "pivot", counted_pivot)
        lps = [next(carrier_selection_lps())] + [
            LinearProgram(c, A, b, np.column_stack([lower, upper]))
            for c, A, b, lower, upper in random_box_lps()
        ]
        for lp in lps:
            calls.clear()
            assert solve_lp(lp).pivots == len(calls)

    def test_positional_constructor_defaults_counts(self):
        sol = LpSolution(LpStatus.OPTIMAL, np.zeros(1), 0.0)
        assert (sol.pivots, sol.bound_flips) == (0, 0)


class TestValidation:
    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError):
            LinearProgram(
                np.array([1.0]),
                np.zeros((0, 1)),
                np.zeros(0),
                np.array([[0.0, np.inf]]),
            )

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            LinearProgram(
                np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.array([[1.0, 0.0]])
            )

    def test_rejects_lps_the_lower_bounds_violate(self):
        # x <= -1; -x <= -0.5 (x >= 0.5); x + y >= 1 beside x + y <= 1:
        # each row fails at the all-lower-bounds point the simplex starts from.
        for c, A, b in (
            ([1.0], [[1.0]], [-1.0]),
            ([-1.0], [[-1.0]], [-0.5]),
            ([2.0, 1.0], [[-1.0, -1.0], [1.0, 1.0]], [-1.0, 1.0]),
        ):
            with pytest.raises(ValueError, match="lower-bounds point"):
                box_lp(c, A, np.array(b))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(
                np.array([1.0, 2.0]),
                np.zeros((1, 1)),
                np.zeros(1),
                np.array([[0.0, 1.0], [0.0, 1.0]]),
            )
