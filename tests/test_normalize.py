"""The capped-simplex normalization primitive.

Checked against an independent bisection oracle on the saturation equation,
plus the structural properties the iterative solver relies on.
"""

import numpy as np
import pytest

from caralloc.sgpa import capped_simplex_normalize

from helpers import bisect_capped_simplex_kappa


class TestWorkedExamples:
    def test_interior_with_one_saturated(self):
        sol = capped_simplex_normalize([3.0, 2.0, 1.0], 2)
        assert sol.kappa == 3.0
        np.testing.assert_allclose(sol.x, [1.0, 2.0 / 3.0, 1.0 / 3.0])
        assert sol.saturated_count == 1

    def test_all_saturate_when_positives_equal_cap(self):
        sol = capped_simplex_normalize([5.0, 5.0, 5.0, 5.0], 4)
        assert sol.kappa == 5.0
        np.testing.assert_array_equal(sol.x, [1.0, 1.0, 1.0, 1.0])
        assert sol.saturated_count == 4

    def test_interior_even_with_cap_one(self):
        sol = capped_simplex_normalize([10.0, 1.0], 1)
        assert sol.kappa == 11.0
        np.testing.assert_allclose(sol.x, [10.0 / 11.0, 1.0 / 11.0])
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zeros_stay_zero(self):
        sol = capped_simplex_normalize([0.0, 3.0, 0.0, 1.0, 1.0], 1)
        np.testing.assert_allclose(sol.x, [0.0, 0.6, 0.0, 0.2, 0.2])

    def test_fewer_positives_than_cap(self):
        sol = capped_simplex_normalize([0.0, 2.0, 0.0], 2)
        np.testing.assert_array_equal(sol.x, [0.0, 1.0, 0.0])
        assert sol.x.sum() == 1.0  # short of the cap: only one positive score


class TestValidation:
    def test_all_zero_scores_rejected(self):
        with pytest.raises(ValueError):
            capped_simplex_normalize([0.0, 0.0], 1)

    def test_cap_larger_than_length_rejected(self):
        with pytest.raises(ValueError):
            capped_simplex_normalize([1.0, 2.0], 3)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            capped_simplex_normalize([1.0, -0.5], 1)

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            capped_simplex_normalize([1.0], 0)

    @pytest.mark.parametrize("cap", [2.9, 2.0, True, np.float64(1.0)])
    def test_cap_that_is_not_an_integer_rejected(self, cap):
        # 2.9 used to run as cap 2.
        with pytest.raises(ValueError, match="cap must be an integer"):
            capped_simplex_normalize([3.0, 2.0, 1.0], cap)

    def test_numpy_integer_cap_accepted(self):
        sol = capped_simplex_normalize([3.0, 2.0, 1.0], np.int64(2))
        assert sol.x.tobytes() == capped_simplex_normalize([3.0, 2.0, 1.0], 2).x.tobytes()


class TestAgainstBisectionOracle:
    def test_randomized_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            size = int(rng.integers(1, 60))
            cap = int(rng.integers(1, size + 1))
            v = rng.exponential(1.0, size)
            v[rng.uniform(size=size) < 0.3] = 0.0
            if not np.any(v > 0):
                v[0] = rng.exponential(1.0) + 0.1
            sol = capped_simplex_normalize(v, cap)

            positives = int((v > 0).sum())
            assert abs(sol.x.sum() - min(cap, positives)) < 1e-9
            kappa_ref = bisect_capped_simplex_kappa(v, cap)
            assert sol.kappa == pytest.approx(kappa_ref, rel=1e-8)
            mask = v > 0
            np.testing.assert_allclose(sol.x[mask], np.minimum(1.0, v[mask] / sol.kappa))
            assert np.all(sol.x[~mask] == 0.0)


class TestStructuralProperties:
    def test_order_preserving(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            size = int(rng.integers(2, 40))
            cap = int(rng.integers(1, size + 1))
            v = rng.exponential(1.0, size)
            x = capped_simplex_normalize(v, cap).x
            order = np.argsort(v)
            assert np.all(np.diff(x[order]) >= -1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            size = int(rng.integers(2, 40))
            cap = int(rng.integers(1, size + 1))
            v = rng.exponential(1.0, size)
            scale = float(rng.uniform(0.01, 100.0))
            base = capped_simplex_normalize(v, cap).x
            scaled = capped_simplex_normalize(scale * v, cap).x
            np.testing.assert_allclose(base, scaled, rtol=1e-12, atol=1e-15)

    def test_survives_huge_dynamic_range(self):
        # A score far below float absorption of the tail sum must not break
        # the breakpoint scan.
        sol = capped_simplex_normalize([4.2, 2.7, 3.7e-22], 2)
        assert abs(sol.x.sum() - 2.0) < 1e-9
