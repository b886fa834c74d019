"""Tests for the Eq 6 allocation solver."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.query import COUNT, RangeQuery
from repro.federation.allocation import solve_allocation

# age <= 12 lives almost entirely in provider 0 of the age-partitioned
# federation.
SKEWED = RangeQuery(COUNT, {"age": (0, 12), "hours": (20, 60)})


def brute_force_best(avg, caps, budget):
    """Optimal objective over all integer allocations with the Eq 6 floor
    of 2 (tiny instances)."""
    best = -1.0
    for combo in itertools.product(*[range(min(2, c), c + 1) for c in caps]):
        if sum(combo) == budget:
            best = max(best, sum(a * s for a, s in zip(avg, combo)))
    return best


class TestOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_objective(self, seed):
        rng = np.random.default_rng(seed)
        avg = rng.random(3)
        caps = rng.integers(2, 7, 3)
        sr = 0.5
        s = solve_allocation(avg, caps.astype(float), sr)
        budget = int(s.sum())
        got = float(np.dot(avg, s))
        best = brute_force_best(avg, caps.tolist(), budget)
        assert got == pytest.approx(best), (avg, caps, s)

    def test_highest_avg_gets_most(self, adult_fed):
        """On a synthetic input, and on the true (Avg(R), N^Q) of a query
        whose mass lies almost all in provider 0 (§4: the allocation
        follows the data, where a uniform split would not)."""
        ctxs = [p.prepare(SKEWED) for p in adult_fed.providers]
        inputs = {
            "synthetic": (np.array([0.9, 0.1, 0.2]), np.array([50.0, 50, 50]), 0.2),
            "adult_skew": (
                np.array([c.avg_r for c in ctxs]),
                np.array([float(c.n_q) for c in ctxs]),
                0.15,
            ),
        }
        for name, (avg, n_q, sr) in inputs.items():
            s = solve_allocation(avg, n_q, sr)
            assert s[0] == max(s), name
            assert (s[0] > s[1:]).all(), name


class TestConstraints:
    def test_budget_conserved(self):
        caps = np.array([100.0, 80, 120, 60])
        s = solve_allocation(np.array([0.3, 0.5, 0.2, 0.9]), caps, 0.1)
        assert s.sum() == int(round(0.1 * caps.sum()))

    def test_floor_of_two_each(self):
        """Eq 6: s_i ∈ ]1, Ñ[ — every provider gets at least 2 samples."""
        s = solve_allocation(np.array([1.0, 0.0, 0.0]), np.array([100.0, 100, 100]), 0.05)
        assert (s >= 2).all()

    def test_floor_capped_by_tiny_nq(self):
        s = solve_allocation(np.array([0.5, 0.5]), np.array([1.0, 100.0]), 0.05)
        assert s[0] == 1  # cap below the floor of 2

    def test_caps_respected(self):
        caps = np.array([5.0, 100.0])
        s = solve_allocation(np.array([1.0, 0.01]), caps, 0.5)
        assert s[0] <= 5

    def test_budget_below_floors_clamped(self):
        """sr so small that sr·ΣÑ < floors: everyone still gets the floor."""
        s = solve_allocation(np.array([0.5, 0.5, 0.5]), np.array([4.0, 4, 4]), 0.01)
        assert (s == 2).all()

    def test_integer_output(self):
        s = solve_allocation(np.array([0.3, 0.7]), np.array([33.0, 67.0]), 0.17)
        assert s.dtype.kind == "i"


class TestNoisyInputSanitization:
    def test_negative_noisy_nq_clamped(self):
        s = solve_allocation(np.array([0.5, 0.5]), np.array([-3.0, 50.0]), 0.2)
        assert s[0] >= 1 and (s > 0).all()

    def test_negative_noisy_avg_clamped(self):
        s = solve_allocation(np.array([-0.4, 0.5]), np.array([50.0, 50.0]), 0.2)
        assert s[1] >= s[0]

    def test_avg_above_one_clamped(self):
        a = solve_allocation(np.array([57.0, 1.0]), np.array([50.0, 50.0]), 0.2)
        b = solve_allocation(np.array([1.0, 1.0]), np.array([50.0, 50.0]), 0.2)
        np.testing.assert_array_equal(np.sort(a), np.sort(b))


class TestValidation:
    @pytest.mark.parametrize("sr", [0.0, 1.0, -0.5, 2.0])
    def test_bad_sampling_rate(self, sr):
        with pytest.raises(ValueError):
            solve_allocation(np.array([0.5]), np.array([10.0]), sr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_allocation(np.array([]), np.array([]), 0.1)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            solve_allocation(np.array([0.5, 0.5]), np.array([10.0]), 0.1)
