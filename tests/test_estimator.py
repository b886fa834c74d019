"""Tests for the Hansen–Hurwitz estimator (Eq 3/8)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import hansen_hurwitz


class TestHansenHurwitz:
    def test_formula(self):
        q = np.array([10.0, 20.0])
        p = np.array([0.5, 0.25])
        assert hansen_hurwitz(q, p) == pytest.approx((10 / 0.5 + 20 / 0.25) / 2)

    def test_uniform_probabilities_scale_up(self):
        """With p = 1/N, HH is N × sample mean."""
        q = np.array([3.0, 5.0, 7.0])
        p = np.full(3, 1 / 10)
        assert hansen_hurwitz(q, p) == pytest.approx(10 * 5.0)

    def test_unbiased_under_pps(self):
        """Monte-Carlo: E[HH] = Σ Q(C_j) when draws follow p."""
        rng = np.random.default_rng(0)
        totals = np.array([5.0, 50.0, 100.0, 845.0])
        p = totals / totals.sum()  # perfect PPS
        true = totals.sum()
        ests = []
        for _ in range(3000):
            idx = rng.choice(4, size=4, replace=True, p=p)
            ests.append(hansen_hurwitz(totals[idx], p[idx]))
        assert np.mean(ests) == pytest.approx(true, rel=0.02)

    def test_zero_variance_under_perfect_pps(self):
        """When Q(C_j) ∝ p_j the estimator is exact for any draw."""
        totals = np.array([10.0, 40.0, 50.0])
        p = totals / totals.sum()
        for idx in ([0], [1, 1], [2, 0, 1]):
            got = hansen_hurwitz(totals[list(idx)], p[list(idx)])
            assert got == pytest.approx(100.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            hansen_hurwitz(np.array([]), np.array([]))

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(ValueError):
            hansen_hurwitz(np.array([1.0]), np.array([0.0]))

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            hansen_hurwitz(np.array([1.0, 2.0]), np.array([0.5]))

