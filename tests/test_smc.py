"""Tests for the SMC substrate (additive sharing + cost model)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smc import shares as sh
from repro.smc.protocol import SMCEnvironment, transfer


class TestFixedPoint:
    @pytest.mark.parametrize("v", [0.0, 1.0, -1.0, 3.141592, -12345.678, 1e6])
    def test_encode_decode_roundtrip(self, v):
        assert sh.decode(sh.encode(v)) == pytest.approx(v, abs=2 / sh.FIXED_POINT_SCALE)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            sh.encode(sh.MAX_MAGNITUDE * 2)

    @given(st.floats(-1e9, 1e9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, v):
        assert sh.decode(sh.encode(v)) == pytest.approx(v, abs=2 / sh.FIXED_POINT_SCALE)


class TestSharing:
    def test_reconstruct(self, rng):
        s = sh.share(7.25, 4, rng)
        assert len(s) == 4
        assert sh.reconstruct(s) == pytest.approx(7.25, abs=1e-5)

    def test_negative_value(self, rng):
        assert sh.reconstruct(sh.share(-42.5, 3, rng)) == pytest.approx(-42.5, abs=1e-5)

    def test_single_share_uninformative(self):
        """Any n−1 shares of a fixed secret are (statistically) uniform —
        check the first share of repeated sharings spreads over the field."""
        rng = np.random.default_rng(0)
        firsts = [sh.share(1.0, 3, rng)[0] for _ in range(200)]
        assert len(set(firsts)) == 200  # essentially never repeats
        spread = max(firsts) - min(firsts)
        assert spread > sh.FIELD_PRIME / 4

    def test_two_parties_minimum(self, rng):
        with pytest.raises(ValueError):
            sh.share(1.0, 1, rng)

    def test_add_shares_is_secure_sum(self, rng):
        a = sh.share(10.5, 4, rng)
        b = sh.share(-3.25, 4, rng)
        assert sh.reconstruct(sh.add_shares(a, b)) == pytest.approx(7.25, abs=1e-5)

    def test_add_misaligned_rejected(self, rng):
        with pytest.raises(ValueError):
            sh.add_shares(sh.share(1, 2, rng), sh.share(1, 3, rng))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_secure_sum_property(self, values):
        rng = np.random.default_rng(1)
        acc = sh.share(values[0], 4, rng)
        for v in values[1:]:
            acc = sh.add_shares(acc, sh.share(v, 4, rng))
        assert sh.reconstruct(acc) == pytest.approx(
            sum(values), abs=len(values) * 2 / sh.FIXED_POINT_SCALE
        )


class TestEnvironment:
    def test_secure_sum_correct(self, rng):
        env = SMCEnvironment(n_parties=4, rng=rng)
        assert env.secure_sum([1.5, 2.5, -1.0, 0.25]) == pytest.approx(3.25, abs=1e-4)

    def test_secure_max_correct(self, rng):
        env = SMCEnvironment(n_parties=5, rng=rng)
        assert env.secure_max([3.0, 9.5, 1.0, 7.0, 2.0]) == 9.5

    def test_wrong_party_count_rejected(self, rng):
        env = SMCEnvironment(n_parties=4, rng=rng)
        with pytest.raises(ValueError):
            env.secure_sum([1.0, 2.0])

    def test_cost_accumulates(self, rng):
        env = SMCEnvironment(n_parties=4, rng=rng)
        env.secure_sum([0.0] * 4)
        t1 = env.simulated_seconds
        env.secure_max([0.0, 1.0, 2.0, 3.0])
        assert env.simulated_seconds > t1 > 0


class TestCostShape:
    """Fig 1's claim: result-sharing is constant and cheap; row-sharing
    grows linearly with table size and is orders of magnitude slower."""

    def test_result_sharing_is_centiseconds(self, rng):
        env = SMCEnvironment(n_parties=4, rng=rng)
        t = env.share_results_cost()
        assert 0.005 < t < 0.2  # paper reports ≈ 0.04 s

    def test_row_sharing_linear_in_rows(self, rng):
        env = SMCEnvironment(n_parties=4, rng=rng)
        t1 = env.share_rows_cost(10_000, 8)
        t2 = env.share_rows_cost(20_000, 8)
        assert t2 == pytest.approx(2 * t1, rel=0.2)

    def test_row_sharing_hundreds_of_times_slower(self, rng):
        """Paper: row sharing is on average >400× result sharing."""
        env = SMCEnvironment(n_parties=4, rng=rng)
        result_t = env.share_results_cost()
        rows_t = env.share_rows_cost(1_000_000, 8)
        assert rows_t / result_t > 100

    def test_transfer_model_monotone(self):
        assert transfer(10, 1000) > transfer(5, 1000) > transfer(5, 10)
