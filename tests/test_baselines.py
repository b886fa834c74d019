"""Tests for the baselines: exact federation, local/global sampling."""
from __future__ import annotations

import duckdb
import numpy as np
import pytest

from repro.baselines.exact import exact_federated
from repro.baselines.local_sampling import (
    global_sampling_estimate,
    local_sampling_estimate,
)
from repro.core.query import COUNT, RangeQuery

Q = RangeQuery(COUNT, {"age": (0, 25)})  # value-skewed across providers


def oracle_value(tensor, q):
    con = duckdb.connect()
    try:
        con.register("t", tensor)
        return float(con.execute(q.duckdb_sql("t")).fetchone()[0])
    finally:
        con.close()


class TestExactBaseline:
    def test_matches_oracle(self, adult_fed):
        got = exact_federated(adult_fed.aggregator, Q)
        assert got.value == oracle_value(adult_fed.tensor, Q)
        assert got.seconds > 0


class TestSamplingBaselines:
    def test_local_sampling_unbiased(self, adult_fed_pandas):
        truth = oracle_value(adult_fed_pandas.tensor, Q)
        rng = np.random.default_rng(0)
        ests = [
            local_sampling_estimate(
                adult_fed_pandas.providers, Q, sampling_rate=0.3, rng=rng
            )
            for _ in range(40)
        ]
        assert np.mean(ests) == pytest.approx(truth, rel=0.2)

    def test_global_sampling_unbiased(self, adult_fed_pandas):
        truth = oracle_value(adult_fed_pandas.tensor, Q)
        rng = np.random.default_rng(1)
        ests = [
            global_sampling_estimate(
                adult_fed_pandas.providers, Q, sampling_rate=0.3, rng=rng
            )
            for _ in range(40)
        ]
        assert np.mean(ests) == pytest.approx(truth, rel=0.2)

    def test_global_no_worse_than_local_on_skew(self, adult_fed_pandas):
        """The motivating claim (§4): distribution-aware allocation should
        not lose to uniform allocation on value-skewed partitions."""
        # multi-dim query (a 1-dim query is estimated exactly — R ∝ Q(C)
        # makes HH deterministic) with STRONG provider skew: Eq 6's
        # LP allocation is winner-take-all, so it beats uniform allocation
        # precisely when one provider dominates the query mass. Age <= 12
        # lives almost entirely in provider 0 of the age-partitioned
        # federation.
        q = RangeQuery(COUNT, {"age": (0, 12), "hours": (20, 60)})
        truth = oracle_value(adult_fed_pandas.tensor, q)
        rng = np.random.default_rng(2)
        err = lambda f: np.mean(
            [
                abs(
                    f(adult_fed_pandas.providers, q, sampling_rate=0.15, rng=rng)
                    - truth
                )
                for _ in range(60)
            ]
        )
        e_local = err(local_sampling_estimate)
        e_global = err(global_sampling_estimate)
        assert e_global < 1.5 * e_local + 1e-6  # no-worse within noise

    def test_invalid_rate(self, adult_fed_pandas, rng):
        with pytest.raises(ValueError):
            local_sampling_estimate(
                adult_fed_pandas.providers, Q, sampling_rate=1.5, rng=rng
            )

