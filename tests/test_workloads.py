"""Tests for random workload generation."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import COUNT, SUM
from repro.synth_data import ADULT_DIMS
from repro.workloads import qualifying_workload, random_query


class TestRandomQuery:
    def test_dimension_count(self):
        rng = np.random.default_rng(0)
        q = random_query(ADULT_DIMS, n_dims=3, rng=rng)
        assert len(q.ranges) == 3

    def test_ranges_within_domains(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_query(ADULT_DIMS, n_dims=4, rng=rng)
            for d, (lb, ub) in q.ranges.items():
                assert 0 <= lb <= ub < ADULT_DIMS[d]

    def test_agg_passthrough(self):
        rng = np.random.default_rng(2)
        assert random_query(ADULT_DIMS, n_dims=2, agg=SUM, rng=rng).agg == SUM

    def test_invalid_ndims(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            random_query(ADULT_DIMS, n_dims=0, rng=rng)
        with pytest.raises(ValueError):
            random_query(ADULT_DIMS, n_dims=99, rng=rng)


class TestQualifyingWorkload:
    def test_size_and_distinct(self, adult_fed):
        ws = qualifying_workload(
            ADULT_DIMS, adult_fed.providers, m=10, n_dims=3, seed=0
        )
        assert len(ws) == 10
        keys = {tuple(sorted(q.ranges.items())) for q in ws}
        assert len(keys) == 10

    def test_all_queries_trigger_approximation(self, adult_fed):
        """Paper §6.1: only queries with N^min <= N^Q everywhere are run,
        N^Q counted on the thresholded C^Q the provider samples from."""
        ws = qualifying_workload(
            ADULT_DIMS, adult_fed.providers, m=8, n_dims=2, seed=1
        )
        for q in ws:
            for p in adult_fed.providers:
                assert not p.prepare(q).exact_path

    def test_answers_take_approximate_path(self, adult_fed_pandas):
        """The protocol runs every workload query on the approximate path on
        every provider: the generator and the aggregator agree on C^Q."""
        ws = qualifying_workload(
            ADULT_DIMS, adult_fed_pandas.providers, m=6, n_dims=4, seed=0,
            min_width_frac=0.3,
        )
        rng = np.random.default_rng(0)
        for q in ws:
            ans = adult_fed_pandas.aggregator.answer(
                q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng
            )
            assert not any(lr.exact_path for lr in ans.local_results), q

    def test_deterministic_in_seed(self, adult_fed):
        a = qualifying_workload(ADULT_DIMS, adult_fed.providers, m=5, n_dims=2, seed=7)
        b = qualifying_workload(ADULT_DIMS, adult_fed.providers, m=5, n_dims=2, seed=7)
        assert [q.ranges for q in a] == [q.ranges for q in b]

    def test_agg_respected(self, adult_fed):
        ws = qualifying_workload(
            ADULT_DIMS, adult_fed.providers, m=3, n_dims=2, agg=SUM, seed=2
        )
        assert all(q.agg == SUM for q in ws)

    def test_impossible_workload_raises(self, adult_fed):
        with pytest.raises(RuntimeError, match="qualifying"):
            qualifying_workload(
                {"age": 74}, adult_fed.providers, m=10**6, n_dims=1, seed=3,
                max_tries=50,
            )
