"""End-to-end integration tests: the full private protocol against the
DuckDB oracle, on both datasets, plus privacy-accounting invariants."""
from __future__ import annotations

from functools import reduce

import numpy as np
import pytest
from pyspark.sql import DataFrame

from repro.core.query import COUNT, SUM, RangeQuery
from repro.dp.accountant import split_budget
from repro.oracle import assert_equivalent, oracle_value
from repro.workloads import qualifying_workload
from repro.synth_data import ADULT_DIMS, AMAZON_DIMS


def union_of_stores(spark, fed):
    """Every provider's rows, read from its cluster store by Spark."""
    frames = [p.evaluator.store.read_all(spark) for p in fed.providers]
    return reduce(DataFrame.unionByName, frames).drop("cluster_id")


class TestFederatedExactnessOracle:
    """The union of provider stores must answer exactly like DuckDB over
    the full tensor — partitioning/clustering/storage loses nothing."""

    @pytest.mark.parametrize("agg", [COUNT, SUM])
    def test_adult(self, spark, adult_fed, adult_pdf, agg):
        q = RangeQuery(agg, {"age": (10, 50), "education": (2, 12)})
        sdf = union_of_stores(spark, adult_fed)
        got = sdf.filter(q.predicate()).agg(q.agg_column())
        assert_equivalent(got, q.duckdb_sql("t"), t=adult_pdf)

    @pytest.mark.parametrize("agg", [COUNT, SUM])
    def test_amazon(self, spark, amazon_fed, amazon_pdf, agg):
        q = RangeQuery(agg, {"rating": (2, 4), "month": (30, 90)})
        sdf = union_of_stores(spark, amazon_fed)
        got = sdf.filter(q.predicate()).agg(q.agg_column())
        assert_equivalent(got, q.duckdb_sql("t"), t=amazon_pdf)


class TestWorkloadAccuracy:
    """Protocol-level accuracy on random qualifying workloads (pre-noise
    estimates, so the check isolates the sampling machinery)."""

    def test_adult_workload_mean_error(self, adult_fed_pandas, adult_pdf):
        ws = qualifying_workload(
            ADULT_DIMS, adult_fed_pandas.providers, m=6, n_dims=2, seed=4
        )
        rng = np.random.default_rng(9)
        errs = []
        for q in ws:
            truth = oracle_value(adult_pdf, q)
            ans = adult_fed_pandas.aggregator.answer(
                q, sampling_rate=0.3, eps=50.0, delta=1e-3, rng=rng
            )
            pre = sum(lr.estimate for lr in ans.local_results)
            errs.append(abs(pre - truth) / max(truth, 1))
        assert np.mean(errs) < 0.35

    def test_amazon_workload_mean_error(self, amazon_fed, amazon_pdf):
        fed = amazon_fed.with_pandas_evaluators()
        ws = qualifying_workload(AMAZON_DIMS, fed.providers, m=6, n_dims=2, seed=5)
        rng = np.random.default_rng(10)
        errs = []
        for q in ws:
            truth = oracle_value(amazon_pdf, q)
            ans = fed.aggregator.answer(
                q, sampling_rate=0.3, eps=50.0, delta=1e-3, rng=rng
            )
            pre = sum(lr.estimate for lr in ans.local_results)
            # amazon at unit-test scale has S=10-row clusters, so sampling
            # variance is intrinsically higher than at benchmark scale
            errs.append(abs(pre - truth) / max(truth, 1))
        assert np.mean(errs) < 0.5


class TestDPTrends:
    def test_error_decreases_with_eps(self, adult_fed_pandas, adult_pdf):
        """The Fig 6 trend: larger ε ⇒ smaller released-answer error."""
        q = RangeQuery(COUNT, {"age": (5, 60), "education": (0, 14)})
        truth = oracle_value(adult_pdf, q)
        rng = np.random.default_rng(11)

        def mean_err(eps):
            return np.mean(
                [
                    abs(
                        adult_fed_pandas.aggregator.answer(
                            q, sampling_rate=0.3, eps=eps, delta=1e-3, rng=rng
                        ).value
                        - truth
                    )
                    for _ in range(25)
                ]
            )

        assert mean_err(0.1) > mean_err(10.0)

    def test_released_value_differs_from_estimate(self, adult_fed_pandas, rng):
        q = RangeQuery(COUNT, {"age": (5, 60)})
        ans = adult_fed_pandas.aggregator.answer(
            q, sampling_rate=0.3, eps=0.5, delta=1e-3, rng=rng
        )
        assert ans.noise != 0.0


class TestPrivacyAccountingInvariants:
    def test_budget_split_sums_to_query_eps(self):
        b = split_budget(1.0)
        assert b.total == pytest.approx(1.0)

    def test_parallel_composition_across_providers(self, adult_fed_pandas, rng):
        """Each provider runs the same (ε^O, ε^S, ε^E) mechanisms on
        disjoint data: the per-query cost equals ONE provider's cost, not
        the sum over providers (Thm 3.2). The protocol must therefore never
        charge more than ε per query regardless of provider count."""
        from repro.dp.accountant import PrivacyAccountant

        acc = PrivacyAccountant(1.0, 1e-2)
        adult_fed_pandas.aggregator.answer(
            RangeQuery(COUNT, {"age": (5, 60)}),
            sampling_rate=0.2,
            eps=1.0,
            delta=1e-3,
            rng=rng,
            accountant=acc,
        )
        assert acc.spent_eps == pytest.approx(1.0)  # not 4.0

    def test_em_uses_per_draw_budget(self, adult_fed_pandas):
        """Algorithm 2 line 3: s draws share ε^S. Check indirectly — with a
        huge ε^S the sampling distribution should visibly favour high-R
        clusters versus a tiny ε^S (flatter)."""
        p = adult_fed_pandas.providers[0]
        q = RangeQuery(COUNT, {"age": (0, 20)})
        ctx = p.prepare(q)
        rng_hi, rng_lo = np.random.default_rng(1), np.random.default_rng(1)
        hi = p.approximate(ctx, 20, 1e6, 1e9, 1e-3, rng_hi).sampled_clusters
        lo = p.approximate(ctx, 20, 1e-4, 1e9, 1e-3, rng_lo).sampled_clusters
        r_of = dict(zip(ctx.cluster_ids.tolist(), ctx.r.tolist()))
        mean_r_hi = np.mean([r_of[int(c)] for c in hi])
        mean_r_lo = np.mean([r_of[int(c)] for c in lo])
        assert mean_r_hi >= mean_r_lo
