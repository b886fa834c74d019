"""Spark and pandas evaluators must be numerically identical."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import COUNT, SUM, RangeQuery
from repro.federation.evaluation import PandasEvaluator
from repro.oracle import assert_equivalent

QUERIES = [
    RangeQuery(COUNT, {"age": (10, 50)}),
    RangeQuery(SUM, {"age": (10, 50)}),
    RangeQuery(COUNT, {"age": (20, 40), "education": (2, 10)}),
    RangeQuery(SUM, {"hours": (30, 60), "sex": (0, 0)}),
    RangeQuery(COUNT, {}),
]


@pytest.mark.parametrize("qi", range(len(QUERIES)))
class TestBackendEquality:
    def test_total_identical(self, adult_fed, adult_fed_pandas, qi):
        q = QUERIES[qi]
        for ps, pp in zip(adult_fed.providers, adult_fed_pandas.providers):
            assert ps.evaluator.total(q) == pp.evaluator.total(q)

    def test_per_cluster_identical(self, adult_fed, adult_fed_pandas, qi):
        """On every provider, for a plain id list and for a draw with
        repeated ids (the EM samples with replacement)."""
        q = QUERIES[qi]
        for ps, pp in zip(adult_fed.providers, adult_fed_pandas.providers):
            ids = ps.meta.cluster_ids
            for drawn in (ids[:20], ids[[0, 3, 3, 7, 0, 0, 12]]):
                assert ps.evaluator.per_cluster(q, drawn) == pp.evaluator.per_cluster(q, drawn)


class TestOracleOnSparkEvaluator:
    """The Spark evaluator's aggregate frame must match DuckDB."""

    @pytest.mark.parametrize("agg", [COUNT, SUM])
    def test_provider_partition_result(self, spark, adult_fed, agg):
        q = RangeQuery(agg, {"age": (10, 50), "hours": (20, 70)})
        sdf = adult_fed.providers[0].evaluator.store.read_all(spark)
        got = sdf.filter(q.predicate()).agg(q.agg_column())
        assert_equivalent(got, q.duckdb_sql("t"), t=sdf)


class TestPandasEvaluatorEdges:
    def test_requires_cluster_id(self, adult_pdf):
        with pytest.raises(ValueError, match="cluster_id"):
            PandasEvaluator(adult_pdf)

    def test_missing_clusters_absent(self, adult_fed_pandas):
        p = adult_fed_pandas.providers[0]
        out = p.evaluator.per_cluster(
            RangeQuery(COUNT, {"age": (0, 73)}), np.array([10**9])
        )
        assert out == {}
