"""Tests for the cluster-pruned parquet store."""
from __future__ import annotations

import pytest

from repro.clusterstore.store import ClusterStore
from repro.core.query import COUNT, RangeQuery
from repro.oracle import assert_equivalent
from repro.synth_data import adult_tensor, assign_clusters


@pytest.fixture(scope="module")
def stored(spark, tmp_path_factory):
    pdf = assign_clusters(
        adult_tensor(sf=0.0005, seed=2), cluster_size=100, sort_dim="age", seed=0
    )
    path = str(tmp_path_factory.mktemp("store") / "prov0")
    store = ClusterStore.write(spark.createDataFrame(pdf), path)
    return pdf, store


class TestRoundtrip:
    def test_read_all_preserves_rows(self, spark, stored):
        pdf, store = stored
        assert store.read_all(spark).count() == len(pdf)

    def test_read_all_result_equivalent(self, spark, stored):
        pdf, store = stored
        q = RangeQuery(COUNT, {"age": (10, 50)})
        got = store.read_all(spark).filter(q.predicate()).agg(q.agg_column())
        assert_equivalent(got, q.duckdb_sql("t"), t=pdf)

    def test_n_clusters_on_disk(self, stored):
        pdf, store = stored
        assert store.n_clusters() == pdf["cluster_id"].nunique()


class TestPrunedReads:
    def test_subset_reads_only_those_clusters(self, spark, stored):
        pdf, store = stored
        ids = [0, 3, 5]
        sub = store.read_clusters(spark, ids).toPandas()
        assert set(sub["cluster_id"].unique()) <= set(ids)
        expect = pdf[pdf["cluster_id"].isin(ids)]
        assert len(sub) == len(expect)

    def test_subset_aggregate_matches_pandas(self, spark, stored):
        pdf, store = stored
        q = RangeQuery(COUNT, {"age": (0, 73)})
        per = q.evaluate_per_cluster(store.read_clusters(spark, [1, 2]))
        brute = pdf[pdf["cluster_id"].isin([1, 2])].groupby("cluster_id").size()
        assert per == {int(k): float(v) for k, v in brute.items()}

    def test_pruning_in_physical_plan(self, spark, stored):
        """The cluster filter must appear as a partition filter (directory
        pruning), not a post-scan row filter."""
        _, store = stored
        df = store.read_clusters(spark, [0, 1])
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "PartitionFilters" in plan and "cluster_id" in plan

    def test_duplicate_ids_deduped(self, spark, stored):
        pdf, store = stored
        a = store.read_clusters(spark, [2, 2, 2]).count()
        b = store.read_clusters(spark, [2]).count()
        assert a == b


@pytest.mark.parametrize("fed", ["adult_fed", "amazon_fed"])
def test_federation_store_holds_metadata_clusters(request, fed):
    """Each provider of a built federation is one store holding exactly the
    clusters its metadata describes."""
    for p in request.getfixturevalue(fed).providers:
        assert p.evaluator.store.n_clusters() == p.meta.n_clusters


class TestErrors:
    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            ClusterStore("/nonexistent/path")
