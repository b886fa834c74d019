"""Tests for the cluster-pruned parquet store."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType

from repro.clusterstore.store import ClusterStore
from repro.core.metadata import build_metadata
from repro.core.query import COUNT, RangeQuery
from repro.federation.builder import build_federation
from repro.oracle import assert_equivalent
from repro.synth_data import ADULT_DIMS, adult_tensor, assign_clusters


@pytest.fixture(scope="module")
def stored(spark, tmp_path_factory):
    pdf = assign_clusters(
        adult_tensor(sf=0.0005, seed=2), cluster_size=100, sort_dim="age", seed=0
    )
    path = str(tmp_path_factory.mktemp("store") / "prov0")
    store = ClusterStore.write(pdf, path)
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


class TestWrite:
    def test_overwrite_replaces_larger_store(self, spark, stored, tmp_path):
        """Writing a few clusters over a larger store leaves only the new
        clusters on disk, as an overwrite should."""
        pdf, _ = stored
        path = str(tmp_path / "prov")
        ClusterStore.write(pdf, path)
        small = pdf[pdf["cluster_id"] < 3]
        store = ClusterStore.write(small, path)
        assert store.n_clusters() == small["cluster_id"].nunique() == 3
        assert store.read_all(spark).count() == len(small)

    def test_submits_no_spark_jobs(self, spark, stored, tmp_path):
        """Arrow writes the store on the driver; Spark only reads it."""
        pdf, _ = stored
        sc = spark.sparkContext
        sc.setJobGroup("test-store-write", "store write job count")
        try:
            ClusterStore.write(pdf, str(tmp_path / "prov"))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert sc.statusTracker().getJobIdsForGroup("test-store-write") == []

    def test_read_pandas_returns_the_rows(self, stored):
        pdf, store = stored
        got = store.read_pandas()
        assert got["cluster_id"].dtype == "int64"
        cols = list(pdf.columns)
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols, ignore_index=True),
            pdf.sort_values(cols, ignore_index=True),
        )


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


@pytest.mark.parametrize("fed", ["adult_fed", "amazon_fed"])
def test_federation_providers_in_order(request, fed):
    """Providers are built concurrently but returned as provider_0..n-1,
    each over its own store."""
    providers = request.getfixturevalue(fed).providers
    names = [f"provider_{i}" for i in range(len(providers))]
    assert [p.name for p in providers] == names
    for p, name in zip(providers, names):
        assert p.evaluator.store.path.endswith(name)


@pytest.mark.parametrize("fed", ["adult_fed", "amazon_fed"])
def test_federation_metadata_equals_standalone_build(request, spark, fed):
    """A concurrent build gives each provider the metadata that
    ``build_metadata`` gives alone over that provider's store."""
    for p in request.getfixturevalue(fed).providers:
        alone = build_metadata(p.evaluator.store.read_all(spark), dims=p.meta.dims, S=p.meta.S)
        np.testing.assert_array_equal(p.meta.cluster_ids, alone.cluster_ids)
        for d in p.meta.dims:
            np.testing.assert_array_equal(p.meta.geq[d], alone.geq[d])


def test_federation_independent_of_arrow_setting(spark, tmp_path):
    """A provider's table reaches Spark as a parquet file written by Arrow,
    so the session's Arrow setting for pandas frames changes neither the
    store's schema nor the metadata.

    ``cluster_id`` is read back from the directory names, so its type is
    inferred; every column stored in the parquet files is a long."""
    tensor = adult_tensor(sf=0.0005, seed=5)
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = spark.conf.get(key)
    feds = {}
    try:
        for arrow in ("true", "false"):
            spark.conf.set(key, arrow)
            feds[arrow] = build_federation(
                spark, tensor, dims=list(ADULT_DIMS),
                store_root=str(tmp_path / f"arrow_{arrow}"), n_providers=2, seed=3,
            )
    finally:
        spark.conf.set(key, before)
    on, off = (feds[a].providers for a in ("true", "false"))
    for p, q in zip(on, off):
        schema = p.evaluator.store.read_all(spark).schema
        assert schema == q.evaluator.store.read_all(spark).schema
        stored = [f for f in schema.fields if f.name != "cluster_id"]
        assert [f.name for f in stored] == list(ADULT_DIMS) + ["measure"]
        assert all(isinstance(f.dataType, LongType) for f in stored)
        np.testing.assert_array_equal(p.meta.cluster_ids, q.meta.cluster_ids)
        for d in ADULT_DIMS:
            np.testing.assert_array_equal(p.meta.geq[d], q.meta.geq[d])


class TestErrors:
    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            ClusterStore("/nonexistent/path")
