"""Tests for Algorithm 1 (offline cluster metadata) against brute force."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.metadata import build_metadata
from repro.synth_data import adult_tensor, assign_clusters

DIMS = ["age", "education", "hours"]


@pytest.fixture(scope="module")
def clustered(spark):
    pdf = assign_clusters(
        adult_tensor(sf=0.001, seed=3), cluster_size=80, sort_dim="age", seed=0
    )
    return pdf, spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def meta(clustered):
    _, sdf = clustered
    return build_metadata(sdf, dims=DIMS, S=80)


def _row(meta, cid) -> int:
    return int(np.searchsorted(meta.cluster_ids, cid))


class TestStructure:
    def test_all_clusters_present(self, clustered, meta):
        pdf, _ = clustered
        assert meta.n_clusters == pdf["cluster_id"].nunique()

    def test_n_rows_match(self, clustered, meta):
        pdf, _ = clustered
        sizes = pdf.groupby("cluster_id").size()
        for cid, n in sizes.items():
            for d in DIMS:
                assert meta.geq[d][_row(meta, cid), 0] == int(n)
            assert meta.n_rows[_row(meta, cid)] == int(n)

    def test_dims_covered(self, meta):
        assert meta.dims == DIMS
        assert set(meta.geq) == set(DIMS)

    def test_rgeq_entries_for_every_cluster_dim(self, clustered, meta):
        """One row per cluster and one column per value 0..max_d+1."""
        pdf, _ = clustered
        for d in DIMS:
            assert meta.geq[d].shape == (pdf["cluster_id"].nunique(), pdf[d].max() + 2)
            assert (meta.geq[d][:, -1] == 0).all()

    def test_invalid_S_rejected(self, clustered):
        _, sdf = clustered
        with pytest.raises(ValueError, match="S must be positive"):
            build_metadata(sdf, dims=DIMS, S=0)

    @pytest.mark.parametrize("bad", [-1, 2.5, float("nan")])
    def test_non_integer_code_rejected(self, spark, bad):
        """The dense layout indexes by value: negative, fractional or missing
        values cannot be stored and must fail loudly, naming the dimension."""
        sdf = spark.createDataFrame(
            pd.DataFrame({"cluster_id": [0, 0], "age": [3.0, float(bad)]})
        )
        with pytest.raises(ValueError, match="'age'"):
            build_metadata(sdf, dims=["age"], S=2)

    def test_single_spark_job(self, spark, clustered):
        """Algorithm 1 runs as one Spark job for all dimensions. Adaptive
        execution submits each shuffle stage as a job of its own, so it is
        off while the jobs are counted."""
        _, sdf = clustered
        sc = spark.sparkContext
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        sc.setJobGroup("test-build-metadata", "metadata job count")
        try:
            build_metadata(sdf, dims=DIMS, S=80)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
        assert len(sc.statusTracker().getJobIdsForGroup("test-build-metadata")) == 1


class TestRgeqValues:
    @pytest.mark.parametrize("dim", DIMS)
    def test_stored_values_match_brute_force(self, clustered, meta, dim):
        """R^{d>=}(v) * S = |rows >= v| at every integer v from min-1 to
        max+1 of each cluster."""
        pdf, _ = clustered
        for cid, cluster in pdf.groupby("cluster_id"):
            col = cluster[dim].to_numpy()
            for v in range(col.min() - 1, col.max() + 2):
                expect = int((col >= v).sum())
                assert meta.geq_at(dim, v)[_row(meta, cid)] == expect, (cid, dim, v)

    @pytest.mark.parametrize("dim", DIMS)
    def test_rgeq_monotone_decreasing(self, clustered, meta, dim):
        """Non-increasing in v, and strictly decreasing across every value
        the cluster holds (each distinct value holds at least one row)."""
        pdf, _ = clustered
        m = meta.geq[dim]
        assert (np.diff(m, axis=1) <= 0).all()
        for cid, cluster in pdf.groupby("cluster_id"):
            values = np.unique(cluster[dim].to_numpy())
            steps = m[_row(meta, cid), values] - m[_row(meta, cid), values + 1]
            assert (steps > 0).all(), "R^{d>=} must strictly decrease at each value"

    def test_lookup_between_stored_values(self, clustered, meta):
        """Step-function semantics at integers inside and outside the domain."""
        pdf, _ = clustered
        cid = int(pdf["cluster_id"].iloc[0])
        cluster = pdf[pdf["cluster_id"] == cid]
        for x in [-5, 0, 17, 33, 200]:
            expect = (cluster["age"] >= x).sum()
            assert meta.geq_at("age", x)[_row(meta, cid)] == expect, x

    def test_lookup_beyond_max_is_zero(self, clustered, meta):
        pdf, _ = clustered
        cid = int(pdf["cluster_id"].iloc[0])
        assert meta.geq_at("age", 10_000)[_row(meta, cid)] / meta.S == 0.0

    def test_lookup_at_or_below_min_is_full(self, clustered, meta):
        pdf, _ = clustered
        cid = int(pdf["cluster_id"].iloc[0])
        n = int((pdf["cluster_id"] == cid).sum())
        lo = int(pdf.loc[pdf["cluster_id"] == cid, "age"].min())
        for x in (-(10**9), lo):
            assert meta.geq_at("age", x)[_row(meta, cid)] / meta.S == pytest.approx(n / 80.0)

    def test_unknown_dimension_named(self, meta):
        with pytest.raises(ValueError, match="'salary'"):
            meta.geq_at("salary", 3)


class TestMinMax:
    @pytest.mark.parametrize("dim", DIMS)
    def test_minmax_match_brute_force(self, clustered, meta, dim):
        """The envelope read off the counts: v_max is the last v with a row
        >= v, v_min the first v whose count falls below n_rows."""
        pdf, _ = clustered
        m = meta.geq[dim]
        n = m[:, :1]
        vmax = (m > 0).sum(axis=1) - 1
        vmin = (m == n).sum(axis=1) - 1
        brute = pdf.groupby("cluster_id")[dim].agg(["min", "max"])
        for cid in brute.index:
            assert vmin[_row(meta, cid)] == brute.loc[cid, "min"]
            assert vmax[_row(meta, cid)] == brute.loc[cid, "max"]


class TestFootprint:
    def test_size_bytes_positive_and_small(self, clustered, meta):
        """Metadata must be a tiny fraction of the table (paper: KB/cluster)."""
        pdf, _ = clustered
        table_bytes = pdf.memory_usage(index=False).sum()
        assert 0 < meta.size_bytes() < table_bytes
        assert meta.size_bytes() == sum(meta.geq[d].nbytes for d in DIMS)

    def test_cluster_ids_sorted(self, meta):
        ids = meta.cluster_ids
        assert (np.diff(ids) > 0).all()
