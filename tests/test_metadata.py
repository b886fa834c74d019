"""Tests for Algorithm 1 (offline cluster metadata) against brute force."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.metadata import ProviderMetadata, build_metadata
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


def reference_build_metadata(df, *, dims: list[str], S: int) -> ProviderMetadata:
    """Algorithm 1 as a union of one ``groupBy(cluster_id, value)`` per
    dimension: the table is scanned once per dimension. The one-scan build
    must give bit-identical metadata."""
    stacked = None
    for i, d in enumerate(dims):
        part = (
            df.groupBy("cluster_id", F.col(d).alias("value"))
            .count()
            .withColumn("dim", F.lit(i))
        )
        stacked = part if stacked is None else stacked.unionByName(part)
    counts = stacked.toPandas()

    cluster = counts["cluster_id"].to_numpy(dtype="int64")
    cluster_ids = np.unique(cluster)
    rows = np.searchsorted(cluster_ids, cluster)
    dim_of = counts["dim"].to_numpy()
    value = counts["value"].to_numpy(dtype="float64")
    cnt = counts["count"].to_numpy(dtype="int64")
    geq: dict[str, np.ndarray] = {}
    for i, d in enumerate(dims):
        sel = dim_of == i
        v = value[sel]
        assert ((v >= 0) & (v == np.floor(v))).all()
        v = v.astype("int64")
        hist = np.zeros((len(cluster_ids), int(v.max(initial=-1)) + 2), dtype="int32")
        hist[rows[sel], v] = cnt[sel]
        geq[d] = np.ascontiguousarray(hist[:, ::-1].cumsum(axis=1, dtype="int32")[:, ::-1])
    return ProviderMetadata(S=int(S), dims=list(dims), cluster_ids=cluster_ids, geq=geq)


def assert_bit_identical(got: ProviderMetadata, want: ProviderMetadata) -> None:
    """Same S, dims, cluster ids and count matrices: values and dtypes."""
    assert (got.S, got.dims) == (want.S, want.dims)
    assert got.cluster_ids.dtype == want.cluster_ids.dtype
    np.testing.assert_array_equal(got.cluster_ids, want.cluster_ids)
    assert set(got.geq) == set(want.geq)
    for d in want.dims:
        assert got.geq[d].dtype == want.geq[d].dtype == np.int32, d
        assert got.geq[d].shape == want.geq[d].shape, d
        np.testing.assert_array_equal(got.geq[d], want.geq[d], err_msg=d)


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


class TestOneScanMatchesReference:
    @pytest.mark.parametrize("fed", ["adult_fed", "amazon_fed"])
    def test_fixture_federations(self, request, spark, fed):
        """Every provider's metadata equals the union-of-groupBys build over
        the same store."""
        for p in request.getfixturevalue(fed).providers:
            want = reference_build_metadata(
                p.evaluator.store.read_all(spark), dims=p.meta.dims, S=p.meta.S
            )
            assert_bit_identical(p.meta, want)

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),  # cluster_id
                st.integers(0, 9),  # a: integer column
                st.integers(0, 6),  # b: double column holding integer codes
                st.integers(0, 3),  # c: integer column
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_frames_with_a_double_dim(self, spark, rows):
        pdf = pd.DataFrame(rows, columns=["cluster_id", "a", "b", "c"])
        pdf["b"] = pdf["b"].astype("float64")
        sdf = spark.createDataFrame(pdf)
        dims = ["a", "b", "c"]
        assert_bit_identical(
            build_metadata(sdf, dims=dims, S=8),
            reference_build_metadata(sdf, dims=dims, S=8),
        )


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
