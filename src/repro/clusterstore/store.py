"""Cluster-granular storage over the local filesystem.

The paper assumes tables are stored as fixed-size clusters (pages/HDFS
blocks) and that sampling s of N clusters reads only s clusters' worth of
I/O. We reproduce that with parquet partitioned by ``cluster_id``: a filter
on ``cluster_id`` is satisfied by Catalyst partition-directory pruning, so
an approximate query physically touches only the sampled clusters while the
exact baseline scans every directory.

Arrow writes the store straight from the provider's pandas frame, one
``cluster_id=<id>/`` directory per cluster, and Spark reads it. Spark infers
``cluster_id`` from the directory names; every column in the files is a long.
"""
from __future__ import annotations

import os
import shutil
from collections.abc import Iterable

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class ClusterStore:
    """A provider table persisted as one parquet directory per cluster."""

    def __init__(self, path: str) -> None:
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no cluster store at {path}")
        self.path = path
        self._df: DataFrame | None = None  # memoized scan plan (file index)

    @classmethod
    def write(cls, pdf: pd.DataFrame, path: str) -> "ClusterStore":
        """Persist a provider table (must carry ``cluster_id``), replacing
        any store at ``path``. Arrow writes it on the driver: no Spark job."""
        shutil.rmtree(path, ignore_errors=True)
        # Without the pandas schema note, which every cluster's file footer
        # would repeat (~2.5 KB each); no reader of the store needs it.
        table = pa.Table.from_pandas(pdf, preserve_index=False).replace_schema_metadata(None)
        pq.write_to_dataset(table, path, partition_cols=["cluster_id"])
        return cls(path)

    def read_all(self, spark: SparkSession) -> DataFrame:
        """Full-table scan — the plain-text (exact) baseline's access path.

        The DataFrame (and with it the parquet file index + schema) is
        memoized so per-query cost is the scan itself, not re-listing the
        store; the data is NOT cached — every query pays real I/O.
        """
        if self._df is None:
            self._df = spark.read.parquet(self.path)
        return self._df

    def read_pandas(self) -> pd.DataFrame:
        """The whole table as a pandas frame, read by Arrow (no Spark job).

        Arrow reads ``cluster_id`` from the directory names as a categorical
        whose categories sort as strings, so it is cast back to int64."""
        pdf = pq.read_table(self.path).to_pandas()
        return pdf.astype({"cluster_id": "int64"})

    def read_clusters(self, spark: SparkSession, cluster_ids: Iterable[int]) -> DataFrame:
        """Scan only the given clusters (partition pruning does the skip)."""
        ids = [int(c) for c in cluster_ids]
        return self.read_all(spark).filter(F.col("cluster_id").isin(ids))

    def n_clusters(self) -> int:
        """Number of cluster directories on disk."""
        return sum(
            1 for e in os.listdir(self.path) if e.startswith("cluster_id=")
        )
