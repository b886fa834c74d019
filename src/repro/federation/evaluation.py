"""Pluggable local query-evaluation backends for a data provider.

The protocol math (metadata lookups, DP, sampling, estimation) is identical
regardless of how ``Q(C)`` is physically computed. Two backends:

* :class:`SparkEvaluator` — the production path: Spark DataFrame filter +
  groupBy aggregation, optionally against a cluster-pruned parquet
  :class:`~repro.clusterstore.store.ClusterStore`.
* :class:`PandasEvaluator` — a driver-side mirror over the provider's
  collected partition, numerically identical (tests assert it). Used by the
  Table-1 attack harness, which issues ~10^4 point queries — one Spark job
  per query would take days; the *protocol* stays exactly the same.
"""
from __future__ import annotations

from typing import Protocol

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.clusterstore.store import ClusterStore
from repro.core.query import COUNT, RangeQuery


class Evaluator(Protocol):
    """Computes exact local aggregates for a provider's partition."""

    def total(self, query: RangeQuery) -> float:
        """Exact local answer over the whole partition."""

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        """Q(C) for each requested cluster (missing -> absent/0)."""


class SparkEvaluator:
    """Evaluate via Spark jobs; prunes I/O to sampled clusters when backed
    by a partitioned parquet store."""

    def __init__(self, df: DataFrame, store: ClusterStore | None = None) -> None:
        self.df = df
        self.store = store

    @property
    def _spark(self) -> SparkSession:
        return self.df.sparkSession

    def _frame(self, cluster_ids: np.ndarray | None) -> DataFrame:
        if self.store is not None:
            if cluster_ids is None:
                return self.store.read_all(self._spark)
            return self.store.read_clusters(self._spark, np.unique(cluster_ids))
        if cluster_ids is None:
            return self.df
        ids = [int(c) for c in np.unique(cluster_ids)]
        return self.df.filter(F.col("cluster_id").isin(ids))

    def total(self, query: RangeQuery) -> float:
        return query.evaluate(self._frame(None))

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        return query.evaluate_per_cluster(self._frame(cluster_ids))


class PandasEvaluator:
    """Numerically identical driver-side evaluation over a pandas frame."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        if "cluster_id" not in pdf.columns:
            raise ValueError("provider frame must carry cluster_id")
        self.pdf = pdf

    def total(self, query: RangeQuery) -> float:
        sub = self.pdf[query.mask(self.pdf)]
        return float(len(sub)) if query.agg == COUNT else float(sub["measure"].sum())

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        wanted = set(int(c) for c in np.asarray(cluster_ids).tolist())
        sub = self.pdf[query.mask(self.pdf)]
        sub = sub[sub["cluster_id"].isin(wanted)]
        if query.agg == COUNT:
            series = sub.groupby("cluster_id").size()
        else:
            series = sub.groupby("cluster_id")["measure"].sum()
        return {int(c): float(v) for c, v in series.items()}
