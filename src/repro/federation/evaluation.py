"""Local query-evaluation backends for a data provider.

The protocol math (metadata lookups, DP, sampling, estimation) is identical
regardless of how ``Q(C)`` is physically computed. Two backends:

* :class:`SparkEvaluator` — the production path: Spark filter + groupBy
  aggregation over the provider's cluster-pruned parquet
  :class:`~repro.clusterstore.store.ClusterStore`. Q(C) reads only the
  sampled clusters' directories; the exact path scans the whole store.
* :class:`PandasEvaluator` — a driver-side mirror over the same store,
  read into pandas by Arrow, numerically identical (tests assert it). The
  Table-1 attack answers through it, as it issues ~10^4 point queries per
  cell and one Spark job per query would take days; the *protocol* stays
  exactly the same. Its exact path sums under one row mask and copies no
  rows, so the mirror's ``Aggregator.exact`` is also Table 1's non-private
  ceiling.
"""
from __future__ import annotations

from typing import Protocol

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.clusterstore.store import ClusterStore
from repro.core.query import COUNT, RangeQuery


class Evaluator(Protocol):
    """Computes exact local aggregates for a provider's partition."""

    def total(self, query: RangeQuery) -> float:
        """Exact local answer over the whole partition."""

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        """Q(C) for each requested cluster (missing -> absent/0)."""


class SparkEvaluator:
    """Evaluate via Spark jobs over a provider's parquet cluster store,
    pruning I/O to the sampled clusters."""

    def __init__(self, store: ClusterStore, spark: SparkSession) -> None:
        self.store = store
        self.spark = spark

    def total(self, query: RangeQuery) -> float:
        return query.evaluate(self.store.read_all(self.spark))

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        frame = self.store.read_clusters(self.spark, np.unique(cluster_ids))
        return query.evaluate_per_cluster(frame)


class PandasEvaluator:
    """Numerically identical driver-side evaluation over a pandas frame."""

    def __init__(self, pdf: pd.DataFrame) -> None:
        if "cluster_id" not in pdf.columns:
            raise ValueError("provider frame must carry cluster_id")
        self.pdf = pdf

    def total(self, query: RangeQuery) -> float:
        mask = query.mask(self.pdf)
        if query.agg == COUNT:
            return float(mask.sum())
        return float(self.pdf["measure"].to_numpy()[mask].sum())

    def per_cluster(self, query: RangeQuery, cluster_ids: np.ndarray) -> dict[int, float]:
        wanted = set(int(c) for c in np.asarray(cluster_ids).tolist())
        sub = self.pdf[query.mask(self.pdf)]
        sub = sub[sub["cluster_id"].isin(wanted)]
        if query.agg == COUNT:
            series = sub.groupby("cluster_id").size()
        else:
            series = sub.groupby("cluster_id")["measure"].sum()
        return {int(c): float(v) for c, v in series.items()}
