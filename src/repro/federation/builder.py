"""Federation construction helpers: pandas tensor -> providers + aggregator.

Encapsulates the experiment setup used throughout the evaluation: partition
a count tensor horizontally across ``n_providers``, assign value-local
clusters of the agreed size S per provider, persist each provider to a
cluster-pruned parquet store, and run the offline metadata build
(Algorithm 1) over that store.

The clusters are assigned on the driver first, provider by provider, so
every random draw happens in a fixed order. The providers are then built
concurrently, one thread each: every provider writes its own store and
runs its own metadata job over it, as a separate party would. Once built,
the store is the only copy of a provider's rows, and the :class:`Federation`
keeps only the aggregator: S and the row counts are in each provider's
metadata.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.clusterstore.store import ClusterStore
from repro.core.metadata import build_metadata
from repro.federation.aggregator import Aggregator
from repro.federation.evaluation import PandasEvaluator, SparkEvaluator
from repro.federation.provider import DataProvider
from repro.synth_data import assign_clusters, partition_providers


@dataclass
class Federation:
    """A ready-to-query federated environment: the aggregator over its
    providers, and no copy of their rows."""

    aggregator: Aggregator

    @property
    def providers(self) -> list[DataProvider]:
        return self.aggregator.providers

    def with_pandas_evaluators(self) -> "Federation":
        """Clone with driver-side evaluators over each provider's store
        (identical math, no Spark jobs per query) — used by bulk harnesses
        like the Table-1 attack."""
        providers = [
            DataProvider(
                p.name,
                n_min=p.n_min,
                metadata=p.meta,
                evaluator=PandasEvaluator(p.evaluator.store.read_pandas()),
            )
            for p in self.providers
        ]
        return Federation(Aggregator(providers))


def build_federation(
    spark: SparkSession,
    tensor: pd.DataFrame,
    *,
    dims: list[str],
    store_root: str,
    n_providers: int = 4,
    cluster_frac: float = 0.01,
    n_min: int = 10,
    partition_mode: str = "contiguous",
    seed: int = 0,
) -> Federation:
    """Build a federation from a count tensor.

    ``cluster_frac`` sets the agreed cluster size S as a fraction of one
    provider's rows (the paper uses 1% for Adult, 0.5% for Amazon Review).
    Each provider is persisted as a partitioned parquet :class:`ClusterStore`
    under ``store_root``, so approximate queries do pruned I/O. Rows are
    partitioned and clustered in the order of the first dimension, ``dims[0]``:
    each provider holds a contiguous slice of that (jittered) order. The only
    ``partition_mode`` is ``"contiguous"``; every provider must hold a row.
    """
    if partition_mode != "contiguous":
        raise ValueError(f"unknown partition mode: {partition_mode}")
    if not 1 <= n_providers <= len(tensor):
        raise ValueError(
            f"n_providers must be between 1 and the tensor's {len(tensor)} rows, "
            f"got {n_providers}"
        )
    sort_dim = dims[0]
    parts = partition_providers(tensor, n_providers=n_providers, sort_dim=sort_dim, seed=seed)
    S = max(2, int(round(cluster_frac * len(parts[0]))))
    local_frames = [
        assign_clusters(tensor.iloc[rows], cluster_size=S, sort_dim=sort_dim, seed=seed + i)
        for i, rows in enumerate(parts)
    ]

    def build_provider(i: int) -> DataProvider:
        store = ClusterStore.write(local_frames[i], os.path.join(store_root, f"provider_{i}"))
        meta = build_metadata(store.read_all(spark), dims=dims, S=S)
        return DataProvider(
            f"provider_{i}",
            n_min=n_min,
            metadata=meta,
            evaluator=SparkEvaluator(store, spark),
        )

    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        providers = list(pool.map(build_provider, range(len(parts))))
    return Federation(Aggregator(providers))
