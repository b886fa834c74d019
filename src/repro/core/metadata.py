"""Offline cluster metadata construction (Algorithm 1) as a Spark job.

Every dimension is integer-coded over a small domain ``[0, max_d]``, so the
metadata of one provider is one dense count matrix per dimension:
``geq[d][j, v]`` is the number of rows of cluster ``j`` whose value of ``d``
is ``>= v``, for ``v`` in ``0 .. max_d + 1`` (the last column is 0). It holds
both things the online phase needs:

* the step function ``R^{d>=}(v) = geq[d][j, v] / S`` (Algorithm 1);
* the ``[v_min^d, v_max^d]`` envelope used for pruning (Eq 2):
  ``v_max >= lb  <=>  geq[d][j, lb] > 0`` and
  ``v_min <= ub  <=>  geq[d][j, ub + 1] < n_rows[j]``.

One Spark job, over a single scan of the provider table, counts rows per
(cluster, dimension, value): each row is exploded into one ``(dim, value)``
pair per dimension with ``posexplode`` and the pairs are grouped once. The
driver scatters the counts and takes a reverse cumulative sum along the
value axis. The paper stores this as small per-cluster meta files (~tens of
KB per cluster), so driver-side numpy lookup is the faithful analogue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class ProviderMetadata:
    """In-memory metadata for one data provider.

    Attributes:
        S: agreed maximum cluster size (denominator of every R^{d>=}).
        dims: dimensions covered by the metadata.
        cluster_ids: ids of the provider's clusters, ascending; row ``j`` of
            every count matrix belongs to ``cluster_ids[j]``.
        geq: dim -> int32 matrix of shape ``(n_clusters, max_d + 2)`` whose
            entry ``[j, v]`` counts the rows of cluster j with dim >= v.
    """

    S: int
    dims: list[str]
    cluster_ids: np.ndarray
    geq: dict[str, np.ndarray]

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_rows(self) -> np.ndarray:
        """Row count of each cluster, aligned with ``cluster_ids``."""
        return self.geq[self.dims[0]][:, 0]

    def geq_at(self, dim: str, v: int) -> np.ndarray:
        """Column ``v`` of ``geq[dim]``: per cluster, the rows with dim >= v.

        ``v`` is clipped to ``[0, max_d + 1]``: below the domain every row
        counts, beyond it none does."""
        try:
            m = self.geq[dim]
        except KeyError:
            raise ValueError(
                f"dimension {dim!r} is not covered by the metadata (dims: {self.dims})"
            ) from None
        return m[:, min(max(int(v), 0), m.shape[1] - 1)]

    def size_bytes(self) -> int:
        """Metadata footprint: the count matrices (paper §6.1 reports it)."""
        return sum(m.nbytes for m in self.geq.values())


def build_metadata(df: DataFrame, *, dims: list[str], S: int) -> ProviderMetadata:
    """Run Algorithm 1 over a provider table (must carry ``cluster_id``).

    The values are cast to double so that dimensions of mixed types share
    the one exploded column. Dimension values must be non-negative
    integers, since the dense layout indexes by value.
    """
    if S <= 0:
        raise ValueError("cluster size S must be positive")
    values = F.array(*[F.col(d).cast("double") for d in dims])
    counts = (
        df.select("cluster_id", F.posexplode(values).alias("dim", "value"))
        .groupBy("cluster_id", "dim", "value")
        .count()
        .toPandas()
    )

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
        bad = ~(v >= 0) | (v != np.floor(v))  # also catches NaN (null values)
        if bad.any():
            raise ValueError(
                f"dimension {d!r} has value {v[bad][0]!r}; the metadata needs "
                "non-negative integer codes"
            )
        v = v.astype("int64")
        hist = np.zeros((len(cluster_ids), int(v.max(initial=-1)) + 2), dtype="int32")
        hist[rows[sel], v] = cnt[sel]
        geq[d] = np.ascontiguousarray(hist[:, ::-1].cumsum(axis=1, dtype="int32")[:, ::-1])
    return ProviderMetadata(S=int(S), dims=list(dims), cluster_ids=cluster_ids, geq=geq)
