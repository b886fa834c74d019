"""Online proportion approximation and PPS probabilities (§5.2, Eq 1–2).

Given a query Q and a provider's offline metadata, this module computes:

* ``C^Q`` — clusters whose per-dimension [vmin, vmax] envelopes intersect
  every query range (Eq 2), read off two columns of each count matrix;
* ``R_j`` — the approximate proportion of rows of cluster j matching Q,
  ``R = prod_d (R^{d>=}(lb) - R^{d>=}(ub+1))`` under the paper's dimension-
  independence assumption (the paper writes R^{d>=}(u_b); we query the step
  function at ``ub + 1`` so the inclusive upper bound is counted, which is
  the intended [lb, ub] semantics);
* ``p_j = R_j / sum_i R_i`` — the unequal-probability (PPS) sampling weights
  (Eq 1).

Membership threshold: envelope intersection (Eq 2) over-approximates — a
cluster can straddle every range yet hold ~no matching rows, making its
R (and hence p) vanishingly small. Sampling such a cluster is useless for
the estimate but catastrophic for the smooth sensitivity (the scenario-4
LS slope is 1/p, Appendix B.2). Eq 2's stated intent is the clusters "that
actually contain rows matching Q", so ``proportions`` keeps only clusters
whose approximated R is at least 1/S — one expected row. A
cluster below that contributes < 1 row to the answer and is treated as not
covering Q.

:meth:`repro.federation.provider.DataProvider.prepare` is the one caller:
it takes the envelope, applies the threshold and decides the query path on
the result, and every other consumer reads that decision.
"""
from __future__ import annotations

import numpy as np

from repro.core.metadata import ProviderMetadata
from repro.core.query import RangeQuery


def clusters_for_query(meta: ProviderMetadata, query: RangeQuery) -> np.ndarray:
    """Eq 2 envelope test: ids of clusters overlapping every range, sorted.

    A cluster overlaps [lb, ub] on d when it has a row with d >= lb
    (v_max >= lb) and a row with d < ub + 1 (v_min <= ub)."""
    mask = np.ones(meta.n_clusters, dtype=bool)
    for d, (lb, ub) in query.ranges.items():
        mask &= (meta.geq_at(d, lb) > 0) & (meta.geq_at(d, ub + 1) < meta.n_rows)
    return meta.cluster_ids[mask]


def raw_proportions(
    meta: ProviderMetadata, query: RangeQuery, cluster_ids: np.ndarray
) -> np.ndarray:
    """Approximate R for given clusters — no membership threshold applied."""
    rows = np.searchsorted(meta.cluster_ids, cluster_ids)
    r = np.ones(len(cluster_ids), dtype="float64")
    for d, (lb, ub) in query.ranges.items():
        rd = meta.geq_at(d, lb)[rows] / meta.S - meta.geq_at(d, ub + 1)[rows] / meta.S
        r *= np.maximum(rd, 0.0)
    return r


def proportions(
    meta: ProviderMetadata, query: RangeQuery, cluster_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """C^Q: the envelope clusters ``cluster_ids`` whose approximated R is at
    least 1/S, with those proportions.

    Returns ``(cluster_ids, R)`` aligned arrays (possibly empty). Metadata
    lookups are two column reads per query dimension — no data scan, which
    is the point of §5.2. A query with no ranges has R = 1 everywhere, so
    it keeps every cluster.
    """
    r = raw_proportions(meta, query, cluster_ids)
    keep = r >= 1.0 / meta.S
    return cluster_ids[keep], r[keep]


def sampling_probabilities(r: np.ndarray) -> np.ndarray:
    """Eq 1: p_j = R_j / sum_i R_i."""
    total = float(r.sum())
    if total <= 0:
        raise ValueError("all proportions are zero; C^Q should be empty instead")
    return r / total
