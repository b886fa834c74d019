"""Data provider: local protocol steps (1, 2, 4, 5, 6 of Fig 3).

A provider owns a horizontally partitioned slice of the federated table
(accessed through an :class:`~repro.federation.evaluation.Evaluator` — Spark
over its parquet cluster store, or an identical pandas mirror for the bulk
attack harness), the offline metadata of Algorithm 1, which also fixes the
cluster size S and the covered dimensions, and its N^min threshold. DP
decisions are driver-side scalars; data-touching work is delegated to the
evaluator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import sensitivity as sens
from repro.core.estimator import hansen_hurwitz
from repro.core.metadata import ProviderMetadata
from repro.core.proportions import clusters_for_query, proportions, sampling_probabilities
from repro.core.query import RangeQuery
from repro.dp.mechanisms import (
    exponential_mechanism_sample,
    laplace_mechanism,
    laplace_noise,
)
from repro.federation.evaluation import Evaluator

#: Global sensitivity of COUNT(*) and SUM(measure) to one individual: both
#: change by exactly 1 when an individual is added (a new tensor row for
#: COUNT, +1 on a measure for SUM), per §3.
EXACT_QUERY_GS = 1.0


@dataclass
class QueryContext:
    """Per-query provider state computed once from metadata (step 1)."""

    query: RangeQuery
    cluster_ids: np.ndarray  # C^Q
    r: np.ndarray  # approximate proportions, aligned with cluster_ids
    exact_path: bool  # N^Q < N^min: regular execution instead of sampling

    @property
    def n_q(self) -> int:
        return len(self.cluster_ids)

    @property
    def sum_r(self) -> float:
        return float(self.r.sum())

    @property
    def avg_r(self) -> float:
        return float(self.r.mean()) if len(self.r) else 0.0


@dataclass
class Summary:
    """Noisy (Ñ^Q, Ãvg(R̂)) shared with the aggregator (step 2)."""

    noisy_n_q: float
    noisy_avg_r: float


@dataclass
class LocalResult:
    """A provider's local answer before release noise (step 6)."""

    estimate: float
    smooth_ls: float  # sensitivity used to calibrate the release noise
    exact_path: bool  # True when N^Q < N^min triggered regular execution
    sampled_clusters: np.ndarray


class DataProvider:
    """One member of the federation 𝕊."""

    def __init__(
        self,
        name: str,
        *,
        n_min: int,
        metadata: ProviderMetadata,
        evaluator: Evaluator,
    ) -> None:
        if n_min < 1:
            raise ValueError("N^min must be >= 1")
        self.name = name
        self.n_min = int(n_min)
        self.meta = metadata
        self.evaluator = evaluator

    # -- step 1: identify C^Q and approximate proportions from metadata ----
    def prepare(self, query: RangeQuery) -> QueryContext:
        """C^Q (Eq 2 envelope, then the R >= 1/S threshold), its proportions
        and the query path: exact when N^Q = |C^Q| < N^min. This is the one
        place C^Q and the path are decided. A ValueError names any query
        dimension the metadata does not cover."""
        ids, r = proportions(self.meta, query, clusters_for_query(self.meta, query))
        return QueryContext(query, ids, r, exact_path=len(ids) < self.n_min)

    # -- step 2: DP summaries for the allocation phase ---------------------
    def summarize(self, ctx: QueryContext, eps_o: float, rng: np.random.Generator) -> Summary:
        """Laplace-perturbed N^Q and Avg(R̂), each on ε^O/2 (Eq 5).

        A query with no ranges (full-table aggregate) has |D^Q| = 0; the
        sensitivity formulas need |D^Q| >= 1, and one added row can still
        change a proportion by at most Δ_R(S, 1), so clamp to 1."""
        d_avg = sens.delta_avg_r(self.meta.S, max(1, len(ctx.query.ranges)), self.n_min)
        return Summary(
            noisy_n_q=laplace_mechanism(ctx.n_q, 1.0, eps_o / 2.0, rng),
            noisy_avg_r=laplace_mechanism(ctx.avg_r, d_avg, eps_o / 2.0, rng),
        )

    # -- baselines / exact path --------------------------------------------
    def exact(self, query: RangeQuery) -> float:
        """Plain-text local answer over the full partition."""
        return self.evaluator.total(query)

    def exact_dp(self, query: RangeQuery) -> LocalResult:
        """Regular (non-approximated) execution — the N^Q < N^min path of
        step 4. Released later with Lap(GS/ε^E)."""
        return LocalResult(
            estimate=self.exact(query),
            smooth_ls=EXACT_QUERY_GS,
            exact_path=True,
            sampled_clusters=np.array([], dtype="int64"),
        )

    # -- steps 5 + 6: EM sampling, HH estimation, smooth sensitivity ------
    def approximate(
        self,
        ctx: QueryContext,
        s: int,
        eps_s: float,
        eps_e: float,
        delta: float,
        rng: np.random.Generator,
    ) -> LocalResult:
        """Sample s clusters with the Exponential Mechanism (Algorithm 2),
        estimate Q with Hansen–Hurwitz (Eq 3) and compute the averaged
        smooth local sensitivity (Algorithm 3, Eq 9/10)."""
        if ctx.n_q == 0:
            return LocalResult(0.0, 0.0, False, np.array([], dtype="int64"))
        s = int(np.clip(s, 1, max(1, ctx.n_q)))
        p = sampling_probabilities(ctx.r)
        sampled = exponential_mechanism_sample(
            ctx.cluster_ids, p, sens.delta_p(self.n_min), eps_s, s, rng
        )

        q_by_cluster = self.evaluator.per_cluster(ctx.query, sampled)
        idx = np.searchsorted(ctx.cluster_ids, sampled)
        q_draws = np.array([q_by_cluster.get(int(c), 0.0) for c in sampled])
        p_draws, r_draws = p[idx], ctx.r[idx]
        estimate = hansen_hurwitz(q_draws, p_draws)

        n_dims = max(1, len(ctx.query.ranges))
        s_ls = [
            sens.smooth_local_sensitivity(
                q_c=float(q),
                r=float(r),
                p=float(pp),
                sum_r=ctx.sum_r,
                S=self.meta.S,
                n_query_dims=n_dims,
                eps=eps_e,
                delta=delta,
            )
            for q, r, pp in zip(q_draws, r_draws, p_draws)
        ]
        return LocalResult(
            estimate=estimate,
            smooth_ls=float(np.mean(s_ls)),
            exact_path=False,
            sampled_clusters=sampled,
        )

    def release(self, result: LocalResult, eps_e: float, rng: np.random.Generator) -> float:
        """Per-provider Laplace release (non-SMC path, Algorithm 3 line 10):
        smooth-sensitivity noise Lap(2·S_LS/ε^E), or Lap(GS/ε^E) on the
        exact path (pure-DP Laplace mechanism)."""
        if result.exact_path:
            return result.estimate + laplace_noise(EXACT_QUERY_GS, eps_e, rng)
        return result.estimate + laplace_noise(2.0 * result.smooth_ls, eps_e, rng)
