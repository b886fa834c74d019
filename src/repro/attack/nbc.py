"""Learning-based attack of §6.6 (Cormode's Naive-Bayes attack [13]).

The attacker issues COUNT(*) (or SUM(Measure)) point queries through the
private query interface to learn the NBC statistics

    ŷ = argmax_y P(y) · Π_i P(v_i | y) / P(v_i)

for a sensitive dimension ``SA`` given quasi-identifier dimensions ``QI``,
then predicts SA for every row the providers hold. The number of
queries is ``nQueries = 1 + |SA| + |SA|·Σ_d |QI_d|`` (table size, class
marginals, class-conditional counts). Budget modes follow the paper:
``sequential`` (ε = ξ/nQ), ``advanced`` (ε = ξ/(2√(2·nQ·ln(1/δ)))) and
``coalition`` (parallel composition — every colluding analyst spends the
full ξ on a single query). Any ``RangeQuery -> float`` answers the
workload: a private aggregator's released value, or ``Aggregator.exact`` for
the non-private ceiling.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.query import COUNT, RangeQuery
from repro.dp.accountant import advanced_eps, coalition_eps, sequential_eps

#: Noisy counts are clamped here before ratios/logs — negative or zero
#: Laplace-noised counts are meaningless as probabilities.
_COUNT_FLOOR = 0.5

AnswerFn = Callable[[RangeQuery], float]


@dataclass(frozen=True)
class AttackSpec:
    """Attack configuration: which dimension is sensitive, which identify."""

    sa_dim: str
    qi_dims: tuple[str, ...]
    domains: dict[str, int]  # dim -> domain size, for SA and all QI dims

    @property
    def sa_domain(self) -> int:
        return self.domains[self.sa_dim]

    @property
    def n_queries(self) -> int:
        """§6.6: 1 + ||SA|| + ||SA|| · Σ_d ||QI_d||."""
        return 1 + self.sa_domain + self.sa_domain * sum(
            self.domains[d] for d in self.qi_dims
        )


def per_query_eps(mode: str, xi: float, n_queries: int, psi: float) -> tuple[float, float]:
    """(ε, δ) available to each attack query under a composition mode."""
    delta = max(psi / n_queries, 1e-12)
    if mode == "sequential":
        return sequential_eps(xi, n_queries), delta
    if mode == "advanced":
        return advanced_eps(xi, n_queries, delta), delta
    if mode == "coalition":
        return coalition_eps(xi), delta
    raise ValueError(f"unknown composition mode: {mode}")


def _point(agg: str, **fixed: int) -> RangeQuery:
    return RangeQuery(agg, {d: (v, v) for d, v in fixed.items()})


@dataclass
class TrainedNBC:
    """Learned attack statistics, ready for vectorized prediction."""

    spec: AttackSpec
    log_prior: np.ndarray  # (|SA|,)
    log_lift: dict[str, np.ndarray]  # qi dim -> (|QI_d|, |SA|) log P(v|y)/P(v)

    def predict(self, rows: pd.DataFrame) -> np.ndarray:
        """ŷ per row via argmax of summed log scores."""
        scores = np.broadcast_to(
            self.log_prior, (len(rows), len(self.log_prior))
        ).copy()
        for d in self.spec.qi_dims:
            scores += self.log_lift[d][rows[d].to_numpy()]
        return scores.argmax(axis=1)

    def accuracy(self, rows: pd.DataFrame) -> float:
        """Fraction of rows whose SA value the classifier recovers."""
        preds = self.predict(rows)
        return float((preds == rows[self.spec.sa_dim].to_numpy()).mean())


def train_nbc(spec: AttackSpec, answer: AnswerFn, *, agg: str = COUNT) -> TrainedNBC:
    """Issue the full attack workload through ``answer`` and fit the NBC."""
    size = max(answer(RangeQuery(agg, {})), 1.0)

    sa_counts = np.array(
        [
            max(answer(_point(agg, **{spec.sa_dim: y})), _COUNT_FLOOR)
            for y in range(spec.sa_domain)
        ]
    )
    log_prior = np.log(sa_counts / size)

    log_lift: dict[str, np.ndarray] = {}
    for d in spec.qi_dims:
        joint = np.empty((spec.domains[d], spec.sa_domain))
        for y in range(spec.sa_domain):
            for v in range(spec.domains[d]):
                joint[v, y] = max(
                    answer(_point(agg, **{spec.sa_dim: y, d: v})),
                    _COUNT_FLOOR,
                )
        cond = joint / sa_counts[None, :]  # P(v | y)
        marg = joint.sum(axis=1, keepdims=True) / size  # P(v) from same counts
        log_lift[d] = np.log(cond) - np.log(np.maximum(marg, _COUNT_FLOOR / size))
    return TrainedNBC(spec=spec, log_prior=log_prior, log_lift=log_lift)

