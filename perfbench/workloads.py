"""Benchmark workloads: one federation layout and seeded query streams.

Queries are generated here from the benchmark's seed using only
``RangeQuery``; no query is filtered by the path the protocol will take.
Every workload queries the same federation: the program's adult-lite
tensor at a fixed data seed, split over ``N_PROVIDERS`` providers, each
persisted as a parquet ``ClusterStore``.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

#: Seed of the adult-lite tensor (the generator's default).
DATA_SEED = 7
#: Seed of the fixed accuracy panel answered during set-up (warm-up).
PANEL_SEED = 20250
#: Seed used for the numbers recorded in perfbench/README.md.
DEFAULT_SEED = 1
#: Seed kept out of development, for confirming a claimed gain.
HELD_OUT_SEED = 7919

SF = 0.005  # adult-lite scale factor: 20k tensor rows
CLUSTER_FRAC = 0.02  # S as a fraction of one provider's rows: 50 clusters each
N_PROVIDERS = 2
N_MIN = 10
SAMPLING_RATE = 0.1
PANEL_SIZE = 3  # accuracy-panel range queries answered during set-up
PANEL_EXACT = 1  # of which also run through Aggregator.exact


@dataclass(frozen=True)
class Request:
    query: object  # repro.core.query.RangeQuery
    use_smc: bool
    eps: float
    delta: float


def interactive_range(seed: int, dims: dict[str, int]) -> Iterator[Request]:
    """Random ranges over 4 of the 9 dims, each >= 30% of its domain.

    Query i is COUNT when i is even and SUM otherwise; it is released with
    SMC when (i // 2) is odd, so the four (agg, release) pairs alternate.
    """
    from repro.core.query import COUNT, SUM, RangeQuery

    rng = np.random.default_rng([seed, 0])
    names = list(dims)
    i = 0
    while True:
        ranges = {}
        for j in sorted(rng.choice(len(names), size=4, replace=False)):
            dom = dims[names[j]]
            width = int(rng.integers(math.ceil(0.3 * dom), dom + 1))
            lb = int(rng.integers(0, dom - width + 1))
            ranges[names[j]] = (lb, lb + width - 1)
        agg = COUNT if i % 2 == 0 else SUM
        yield Request(RangeQuery(agg, ranges), (i // 2) % 2 == 1, 1.0, 1e-3)
        i += 1


#: §6.6 attack: sensitive attribute and quasi-identifiers (Table 1 bench).
ATTACK_SA = "capgain"
ATTACK_QI = ("education", "workclass", "relationship")
ATTACK_XI = 20.0
ATTACK_PSI = 1e-6


def attack_point(seed: int, dims: dict[str, int]) -> Iterator[Request]:
    """A seeded random order over the NBC attack's point queries.

    The population is the attack's 1 + |SA| + |SA|·Σ|QI| queries: the
    table size, SA alone, and SA ∧ one QI value. Query i is COUNT when i is
    even and SUM otherwise; each spends the sequential per-query budget
    ε = ξ/nQ, δ = ψ/nQ with ξ = 20, ψ = 1e-6.
    """
    from repro.core.query import COUNT, SUM, RangeQuery

    points: list[dict] = [{}]
    for y in range(dims[ATTACK_SA]):
        points.append({ATTACK_SA: (y, y)})
        for d in ATTACK_QI:
            points += [{ATTACK_SA: (y, y), d: (v, v)} for v in range(dims[d])]
    n_q = len(points)
    eps, delta = ATTACK_XI / n_q, ATTACK_PSI / n_q
    order = np.random.default_rng([seed, 0]).permutation(n_q)
    for i, k in enumerate(order.tolist()):
        agg = COUNT if i % 2 == 0 else SUM
        yield Request(RangeQuery(agg, points[k]), False, eps, delta)


WORKLOADS: dict[str, Callable[[int, dict[str, int]], Iterator[Request]]] = {
    # Paper's online query over pruned parquet: the approximate path.
    "interactive-range": interactive_range,
    # Table 1's bulk consumer: point queries, mostly on the exact path,
    # each a full scan of the provider's store.
    "attack-point-store": attack_point,
}
