"""Random range-query workload generation (§6.1 "Queries and Workloads").

A workload (m, n) is m distinct random range queries over n dimensions.
Like the paper, only queries that trigger the approximation on all data
providers are kept: each provider's own step 1
(:meth:`~repro.federation.provider.DataProvider.prepare`) decides the path,
and generation rejects and retries until m qualifying queries are found.
"""
from __future__ import annotations

import numpy as np

from repro.core.query import COUNT, RangeQuery
from repro.federation.provider import DataProvider


def random_query(
    dims: dict[str, int],
    *,
    n_dims: int,
    agg: str = COUNT,
    rng: np.random.Generator,
    min_width_frac: float = 0.1,
) -> RangeQuery:
    """One random conjunctive range query over ``n_dims`` sampled dimensions.

    Bounds are uniform over each chosen domain with a minimum width of
    ``min_width_frac`` of the domain (degenerate all-empty ranges would
    never pass the N^min filter anyway, this just speeds up generation).
    """
    if not (1 <= n_dims <= len(dims)):
        raise ValueError(f"n_dims must be in [1, {len(dims)}]")
    names = list(dims)
    chosen = rng.choice(len(names), size=n_dims, replace=False)
    ranges: dict[str, tuple[int, int]] = {}
    for i in chosen:
        d, dom = names[i], dims[names[i]]
        width = max(1, int(min_width_frac * dom))
        lb = int(rng.integers(0, max(1, dom - width)))
        ub = int(rng.integers(lb + width - 1, dom))
        ranges[d] = (lb, min(ub, dom - 1))
    return RangeQuery(agg, ranges)


def qualifying_workload(
    dims: dict[str, int],
    providers: list[DataProvider],
    *,
    m: int,
    n_dims: int,
    agg: str = COUNT,
    seed: int = 0,
    max_tries: int = 10_000,
    min_width_frac: float = 0.1,
) -> list[RangeQuery]:
    """m distinct queries that take the approximate path on every provider
    (§6.1)."""
    rng = np.random.default_rng(seed)
    out: list[RangeQuery] = []
    seen: set[tuple] = set()
    tries = 0
    while len(out) < m and tries < max_tries:
        tries += 1
        q = random_query(
            dims, n_dims=n_dims, agg=agg, rng=rng, min_width_frac=min_width_frac
        )
        key = tuple(sorted(q.ranges.items()))
        if key in seen:
            continue
        if not any(p.prepare(q).exact_path for p in providers):
            seen.add(key)
            out.append(q)
    if len(out) < m:
        raise RuntimeError(
            f"could only generate {len(out)}/{m} qualifying queries in {max_tries} tries"
        )
    return out
