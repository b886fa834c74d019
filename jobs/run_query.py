"""spark-submit entrypoint: answer one private approximate range query.

Example:
    spark-submit jobs/run_query.py --dataset adult --sf 0.01 \
        --agg COUNT --range age:10:50 --range education:2:12 \
        --sr 0.1 --eps 1.0 --smc
"""
from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.exact import exact_federated
from repro.core.query import RangeQuery
from repro.experiments import FEDERATIONS, build


def parse_range(spec: str) -> tuple[str, tuple[int, int]]:
    dim, lb, ub = spec.split(":")
    return dim, (int(lb), int(ub))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", choices=["adult", "amazon"], default="adult")
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--agg", choices=["COUNT", "SUM"], default="COUNT")
    ap.add_argument("--range", action="append", default=[], help="dim:lb:ub")
    ap.add_argument("--sr", type=float, default=0.1)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=1e-3)
    ap.add_argument("--n-providers", type=int, default=4)
    ap.add_argument("--n-min", type=int, default=10)
    ap.add_argument("--smc", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = replace(
        FEDERATIONS[args.dataset], sf=args.sf, n_providers=args.n_providers, n_min=args.n_min
    )
    query = RangeQuery(args.agg, dict(parse_range(r) for r in args.range))

    spark = SparkSession.builder.appName("repro-run-query").getOrCreate()
    with tempfile.TemporaryDirectory(prefix="repro_store_") as store_root:
        fed = build(spark, spec, store_root)
        exact = exact_federated(fed.aggregator, query)
        ans = fed.aggregator.answer(
            query,
            sampling_rate=args.sr,
            eps=args.eps,
            delta=args.delta,
            rng=np.random.default_rng(args.seed),
            use_smc=args.smc,
        )
    rel = abs(ans.value - exact.value) / max(abs(exact.value), 1.0)
    print(f"query            : {query.agg} WHERE {query.where_sql()}")
    print(f"exact answer     : {exact.value:.1f}  ({exact.seconds:.3f}s)")
    print(f"private answer   : {ans.value:.1f}  ({ans.seconds:.3f}s)")
    print(f"relative error   : {rel:.4f}")
    print(f"speed-up         : {exact.seconds / max(ans.seconds, 1e-9):.2f}x")
    print(f"allocations      : {ans.allocations.tolist()}  (smc={ans.used_smc})")
    spark.stop()


if __name__ == "__main__":
    main()
