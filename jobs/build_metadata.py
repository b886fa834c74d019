"""spark-submit entrypoint: run the offline phase (Algorithm 1) and report
metadata footprint per provider — the paper's §6.1 "Metadata space
allocation" numbers. The last line is the federation's row of
``benchmark_results/metadata_space.md``.

Example:
    spark-submit jobs/build_metadata.py --dataset amazon --sf 0.1
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from jobs.run_query import DATASETS, build

TABLE_HEADER = (
    "| dataset | sf | clusters | S | metadata_mb | kb_per_cluster |\n"
    "|---|---|---|---|---|---|"
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", choices=DATASETS, default="adult")
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--n-providers", type=int, default=4)
    ap.add_argument("--n-min", type=int, default=10)
    args = ap.parse_args()

    spark = SparkSession.builder.appName("repro-build-metadata").getOrCreate()
    fed = build(spark, args.dataset, args.sf, args.n_providers, args.n_min)
    total = clusters = 0
    for p in fed.providers:
        b = p.meta.size_bytes()
        total += b
        clusters += p.meta.n_clusters
        print(
            f"{p.name}: clusters={p.meta.n_clusters} S={p.S} "
            f"metadata={b / 1024:.1f} KB ({b / 1024 / p.meta.n_clusters:.1f} KB/cluster)"
        )
    print(TABLE_HEADER)
    print(
        f"| {args.dataset}-lite | {args.sf:g} | {clusters} | {fed.S} "
        f"| {round(total / 1024**2, 3)} | {round(total / 1024 / clusters, 3)} |"
    )
    spark.stop()


if __name__ == "__main__":
    main()
