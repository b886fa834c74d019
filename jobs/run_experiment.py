"""spark-submit entrypoint: regenerate paper artifacts from the experiment
registry (``repro.experiments.ARTIFACTS``).

Each NAME runs exactly as its benchmark does and writes the same
``benchmark_results/<file>.md``; ``tools/assemble_experiments.py`` then copies
it into EXPERIMENTS.md.

Example:
    spark-submit jobs/run_experiment.py fig1 metadata_space
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.experiments import ARTIFACTS, run_experiments


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("names", nargs="+", choices=list(ARTIFACTS), metavar="NAME")
    args = ap.parse_args()

    spark = (
        SparkSession.builder.appName("repro-experiments")
        # Spark -> pandas collection of the Algorithm 1 counts
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    try:
        run_experiments(spark, args.names)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
