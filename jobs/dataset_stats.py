"""Reproduce the Section-III dataset statistics.

    spark-submit jobs/dataset_stats.py [--scale 1.0] [--seed 0]
"""
from __future__ import annotations

from _common import base_parser, build_session

from repro.recipedb.generator import recipes
from repro.recipedb.stats import dataset_summary, region_counts


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-stats")
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    print("=== dataset summary (paper Section III) ===")
    print(dataset_summary(df).to_string(index=False))
    print("\n=== recipes per region (Table I col 2) ===")
    print(region_counts(df).orderBy("region").toPandas().to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
