"""Reproduce Table I (per-cuisine significant patterns).

    spark-submit jobs/table1.py [--scale 1.0] [--seed 0] [--min-support 0.2]
"""
from __future__ import annotations

from _common import base_parser, build_session

from repro.core.table1 import format_table1, table1
from repro.recipedb.generator import recipes


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-table1")
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    t1 = table1(df, min_support=args.min_support)
    print(t1.to_string(index=False))
    print()
    print(format_table1(t1))
    spark.stop()


if __name__ == "__main__":
    main()
