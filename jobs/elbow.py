"""Reproduce Fig 1 (K-means elbow analysis, WCSS vs k).

    spark-submit jobs/elbow.py [--scale 1.0] [--seed 0] [--min-support 0.2]
"""
from __future__ import annotations

from _common import base_parser, build_session

from repro.core.elbow import elbow
from repro.recipedb.generator import recipes


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-elbow")
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    res = elbow(df, min_support=args.min_support)
    print("=== WCSS curve (Fig 1 data) ===")
    print(res.curve.to_string(index=False))
    print(
        f"knee_strength={res.knee_strength} at k={res.knee_k}; "
        f"sharp elbow: {res.has_sharp_elbow} "
        "(paper: elbow method fails to determine k)"
    )
    spark.stop()


if __name__ == "__main__":
    main()
