"""Reproduce Figs 2–4 (pattern-based HAC, three metrics) + geo validation.

    spark-submit jobs/fihc.py [--scale 1.0] [--seed 0] [--min-support 0.2]
"""
from __future__ import annotations

from _common import base_parser, build_session

from repro.cluster.hac import ascii_dendrogram
from repro.core.fihc import fihc
from repro.recipedb.generator import recipes
from repro.recipedb.vocab import REGIONS


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-fihc")
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    res = fihc(df, min_support=args.min_support)
    print("=== geographic validation (Figs 2-4 vs Fig 6) ===")
    print(res.geo_scores.to_string(index=False))
    for metric, Z in res.trees.items():
        print(f"\n=== HAC dendrogram, {metric} distance ===")
        print(ascii_dendrogram(Z, REGIONS))
        print("probes:", res.probes[metric])
        print("newick:", res.newicks[metric])
    spark.stop()


if __name__ == "__main__":
    main()
