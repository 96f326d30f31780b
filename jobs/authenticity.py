"""Reproduce Fig 5 (authenticity-based HAC) + geo validation and the
per-cuisine most/least authentic ingredient fingerprints.

    spark-submit jobs/authenticity.py [--scale 1.0] [--seed 0]
"""
from __future__ import annotations

from _common import base_parser, build_session

from repro.authenticity.prevalence import top_authentic_items
from repro.cluster.hac import ascii_dendrogram
from repro.core.authenticity import authenticity_clustering
from repro.recipedb.generator import recipes
from repro.recipedb.vocab import REGIONS


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-authenticity")
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    res = authenticity_clustering(df)
    print("=== geographic validation (Fig 5 vs Fig 6) ===")
    print(res.geo_scores.to_string(index=False))
    print("probes:", res.probes)
    print("\n=== HAC dendrogram, authenticity of ingredients ===")
    print(ascii_dendrogram(res.tree, REGIONS))
    print("newick:", res.newick)
    print("\n=== top authentic ingredients per cuisine ===")
    tops = top_authentic_items(res.matrix, res.items, REGIONS, k=3)
    print(tops[tops["side"] == "most"].to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
