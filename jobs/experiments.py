"""Run every reproduction harness at full scale and print all tables and
trees — the source of the measured numbers recorded in EXPERIMENTS.md.

    spark-submit jobs/experiments.py [--scale 1.0] [--seed 0]
"""
from __future__ import annotations

import time

from _common import base_parser, build_session

from repro.authenticity.prevalence import top_authentic_items
from repro.cluster.hac import ascii_dendrogram, cophenetic, to_newick
from repro.core.authenticity import authenticity_clustering
from repro.core.elbow import elbow
from repro.core.fihc import fihc
from repro.core.table1 import format_table1, table1
from repro.core.validate import cophenetic_correlation
from repro.geo.regions import geo_distances, geo_tree
from repro.mining.spark_fpm import mine_all_regions
from repro.recipedb.generator import recipes
from repro.recipedb.stats import dataset_summary
from repro.recipedb.vocab import REGIONS


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = build_session("repro-experiments")
    t0 = time.time()
    df = recipes(spark, scale=args.scale, seed=args.seed).cache()
    n = df.count()
    print(f"[gen] {n} recipes in {time.time()-t0:.0f}s (scale={args.scale})")

    print("\n########## T5: dataset statistics (Section III) ##########")
    print(dataset_summary(df).to_string(index=False))

    t0 = time.time()
    mined = mine_all_regions(df, args.min_support).cache()
    print(f"\n[mine] {mined.count()} frequent patterns in {time.time()-t0:.0f}s")

    print("\n########## T1: Table I ##########")
    t1 = table1(df, min_support=args.min_support)
    print(t1.to_string(index=False))
    print()
    print(format_table1(t1))

    print("\n########## T2: elbow / Fig 1 ##########")
    er = elbow(df, mined=mined)
    print(er.curve.to_string(index=False))
    print(
        f"knee_strength={er.knee_strength} at k={er.knee_k}; sharp elbow: "
        f"{er.has_sharp_elbow}"
    )

    print("\n########## T3: FIHC vs geography (Figs 2-4 vs 6) ##########")
    fr = fihc(df, mined=mined)
    print(fr.geo_scores.to_string(index=False))
    for metric in fr.trees:
        print(f"probes[{metric}]: {fr.probes[metric]}")

    print("\n########## T4: authenticity vs geography (Fig 5 vs 6) ##########")
    ar = authenticity_clustering(df)
    print(ar.geo_scores.to_string(index=False))
    print("probes:", ar.probes)
    print("top authentic ingredients per cuisine:")
    tops = top_authentic_items(ar.matrix, ar.items, k=3)
    print(tops[tops["side"] == "most"].to_string(index=False))

    # Fig 6 read as the great-circle distances themselves rather than as
    # the tree built from them; kept out of geo_scores and its pins.
    D = geo_distances()
    corr = {
        name: cophenetic_correlation(cophenetic(Z), D)
        for name, Z in {**fr.trees, "authenticity": ar.tree}.items()
    }
    print(
        "cophenetic corr vs geo distances: "
        + ", ".join(f"{name}={r:.4f}" for name, r in corr.items())
    )

    print("\n########## trees ##########")
    geo = geo_tree()
    print("--- geographic reference (Fig 6) ---")
    print(ascii_dendrogram(geo, REGIONS))
    print("newick:", to_newick(geo, REGIONS))
    for metric, Z in fr.trees.items():
        print(f"--- FIHC {metric} (Figs 2-4) ---")
        print(ascii_dendrogram(Z, REGIONS))
        print("newick:", to_newick(Z, REGIONS))
    print("--- authenticity (Fig 5) ---")
    print(ascii_dendrogram(ar.tree, REGIONS))
    print("newick:", to_newick(ar.tree, REGIONS))
    spark.stop()


if __name__ == "__main__":
    main()
